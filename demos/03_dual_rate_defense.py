#!/usr/bin/env python3
"""Removing the vulnerability by sampling the output faster than the hold.

Keeping the hold period at T but sampling the output m times per period
yields, after lifting the stacked samples into one block signal, a
time-invariant system whose zeros all sit inside the closed unit disc --
except possibly a harmless simple one at frequency one.  The attack that
sailed past the single-rate monitor is then caught.
"""

import dataclasses

from liftguard import (
    ContinuousPlant,
    build_lifted,
    check_assumptions,
    choose_m,
    discretize,
    run_dual_rate,
    standard_loop,
    transmission_zeros,
)
from liftguard.attack import synth_actuator_attack
from liftguard.errors import CapabilityError
from liftguard.zeros import _multiple_at

THETA = 0.01

plant = ContinuousPlant(
    A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    B=[[0], [0], [1]],
    C=[[1, 0, 0]],
    D=[[0]],
    name="triple-integrator",
)

# =============================================================================
# Choose the sub-sampling factor.  Two rank conditions must hold: the fast
# input matrix keeps full column rank, and the stack of the first m-1
# output maps reaches full column rank.  For an observable plant m = n+1
# always works; the search returns the smallest admissible value.

m = choose_m(plant, T=1.0)
print(f"smallest admissible sub-sampling factor: m = {m}")

L = build_lifted(plant, T=1.0, m=m)
assumptions = check_assumptions(L)
print(f"input-rank assumption : {assumptions.b_full_rank}")
print(f"output-stack assumption: {assumptions.obs_full_rank}"
      f" (smallest kept singular value gap: {assumptions.obs_rank.gap:.2e})")
assert assumptions.satisfied

# =============================================================================
# The lifted zero picture: nothing strictly outside the unit circle, and a
# null-chain test at z = 1 certifies that any zero at frequency one is
# simple.  Both run on the one pencil that decides the lifted system's zero
# questions: its delta-form small pencil, since the output stack has full
# column rank.

report = transmission_zeros(L)
outside = [r.z_value for r in report.zeros
           if r.z_value is not None and abs(r.z_value) > 1 + 1e-7]
print(f"\nlifted zeros outside the unit circle: {outside or 'none'}")
assert not outside

at_one = _multiple_at(L, 1.0)
print(f"multiplicity at frequency one: {at_one}")
assert at_one != "multiple"

# =============================================================================
# Direct consequence: the attack synthesizer has nothing to ride.  The
# dual-rate loop is the loop built on the lifted system L.

dual_cfg = standard_loop(L, theta=THETA, horizon=200)
try:
    synth_actuator_attack(dual_cfg)
    raise AssertionError("synthesis should have failed")
except CapabilityError as exc:
    print(f"\ndual-rate synthesis refused: {exc}")

# =============================================================================
# Replay: take the stealthy single-rate plan and run it against the
# dual-rate loop on the same plant.  The faster output sampling sees the
# intersample motion the single-rate monitor was blind to.

single_cfg = standard_loop(discretize(plant, T=1.0), theta=THETA, horizon=200)
plan = synth_actuator_attack(single_cfg)
trace = run_dual_rate(dataclasses.replace(dual_cfg, attack=plan, horizon=plan.horizon))
step = trace.verdict.step
print(f"\nreplayed single-rate plan against the dual-rate loop:")
print(f"  detected = {trace.verdict.detected} at sub-sample {step} "
      f"(= base step {step // m}, horizon {plan.horizon})")
assert trace.verdict.detected

print("\nSame plant, same hold rate, same attack -- the only change is m "
      f"output samples per period, and the attack is caught with "
      f"{plan.horizon - step // m} steps to spare.")
