#!/usr/bin/env python3
"""Synthesizing and watching a stealthy actuator attack.

The attack rides the sampling zero of the previous demo: the injected
signal is a geometric mode at the zero location, so the closed loop's
monitored signals stay below the detection threshold while the injection
itself grows without bound.  A detuned copy of the same attack is caught
almost immediately.
"""

import dataclasses

import numpy as np

from liftguard import ContinuousPlant, discretize, run_single_rate, standard_loop, trace_to_csv
from liftguard.attack import synth_actuator_attack

THETA = 0.01  # detection threshold of the monitor

# =============================================================================
# Build the loop on the plant sampled with a zero-order hold at T = 1:
# observer-based controller from Riccati gains, threshold monitor
# watching [y; u].

plant = ContinuousPlant(
    A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    B=[[0], [0], [1]],
    C=[[1, 0, 0]],
    D=[[0]],
    name="triple-integrator",
)
cfg = standard_loop(discretize(plant, T=1.0), theta=THETA, horizon=200)

# =============================================================================
# Synthesize.  The amplitude is calibrated by simulation so the monitor
# peaks just under half the threshold, in (7/8, 1] of it.

plan = synth_actuator_attack(cfg)
print(f"attack kind      : {plan.kind}")
print(f"growth ratio     : {plan.zeta.real:.6f} per step")
print(f"amplitude        : {plan.epsilon:.3e}")
print(f"horizon          : {plan.horizon} steps")
print(f"calibrated peak  : {plan.calibration['empirical_peak'] * plan.epsilon:.3e}"
      f"  (threshold {THETA})")

# =============================================================================
# Run it.  Stealthy: the monitor never crosses even though the injected
# signal ends more than one hundred orders of magnitude above where it
# started.

trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
growth = abs(trace.d_a[-1, 0]) / abs(trace.d_a[0, 0])
print(f"\nverdict          : {'stealthy' if trace.verdict.stealthy else 'detected'}")
print(f"max monitor value: {np.max(trace.monitor):.4e}  (theta/2 = {THETA/2})")
print(f"injected growth  : {growth:.3e}x over the horizon")
assert trace.verdict.stealthy
assert np.max(trace.monitor) <= THETA / 2

trace_to_csv(trace, "stealthy_attack_trace.csv")
print("full trace written to stealthy_attack_trace.csv")

# =============================================================================
# The attack only works exactly on the zero.  Perturb its mode by ten
# percent and the loop flags it long before the horizon.

detuned = dataclasses.replace(plan, zeta=plan.zeta * 1.1)
trace_bad = run_single_rate(dataclasses.replace(cfg, attack=detuned, horizon=plan.horizon))
print(f"\ndetuned attack   : detected = {trace_bad.verdict.detected} "
      f"at step {trace_bad.verdict.step}")
assert trace_bad.verdict.detected
