#!/usr/bin/env python3
"""The other attack channels: sensors, coordination, and fat plants.

Three separate mechanisms beyond the actuator-zero attack:

* an unstable pole lets a sensor attack grow while the loop absorbs it,
* coordinated actuator+sensor injection grows unboundedly on any plant
  and stays stealthy even at dual rate,
* with more inputs than outputs the plant's pencil has a null vector at
  every point, so `synth_actuator_attack` rides a free growth ratio
  (`FREE_ZETA`) along it: stealthy at single rate, detected at dual rate.
"""

import dataclasses

import numpy as np

from liftguard import (
    ContinuousPlant,
    build_lifted,
    discretize,
    run_dual_rate,
    run_single_rate,
    standard_loop,
)
from liftguard.attack import (
    synth_actuator_attack,
    synth_coordinated_attack,
    synth_sensor_attack,
)
from liftguard.errors import CapabilityError

THETA = 0.01

# =============================================================================
# Sensor attack: needs an unstable pole.  The controller chases the faked
# measurement, steering the true output to cancel it; both stay small
# while the injection explodes.

unstable = ContinuousPlant(
    A=[[np.log(2.0)]], B=[[1.0]], C=[[1.0]], D=[[0.0]], name="pole-at-2"
)
cfg = standard_loop(discretize(unstable, T=1.0), theta=THETA, horizon=200)
plan = synth_sensor_attack(cfg)
trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
print(f"sensor attack on {unstable.name}: ratio {plan.zeta.real:.1f} per step")
print(f"  verdict: {'stealthy' if trace.verdict.stealthy else 'detected'}, "
      f"monitor peak {np.max(trace.monitor):.4e}, "
      f"injection grew {abs(trace.d_s[-1,0])/abs(trace.d_s[0,0]):.2e}x")
assert trace.verdict.stealthy

# A stable plant offers no such channel.
stable = ContinuousPlant(
    A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0], [0.5]], C=[[1.0, 0.2]], D=[[0.0]],
    name="stable-2",
)
P = discretize(stable, T=0.5)
scfg = standard_loop(P, theta=THETA)
try:
    synth_sensor_attack(scfg)
except CapabilityError as exc:
    print(f"  stable plant: {exc}")

# =============================================================================
# Coordinated attack: every actuator and every sensor is compromised.  The
# pencil [zI - A, -B, 0; C, D, I] has a null vector at every point, so the
# plan rides FREE_ZETA on any plant, stable or not: its sensor part cancels
# at the output what its actuator part does.  In the dual-rate loop the
# sensor part covers all m samples of a base step, so lifting does not help:
# the paper's reason for keeping one sensor secure.

for name, system, run in (
    ("single rate", P, run_single_rate),
    ("dual rate", build_lifted(stable, T=0.5), run_dual_rate),
):
    ccfg = standard_loop(system, theta=THETA)
    cplan = synth_coordinated_attack(ccfg)
    masked = run(dataclasses.replace(ccfg, attack=cplan, horizon=cplan.horizon))
    grew = np.max(np.abs(masked.d_a[-1])) / np.max(np.abs(masked.d_a[0]))
    print(f"\ncoordinated plan on {stable.name}, {name}: ratio {cplan.zeta.real:.1f} per step, "
          f"actuator injection grew {grew:.2e}x")
    print(f"  verdict: {'stealthy' if masked.verdict.stealthy else 'detected'}, "
          f"monitor peak {np.max(masked.monitor):.4e}")
    assert masked.verdict.stealthy and grew >= 1e3

# =============================================================================
# Fat plant: two inputs, one output.  The pencil [zI - A, -B; C, D] has
# more columns than rows, so at any growth ratio it has a null vector
# (xi, nu): the input nu * zeta^k keeps the output at zero from state xi.
# The plan rides FREE_ZETA = 1.1 along nu; from zero state the transient
# is damped by the loop.  The dual-rate loop sees it.

fat = ContinuousPlant(
    A=[[-0.4, 0.2], [0.1, -0.8]], B=[[1.0, 0.3], [0.2, 1.0]], C=[[1.0, 0.5]],
    D=[[0.0, 0.0]], name="fat-plant",
)
fcfg = standard_loop(discretize(fat, T=0.5), theta=THETA)
fplan = synth_actuator_attack(fcfg)
single = run_single_rate(dataclasses.replace(fcfg, attack=fplan, horizon=fplan.horizon))
dcfg = standard_loop(build_lifted(fat, T=0.5), theta=THETA, horizon=fplan.horizon)
dual = run_dual_rate(dataclasses.replace(dcfg, attack=fplan))
grew = np.max(np.abs(single.d_a[-1])) / np.max(np.abs(single.d_a[0]))
print(f"\nfat-plant plan: ratio {fplan.zeta.real:.1f} per step along "
      f"{np.round(fplan.direction.real, 3)}, injection grew {grew:.2e}x")
print(f"  single rate: {'stealthy' if single.verdict.stealthy else 'detected'}, "
      f"monitor peak {np.max(single.monitor):.4e}")
print(f"  dual rate (m={dcfg.m}): detected at sample {dual.verdict.step}")
assert single.verdict.stealthy and dual.verdict.detected

print("\nConclusion: secure at least one output channel and keep the plant "
      "observable from it, or coordination makes detection hopeless.")
