import dataclasses
import json
import warnings

import numpy as np
import pytest

from liftguard import (
    DiscretePlant,
    discretize,
    run_dual_rate,
    run_single_rate,
    ss_response,
    standard_loop,
)
from liftguard.attack import (
    AttackPlan,
    plan_from_dict,
    plan_to_dict,
    ramp_sequence,
    synth_actuator_attack,
    synth_coordinated_attack,
    synth_fat_masking,
    synth_sensor_attack,
)
from liftguard.errors import CapabilityError, DimensionError, NumericError

from helpers import double_integrator, stable_two_state, triple_integrator, unstable_scalar


def make_coordinated_plan(d_a, d_s, horizon):
    return AttackPlan(
        kind="coordinated",
        zeta=1.0,
        direction=[1.0],
        epsilon=1.0,
        horizon=horizon,
        channel_map=(0,),
        companion={"d_a": np.asarray(d_a), "d_s": np.asarray(d_s)},
    )


@pytest.fixture(scope="module")
def loop_and_plan():
    cfg, factors = standard_loop(triple_integrator(), 1.0, theta=0.01, horizon=200)
    plan = synth_actuator_attack(cfg)
    return cfg, plan


class TestActuatorSynthesis:
    def test_rides_the_outermost_zero(self, loop_and_plan):
        _, plan = loop_and_plan
        assert abs(plan.zeta - (-2.0 - np.sqrt(3.0))) <= 1e-6

    def test_stealthy_with_margin(self, loop_and_plan):
        cfg, plan = loop_and_plan
        trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        assert trace.verdict.stealthy
        assert np.max(trace.monitor) <= cfg.theta / 2.0

    def test_unboundedness_certificate(self, loop_and_plan):
        cfg, plan = loop_and_plan
        trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        d = np.abs(trace.d_a[:, 0])
        assert d[-1] >= 1e3 * d[0]

    def test_perturbed_mode_detected(self, loop_and_plan):
        cfg, plan = loop_and_plan
        bad = dataclasses.replace(plan, zeta=plan.zeta * 1.1)
        trace = run_single_rate(dataclasses.replace(cfg, attack=bad, horizon=plan.horizon))
        assert trace.verdict.detected

    def test_scaling_linearity_and_margin(self, loop_and_plan):
        cfg, plan = loop_and_plan
        run = lambda p: run_single_rate(dataclasses.replace(cfg, attack=p, horizon=plan.horizon))
        peak1 = np.max(run(plan).monitor)
        peak2 = np.max(run(dataclasses.replace(plan, epsilon=plan.epsilon * 2.0)).monitor)
        assert abs(peak2 / peak1 - 2.0) <= 1e-6
        assert peak1 <= cfg.theta / 2.0

    def test_double_integrator_not_vulnerable(self):
        cfg, _ = standard_loop(double_integrator(), 1.0, theta=0.01, horizon=200)
        with pytest.raises(CapabilityError, match="boundary"):
            synth_actuator_attack(cfg)

    def test_dual_rate_loop_not_vulnerable(self):
        cfg, _ = standard_loop(triple_integrator(), 1.0, mode="dual_rate", m=4, theta=0.01)
        with pytest.raises(CapabilityError):
            synth_actuator_attack(cfg)

    def test_replay_against_dual_rate_detected(self, loop_and_plan):
        _, plan = loop_and_plan
        dcfg, _ = standard_loop(
            triple_integrator(), 1.0, mode="dual_rate", m=4, theta=0.01, horizon=plan.horizon
        )
        trace = run_dual_rate(dataclasses.replace(dcfg, attack=plan))
        assert trace.verdict.detected
        assert trace.verdict.step < plan.horizon * 4


class TestSensorSynthesis:
    def test_unstable_plant_stealthy(self):
        cfg, factors = standard_loop(unstable_scalar(), 1.0, theta=0.01, horizon=200)
        plan = synth_sensor_attack(cfg, factors=factors)
        assert abs(plan.zeta - 2.0) <= 1e-9
        trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        assert trace.verdict.stealthy
        assert np.max(trace.monitor) <= cfg.theta / 2.0
        d = np.abs(trace.d_s[:, 0])
        assert d[-1] >= 1e3 * d[0]

    def test_stable_plant_not_vulnerable(self):
        cfg, factors = standard_loop(stable_two_state(), 0.5, theta=0.01)
        with pytest.raises(CapabilityError, match="stable"):
            synth_sensor_attack(cfg, factors=factors)

    def test_simple_boundary_pole_not_vulnerable(self):
        from liftguard import ContinuousPlant

        integ = ContinuousPlant(Ac=[[0.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        cfg, factors = standard_loop(integ, 1.0, theta=0.01)
        with pytest.raises(CapabilityError, match="boundary"):
            synth_sensor_attack(cfg, factors=factors)


    @pytest.mark.parametrize("m", [2, 3])
    def test_dual_rate_plan_rides_the_lifted_pole(self, m):
        # the plan lives on the m stacked outputs of a base step and grows
        # by the lifted pole once per base step
        cfg, factors = standard_loop(unstable_scalar(), 1.0, mode="dual_rate", m=m, theta=0.01)
        plan = synth_sensor_attack(cfg, factors=factors)
        assert abs(plan.zeta - 2.0) <= 1e-9 and len(plan.direction) == m
        trace = run_dual_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        assert trace.verdict.stealthy
        assert np.max(trace.monitor) <= cfg.theta / 2.0
        stacked = trace.d_s.reshape(plan.horizon, m)
        np.testing.assert_allclose(stacked[1], plan.zeta.real * stacked[0], rtol=1e-12)
        assert abs(trace.d_s[-1, 0]) >= 1e3 * abs(trace.d_s[0, 0])


def test_calibration_builds_no_sampled_system(monkeypatch):
    # standard_loop builds each loop's system once; synthesis and every
    # calibration run read it from the configuration
    from liftguard import attack, lift, model, sim

    loops = [
        (standard_loop(triple_integrator(), 1.0)[0], synth_actuator_attack),
        (standard_loop(triple_integrator(), 1.0, mode="dual_rate")[0], synth_actuator_attack),
        (standard_loop(unstable_scalar(), 1.0)[0], synth_sensor_attack),
        (standard_loop(unstable_scalar(), 1.0, mode="dual_rate")[0], synth_sensor_attack),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled system was built after standard_loop")

    for module in (attack, sim, lift, model):
        for name in ("discretize", "build_lifted"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for cfg, synth in loops:
        if cfg.mode == "dual_rate" and synth is synth_actuator_attack:
            # the lifted triple integrator has no zero to ride
            with pytest.raises(CapabilityError):
                synth(cfg)
            continue
        plan = synth(cfg)
        assert plan.calibration["theta"] == cfg.theta


class TestCoordinatedMasking:
    def test_zero_in_zero_out(self):
        P = discretize(stable_two_state(), 0.5)
        d_a, d_s = synth_coordinated_attack(P, np.zeros((20, 1)))
        assert not np.any(d_s)

    def test_ramp_masked_on_stable_plant(self):
        cfg, _ = standard_loop(stable_two_state(), 0.5, theta=0.01, horizon=500)
        P = discretize(stable_two_state(), 0.5)
        d_a, d_s = synth_coordinated_attack(P, np.arange(500, dtype=float))
        plan = make_coordinated_plan(d_a, d_s, 500)
        attacked = run_single_rate(dataclasses.replace(cfg, attack=plan))
        free = run_single_rate(cfg)
        assert np.max(np.abs(attacked.y - free.y)) <= 1e-10

    def test_masking_works_on_unstable_minimum_phase_plant(self):
        # masking needs neither unstable zeros nor stable dynamics
        cfg, _ = standard_loop(triple_integrator(), 1.0, theta=0.01, horizon=60)
        P = discretize(triple_integrator(), 1.0)
        d_a, d_s = synth_coordinated_attack(P, np.arange(60, dtype=float))
        plan = make_coordinated_plan(d_a, d_s, 60)
        attacked = run_single_rate(dataclasses.replace(cfg, attack=plan))
        free = run_single_rate(cfg)
        assert np.max(np.abs(attacked.y - free.y)) <= 1e-8


class TestFatMasking:
    def _fat_plant(self, d2=1.1):
        A = np.array([[0.3, 0.1], [0.0, -0.2]])
        return DiscretePlant(
            A=A, B=[[1.0, 0.2], [0.0, 1.0]], C=[[0.5, 0.3]], D=[[0.7, d2]], period=1.0
        )

    def test_identical_channels_negate(self):
        A = np.array([[0.3, 0.1], [0.0, -0.2]])
        b = np.array([[1.0], [0.4]])
        sys = DiscretePlant(A=A, B=np.hstack([b, b]), C=[[0.5, 0.3]], D=[[1.0, 1.0]], period=1.0)
        d1 = 1.05 ** np.arange(100)
        u1, u2 = synth_fat_masking(sys, d1)
        np.testing.assert_allclose(u2, -u1, atol=1e-12)

    def test_zero_in_zero_out(self):
        u1, u2 = synth_fat_masking(self._fat_plant(), np.zeros(30))
        assert not np.any(u2)

    def test_biproper_masking(self):
        sys = self._fat_plant()
        d1 = 1.05 ** np.arange(100)
        u1, u2 = synth_fat_masking(sys, d1)
        y = ss_response(sys, np.column_stack([u1, u2]))
        assert np.max(np.abs(y)) <= 1e-8

    def test_strictly_proper_channel_delays_signal(self):
        sys = self._fat_plant(d2=0.0)
        d1 = 1.05 ** np.arange(80)
        u1, u2 = synth_fat_masking(sys, d1)
        assert u1[0] == 0.0
        np.testing.assert_allclose(u1[1:], d1[:-1])
        y = ss_response(sys, np.column_stack([u1, u2]))
        assert np.max(np.abs(y)) <= 1e-8

    def test_relative_degree_two_channel(self):
        # channel two reaches the output only through A: C B2 = 0, C A B2 = 0.1
        sys = DiscretePlant(
            A=[[0.3, 0.1], [0.0, -0.2]], B=np.eye(2), C=[[1.0, 0.0]], D=[[0.7, 0.0]], period=1.0
        )
        d1 = 1.05 ** np.arange(80)
        u1, u2 = synth_fat_masking(sys, d1)
        assert not np.any(u1[:2])
        np.testing.assert_array_equal(u1[2:], d1[:-2])
        y = ss_response(sys, np.column_stack([u1, u2]))
        assert np.max(np.abs(y)) <= 1e-8

    @pytest.mark.parametrize(
        "case, step",
        [("unstable_inverse", 751), ("small_feedthrough", 187)],
    )
    def test_inverse_overflow_is_an_error_at_its_step(self, case, step):
        if case == "unstable_inverse":
            sys = DiscretePlant(
                A=np.diag([0.5, 0.2]), B=[[1.0, 1.0], [1.0, -0.9]], C=[[1.0, 1.0]],
                D=[[0.0, 0.0]], period=1.0,
            )
            d1 = np.ones(3000)
        else:
            sys, d1 = self._fat_plant(d2=0.01), 1.05 ** np.arange(400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"overflowed at step {step};"):
                synth_fat_masking(sys, d1)

    @pytest.mark.parametrize("d2", [1.1, 0.0])
    def test_empty_signal_rejected(self, d2):
        with pytest.raises(DimensionError, match="non-empty"):
            synth_fat_masking(self._fat_plant(d2=d2), np.zeros(0))

    def test_dead_channel_rejected(self):
        A = np.array([[0.3, 0.1], [0.0, -0.2]])
        sys = DiscretePlant(
            A=A, B=[[1.0, 0.0], [0.0, 0.0]], C=[[0.5, 0.3]], D=[[0.7, 0.0]], period=1.0
        )
        with pytest.raises(CapabilityError):
            synth_fat_masking(sys, np.ones(10))


class TestRampAttack:
    def test_double_boundary_zero_admits_polynomial_attack(self):
        # plant (z-1)^2/z^2: a ramp input produces a single bounded impulse
        # at step one (FIR oracle), so the unbounded ramp stays stealthy.
        sys = DiscretePlant(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[-3.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]], period=1.0
        )
        eps = 1e-3
        d_a = ramp_sequence([1.0], eps, 1500)
        y = ss_response(sys, d_a)
        expected = np.zeros((1500, 1))
        expected[1, 0] = eps
        np.testing.assert_allclose(y, expected, atol=1e-12)
        assert abs(d_a[-1, 0]) >= 1e3 * abs(d_a[1, 0])


class TestPlanSerialization:
    def test_round_trip(self):
        cfg, _ = standard_loop(triple_integrator(), 1.0, theta=0.01)
        plan = synth_actuator_attack(cfg)
        doc = plan_to_dict(plan)
        clone = plan_from_dict(json.loads(json.dumps(doc)))
        assert clone.kind == plan.kind
        assert clone.zeta == plan.zeta
        assert clone.epsilon == plan.epsilon
        np.testing.assert_array_equal(clone.direction, plan.direction)

    def test_sequence_plan_round_trip(self):
        plan = make_coordinated_plan(np.ones((5, 1)), -np.ones((5, 1)), 5)
        clone = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        np.testing.assert_array_equal(clone.companion["d_a"], plan.companion["d_a"])
