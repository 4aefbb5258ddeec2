import dataclasses
import json

import numpy as np
import pytest

from liftguard import (
    DiscretePlant,
    build_lifted,
    classify_vulnerability,
    coprime_factorize,
    discretize,
    load_plant,
    observer_controller,
    run_dual_rate,
    run_single_rate,
    standard_loop,
    transmission_zeros,
)
from liftguard.attack import (
    FREE_ZETA,
    AttackPlan,
    geometric_sequence,
    plan_from_dict,
    plan_to_dict,
    synth_actuator_attack,
    synth_coordinated_attack,
    synth_sensor_attack,
)
from liftguard.errors import CapabilityError, DimensionError, NumericError
from liftguard.sim import LoopConfig

from helpers import (
    Injector,
    bench_module,
    double_integrator,
    light_oscillator,
    reference_sensor_direction,
    ss_response,
    stable_two_state,
    triple_integrator,
    unstable_scalar,
)


def population(shape, count):
    """The first ``count`` plants of ``shape`` that the benchmark's
    ``random_plant`` draws from ``default_rng([0, 7])``."""
    random_plant = bench_module("workloads").random_plant
    rng = np.random.default_rng([0, 7])
    return [load_plant(random_plant(rng, shape))[0] for _ in range(count)]


@pytest.fixture(scope="module")
def loop_and_plan():
    plant = triple_integrator()
    cfg = standard_loop(discretize(plant, 1.0), theta=0.01, horizon=200)
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
        plant = double_integrator()
        cfg = standard_loop(discretize(plant, 1.0), theta=0.01, horizon=200)
        with pytest.raises(CapabilityError, match="boundary"):
            synth_actuator_attack(cfg)

    def test_dual_rate_loop_not_vulnerable(self):
        plant = triple_integrator()
        cfg = standard_loop(build_lifted(plant, 1.0, 4), theta=0.01)
        with pytest.raises(CapabilityError):
            synth_actuator_attack(cfg)

    def test_replay_against_dual_rate_detected(self, loop_and_plan):
        _, plan = loop_and_plan
        plant = triple_integrator()
        dcfg = standard_loop(build_lifted(plant, 1.0, 4), theta=0.01, horizon=plan.horizon)
        trace = run_dual_rate(dataclasses.replace(dcfg, attack=plan))
        assert trace.verdict.detected
        assert trace.verdict.step < plan.horizon * 4


class TestSensorSynthesis:
    def test_unstable_plant_stealthy(self):
        plant = unstable_scalar()
        cfg = standard_loop(discretize(plant, 1.0), theta=0.01, horizon=200)
        plan = synth_sensor_attack(cfg)
        assert abs(plan.zeta - 2.0) <= 1e-9
        trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        assert trace.verdict.stealthy
        assert np.max(trace.monitor) <= cfg.theta / 2.0
        d = np.abs(trace.d_s[:, 0])
        assert d[-1] >= 1e3 * d[0]

    def test_stable_plant_not_vulnerable(self):
        plant = stable_two_state()
        cfg = standard_loop(discretize(plant, 0.5), theta=0.01)
        with pytest.raises(CapabilityError, match="stable"):
            synth_sensor_attack(cfg)

    def test_simple_boundary_pole_not_vulnerable(self):
        from liftguard import ContinuousPlant

        integ = ContinuousPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        cfg = standard_loop(discretize(integ, 1.0), theta=0.01)
        with pytest.raises(CapabilityError, match="boundary"):
            synth_sensor_attack(cfg)

    def test_repeated_boundary_poles_are_undecided(self):
        # the verdict classify_vulnerability reports, not "not vulnerable"
        plant = double_integrator()
        P = discretize(plant, 1.0)
        assert classify_vulnerability(transmission_zeros(P), system=P).sensor == "undecided"
        cfg = standard_loop(P, theta=0.01)
        with pytest.raises(CapabilityError, match="undecided") as exc:
            synth_sensor_attack(cfg)
        assert "not vulnerable" not in str(exc.value)

    @pytest.mark.parametrize("m", [None, 2, 3], ids=["single_rate", "m2", "m3"])
    def test_direction_matches_the_left_factor_oracle_on_pole_at_2(self, m):
        plant = unstable_scalar()
        system = discretize(plant, 1.0) if m is None else build_lifted(plant, 1.0, m)
        plan = synth_sensor_attack(standard_loop(system))
        want = reference_sensor_direction(system, plan.zeta)
        assert np.max(np.abs(plan.direction - want)) <= 1e-12

    @pytest.mark.parametrize("shape", ["tall", "square", "fat"])
    def test_direction_matches_the_left_factor_oracle_on_the_population(self, shape):
        # the first plant of each shape has an unstable pole at T = 1
        plant = population(shape, 1)[0]
        for system in (discretize(plant, 1.0), build_lifted(plant, 1.0)):
            plan = synth_sensor_attack(standard_loop(system))
            want = reference_sensor_direction(system, plan.zeta)
            assert np.max(np.abs(plan.direction - want)) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_dual_rate_plan_rides_the_lifted_pole(self, m):
        # the plan lives on the m stacked outputs of a base step and grows
        # by the lifted pole once per base step
        plant = unstable_scalar()
        cfg = standard_loop(build_lifted(plant, 1.0, m), theta=0.01)
        plan = synth_sensor_attack(cfg)
        assert abs(plan.zeta - 2.0) <= 1e-9 and len(plan.direction) == m
        trace = run_dual_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        assert trace.verdict.stealthy
        assert np.max(trace.monitor) <= cfg.theta / 2.0
        stacked = trace.d_s.reshape(plan.horizon, m)
        np.testing.assert_allclose(stacked[1], plan.zeta.real * stacked[0], rtol=1e-12)
        assert abs(trace.d_s[-1, 0]) >= 1e3 * abs(trace.d_s[0, 0])


def test_calibration_builds_no_sampled_system(monkeypatch):
    # each loop's sampled system is built once, before standard_loop;
    # synthesis and every calibration run read it from the configuration
    from liftguard import attack, lift, model, sim

    tri, pole2 = triple_integrator(), unstable_scalar()
    loops = [
        (standard_loop(discretize(tri, 1.0)), synth_actuator_attack),
        (standard_loop(build_lifted(tri, 1.0)), synth_actuator_attack),
        (standard_loop(discretize(pole2, 1.0)), synth_sensor_attack),
        (standard_loop(build_lifted(pole2, 1.0)), synth_sensor_attack),
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


def _counted_runs(monkeypatch):
    """Peaks of the closed-loop runs ``attack._run`` makes from now on."""
    from liftguard import attack

    peaks = []
    run = attack._run

    def counted(cfg):
        trace = run(cfg)
        peaks.append(float(np.max(trace.monitor)))
        return trace

    monkeypatch.setattr(attack, "_run", counted)
    return peaks


def _stub_runs(monkeypatch, peak_of):
    """Replace the closed-loop run by ``peak_of(epsilon)``; returns the
    amplitudes it was called with."""
    from types import SimpleNamespace

    from liftguard import attack

    calls = []

    def stub(cfg):
        calls.append(cfg.attack.epsilon)
        return SimpleNamespace(monitor=np.array([peak_of(cfg.attack.epsilon)]))

    monkeypatch.setattr(attack, "_run", stub)
    return calls


class TestCalibration:
    @pytest.mark.parametrize(
        "plant, system, synth",
        [
            (triple_integrator, lambda p: discretize(p, 1.0), synth_actuator_attack),
            (triple_integrator, lambda p: discretize(p, 0.01), synth_actuator_attack),
            (unstable_scalar, lambda p: discretize(p, 1.0), synth_sensor_attack),
            (unstable_scalar, lambda p: build_lifted(p, 1.0, 2), synth_sensor_attack),
        ],
        ids=["triple_T1", "triple_T0.01", "pole2_single_rate", "pole2_dual_rate_m2"],
    )
    def test_probe_and_one_run_land_in_the_band(self, monkeypatch, plant, system, synth):
        # the run aimed at the band's centre is the last: the rounding
        # floor moves these peaks by well under the band's 1/16 half-width
        p = plant()
        cfg = standard_loop(system(p), theta=0.01)
        peaks = _counted_runs(monkeypatch)
        plan = synth(cfg)
        target = cfg.theta / 2.0
        assert len(peaks) == 2
        assert 7.0 / 8.0 * target < peaks[-1] <= target
        assert plan.calibration["empirical_peak"] * plan.epsilon == pytest.approx(peaks[-1])

    @pytest.fixture
    def triple_loop(self):
        p = triple_integrator()
        return standard_loop(discretize(p, 1.0), theta=0.01)

    def test_run_off_its_aim_is_corrected_to_the_centre(self, monkeypatch, triple_loop):
        # past the probe every run peaks 1.1 times its linear prediction,
        # above the band; the correction aims from that run's own peak
        calls = _stub_runs(monkeypatch, lambda eps: 3.0 * eps * (1.0 if eps == 1.0 else 1.1))
        plan = synth_actuator_attack(triple_loop)
        target = triple_loop.theta / 2.0
        delivered = plan.calibration["empirical_peak"] * plan.epsilon
        assert len(calls) == 3
        assert 7.0 / 8.0 * target < delivered <= target
        assert delivered == pytest.approx(15.0 / 16.0 * target, rel=1e-12)

    def test_peak_that_never_settles_is_an_error(self, monkeypatch, triple_loop):
        target = triple_loop.theta / 2.0
        calls = _stub_runs(monkeypatch, lambda eps: 3.0 if eps == 1.0 else 2.0 * target)
        with pytest.raises(NumericError, match="did not settle"):
            synth_actuator_attack(triple_loop)
        assert len(calls) == 1 + 1 + 8  # probe, aimed run, 8 corrections


class TestCoordinatedMasking:
    # the sensor injection d_s = -P d_a from zero state cancels an
    # arbitrary actuator injection at the output

    def test_ramp_masked_on_stable_plant(self):
        plant = stable_two_state()
        P = discretize(plant, 0.5)
        cfg = standard_loop(P, theta=0.01, horizon=500)
        d_a = np.arange(500, dtype=float).reshape(-1, 1)
        masked = Injector(d_a, -ss_response(P, d_a))
        attacked = run_single_rate(dataclasses.replace(cfg, attack=masked))
        free = run_single_rate(cfg)
        assert np.max(np.abs(attacked.y - free.y)) <= 1e-10

    def test_masking_works_on_unstable_minimum_phase_plant(self):
        # masking needs neither unstable zeros nor stable dynamics
        plant = triple_integrator()
        P = discretize(plant, 1.0)
        cfg = standard_loop(P, theta=0.01, horizon=60)
        d_a = np.arange(60, dtype=float).reshape(-1, 1)
        masked = Injector(d_a, -ss_response(P, d_a))
        attacked = run_single_rate(dataclasses.replace(cfg, attack=masked))
        free = run_single_rate(cfg)
        assert np.max(np.abs(attacked.y - free.y)) <= 1e-8


FIXED_PLANTS = [triple_integrator, stable_two_state, unstable_scalar, light_oscillator,
                double_integrator]


class TestCoordinatedPlan:
    @pytest.mark.parametrize("T", [1.0, 0.1])
    @pytest.mark.parametrize(
        "plants",
        [lambda: [make() for make in FIXED_PLANTS]]
        + [lambda shape=shape: population(shape, 5) for shape in ("tall", "square", "fat")],
        ids=["fixed", "tall", "square", "fat"],
    )
    def test_stealthy_at_both_rates(self, plants, T):
        # every actuator and every sensor attacked: the plan rides FREE_ZETA
        # and stays stealthy in the dual-rate loop too
        for plant in plants():
            for system, run in ((discretize(plant, T), run_single_rate),
                                (build_lifted(plant, T), run_dual_rate)):
                cfg = standard_loop(system, theta=0.01)
                plan = synth_coordinated_attack(cfg)
                assert plan.kind == "coordinated" and plan.zeta == FREE_ZETA
                assert plan.channel_map == tuple(range(plant.n_u))
                assert len(plan.direction) == system.n_u + system.n_y
                trace = run(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
                assert trace.verdict.stealthy
                assert np.max(trace.monitor) <= cfg.theta / 2.0
                assert np.max(np.abs(trace.d_a[-1])) >= 1e3 * np.max(np.abs(trace.d_a[0]))
                assert np.max(np.abs(trace.d_s[-1])) >= 1e3 * np.max(np.abs(trace.d_s[0]))

    def test_round_trip(self):
        plant = triple_integrator()
        cfg = standard_loop(build_lifted(plant, 1.0), theta=0.01)
        plan = synth_coordinated_attack(cfg)
        doc = json.loads(json.dumps(plan_to_dict(plan)))
        assert "companion" not in doc
        clone = plan_from_dict(doc)
        assert (clone.kind, clone.zeta, clone.epsilon, clone.channel_map) == (
            plan.kind, plan.zeta, plan.epsilon, plan.channel_map
        )
        np.testing.assert_array_equal(clone.direction, plan.direction)
        for n_steps in (1, 7):
            for got, want in zip(clone.render(n_steps, 1, 1, 4), plan.render(n_steps, 1, 1, 4)):
                np.testing.assert_array_equal(got, want)


class TestFatPlantPlan:
    @pytest.fixture(scope="class")
    def fat_plants(self):
        return population("fat", 10)

    @pytest.mark.parametrize("T", [1.0, 0.5, 0.1])
    def test_every_fat_yes_gets_a_plan(self, fat_plants, T):
        # the first 10 fat plants of the population: the plan rides
        # FREE_ZETA along the pencil's null vector, replays stealthy in the
        # loop it was made for and is detected in the dual-rate loop at the
        # automatic m
        for plant in fat_plants:
            P = discretize(plant, T)
            verdict = classify_vulnerability(transmission_zeros(P), system=P)
            assert (verdict.actuator, verdict.actuator_mechanism) == ("yes", "fat_plant")
            cfg = standard_loop(P, theta=0.01)
            plan = synth_actuator_attack(cfg)
            assert plan.kind == "actuator_zero" and plan.zeta == FREE_ZETA
            assert len(plan.direction) == plant.n_u
            trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
            assert trace.verdict.stealthy
            assert np.max(trace.monitor) <= cfg.theta / 2.0
            assert np.max(np.abs(trace.d_a[-1])) >= 1e3 * np.max(np.abs(trace.d_a[0]))
            dcfg = standard_loop(build_lifted(plant, T), horizon=plan.horizon)
            assert run_dual_rate(dataclasses.replace(dcfg, attack=plan)).verdict.detected

    def test_direction_is_a_null_vector_of_the_plain_pencil(self, fat_plants):
        # (xi, nu) with (zeta I - A) xi = B nu and C xi + D nu = 0 keeps the
        # output at zero from state xi under the input nu zeta^k; the null
        # vector comes from the reciprocal-form pencil, rescaled to this form
        from liftguard.zeros import _normalize_direction, _null_directions

        for plant in fat_plants:
            P = discretize(plant, 1.0)
            xi, nu = _null_directions(P, [FREE_ZETA])[0]
            direction = _normalize_direction(xi, nu)
            # the direction is nu rescaled: rescale xi with it
            k = int(np.argmax(np.abs(nu)))
            xi, nu = xi * (direction[k] / nu[k]), direction
            state = (FREE_ZETA * np.eye(P.n) - P.A) @ xi - P.B @ nu
            output = P.C @ xi + P.D @ nu
            scale = max(1.0, np.max(np.abs(xi)))
            assert np.max(np.abs(np.concatenate([state, output]))) <= 1e-12 * scale


class TestRampAttack:
    def test_double_boundary_zero_admits_polynomial_attack(self):
        # plant (z-1)^2/z^2: a ramp input produces a single bounded impulse
        # at step one (FIR oracle), so the unbounded ramp stays stealthy.
        sys = DiscretePlant(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[-3.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]], period=1.0
        )
        eps = 1e-3
        d_a = eps * np.arange(1500.0)[:, None]
        y = ss_response(sys, d_a)
        expected = np.zeros((1500, 1))
        expected[1, 0] = eps
        np.testing.assert_allclose(y, expected, atol=1e-12)
        assert abs(d_a[-1, 0]) >= 1e3 * abs(d_a[1, 0])

    def test_actuator_synthesis_names_the_mechanism(self):
        # the verdict is "yes", but a ramp is no plan kind: exit 3 naming it
        sys = DiscretePlant(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[-3.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]], period=1.0
        )
        controller = observer_controller(coprime_factorize(sys))
        cfg = LoopConfig(system=sys, controller=controller, theta=0.01, horizon=200)
        with pytest.raises(CapabilityError, match="multiple_zero_at_one"):
            synth_actuator_attack(cfg)


@pytest.mark.parametrize(
    "field, value",
    [
        ("zeta", complex(np.nan, 0.0)),
        ("zeta", complex(np.inf, 0.0)),
        ("direction", [np.nan]),
        ("epsilon", np.inf),
        ("epsilon", np.nan),
    ],
)
def test_non_finite_plan_parameters_rejected(field, value):
    fields = dict(kind="actuator_zero", zeta=2.0, direction=[1.0], epsilon=1.0,
                  horizon=10, channel_map=(0,))
    AttackPlan(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        AttackPlan(**fields)


@pytest.mark.parametrize(
    "kind, channel_map, message",
    [
        ("actuator_zero", (-1,), "does not name 1 distinct"),
        ("sensor_pole", (1, 1), "does not name 2 distinct"),
        ("sensor_pole", (0, 1, 2), "does not name 2 distinct"),
        ("coordinated", (0, 1), "does not name 1 to 1 distinct"),
        ("coordinated", (), "does not name 1 to 1 distinct"),
    ],
    ids=["negative", "repeated", "too_long", "no_sensor_part", "no_actuator_part"],
)
def test_channel_map_must_fit_the_signal(kind, channel_map, message):
    direction = [1.0] if kind == "actuator_zero" else [1.0, 0.5]
    with pytest.raises(ValueError, match=message):
        AttackPlan(kind=kind, zeta=2.0, direction=direction, epsilon=1.0, horizon=5,
                   channel_map=channel_map)


# Each case names where every direction entry must land: an actuator
# entry on a column of d_a, every base step; a sensor entry on a column of
# d_s, either every sample (offset None) or, on the lifted outputs, the
# sample at its offset within each hold period.
_PLACEMENTS = {
    "actuator": ("actuator_zero", [1.0, -0.5j], (2, 0), (3, 2, 2), {0: 2, 1: 0}, {}),
    "sensor_sample_rate": ("sensor_pole", [0.5, 1.0], (1, 0), (1, 2, 1), {},
                           {0: (None, 1), 1: (None, 0)}),
    "sensor_sample_rate_m3": ("sensor_pole", [1.0], (1,), (1, 2, 3), {}, {0: (None, 1)}),
    "sensor_lifted_m2": ("sensor_pole", [1.0, 0.3 + 0.2j], (1, 0), (1, 1, 2), {},
                         {0: (1, 0), 1: (0, 0)}),
    "sensor_lifted_m4": ("sensor_pole", [1.0, -0.25, 0.5j], (7, 2, 4), (1, 2, 4), {},
                         {0: (3, 1), 1: (1, 0), 2: (2, 0)}),
    "coordinated": ("coordinated", [0.5, 1.0, -0.3, 0.2j], (1, 0), (2, 2, 1), {0: 1, 1: 0},
                    {2: (None, 0), 3: (None, 1)}),
    "coordinated_lifted": ("coordinated", [1.0, 0.5, -0.5, 0.25j], (0,), (1, 1, 3), {0: 0},
                           {1: (0, 0), 2: (1, 0), 3: (2, 0)}),
}


@pytest.mark.parametrize("case", list(_PLACEMENTS))
def test_render_places_each_entry_on_its_channel(case):
    # the reference: geometric_sequence of each entry alone, written by
    # hand into its column, zeros everywhere else
    kind, direction, channel_map, (n_u, n_y, m), actuators, sensors = _PLACEMENTS[case]
    zeta, eps, n_steps = 1.3 * np.exp(0.4j), 0.7, 5
    plan = AttackPlan(kind=kind, zeta=zeta, direction=direction, epsilon=eps, horizon=n_steps,
                      channel_map=channel_map)
    want_a, want_s = np.zeros((n_steps, n_u)), np.zeros((n_steps * m, n_y))
    for entry, column in actuators.items():
        want_a[:, column] = geometric_sequence([direction[entry]], zeta, eps, n_steps)[:, 0]
    for entry, (offset, column) in sensors.items():
        rows = slice(None) if offset is None else slice(offset, None, m)
        want_s[rows, column] = geometric_sequence(
            [direction[entry]], zeta, eps, n_steps * m if offset is None else n_steps)[:, 0]
    d_a, d_s = plan.render(n_steps, n_u, n_y, m)
    np.testing.assert_array_equal(d_a, want_a)
    np.testing.assert_array_equal(d_s, want_s)


@pytest.mark.parametrize(
    "kind, direction, channel_map, n_u, n_y, m, message",
    [
        ("actuator_zero", [1.0], (3,), 2, 1, 1, "plan channel 3 out of range for 2 channels"),
        ("sensor_pole", [1.0], (5,), 1, 2, 2, "plan channel 5 out of range for 4 channels"),
        ("coordinated", [1.0, 0.5], (2,), 2, 1, 1, "plan channel 2 out of range for 2 channels"),
        ("coordinated", [1.0, 0.5, 0.5, 0.5, 0.5], (0,), 1, 1, 2,
         "plan channel 3 out of range for 2 channels"),
    ],
    ids=["actuator", "sensor_lifted", "coordinated_actuator_part", "coordinated_sensor_part"],
)
def test_render_refuses_a_channel_out_of_range(kind, direction, channel_map, n_u, n_y, m,
                                               message):
    plan = AttackPlan(kind=kind, zeta=2.0, direction=direction, epsilon=1.0, horizon=5,
                      channel_map=channel_map)
    with pytest.raises(DimensionError, match=message):
        plan.render(5, n_u, n_y, m)


class TestPlanSerialization:
    def test_round_trip(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), theta=0.01)
        plan = synth_actuator_attack(cfg)
        doc = plan_to_dict(plan)
        clone = plan_from_dict(json.loads(json.dumps(doc)))
        assert clone.kind == plan.kind
        assert clone.zeta == plan.zeta
        assert clone.epsilon == plan.epsilon
        np.testing.assert_array_equal(clone.direction, plan.direction)
