import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from liftguard import (
    ContinuousPlant,
    StateSpace,
    build_lifted,
    coprime_factorize,
    discretize,
    monitor_eval,
    observer_controller,
    run_dual_rate,
    run_single_rate,
    spectral_radius,
    standard_loop,
    trace_to_csv,
)
from liftguard.attack import synth_actuator_attack, synth_sensor_attack
from liftguard.errors import ConfigurationError
from liftguard import sim
from liftguard.sim import (_CSV_BLOCK_ROWS, _SOLVE_BLOCK_STEPS, LoopConfig, SimTrace, Verdict,
                           trace_metadata)

from helpers import (
    Injector,
    lift_controller,
    light_oscillator,
    random_continuous,
    reference_closed_loop,
    reference_trace_to_csv,
    run_lifted_closed_loop,
    sampled,
    stable_two_state,
    triple_integrator,
    unstable_scalar,
)


class TestMonitor:
    def test_all_zero_streams(self):
        verdict, values = monitor_eval(np.zeros((10, 2)), np.zeros((10, 1)), 0.01)
        assert verdict.stealthy
        assert not np.any(values)

    def test_first_crossing_index(self):
        y = np.zeros((10, 1))
        y[5, 0] = 0.02
        verdict, _ = monitor_eval(y, np.zeros((10, 1)), 0.01)
        assert verdict.detected and verdict.step == 5

    def test_nonfinite_value_is_detection(self):
        for bad in (np.nan, np.inf):
            y = np.zeros((6, 1))
            y[3, 0] = bad
            verdict, _ = monitor_eval(y, np.zeros((6, 1)), 0.01)
            assert verdict.detected and verdict.step == 3

    def test_exact_threshold_is_not_detection(self):
        y = np.full((4, 1), 0.01)
        verdict, _ = monitor_eval(y, np.zeros((4, 1)), 0.01)
        assert verdict.stealthy


class TestSingleRate:
    def test_no_attack_zero_traces(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), horizon=50)
        trace = run_single_rate(cfg)
        assert not np.any(trace.y) and not np.any(trace.u)
        assert trace.verdict.stealthy

    def test_unstable_configuration_rejected(self):
        zero_K = StateSpace(A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]])
        cfg = LoopConfig(
            system=discretize(unstable_scalar(), 1.0),
            controller=zero_K,
            theta=0.01,
            horizon=50,
        )
        with pytest.raises(ConfigurationError, match="unstable"):
            run_single_rate(cfg)

    def test_deviation_linear_in_epsilon(self):
        plant = stable_two_state()
        cfg = standard_loop(discretize(plant, 0.5), theta=1e9, horizon=120)
        base = run_single_rate(cfg)

        def deviation(eps):
            plan = Injector(eps * np.sin(0.3 * np.arange(120)).reshape(-1, 1), np.zeros((120, 1)))
            tr = run_single_rate(dataclasses.replace(cfg, attack=plan))
            return tr.y - base.y

        d1, d2 = deviation(1.0), deviation(2.0)
        np.testing.assert_allclose(d2, 2.0 * d1, atol=1e-10)


class TestDualRate:
    def test_no_attack_zero_traces(self):
        plant = triple_integrator()
        cfg = standard_loop(build_lifted(plant, 1.0, 4), horizon=30)
        trace = run_dual_rate(cfg)
        assert not np.any(trace.y) and not np.any(trace.u)
        assert trace.y.shape == (30 * 4, 1)

    def test_matches_lifted_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            plant = random_continuous(rng, n=int(rng.integers(2, 4)), n_u=1, n_y=1)
            m = int(rng.integers(2, 4))
            try:
                L = build_lifted(plant, 0.8, m)
                cfg = standard_loop(L, horizon=100)
            except Exception:
                continue
            x0 = rng.standard_normal(plant.n) * 0.1
            d_a = rng.standard_normal((100, 1)) * 0.01
            plan = Injector(d_a, np.zeros((100 * m, 1)))
            cfg = dataclasses.replace(cfg, x0_plant=x0, attack=plan, theta=1e9)
            trace = run_dual_rate(cfg)
            u_ref, y_ref = run_lifted_closed_loop(
                L, cfg.controller, 100, d_a=d_a, x0=x0
            )
            scale = max(1.0, np.max(np.abs(y_ref)))
            assert np.max(np.abs(trace.u - u_ref)) <= 1e-9 * scale
            stacked = trace.y.reshape(100, -1)
            assert np.max(np.abs(stacked - y_ref)) <= 1e-9 * scale

    def test_subsampled_dual_rate_equals_single_rate(self):
        # when the lifted controller just lifts the single-rate one, the
        # dual-rate loop reproduces the single-rate loop at base instants
        rng = np.random.default_rng(13)
        plant = stable_two_state()
        m = 3
        P = discretize(plant, 0.6)
        factors = coprime_factorize(P)
        K = observer_controller(factors)
        KL = lift_controller(K, m)
        x0 = rng.standard_normal(2)
        cfg_s = LoopConfig(system=P, controller=K, theta=1e9, horizon=80, x0_plant=x0)
        cfg_d = LoopConfig(
            system=build_lifted(plant, 0.6, m), controller=KL, theta=1e9, horizon=80, x0_plant=x0,
        )
        tr_s = run_single_rate(cfg_s)
        tr_d = run_dual_rate(cfg_d)
        np.testing.assert_allclose(tr_d.u, tr_s.u, atol=1e-9)
        np.testing.assert_allclose(tr_d.y[::m], tr_s.y, atol=1e-9)

    @pytest.mark.parametrize("m", [None, 3])
    def test_loop_reads_mode_period_and_m_off_its_system(self, m):
        plant = triple_integrator()
        single = standard_loop(discretize(plant, 0.5), horizon=5)
        assert (single.mode, single.T, single.m) == ("single_rate", 0.5, None)
        dual = standard_loop(build_lifted(plant, 0.5, m), horizon=5)
        assert (dual.mode, dual.T, dual.m) == ("dual_rate", 0.5, m or 4)

    def test_controller_dimensions_checked_at_construction(self):
        # a lifted controller reads m stacked samples, which a single-rate
        # loop does not have; the mismatch is refused before any run
        P = discretize(stable_two_state(), 0.6)
        KL = lift_controller(observer_controller(coprime_factorize(P)), 3)
        with pytest.raises(ConfigurationError, match="do not match the loop plant"):
            LoopConfig(system=P, controller=KL, theta=0.01, horizon=10)

    @pytest.mark.parametrize(
        "x0", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]], [1.0, np.nan, 0.0],
               [np.inf, 0.0, 0.0]],
        ids=["short", "long", "column", "nan", "inf"],
    )
    def test_initial_state_checked_at_construction(self, x0):
        # a wrong length used to fail at run time in numpy's broadcasting,
        # and a NaN entry ran silently
        cfg = standard_loop(discretize(triple_integrator(), 1.0), horizon=5)
        with pytest.raises(ConfigurationError, match="x0_plant must be a finite vector of length 3"):
            dataclasses.replace(cfg, x0_plant=x0)

    @pytest.mark.parametrize("horizon", [2.5, True, "5", None, float("inf")],
                             ids=["fraction", "bool", "string", "none", "inf"])
    def test_horizon_checked_at_construction(self, horizon):
        # a fraction used to fail inside numpy and a boolean with a bare TypeError
        P = discretize(triple_integrator(), 1.0)
        with pytest.raises(ConfigurationError, match="horizon must be an integer"):
            standard_loop(P, horizon=horizon)

    def test_integral_float_horizon_becomes_int(self):
        cfg = standard_loop(discretize(triple_integrator(), 1.0), horizon=200.0)
        assert type(cfg.horizon) is int and cfg.horizon == 200
        assert run_single_rate(cfg).u.shape == (200, 1)

    def test_requires_lifted_controller(self):
        P = discretize(stable_two_state(), 0.6)
        K = observer_controller(coprime_factorize(P))
        with pytest.raises(ConfigurationError, match="lifted"):
            LoopConfig(
                system=build_lifted(stable_two_state(), 0.6, 3),
                controller=K, theta=0.01, horizon=10,
            )


@pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
@pytest.mark.parametrize("make_plant", [triple_integrator, light_oscillator])
def test_kilohertz_loop(make_plant, mode):
    # T = 1 ms puts the open-loop poles within 1e-3 of the unit circle
    plant = make_plant()
    cfg = standard_loop(sampled(plant, 1e-3, mode), horizon=200)
    trace = run_dual_rate(cfg) if mode == "dual_rate" else run_single_rate(cfg)
    assert not trace.verdict.detected
    base = cfg.system
    factors = coprime_factorize(base)
    assert spectral_radius(base.A + base.B @ factors.F) < 1.0
    assert spectral_radius(base.A + factors.H @ base.C) < 1.0


# Largest disagreement of a finite logged entry with the per-sub-step
# oracle, relative to max(1, running max |x| of the oracle's plant state up
# to the end of its hold period).  The worst case measured over
# ORACLE_LOOPS and the loops of test_run_equals_reference_recursion is
# 1.6e-15 (random_fat); the bound leaves a margin of about 60.
LOOP_ORACLE_RTOL = 1e-13


def _assert_trace_close(trace, want):
    """``trace`` has the non-finite pattern of the oracle's ``want`` in
    every logged array, and its finite entries agree within
    ``LOOP_ORACLE_RTOL`` of the running state scale."""
    m = trace.samples_per_step
    u, y, x, monitor = want
    size = np.max(np.where(np.isfinite(x), np.abs(x), 0.0), axis=1).reshape(-1, m).max(axis=1)
    per_step = np.maximum(1.0, np.maximum.accumulate(size))
    got = (trace.u, trace.y, trace.x, trace.monitor)
    for name, g, w in zip(("u", "y", "x", "monitor"), got, (u, y, x[::m], monitor)):
        finite = np.isfinite(w)
        assert g.shape == w.shape and np.array_equal(np.isfinite(g), finite), name
        scale = per_step if g.shape[0] == per_step.size else np.repeat(per_step, m)
        err = np.abs(np.where(finite, g, 0.0) - np.where(finite, w, 0.0))
        err = np.max(err.reshape(g.shape[0], -1) / scale[:, None], initial=0.0)
        assert err <= LOOP_ORACLE_RTOL, (name, err)


def _run(cfg):
    return run_dual_rate(cfg) if cfg.mode == "dual_rate" else run_single_rate(cfg)


@functools.cache
def _actuator_plan(T):
    """The calibrated actuator plan of the single-rate triple integrator at T."""
    plant = triple_integrator()
    return synth_actuator_attack(standard_loop(discretize(plant, T)))


@pytest.fixture(scope="module")
def overflow_plan():
    """The T = 0.01 actuator plan, which overflows when replayed over 2000 steps."""
    return _actuator_plan(0.01)


@pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
def test_overflowed_run_equals_unstopped_recursion(mode, overflow_plan):
    # the T = 0.01 actuator plan replayed over 2000 steps drives the loop
    # state to NaN long before the end; every later row must stay NaN, as
    # in the recursion that keeps stepping
    plant = triple_integrator()
    cfg = standard_loop(sampled(plant, 0.01, mode), horizon=2000, attack=overflow_plan)
    with np.errstate(all="ignore"):
        trace = _run(cfg)
        want = reference_closed_loop(cfg)
    all_nan = np.flatnonzero(np.isnan(trace.x).all(axis=1))
    assert all_nan.size and all_nan[0] < trace.x.shape[0] // 2
    _assert_trace_close(trace, want)


def _oscillator_dual_rate():
    plant = light_oscillator()
    return standard_loop(build_lifted(plant, 0.01, 3), horizon=2000)


def _pole_at_2_sensor_plan():
    plant = unstable_scalar()
    cfg = standard_loop(build_lifted(plant, 1.0, 2))
    plan = synth_sensor_attack(cfg)
    return dataclasses.replace(cfg, attack=plan, horizon=plan.horizon)


def _single_rate_from_x0():
    rng = np.random.default_rng(5)
    plant = stable_two_state()
    cfg = standard_loop(discretize(plant, 0.5), horizon=300)
    plan = Injector(0.1 * rng.standard_normal((300, 1)), 0.1 * rng.standard_normal((300, 1)))
    return dataclasses.replace(cfg, x0_plant=[1.5, -0.7], attack=plan, theta=1e9)


@pytest.mark.parametrize(
    "make_cfg",
    [_oscillator_dual_rate, _pole_at_2_sensor_plan, _single_rate_from_x0],
    ids=["oscillator_dual_rate_m3", "pole_at_2_sensor_m2", "single_rate_x0"],
)
def test_run_equals_reference_recursion(make_cfg):
    # the engine and the plain per-sub-step recursion agree within the bound
    cfg = make_cfg()
    _assert_trace_close(_run(cfg), reference_closed_loop(cfg))


@pytest.mark.parametrize(
    "mode, v, step",
    [
        ("single_rate", 3e12, 1),
        ("single_rate", 1e13, 1),
        ("dual_rate", 3e12, 1),
        ("dual_rate", 1e13, 0),
        ("single_rate", 1e11, None),
        ("dual_rate", 1e11, None),
    ],
)
def test_divergence_guard(mode, v, step):
    # an attack-free loop started far out is refused at the first step
    # whose monitored signals pass the guard
    plant = triple_integrator()
    cfg = standard_loop(sampled(plant, 1.0, mode), horizon=50)
    cfg = dataclasses.replace(cfg, x0_plant=[0.0, 0.0, v])
    if step is None:
        trace = _run(cfg)
        assert trace.u.shape[0] == 50 and np.all(np.isfinite(trace.monitor))
    else:
        with pytest.raises(ConfigurationError, match=rf"diverged past 1e\+12 at step {step}$"):
            _run(cfg)


@pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
def test_overflow_replay_raises_no_warning(mode, overflow_plan):
    # the overflow is reported through the trace, not as a RuntimeWarning
    plant = triple_integrator()
    cfg = standard_loop(sampled(plant, 0.01, mode), horizon=2000, attack=overflow_plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = _run(cfg)
    assert trace_metadata(trace)["first_nonfinite"] is not None


BLOCK = _SOLVE_BLOCK_STEPS
SEAM_LOOPS = {
    "triple_T0.01_single": lambda h: _replay(0.01, "single_rate", horizon=h),
    "triple_T0.01_dual": lambda h: _replay(0.01, "dual_rate", horizon=h),
    "single_rate_x0": lambda h: dataclasses.replace(_single_rate_from_x0(), horizon=h),
    "random_fat_dual": lambda h: dataclasses.replace(_random_fat_plant(), horizon=h),
}


class TestSolveBlocks:
    """The run is solved ``_SOLVE_BLOCK_STEPS`` hold periods at a time;
    the seams between blocks must not show."""

    @pytest.mark.parametrize("horizon", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("case", SEAM_LOOPS)
    def test_seams_match_reference_recursion(self, case, horizon):
        cfg = SEAM_LOOPS[case](horizon)
        trace = _run(cfg)
        assert trace.u.shape[0] == horizon
        _assert_trace_close(trace, reference_closed_loop(cfg))

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    def test_overflow_across_a_seam(self, mode, overflow_plan):
        # the overflow replay delayed so that its first non-finite loop
        # state is the last row of a block and the first all-NaN one opens
        # the next
        cfg = _replay(0.01, mode, horizon=2000)

        def rows(trace):
            state = np.hstack([trace.x, trace.u])
            return (np.flatnonzero(~np.isfinite(state).all(axis=1))[0],
                    np.flatnonzero(np.isnan(state).all(axis=1))[0])

        with np.errstate(all="ignore"):
            first_bad, _ = rows(_run(cfg))
            delay = -(first_bad + 1) % BLOCK
            d_a, _ = overflow_plan.render(2000 - delay, 1, 1)
            cfg = dataclasses.replace(
                cfg, attack=Injector(np.vstack([np.zeros((delay, 1)), d_a]), np.zeros((0, 1))))
            trace = _run(cfg)
            want = reference_closed_loop(cfg)
        first_bad, first_nan = rows(trace)
        assert first_bad % BLOCK == BLOCK - 1 and first_nan == first_bad + 1
        _assert_trace_close(trace, want)

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    def test_power_of_two_rescaling_commutes_with_the_solve(self, mode, overflow_plan):
        # attack._calibrate rescales an overflowing probe by 2**-512 and
        # reads the peak back at full scale
        cfg = _replay(0.01, mode, horizon=2000)
        with np.errstate(all="ignore"):
            full, scaled = (
                _run(dataclasses.replace(cfg, attack=dataclasses.replace(overflow_plan, epsilon=eps)))
                for eps in (1.0, 2.0 ** -512))
        finite = np.isfinite(full.monitor)
        assert not finite.all() and finite[: 2 * BLOCK * full.samples_per_step].all()
        assert np.array_equal(full.monitor[finite], scaled.monitor[finite] * 2.0 ** 512)


# Writing the trace holds one block of text, each run of equal values as
# one string and each monitor value as the string of the entry it is the
# magnitude of: the bound is 0.85 of the peak of the writer that formats
# every value (1.00 and 0.78 MB on Python 3.11, numpy 2.4).
CSV_PEAK_MB = {"single_rate": 0.85, "dual_rate": 0.68}


@pytest.mark.parametrize(
    "mode, parent_peak_mb", [("single_rate", 20.0), ("dual_rate", 51.2)])
def test_long_run_memory(mode, parent_peak_mb, tmp_path):
    # the in-place solve holds the logged arrays and one block of band:
    # its peak may not pass that of the per-period loop (parent_peak_mb,
    # measured on numpy 2.4) by more than 1 MB.  The writer's peak is
    # bounded by CSV_PEAK_MB; only memory is asserted, since tracing
    # allocations slows the writer several times.
    plant = triple_integrator()
    cfg = standard_loop(sampled(plant, 1.0, mode), horizon=100_000)
    cfg = dataclasses.replace(cfg, x0_plant=1e-3 * np.ones(3))
    tracemalloc.start()
    try:
        trace = _run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.verdict.stealthy and np.isfinite(trace.monitor).all()
    assert peak <= (parent_peak_mb + 1.0) * 1e6, peak
    tracemalloc.start()
    try:
        trace_to_csv(trace, tmp_path / "trace.csv")
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csv_peak <= CSV_PEAK_MB[mode] * 1e6, csv_peak


def _odd_values_trace(mode):
    """A 20-row trace (m = 4 in dual rate) carrying NaN, +-inf, -0.0, the
    smallest subnormal and the extremes in every float column."""
    plant = triple_integrator()
    if mode == "dual_rate":
        cfg = standard_loop(build_lifted(plant, 1.0, 4), horizon=5)
    else:
        cfg = standard_loop(discretize(plant, 1.0), horizon=20)
    trace = _run(cfg)
    odd = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1 + 0.2, -1.7976931348623157e308]
    u, y, d_a, d_s = trace.u.copy(), trace.y.copy(), trace.d_a.copy(), trace.d_s.copy()
    monitor = trace.monitor.copy()
    for j, v in enumerate(odd):
        u[j % 5, 0], d_a[(j + 1) % 5, 0] = v, v
        y[j, 0], d_s[j + 7, 0], monitor[j + 12] = v, v, v
    return dataclasses.replace(trace, u=u, y=y, d_a=d_a, d_s=d_s, monitor=monitor)


def _runs_trace(mode):
    """A hand-built trace that crosses one write-block seam: two commands
    at single rate, two outputs at m = 3 in dual rate.  It carries
    adjacent +0.0/-0.0, NaNs of both signs with different payloads, runs
    of +inf and -inf, runs across the seam, monitor values that are the
    magnitude of a negative output and of a negative command, and monitor
    values that are no signal's magnitude."""
    m, n_u, n_y = (1, 2, 1) if mode == "single_rate" else (3, 1, 2)
    seam = _CSV_BLOCK_ROWS // m  # hold periods in the first write block
    N = seam + 40
    rng = np.random.default_rng(11)
    u, y = rng.standard_normal((N, n_u)), rng.standard_normal((N * m, n_y))
    d_a, d_s = np.zeros((N, n_u)), rng.standard_normal((N * m, n_y))
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF8000000000ABC], dtype=np.uint64).view(float)
    signed_zeros = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]
    y[10:18, 0] = nans[[0, 0, 1, 1, 2, 3, 3, 0]]
    y[20:26, -1] = d_s[30:36, 0] = signed_zeros
    u[30:36, 0] = d_a[4:10, -1] = signed_zeros
    u[40:45, -1], u[45:50, -1] = np.inf, -np.inf
    d_a[12:16, 0] = nans[[1, 1, 2, 0]]
    d_s[40:45, -1], d_s[45:50, -1] = -np.inf, np.inf
    u[seam - 5 : seam + 5, -1] = 0.25
    y[(seam - 5) * m : (seam + 5) * m, 0] = -3.0
    d_s[(seam - 4) * m : (seam + 6) * m, -1] = 0.0
    y[100, -1], u[70, -1] = -9.25, -11.5  # picked by the max-norm
    theta = 2.0
    _, monitor = monitor_eval(y, np.repeat(u, m, axis=0), theta)
    assert monitor[100] == 9.25 and monitor[70 * m] == 11.5
    monitor[[60, 61, 62, 63]] = [1 / 3, -0.0, nans[3], -np.inf]
    return SimTrace(
        times=np.arange(N * m) * (0.01 / m), u=u, y=y, d_a=d_a, d_s=d_s, monitor=monitor,
        verdict=Verdict(detected=True, step=0), theta=theta, mode=mode, T=0.01,
        samples_per_step=m, x=np.zeros((N, 1)),
    )


def _replay(T, mode, horizon=None):
    plan, plant = _actuator_plan(T), triple_integrator()
    return standard_loop(sampled(plant, T, mode), horizon=horizon or plan.horizon, attack=plan)


def _pole_at_2_single_rate_sensor_plan():
    plant = unstable_scalar()
    cfg = standard_loop(discretize(plant, 1.0))
    plan = synth_sensor_attack(cfg)
    return dataclasses.replace(cfg, attack=plan, horizon=plan.horizon)


def _random_fat_plant():
    rng = np.random.default_rng(23)
    plant = random_continuous(rng, n=4, n_u=3, n_y=2)
    cfg = standard_loop(build_lifted(plant, 0.2, 3), horizon=150)
    plan = Injector(0.1 * rng.standard_normal((150, 3)), 0.1 * rng.standard_normal((450, 2)))
    return dataclasses.replace(cfg, x0_plant=rng.standard_normal(4), attack=plan, theta=1e9)


def _one_column_controller_output():
    # one controller state and two inputs, from a subnormal plant state
    # whose products underflow to +-0
    plant = ContinuousPlant(A=[[-0.5]], B=[[1.0, -0.7]], C=[[1.0]], D=[[0.0, 0.0]])
    cfg = standard_loop(discretize(plant, 0.5), horizon=40)
    return dataclasses.replace(cfg, x0_plant=[1e-323])


ORACLE_LOOPS = {
    "triple_T1_single": lambda: _replay(1.0, "single_rate"),
    "triple_T1_dual": lambda: _replay(1.0, "dual_rate"),
    "triple_T0.01_single": lambda: _replay(0.01, "single_rate"),
    "triple_T0.01_dual": lambda: _replay(0.01, "dual_rate"),
    "overflow_2000_single": lambda: _replay(0.01, "single_rate", horizon=2000),
    "overflow_2000_dual": lambda: _replay(0.01, "dual_rate", horizon=2000),
    "pole_at_2_sensor_single": _pole_at_2_single_rate_sensor_plan,
    "pole_at_2_sensor_lifted_m2": _pole_at_2_sensor_plan,
    "random_fat": _random_fat_plant,
    "one_column_underflow": _one_column_controller_output,
}


class TestBitExactOracles:
    """The engine agrees with the per-sub-step ``@`` recursion within
    ``LOOP_ORACLE_RTOL``, and the block-columnar CSV writer gives the
    bytes of the row-by-row writer."""

    @pytest.mark.parametrize("case", ORACLE_LOOPS)
    def test_loop_matches_matmul_recursion(self, case):
        cfg = ORACLE_LOOPS[case]()
        with np.errstate(all="ignore"):
            trace = _run(cfg)
            want = reference_closed_loop(cfg)
        _assert_trace_close(trace, want)

    @pytest.mark.parametrize("case", ORACLE_LOOPS)
    def test_csv_matches_row_writer(self, case, tmp_path):
        with np.errstate(all="ignore"):
            trace = _run(ORACLE_LOOPS[case]())
        trace_to_csv(trace, tmp_path / "got.csv")
        reference_trace_to_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    def test_csv_matches_row_writer_on_odd_values(self, mode, tmp_path):
        trace = _odd_values_trace(mode)
        trace_to_csv(trace, tmp_path / "got.csv")
        reference_trace_to_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    def test_csv_matches_row_writer_on_runs(self, mode, tmp_path):
        trace = _runs_trace(mode)
        trace_to_csv(trace, tmp_path / "got.csv")
        reference_trace_to_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_oracle_traces_span_several_write_blocks(self):
        with np.errstate(all="ignore"):
            rows = [_run(ORACLE_LOOPS[c]()).y.shape[0]
                    for c in ("overflow_2000_single", "overflow_2000_dual")]
        assert min(rows) > _CSV_BLOCK_ROWS and any(r % _CSV_BLOCK_ROWS for r in rows)


class TestTraceExport:
    def test_csv_layout(self, tmp_path):
        plant = triple_integrator()
        cfg = standard_loop(build_lifted(plant, 1.0, 4), horizon=5)
        trace = run_dual_rate(cfg)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,substep,time,u_1,y_1,da_1,ds_1,monitor,crossed"
        assert len(lines) == 1 + 5 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_csv_round_trip_with_nonfinite_rows(self, tmp_path):
        trace = _odd_values_trace("dual_rate")
        u, y, d_a, d_s, monitor = trace.u, trace.y, trace.d_a, trace.d_s, trace.monitor
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 1 + 20 and raw.endswith(b"\r\n")
        rows = [line.split(",") for line in raw.decode().split("\r\n")[1:-1]]
        got = np.array([[float(v) for v in row[2:-1]] for row in rows])
        step = np.arange(20) // 4
        want = np.hstack([trace.times[:, None], u[step], y, d_a[step], d_s, monitor[:, None]])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert [(int(r[0]), int(r[1])) for r in rows] == [divmod(i, 4) for i in range(20)]
        assert [r[-1] for r in rows] == ["0" if v <= trace.theta else "1" for v in monitor]
        assert rows[12][-1] == "1"  # the NaN monitor row

    @pytest.mark.parametrize(
        "make_cfg, m, count",
        [
            # attack-free from rest: 6,000 distinct times; u, y, da and ds
            # are all zero, one string per column in each of six write
            # blocks; the zero monitor takes y's text (28,000 when every
            # value was formatted)
            (lambda: standard_loop(build_lifted(light_oscillator(), 0.01), horizon=2000),
             3, 6000 + 4 * 6),
            # 2,000 distinct times, 541/542/564 runs in u/y/da (a NaN tail
            # from step 539), ds zero in two blocks, every monitor value a
            # signal's magnitude (12,000 when every value was formatted)
            (lambda: _replay(0.01, "single_rate", horizon=2000), 1, 2000 + 541 + 542 + 564 + 2),
        ],
        ids=["oscillator_dual_2000", "overflow_2000_single"],
    )
    def test_csv_formats_each_run_once(self, make_cfg, m, count, monkeypatch, tmp_path):
        with np.errstate(all="ignore"):
            trace = _run(make_cfg())
        assert trace.samples_per_step == m
        formatted = 0

        def counting_repr(value):
            nonlocal formatted
            formatted += 1
            return repr(value)

        monkeypatch.setattr(sim, "repr", counting_repr, raising=False)
        trace_to_csv(trace, tmp_path / "trace.csv")
        assert formatted == count

    def test_metadata(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), horizon=5)
        meta = trace_metadata(run_single_rate(cfg))
        assert meta["verdict"] == "stealthy"
        assert meta["horizon"] == 5
        assert meta["mode"] == "single_rate"
