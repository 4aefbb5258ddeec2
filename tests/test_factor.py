import dataclasses

import numpy as np
import pytest
import scipy.linalg

from liftguard import (
    DiscretePlant,
    StateSpace,
    build_lifted,
    check_minimal,
    coprime_factorize,
    discretize,
    eval_lambda,
    observer_controller,
    run_single_rate,
    standard_loop,
    transmission_zeros,
)
from liftguard.attack import synth_actuator_attack
from liftguard import factor, linalg
from liftguard.errors import ModelError, NumericError
from liftguard.factor import closed_loop_matrix
from liftguard.linalg import DARE_RESIDUAL_RTOL, spectral_radius
from liftguard.model import load_plant

from helpers import (
    Injector,
    assert_sets_close,
    bench_module,
    bezout_defect,
    double_integrator,
    random_continuous,
    random_discrete,
    residual_generator,
    riccati_residual,
    sampled,
    ss_response,
    triple_integrator,
)


class TestCoprimeFactorize:
    def test_denominator_zeros_are_plant_poles(self):
        sys = DiscretePlant(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=1.0)
        factors = coprime_factorize(sys)
        report = transmission_zeros(factors.Ml)
        assert_sets_close(
            [r.z_value for r in report.zeros if r.z_value is not None],
            [2.0],
            1e-6,
            "denominator zeros",
        )

    def test_bezout_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            sys = random_discrete(rng, n_u=1, n_y=1, radius=float(rng.uniform(0.5, 1.4)))
            assert bezout_defect(coprime_factorize(sys)) <= 1e-8

    def test_numerator_keeps_nmp_zeros(self):
        sys = discretize(triple_integrator(), 1.0)
        factors = coprime_factorize(sys)
        plant_zeros = [
            r.z_value
            for r in transmission_zeros(sys).zeros
            if r.z_value is not None and abs(r.z_value) > 1.0
        ]
        numer_zeros = [
            r.z_value
            for r in transmission_zeros(factors.Nl).zeros
            if r.z_value is not None and abs(r.z_value) > 1.0
        ]
        assert_sets_close(numer_zeros, plant_zeros, 1e-6, "numerator NMP zeros")

    def test_nonminimal_rejected(self):
        sys = DiscretePlant(
            A=[[0.5, 0.0], [0.0, 0.25]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        with pytest.raises(ModelError):
            coprime_factorize(sys)


class TestLeftFactors:
    def test_minimality_checked(self):
        """The left pair is refused, with its message, for a non-minimal plant."""
        nonminimal = DiscretePlant(
            A=[[0.5, 0.0], [0.0, 0.25]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        with pytest.raises(ModelError, match="coprime factorization requires a minimal realization"):
            coprime_factorize(nonminimal)


class TestStackedRiccati:
    """``coprime_factorize`` solves its state-feedback and observer Riccati
    equations in one ``linalg.dare_gain`` call, one scipy solve of their
    block-diagonal direct sum, and checks each equation on its own."""

    def test_corrupted_observer_block_raises(self, monkeypatch):
        # A P of order 1e6 in the state-feedback block: judged against the
        # stacked equation's largest term, the observer block's 1e-4 error
        # would pass.
        sys = random_discrete(np.random.default_rng(7), n_u=1, n_y=2)
        n = sys.n
        solve = scipy.linalg.solve_discrete_are

        def corrupted(A, B, Q, R):
            # the observer equation is the stack's last block, and it is
            # alone in a call whose B has its n_y = 2 columns (n_u = 1)
            P = solve(A, B, Q, R)
            if B.shape[1] > 1:
                P[-n:, -n:] *= 1.0 + 1e-4
            return P

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", corrupted)
        with pytest.raises(NumericError, match="Riccati solution residual"):
            coprime_factorize(sys, Q=1e6 * np.eye(n), R=1e-6 * np.eye(1))

    @pytest.mark.parametrize("pole", [2.0, 1.0])
    @pytest.mark.parametrize("defect", ["unstabilizable", "undetectable"])
    def test_unstabilizable_or_undetectable_pair(self, defect, pole):
        # the mode at ``pole`` is uncontrollable from B, or unobservable
        # from C; the other equation of the stack is solvable
        A = np.diag([pole, 0.5])
        B, C = np.array([[0.0], [1.0]]), np.array([[1.0, 1.0]])
        if defect == "undetectable":
            B, C = C.T, B.T
        with pytest.raises(ModelError, match="stabiliz"):
            linalg.dare_gain(np.stack([A, A.T]), [B, C.T])

    @pytest.mark.parametrize("T, weight, gain_rtol", [
        pytest.param(1.0, None, 1e-7, id="1.0-unit"),
        pytest.param(0.01, None, 1e-7, id="0.01-unit"),
        pytest.param(1.0, 1e6, 1e-7, id="1.0-Q1e6_R1e-6"),
        pytest.param(0.01, 1e6, 1e-7, id="0.01-Q1e6_R1e-6"),
        pytest.param(0.01, 1e-6, 1e-4, id="0.01-Q1e-6_R1e6"),
    ])
    def test_stacked_gains_match_separate_solves(self, monkeypatch, T, weight, gain_rtol):
        # A factorization whose equations pass solved separately must pass
        # stacked.  The stack is the only solve unless one of its blocks
        # fails its residual check; then each equation is solved again
        # alone.  Over these draws the gains agree to 5.7e-10 relative at
        # most, and to 4.0e-5 with Q = 1e-6 I, R = 1e6 I, where both gains
        # meet the residual bound on ill-conditioned equations (two of the
        # draws fail it solved separately and are not factored).
        rng = np.random.default_rng(53)
        systems = [sampled(random_continuous(rng), T, mode)
                   for mode in ("single_rate", "dual_rate") for _ in range(6)]
        systems += [random_discrete(rng, n_u=2, n_y=1), random_discrete(rng, n_u=1, n_y=2)]
        solve = scipy.linalg.solve_discrete_are
        calls = []
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda *args: calls.append(solve(*args)) or calls[-1])
        factored = 0
        for sys in systems:
            n = sys.n
            Q = np.eye(n) if weight is None else weight * np.eye(n)
            R = np.eye(sys.n_u) if weight is None else np.eye(sys.n_u) / weight
            equations = ((sys.A, sys.B, Q, R), (sys.A.T, sys.C.T, np.eye(n), np.eye(sys.n_y)))
            try:
                separate = [linalg.dare_gain(*eq) for eq in equations]
            except NumericError:
                continue
            del calls[:]
            factors = coprime_factorize(sys, Q=Q, R=R)
            factored += 1
            stack_residual = max(riccati_residual(*eq, calls[0][block, block])[0]
                                 for eq, block in zip(equations, (slice(0, n), slice(n, 2 * n))))
            assert calls[0].shape == (2 * n, 2 * n)
            assert len(calls) == (1 if stack_residual <= DARE_RESIDUAL_RTOL else 3)
            for gain, alone in zip((factors.F, factors.H.T), separate):
                assert np.max(np.abs(gain - alone)) <= gain_rtol * np.max(np.abs(alone))
        assert factored >= 12

    def test_population_loop_a_stack_loses_is_solved_alone(self, monkeypatch):
        # The 4th fat plant of the benchmark population (the 304th draw of
        # default_rng([0, 7])) at T = 1e-3, single rate, Q = 1e-6 I and
        # R = 1e6 I: in the stack its state-feedback block has residual
        # 9.1e-6, alone 1.4e-8.  Stacked only, the loop raised NumericError.
        workloads = bench_module("workloads")
        rng = np.random.default_rng([0, 7])
        docs = [workloads.random_plant(rng, shape) for shape, _ in workloads.SHAPES for _ in range(150)]
        sys = discretize(load_plant(docs[303])[0], 1e-3)
        Q, R = 1e-6 * np.eye(sys.n), 1e6 * np.eye(sys.n_u)
        solve = scipy.linalg.solve_discrete_are
        calls = []
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda *args: calls.append(solve(*args)) or calls[-1])
        factors = coprime_factorize(sys, Q=Q, R=R)
        assert [P.shape[0] for P in calls] == [2 * sys.n, sys.n, sys.n]
        assert np.array_equal(factors.F, linalg.dare_gain(sys.A, sys.B, Q, R))


# (n_u, n_y, m) giving a lifted system with more, as many and fewer
# stacked outputs (m * n_y) than inputs.
LIFTED_SHAPES = {"tall": (1, 1, 2), "square": (2, 1, 2), "fat": (3, 1, 2)}


def _random_lifted(rng, shape, T, count):
    """``count`` minimal lifted systems of ``shape`` at hold period T."""
    n_u, n_y, m = LIFTED_SHAPES[shape]
    out = []
    while len(out) < count:
        plant = random_continuous(rng, n=int(rng.integers(3, 5)), n_u=n_u, n_y=n_y)
        L = build_lifted(plant, T, m)
        if check_minimal(L).minimal:
            out.append(L)
    return out


@pytest.mark.parametrize("T", [1.0, 0.1])
@pytest.mark.parametrize("shape", sorted(LIFTED_SHAPES))
def test_bezout_certificate_on_random_lifted_systems(shape, T):
    # The lifted products grow with the plant's amplification over a hold
    # period (up to ~1e5 here), so the defect is judged against their
    # magnitude, a hundredfold tighter than the construction-time check.
    for L in _random_lifted(np.random.default_rng(45), shape, T, 6):
        defect, scale = factor._bezout_defect_scaled(coprime_factorize(L))
        assert defect <= 1e-10 * max(1.0, scale), (defect, scale)


def _scalar_formula(sys, lam):
    # the scalar formula the plan direction of a sensor attack is read from
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    M = np.eye(A.shape[0], dtype=complex) - complex(lam) * A
    return D + complex(lam) * (C @ np.linalg.solve(M, B))


def _reference_defect(factors):
    """The Bezout certificate one unit-circle point at a time."""
    worst = 0.0
    for j in range(16):
        lam = np.exp(2j * np.pi * j / 16)
        P = eval_lambda(factors.Ml, lam) @ eval_lambda(factors.X, lam)
        P -= eval_lambda(factors.Nl, lam) @ eval_lambda(factors.Y, lam)
        worst = max(worst, float(np.linalg.norm(P - np.eye(factors.Ml.n_y), 2)))
    return worst


def _plus_pole(sys, p):
    """Square ``sys`` plus lam/(1 - p*lam) times the identity, which peaks at
    lam = 1 for p near 1 and at lam = -1 for p near -1."""
    k = sys.n_y
    return StateSpace(
        A=np.block([[sys.A, np.zeros((sys.n, k))], [np.zeros((k, sys.n)), p * np.eye(k)]]),
        B=np.vstack([sys.B, np.eye(k)]),
        C=np.hstack([sys.C, np.eye(k)]),
        D=sys.D,
    )


def _random_factors():
    rng = np.random.default_rng(41)
    for n_u, n_y in ((1, 1), (1, 2), (2, 1), (2, 2)):
        yield coprime_factorize(random_discrete(rng, n_u=n_u, n_y=n_y))
    yield coprime_factorize(build_lifted(triple_integrator(), 1.0, 4))


class TestBatchedEvaluation:
    def test_array_slices_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        lam = np.concatenate([np.exp(2j * np.pi * np.arange(16) / 16), [0.0, 0.3, -0.7 + 0.2j]])
        for factors in _random_factors():
            for sys in (factors.Ml, factors.Nl, factors.X, factors.Y):
                stacked = eval_lambda(sys, lam)
                assert stacked.shape == (lam.size, sys.n_y, sys.n_u)
                for k, point in enumerate(lam):
                    want = eval_lambda(sys, point)
                    scale = max(1.0, np.max(np.abs(want)))
                    assert np.max(np.abs(stacked[k] - want)) <= 1e-13 * scale
        assert eval_lambda(random_discrete(rng), np.array([0.5])).shape == (1, 1, 1)

    def test_scalar_call_is_the_scalar_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            sys = random_discrete(rng, n_u=2, n_y=3)
            for lam in (0.4, np.exp(0.379j), 1.0 / (0.9 + 0.1j), np.complex128(-1.0)):
                got = eval_lambda(sys, lam)
                assert got.shape == (3, 2)
                np.testing.assert_array_equal(got, _scalar_formula(sys, lam))

    def test_defect_matches_pointwise_reference(self):
        for factors in _random_factors():
            assert abs(bezout_defect(factors) - _reference_defect(factors)) <= 1e-12
            for X in (
                dataclasses.replace(factors.X, D=2.0 * np.eye(factors.X.n_y)),
                _plus_pole(factors.X, 0.99),
                _plus_pole(factors.X, -0.99),
            ):
                corrupted = dataclasses.replace(factors, X=X)
                want = _reference_defect(corrupted)
                assert abs(bezout_defect(corrupted) - want) <= 1e-12 * want

    def test_scale_matches_pointwise_reference(self):
        for factors in _random_factors():
            worst = 0.0
            for j in range(16):
                lam = np.exp(2j * np.pi * j / 16)
                for left, right in ((factors.Ml, factors.X), (factors.Nl, factors.Y)):
                    P = eval_lambda(left, lam) @ eval_lambda(right, lam)
                    worst = max(worst, float(np.linalg.norm(P, 2)))
            assert abs(factor._bezout_defect_scaled(factors)[1] - worst) <= 1e-12 * worst

    def test_nan_defect_fails_the_certificate(self, monkeypatch):
        monkeypatch.setattr(factor, "_bezout_defect_scaled", lambda f: (float("nan"), 1.0))
        with pytest.raises(NumericError, match="Bezout"):
            coprime_factorize(random_discrete(np.random.default_rng(5)))

    def test_corrupted_factors_fail_the_certificate(self):
        for factors in _random_factors():
            # a unit term I added to X (or to Ml) leaves the defect Ml(lam)
            # (or X(lam)), whose mean over the points is its value I at 0
            two = 2.0 * np.eye(factors.Ml.n_y)
            for corrupted in (
                dataclasses.replace(factors, X=dataclasses.replace(factors.X, D=two)),
                dataclasses.replace(factors, Ml=dataclasses.replace(factors.Ml, D=two)),
            ):
                assert bezout_defect(corrupted) >= 0.5


class TestObserverController:
    def test_unstable_scalar_loop_stable(self):
        sys = DiscretePlant(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=1.0)
        factors = coprime_factorize(sys)
        K = observer_controller(factors)
        assert spectral_radius(closed_loop_matrix(sys, K)) < 1.0

    def test_double_integrator_loop_bounded(self):
        plant = double_integrator()
        cfg = standard_loop(discretize(plant, 0.1), theta=1e6, horizon=1000)
        # step disturbance on the actuator: the stable loop keeps signals bounded
        step = Injector(np.ones((1000, 1)), np.zeros((1000, 1)))
        trace = run_single_rate(dataclasses.replace(cfg, attack=step))
        assert np.max(np.abs(trace.y)) < 1e3
        assert np.max(np.abs(trace.u)) < 1e3

    def test_strictly_proper(self):
        factors = coprime_factorize(discretize(triple_integrator(), 1.0))
        assert not np.any(observer_controller(factors).D)

    def test_controller_is_state_space(self):
        single = observer_controller(coprime_factorize(discretize(triple_integrator(), 1.0)))
        lifted = observer_controller(coprime_factorize(build_lifted(triple_integrator(), 1.0, 4)))
        assert isinstance(single, StateSpace) and isinstance(lifted, StateSpace)
        assert (lifted.n, lifted.n_u, lifted.n_y) == (3, 4, 1)


class TestResidualGenerator:
    def test_attack_free_residual_zero(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), horizon=100)
        trace = run_single_rate(cfg)
        r = ss_response(residual_generator(cfg.system), np.hstack([trace.y, trace.u]))
        assert np.max(np.abs(r)) <= 1e-9

    def test_zero_direction_attack_residual_small(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), theta=0.01, horizon=200)
        plan = synth_actuator_attack(cfg)
        trace = run_single_rate(dataclasses.replace(cfg, attack=plan, horizon=plan.horizon))
        r = ss_response(residual_generator(cfg.system), np.hstack([trace.y, trace.u]))
        # the stable numerator factor annihilates the geometric mode
        assert np.max(np.abs(r)) <= cfg.theta

    def test_wrong_mode_attack_residual_grows(self):
        plant = triple_integrator()
        cfg = standard_loop(discretize(plant, 1.0), theta=0.01, horizon=200)
        plan = synth_actuator_attack(cfg)
        bad = dataclasses.replace(plan, zeta=plan.zeta * 1.1)
        trace = run_single_rate(dataclasses.replace(cfg, attack=bad, horizon=plan.horizon))
        r = ss_response(residual_generator(cfg.system), np.hstack([trace.y, trace.u]))
        assert np.max(np.abs(r)) > 100.0 * cfg.theta

    def test_linearity(self):
        rng = np.random.default_rng(31)
        plant = triple_integrator()
        P = discretize(plant, 1.0)
        cfg = standard_loop(P, horizon=60)
        d_a = rng.standard_normal((60, 1))
        d_s = rng.standard_normal((60, 1))

        def residual(da, ds):
            plan = Injector(da, ds)
            tr = run_single_rate(
                dataclasses.replace(cfg, attack=plan, theta=1e9)
            )
            return ss_response(residual_generator(cfg.system), np.hstack([tr.y, tr.u]))

        r_both = residual(d_a, d_s)
        r_sum = residual(d_a, np.zeros_like(d_s)) + residual(np.zeros_like(d_a), d_s)
        np.testing.assert_allclose(r_both, r_sum, atol=1e-9)
