"""Shared fixtures-as-functions for the test suite."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from liftguard import (
    ContinuousPlant,
    DiscretePlant,
    LiftedSystem,
    StateSpace,
    build_lifted,
    check_assumptions,
    check_minimal,
    coprime_factorize,
    discretize,
    eval_lambda,
    linalg,
)
from liftguard.errors import DimensionError, LiftguardError
from liftguard.factor import _bezout_defect_scaled
from liftguard.sim import monitor_eval
from liftguard.zeros import (
    _PROBE_POINTS,
    _Z_INFINITY_CUTOFF,
    BOUNDARY_TOL,
    CONFIRM_RTOL,
    MATCH_TOL,
    _candidates,
    _match_multisets,
    pencil_matrix,
)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """The benchmark harness module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def triple_integrator(name="triple-int"):
    return ContinuousPlant(
        A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        B=[[0], [0], [1]],
        C=[[1, 0, 0]],
        D=[[0]],
        name=name,
    )


def double_integrator(name="double-int"):
    return ContinuousPlant(
        A=[[0, 1], [0, 0]], B=[[0], [1]], C=[[1, 0]], D=[[0]], name=name
    )


def unstable_scalar(name="unstable-scalar"):
    # pole at 2 when sampled with T = 1
    return ContinuousPlant(A=[[np.log(2.0)]], B=[[1.0]], C=[[1.0]], D=[[0.0]], name=name)


def light_oscillator(name="light-oscillator"):
    # undamped frequency 2 rad/s, damping ratio 0.01
    return ContinuousPlant(
        A=[[0.0, 1.0], [-4.0, -0.04]], B=[[0.0], [1.0]], C=[[1.0, 0.0]], D=[[0.0]], name=name
    )


def stable_two_state(name="stable-2"):
    return ContinuousPlant(
        A=[[-1.0, 0.3], [0.0, -0.5]], B=[[1.0], [0.5]], C=[[1.0, 0.2]], D=[[0.0]], name=name
    )


def sampled(plant, T, mode):
    """The loop's sampled system in ``mode``: the ZOH plant at T, or the
    lifted system at T with the smallest admissible m."""
    return build_lifted(plant, T) if mode == "dual_rate" else discretize(plant, T)


def random_continuous(rng, n=None, n_u=None, n_y=None, max_tries=80):
    """Random minimal continuous plant; redraws until minimal."""
    for _ in range(max_tries):
        nn = int(rng.integers(2, 6)) if n is None else n
        nu = int(rng.integers(1, 3)) if n_u is None else n_u
        ny = int(rng.integers(1, 4)) if n_y is None else n_y
        nu = min(nu, nn)
        try:
            return ContinuousPlant(
                A=rng.standard_normal((nn, nn)),
                B=rng.standard_normal((nn, nu)),
                C=rng.standard_normal((ny, nn)),
                D=np.zeros((ny, nu)),
            )
        except LiftguardError:
            continue
    raise RuntimeError("could not draw a minimal plant")


def random_tall_continuous(rng, **kw):
    n_u = int(rng.integers(1, 3))
    n_y = int(rng.integers(n_u, n_u + 2))
    return random_continuous(rng, n_u=n_u, n_y=n_y, **kw)


def random_discrete(rng, n=None, n_u=1, n_y=1, radius=0.85, max_tries=80, biproper=True):
    """Random minimal discrete plant with spectral radius scaled to `radius`."""
    for _ in range(max_tries):
        nn = int(rng.integers(2, 6)) if n is None else n
        A = rng.standard_normal((nn, nn))
        A = A * (radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9))
        sys = DiscretePlant(
            A=A,
            B=rng.standard_normal((nn, n_u)),
            C=rng.standard_normal((n_y, nn)),
            D=rng.standard_normal((n_y, n_u)) if biproper else np.zeros((n_y, n_u)),
            period=1.0,
        )
        if check_minimal(sys).minimal:
            return sys
    raise RuntimeError("could not draw a minimal discrete plant")


def ss_response(sys, inputs, x0=None, return_states: bool = False):
    """Exact discrete state recursion x+ = A x + B u, y = C x + D u, the
    time-domain oracle of the tests (the closed loop runs on ``sim``'s own
    recursion).

    ``inputs`` has shape (N, n_u) (a 1-D array is accepted for
    single-input systems); ``x0`` is the initial state (zero when None).
    Outputs have shape (N, n_y); with ``return_states`` the state
    trajectory, shape (N + 1, n) including the final post-update state,
    is returned too.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, n_u = A.shape[0], B.shape[1]
    U = np.asarray(inputs, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.ndim != 2 or U.shape[1] != n_u:
        raise DimensionError(f"inputs must have shape (N, {n_u}), got {U.shape}")
    if U.shape[0] < 1:
        raise DimensionError("input sequence must contain at least one sample")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise DimensionError(f"x0 must have dimension {n}, got {x.shape[0]}")
    N = U.shape[0]
    Y = np.empty((N, C.shape[0]))
    X = np.empty((N + 1, n)) if return_states else None
    for k in range(N):
        if return_states:
            X[k] = x
        Y[k] = C @ x + D @ U[k]
        x = A @ x + B @ U[k]
    if return_states:
        X[N] = x
        return Y, X
    return Y


def bezout_defect(factors) -> float:
    """Largest deviation of Ml*X - Nl*Y from identity on 16 unit-circle
    samples, the 16th roots of unity: the defect ``coprime_factorize``
    appends to its ``certificate`` list, read off any factors."""
    return _bezout_defect_scaled(factors)[0]


def riccati_residual(A, B, Q, R, P):
    """(relative residual, gain) of ``P`` in the discrete Riccati equation
    of ``(A, B, Q, R)``, as ``linalg.dare_gain`` judges it: the largest
    entry of the residual over the largest entry of ``A' P A``, ``P`` and
    ``Q``, and ``F = -(R + B' P B)^{-1} B' P A``."""
    BPA = B.T @ P @ A
    F = -np.linalg.solve(R + B.T @ P @ B, BPA)
    APA = A.T @ P @ A
    scale = max(np.max(np.abs(APA)), np.max(np.abs(P)), np.max(np.abs(Q)))
    return np.max(np.abs(APA - P + BPA.T @ F + Q)) / scale, F


def residual_generator(sys) -> StateSpace:
    """Residual filter of ``sys`` over the stacked input [y, u]: its left
    pair side by side, [Ml, -Nl], realized on their common state.

    The quadruple is (A+HC, [H, -(B+HD)], C, [I, -D]); run it with
    ``ss_response(residual_generator(sys), np.hstack([y, u]))``.  In an
    attack-free closed loop started from zero states the residual is
    identically zero; injected actuator and sensor disturbances appear in
    it filtered by the stable left factors.
    """
    f = coprime_factorize(sys)
    return StateSpace(f.Ml.A, np.hstack([f.Ml.B, -f.Nl.B]), f.Ml.C, np.hstack([f.Ml.D, -f.Nl.D]))


def multiplicity_at_one(left_numerator) -> str:
    """Algebraic multiplicity of a possible zero at frequency one of a
    stable left-factor numerator, such as ``coprime_factorize(sys).Nl``: the
    oracle for ``zeros._multiple_at(sys, 1.0)``, which runs the same rule
    on the system pencil.

    The factor's transfer map and its frequency derivative are evaluated
    in closed form at the point, then stacked into the two-block test
    matrix whose right null chain certifies multiplicity greater than
    one.  Returns ``"not_a_zero"``, ``"simple"``, or ``"multiple"``.
    """
    A, B, C, D = left_numerator.A, left_numerator.B, left_numerator.C, left_numerator.D
    n_u = B.shape[1]
    I = np.eye(A.shape[0])
    S = np.linalg.solve(I - A, B)  # (I - A)^{-1} B
    N1 = C @ S + D
    N1p = C @ np.linalg.solve(I - A, S)  # C (I - A)^{-2} B
    # Rank decisions need an absolute scale: a numerator that vanishes
    # entirely at the point would otherwise look full rank relative to its
    # own largest singular value.  Generic unit-circle samples of the
    # (stable) factor provide the scale.
    samples = eval_lambda(left_numerator, np.exp([0.379j, 2.211j]))
    scale = max(float(np.max(np.linalg.norm(samples, 2, axis=(-2, -1)))), np.finfo(float).tiny)
    r1 = linalg.rank_svd(N1, scale=scale).rank
    if r1 == n_u:
        return "not_a_zero"
    T = np.block([[N1, np.zeros_like(N1)], [N1p, N1]])
    rT = linalg.rank_svd(T, scale=scale).rank
    return "multiple" if rT < n_u + r1 else "simple"


def reference_sensor_direction(sys, zeta: complex) -> np.ndarray:
    """Sensor plan direction from the left denominator factor ``Ml``: its
    null vector at the pole's reciprocal frequency, so the factor
    annihilates the injected mode, scaled to max-norm one with its largest
    entry real positive.  The oracle for ``synth_sensor_attack``'s
    pencil construction."""
    Ml = coprime_factorize(sys).Ml
    _, _, Vh = np.linalg.svd(eval_lambda(Ml, 1.0 / zeta))
    d0 = Vh[-1].conj()
    idx = int(np.argmax(np.abs(d0)))
    return d0 / (d0[idx] / abs(d0[idx])) / abs(d0[idx])


def reference_sensor_verdict(sys):
    """(verdict, witness modulus) of the sensor channel read off
    ``numpy.linalg.eigvals(A)`` against the unit circle, the pole route the
    sensor pencil's rule replaced: "yes" with the largest modulus beyond
    ``BOUNDARY_TOL`` outside the circle; else "undecided" when two boundary
    eigenvalues lie within ``MATCH_TOL`` of each other; else "no"."""
    poles = np.linalg.eigvals(sys.A)
    outside = [abs(p) for p in poles if abs(p) - 1.0 > BOUNDARY_TOL]
    if outside:
        return "yes", max(outside)
    boundary = [p for p in poles if abs(abs(p) - 1.0) <= BOUNDARY_TOL]
    repeated = any(abs(a - b) <= MATCH_TOL for i, a in enumerate(boundary) for b in boundary[:i])
    return ("undecided" if repeated else "no"), None


class Injector:
    """Fixed attack signals for a loop run: it answers the one call a loop
    makes of a plan, ``render``.  ``d_a`` has one row per base step and
    ``d_s`` one per sample; each is cut or zero-padded to the run's length
    and placed on the leading channels."""

    def __init__(self, d_a, d_s):
        self.d_a = np.asarray(d_a, dtype=float)
        self.d_s = np.asarray(d_s, dtype=float)

    @staticmethod
    def _fit(seq, n_rows, n_channels):
        out = np.zeros((n_rows, n_channels))
        take = min(n_rows, seq.shape[0])
        out[:take, : seq.shape[1]] = seq[:take]
        return out

    def render(self, n_steps, n_u, n_y, m=1):
        return self._fit(self.d_a, n_steps, n_u), self._fit(self.d_s, n_steps * m, n_y)


def has_zero_at(sys, z: complex) -> bool:
    """Rank test: does every pencil of ``reference_rank_systems(sys)`` (the
    system pencil and, for a lifted system, its small pencil) fall below its
    normal rank at ``z``, judged at relative tolerance ``CONFIRM_RTOL``?
    The normal rank is the largest rank at the probe points, at the default
    tolerance.  A non-finite ``z`` raises ``NumericError``."""
    for s in reference_rank_systems(sys):
        normal = max(r.rank for r in linalg.rank_svd(pencil_matrix(s, _PROBE_POINTS)))
        if linalg.rank_svd(pencil_matrix(s, z), rel_tol=CONFIRM_RTOL).rank >= normal:
            return False
    return True


def reference_rank_systems(sys):
    """The systems whose pencils a zero of ``sys`` must drop the rank of,
    the candidate source first: a lifted system whose observability stack
    has full column rank adds its small system ``(A_l, B_l, [C_f; δ],
    [D_f; B_f/h])``, ``δ = (A_f - I)/h``."""
    systems = [sys]
    if isinstance(sys, LiftedSystem) and check_assumptions(sys).obs_full_rank:
        f = sys.fast_plant
        delta = (f.A - np.eye(f.n)) / f.period
        small = StateSpace(sys.A, sys.B, np.vstack([f.C, delta]), np.vstack([f.D, f.B / f.period]))
        systems.insert(0, small)
    return systems


def reference_confirmed_zeros(sys):
    """The two-pass confirmation ``zeros`` used before its one stacked SVD
    per pencil: the normal rank of every pencil at the probe points first,
    then the candidates confirmed pencil by pencil at ``CONFIRM_RTOL``.
    The exact oracle for ``transmission_zeros``: ``(normal rank,
    [(z, residual)])`` of a minimal ``sys``."""

    def normal_rank(s):
        return max(r.rank for r in linalg.rank_svd(pencil_matrix(s, _PROBE_POINTS)))

    tests = [(s, normal_rank(s)) for s in reference_rank_systems(sys)]
    cands = [z for z in _candidates(tests[0][0]) if abs(z) <= _Z_INFINITY_CUTOFF]
    found = [(complex(z), 0.0) for z in cands]
    for pencil_sys, rank in tests:
        if not found:
            break
        pencils = pencil_matrix(pencil_sys, [z for z, _ in found])
        found = [
            (z, float(r.singular_values[rank - 1]))
            for (z, _), r in zip(found, linalg.rank_svd(pencils, rel_tol=CONFIRM_RTOL))
            if r.rank < rank
        ]
    return tests[-1][1], found


def assert_sets_close(actual, expected, tol, label=""):
    """Multiset comparison of complex values by the package's matcher."""
    actual, expected = list(actual), list(expected)
    assert _match_multisets(actual, expected, tol) is not None, (
        f"{label}: {actual} and {expected} do not match within {tol}"
    )


def lift_controller(controller, m):
    """Lift a single-rate controller to the stacked-output interface.

    The lifted input matrix reads only the first sample of each stacked
    block, so the dual-rate loop reproduces the single-rate loop exactly
    at base-rate instants.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if np.any(controller.D):
        raise DimensionError("only strictly proper controllers can be lifted")
    n_y = controller.B.shape[1]
    B = np.zeros((controller.A.shape[0], m * n_y))
    B[:, :n_y] = controller.B
    return StateSpace(
        A=controller.A,
        B=B,
        C=controller.C,
        D=np.zeros((controller.C.shape[0], m * n_y)),
    )


def run_lifted_closed_loop(L, controller, n_steps, d_a=None, d_s_stacked=None, x0=None,
                           xk0=None):
    """Reference LTI recursion of the lifted loop with stacked signals.

    The oracle for the dual-rate time-domain engine: both must produce
    identical command and stacked-output trajectories.  Returns
    ``(u, y_stacked)``.
    """
    n, n_u, n_ys = L.n, L.n_u, L.C.shape[0]
    d_a = np.zeros((n_steps, n_u)) if d_a is None else np.asarray(d_a, dtype=float)
    d_s = np.zeros((n_steps, n_ys)) if d_s_stacked is None else np.asarray(d_s_stacked, dtype=float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    xk = np.zeros(controller.n) if xk0 is None else np.asarray(xk0, dtype=float)
    u_log = np.empty((n_steps, n_u))
    y_log = np.empty((n_steps, n_ys))
    for k in range(n_steps):
        u_k = controller.C @ xk
        ua = u_k + d_a[k]
        y_k = L.C @ x + L.D @ ua + d_s[k]
        u_log[k] = u_k
        y_log[k] = y_k
        xk = controller.A @ xk + controller.B @ y_k
        x = L.A @ x + L.B @ ua
    return u_log, y_log


def reference_closed_loop(cfg):
    """The loop stepped one fast sub-step per output sample, every product
    written as ``@``, over the whole horizon with no early exit: the
    oracle for ``sim``'s one step per hold period.  It runs on the fast
    plant (the ZOH plant itself in single rate) with the held input and
    the attack sequences the plan renders.  Returns ``(u, y, x,
    monitor)``, with the plant state ``x`` at every output sample.
    """
    sys, K, N = cfg.system, cfg.controller, cfg.horizon
    fast, m = (sys.fast_plant, sys.m) if cfg.mode == "dual_rate" else (sys, 1)
    d_a, d_s = np.zeros((N, fast.n_u)), np.zeros((N * m, fast.n_y))
    if cfg.attack is not None:
        d_a, d_s = cfg.attack.render(N, fast.n_u, fast.n_y, m)
    x = np.zeros(fast.n) if cfg.x0_plant is None else np.asarray(cfg.x0_plant, dtype=float)
    xk = np.zeros(K.n)
    u, xs, y_phys = np.empty((N, fast.n_u)), np.empty((N * m, fast.n)), np.empty((N * m, fast.n_y))
    for k in range(N):
        u[k] = K.C @ xk
        ua = u[k] + d_a[k]
        for i in range(k * m, (k + 1) * m):
            xs[i] = x
            y_phys[i] = fast.C @ x + fast.D @ ua
            x = fast.A @ x + fast.B @ ua
        xk = K.A @ xk + K.B @ (y_phys[k * m : (k + 1) * m] + d_s[k * m : (k + 1) * m]).ravel()
    y = y_phys + d_s
    _, monitor = monitor_eval(y, np.repeat(u, m, axis=0), cfg.theta)
    return u, y, xs, monitor


def reference_trace_to_csv(trace, path):
    """The row-by-row CSV writer, the byte-exact oracle for
    ``sim.trace_to_csv``."""
    m = trace.samples_per_step
    n_u = trace.u.shape[1]
    n_y = trace.y.shape[1]
    header = (
        ["step", "substep", "time"]
        + [f"u_{i+1}" for i in range(n_u)]
        + [f"y_{i+1}" for i in range(n_y)]
        + [f"da_{i+1}" for i in range(n_u)]
        + [f"ds_{i+1}" for i in range(n_y)]
        + ["monitor", "crossed"]
    )
    step = np.arange(trace.y.shape[0]) // m
    floats = np.hstack(
        [trace.times[:, None], trace.u[step], trace.y, trace.d_a[step], trace.d_s,
         trace.monitor[:, None]]
    ).tolist()
    crossed = (~(trace.monitor <= trace.theta)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for idx, row in enumerate(floats):
            k, i = divmod(idx, m)
            fh.write(f"{k},{i},{','.join(map(repr, row))},{int(crossed[idx])}\r\n")
