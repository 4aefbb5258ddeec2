"""Shared fixtures-as-functions for the test suite."""

import numpy as np

from liftguard import ContinuousPlant, Controller, DiscretePlant, check_minimal
from liftguard.errors import DimensionError, LiftguardError
from liftguard.zeros import _match_multisets


def triple_integrator(name="triple-int"):
    return ContinuousPlant(
        Ac=[[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        Bc=[[0], [0], [1]],
        Cc=[[1, 0, 0]],
        Dc=[[0]],
        name=name,
    )


def double_integrator(name="double-int"):
    return ContinuousPlant(
        Ac=[[0, 1], [0, 0]], Bc=[[0], [1]], Cc=[[1, 0]], Dc=[[0]], name=name
    )


def unstable_scalar(name="unstable-scalar"):
    # pole at 2 when sampled with T = 1
    return ContinuousPlant(Ac=[[np.log(2.0)]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]], name=name)


def light_oscillator(name="light-oscillator"):
    # undamped frequency 2 rad/s, damping ratio 0.01
    return ContinuousPlant(
        Ac=[[0.0, 1.0], [-4.0, -0.04]], Bc=[[0.0], [1.0]], Cc=[[1.0, 0.0]], Dc=[[0.0]], name=name
    )


def stable_two_state(name="stable-2"):
    return ContinuousPlant(
        Ac=[[-1.0, 0.3], [0.0, -0.5]], Bc=[[1.0], [0.5]], Cc=[[1.0, 0.2]], Dc=[[0.0]], name=name
    )


def random_continuous(rng, n=None, n_u=None, n_y=None, max_tries=80):
    """Random minimal continuous plant; redraws until minimal."""
    for _ in range(max_tries):
        nn = int(rng.integers(2, 6)) if n is None else n
        nu = int(rng.integers(1, 3)) if n_u is None else n_u
        ny = int(rng.integers(1, 4)) if n_y is None else n_y
        nu = min(nu, nn)
        try:
            return ContinuousPlant(
                Ac=rng.standard_normal((nn, nn)),
                Bc=rng.standard_normal((nn, nu)),
                Cc=rng.standard_normal((ny, nn)),
                Dc=np.zeros((ny, nu)),
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
    return Controller(
        A=controller.A,
        B=B,
        C=controller.C,
        D=np.zeros((controller.C.shape[0], m * n_y)),
        kind="observer_based_lifted",
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
