"""Dual-rate lifted system construction and its rank assumptions.

Sampling the output m times per hold period turns the multirate loop into
a shift-invariant one.  With the fast-rate quadruple (A, B, C, D) at
period T/m, the lifted blocks are

    A_lift = A^m                 B_lift = sum_{k<m} A^k B
    C_lift = rows  C, CA, ..., CA^{m-1}
    D_lift = rows  D, CB+D, ..., C(sum_{k<m-1} A^k)B + D

and the lifted input is the held value while the lifted output stacks the
m intra-period samples.  Two rank conditions make the lifted zeros
harmless: the fast input matrix must have full column rank, and the
stack of C, CA, ..., CA^{m-2} must have full column rank (guaranteed at
m = n+1 for an observable fast pair, often much earlier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, ModelError
from .factor import Controller
from .model import ContinuousPlant, DiscretePlant, StateSpace, discretize, ss_response

__all__ = [
    "LiftedSystem",
    "AssumptionReport",
    "ShiftConsistencyResult",
    "build_lifted",
    "check_assumptions",
    "choose_m",
    "shift_consistency_check",
    "observability_stack",
    "block_difference_matrix",
    "lift_controller",
    "SHIFT_CONSISTENCY_TOL",
]

# Largest scaled disagreement the shift-consistency check accepts.
SHIFT_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class LiftedSystem(StateSpace):
    """Lifted dual-rate quadruple plus the fast plant that generated it.

    The generating fast plant is kept on purpose: every lifted-domain
    result can be cross-checked in the time domain.  Instances produced by
    :func:`build_lifted` satisfy the block identities exactly.  Hand-built
    instances are checked for shape and finiteness like any quadruple, but
    not for the block identities (tests use that to inject corruption).
    """

    m: int
    base_period: float
    fast_plant: DiscretePlant


@dataclass(frozen=True)
class AssumptionReport:
    """Rank verdicts for the two lifted-zero assumptions, with evidence."""

    b_full_rank: bool
    b_rank: linalg.RankResult
    obs_full_rank: bool
    obs_rank: linalg.RankResult
    m_used: int

    @property
    def satisfied(self) -> bool:
        return self.b_full_rank and self.obs_full_rank


@dataclass(frozen=True)
class ShiftConsistencyResult:
    consistent: bool
    max_error: float
    trials: int
    tolerance: float


def observability_stack(A, C, m: int) -> np.ndarray:
    """Stack of C, CA, ..., CA^{m-2} (m-1 row blocks)."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    rows = [np.asarray(C, dtype=float)]
    M = rows[0]
    for _ in range(m - 2):
        M = M @ A
        rows.append(M)
    return np.vstack(rows)


def block_difference_matrix(m: int, n_y: int) -> np.ndarray:
    """Banded block matrix taking successive differences of m stacked samples."""
    X = np.zeros(((m - 1) * n_y, m * n_y))
    I = np.eye(n_y)
    for i in range(m - 1):
        X[i * n_y : (i + 1) * n_y, i * n_y : (i + 1) * n_y] = I
        X[i * n_y : (i + 1) * n_y, (i + 1) * n_y : (i + 2) * n_y] = -I
    return X


def _lifted_blocks(A, B, C, D, m):
    n = A.shape[0]
    A_pow = np.eye(n)
    A_sum = np.zeros_like(A)  # sum_{k<i} A^k, built incrementally
    C_row = np.asarray(C, dtype=float).copy()
    D_acc = np.asarray(D, dtype=float).copy()
    C_rows, D_rows = [], []
    for _ in range(m):
        C_rows.append(C_row)
        D_rows.append(D_acc)
        A_sum = A_sum + A_pow
        A_pow = A_pow @ A
        D_acc = D_acc + C_row @ B
        C_row = C_row @ A
    return A_pow, A_sum @ B, np.vstack(C_rows), np.vstack(D_rows)


def build_lifted(plant: ContinuousPlant, T: float, m: int) -> LiftedSystem:
    """Assemble the lifted dual-rate system for hold period T and m sub-samples.

    The fast plant is the zero-order-hold discretization at T/m; the
    lifted blocks are assembled from it and cross-checked against a
    direct m-substep simulation before the object is returned.
    """
    if int(m) != m or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m}")
    m = int(m)
    if not T > 0:
        raise ValueError(f"base period must be positive, got {T}")
    fast = discretize(plant, T / m)
    A_l, B_l, C_l, D_l = _lifted_blocks(fast.A, fast.B, fast.C, fast.D, m)
    lifted = LiftedSystem(
        A=A_l, B=B_l, C=C_l, D=D_l, m=m, base_period=float(T), fast_plant=fast
    )
    _validate_against_fast(lifted)
    return lifted


def _validate_against_fast(L: LiftedSystem) -> None:
    """One-step probe: a lifted step must reproduce m fast sub-steps exactly."""
    fast = L.fast_plant
    n, n_u = fast.n, fast.n_u
    x0 = np.cos(1.0 + np.arange(n))  # fixed deterministic probe
    u = np.sin(1.0 + np.arange(n_u))
    ys, xs = ss_response(fast, np.tile(u, (L.m, 1)), x0=x0, return_states=True)
    y_direct = ys.reshape(-1)
    y_lifted = L.C @ x0 + L.D @ u
    x_lifted = L.A @ x0 + L.B @ u
    scale = max(1.0, float(np.max(np.abs(y_direct))), float(np.max(np.abs(xs))))
    err = max(
        float(np.max(np.abs(y_lifted - y_direct))),
        float(np.max(np.abs(x_lifted - xs[-1]))),
    )
    if err > 1e-9 * scale:
        raise ModelError(
            f"lifted blocks disagree with the fast plant (probe error {err:.3e})"
        )


def check_assumptions(L: LiftedSystem) -> AssumptionReport:
    """Rank tests behind the lifted-zero guarantees.

    The fast input matrix must have full column rank, and the stacked
    observability rows C, CA, ..., CA^{m-2} must have full column rank.
    """
    fast = L.fast_plant
    b_rank = linalg.rank_svd(fast.B)
    obs = observability_stack(fast.A, fast.C, L.m)
    obs_rank = linalg.rank_svd(obs)
    return AssumptionReport(
        b_full_rank=b_rank.rank == fast.n_u,
        b_rank=b_rank,
        obs_full_rank=obs_rank.rank == fast.n,
        obs_rank=obs_rank,
        m_used=L.m,
    )


def choose_m(plant: ContinuousPlant, T: float) -> int:
    """Smallest sub-sampling factor satisfying both rank assumptions.

    Searches m = 2, 3, ..., n+1 (n+1 suffices for an observable fast
    pair).  Raises :class:`ModelError` when no admissible m exists (the
    input matrix is rank deficient or the fast pair is unobservable).
    """
    upper = plant.n + 1
    for m in range(2, upper + 1):
        if check_assumptions(build_lifted(plant, T, m)).satisfied:
            return m
    raise ModelError(
        f"no m in [2, {upper}] satisfies the rank assumptions: the plant violates "
        "input full column rank or the fast pair is unobservable"
    )


def shift_consistency_check(
    L: LiftedSystem, trials: int = 5, n_steps: int = 40, rng=None
) -> ShiftConsistencyResult:
    """Time-shift cross-check of the lifted blocks against the fast plant.

    For random held-input sequences, the lifted response to the input
    delayed by one base step must equal the fast-rate response to the
    undelayed input, delayed by m sub-steps and stacked.  Corrupted
    lifted blocks break the match: the largest scaled error must not
    exceed ``SHIFT_CONSISTENCY_TOL``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    fast = L.fast_plant
    m, n_u = L.m, L.n_u
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal((n_steps, n_u))
        # Lifted response to the delayed input.
        u_delayed = np.vstack([np.zeros((1, n_u)), u[:-1]])
        y_lifted = ss_response(L, u_delayed)  # (n_steps, m*n_y)
        # Fast response to the undelayed input, then delay by m sub-steps.
        u_fast = np.repeat(u, m, axis=0)
        y_fast = ss_response(fast, u_fast)
        y_fast_delayed = np.vstack([np.zeros((m, fast.n_y)), y_fast[:-m]])
        y_stacked = y_fast_delayed.reshape(n_steps, m * fast.n_y)
        scale = max(1.0, float(np.max(np.abs(y_stacked))))
        worst = max(worst, float(np.max(np.abs(y_lifted - y_stacked))) / scale)
    return ShiftConsistencyResult(
        consistent=worst <= SHIFT_CONSISTENCY_TOL,
        max_error=worst,
        trials=trials,
        tolerance=SHIFT_CONSISTENCY_TOL,
    )


def lift_controller(controller: Controller, m: int) -> Controller:
    """Lift a single-rate controller to the stacked-output interface.

    The lifted input matrix reads only the first sample of each stacked
    block, so the dual-rate loop reproduces the single-rate loop exactly
    at base-rate instants.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    n_y = controller.B.shape[1]
    B = np.zeros((controller.A.shape[0], m * n_y))
    B[:, :n_y] = controller.B
    if np.any(controller.D):
        raise DimensionError("only strictly proper controllers can be lifted")
    return Controller(
        A=controller.A,
        B=B,
        C=controller.C,
        D=np.zeros((controller.C.shape[0], m * n_y)),
        kind="observer_based_lifted",
    )
