"""Dual-rate lifted system construction and its rank assumptions.

Sampling the output m times per hold period turns the multirate loop into
a shift-invariant one.  With the fast-rate quadruple (A, B, C, D) at
period T/m, the lifted blocks are

    A_lift = A^m                 B_lift = sum_{k<m} A^k B
    C_lift = rows  C, CA, ..., CA^{m-1}
    D_lift = rows  D, CB+D, ..., C(sum_{k<m-1} A^k)B + D

and the lifted input is the held value while the lifted output stacks the
m intra-period samples.  A lifted system is a discrete plant whose period
is the hold period T.  Two rank conditions make the lifted zeros
harmless: the fast input matrix must have full column rank, and the
stack of C, CA, ..., CA^{m-2} must have full column rank (guaranteed at
m = n+1 for an observable fast pair, often much earlier).  That stack is
tested in δ form, as C, Cδ, ..., Cδ^{m-2} with δ = (A - I)/(T/m), which
has the same row space and stays well scaled as T/m shrinks.  Every
lifted system is certified against m fast sub-steps of its generating
plant by one exact check on the identity columns
(:func:`shift_consistency_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ModelError
from .model import ContinuousPlant, DiscretePlant, _delta_form, discretize, observability_stack

__all__ = [
    "LiftedSystem",
    "AssumptionReport",
    "ShiftConsistencyResult",
    "build_lifted",
    "check_assumptions",
    "choose_m",
    "shift_consistency_check",
    "block_difference_matrix",
    "SHIFT_CONSISTENCY_TOL",
]

# Largest scaled disagreement the shift-consistency check accepts.
SHIFT_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class LiftedSystem(DiscretePlant):
    """Lifted dual-rate quadruple at the hold period ``period``, plus the
    fast plant that generated it.

    The generating fast plant is kept on purpose: every lifted-domain
    result can be cross-checked in the time domain.  Instances produced by
    :func:`build_lifted` pass :func:`shift_consistency_check`.  Hand-built
    instances are checked for shape and finiteness like any quadruple, but
    not for the block identities (tests use that to inject corruption).
    """

    m: int
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
    tolerance: float


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


def build_lifted(plant: ContinuousPlant, T: float, m=None, certificate=None) -> LiftedSystem:
    """Assemble the lifted dual-rate system for hold period T and m sub-samples.

    The fast plant is the zero-order-hold discretization at T/m; the
    lifted blocks are assembled from it and certified by
    :func:`shift_consistency_check` before the object is returned.  With
    m None, m is the smallest admissible factor (:func:`choose_m`), and
    the fast plant its search sampled at T/m is the one lifted.  A list
    ``certificate`` receives the check's result (a ``dataclasses.replace``
    copy of the system would carry a stored one stale).
    """
    if m is None:
        samples = {}
        m = choose_m(plant, T, samples)
        fast = samples[m]
    else:
        if int(m) != m or m < 2:
            raise ValueError(f"m must be an integer >= 2, got {m}")
        m = int(m)
        if not 0 < T < np.inf:
            raise ValueError(f"base period must be positive and finite, got {T}")
        fast = discretize(plant, T / m)
    A_l, B_l, C_l, D_l = _lifted_blocks(fast.A, fast.B, fast.C, fast.D, m)
    lifted = LiftedSystem(
        A=A_l, B=B_l, C=C_l, D=D_l, period=float(T), m=m, fast_plant=fast
    )
    check = shift_consistency_check(lifted)
    if not check.consistent:
        raise ModelError(
            f"lifted blocks disagree with the fast plant (error {check.max_error:.3e})"
        )
    if certificate is not None:
        certificate.append(check)
    return lifted


def _assumption_report(fast: DiscretePlant, m: int) -> AssumptionReport:
    """The two rank tests of :func:`check_assumptions` on the fast plant
    at sub-sampling factor m, with no lifted system assembled."""
    b_rank = linalg.rank_svd(fast.B)
    obs_rank = linalg.rank_svd(observability_stack(_delta_form(fast)[0], fast.C, m))
    return AssumptionReport(
        b_full_rank=b_rank.rank == fast.n_u,
        b_rank=b_rank,
        obs_full_rank=obs_rank.rank == fast.n,
        obs_rank=obs_rank,
        m_used=m,
    )


def check_assumptions(L: LiftedSystem) -> AssumptionReport:
    """Rank tests behind the lifted-zero guarantees.

    The fast input matrix must have full column rank, and the stacked
    observability rows C, CA, ..., CA^{m-2} must have full column rank;
    ``obs_rank`` is the rank test on the δ-form rows C, Cδ, ..., Cδ^{m-2}.
    """
    return _assumption_report(L.fast_plant, L.m)


def choose_m(plant: ContinuousPlant, T: float, samples=None) -> int:
    """Smallest sub-sampling factor satisfying both rank assumptions.

    Searches m up to n+1 (n+1 suffices for an observable fast pair),
    running the rank tests of :func:`check_assumptions` on the fast plant
    at T/m; no lifted system is assembled.  The search starts at
    max(2, ceil(n/n_y) + 1): below that the stack C, ..., Cδ^{m-2} has
    fewer than n rows and cannot have rank n, so those m are never
    sampled.  Each fast plant it samples is stored under its m in
    ``samples`` when a dict is given.
    Raises :class:`ModelError` when no admissible m exists (the input
    matrix is rank deficient or the fast pair is unobservable).
    """
    if samples is None:
        samples = {}
    upper = plant.n + 1
    for m in range(max(2, -(-plant.n // plant.n_y) + 1), upper + 1):
        samples[m] = discretize(plant, T / m)
        if _assumption_report(samples[m], m).satisfied:
            return m
    raise ModelError(
        f"no m in [2, {upper}] satisfies the rank assumptions: the plant violates "
        "input full column rank or the fast pair is unobservable"
    )


def shift_consistency_check(L: LiftedSystem) -> ShiftConsistencyResult:
    """Exact certificate of the lifted blocks against the fast plant.

    One lifted step is linear in (x, u), so stepping the fast plant m times
    with the input held, from the n + n_u identity columns
    ``X = [I, 0]``, ``U = [0, I]``, reproduces ``[[A_l, B_l], [C_l, D_l]]``
    column for column; agreement there gives agreement on every input
    sequence, shifted or not.  Each column's error is scaled by
    max(1, largest entry of the fast-plant column), and the largest scaled
    error must not exceed ``SHIFT_CONSISTENCY_TOL``.
    """
    fast = L.fast_plant
    n, n_u = fast.n, fast.n_u
    X = np.hstack([np.eye(n), np.zeros((n, n_u))])
    U = np.hstack([np.zeros((n_u, n)), np.eye(n_u)])
    Y = []
    for _ in range(L.m):
        Y.append(fast.C @ X + fast.D @ U)
        X = fast.A @ X + fast.B @ U
    reference = np.vstack([X] + Y)
    blocks = np.block([[L.A, L.B], [L.C, L.D]])
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=0))
    worst = float(np.max(np.abs(blocks - reference) / scale))
    return ShiftConsistencyResult(
        consistent=worst <= SHIFT_CONSISTENCY_TOL,
        max_error=worst,
        tolerance=SHIFT_CONSISTENCY_TOL,
    )
