"""Dense linear-algebra kernels: matrix exponential, SVD-based rank,
eigenvalues, and stabilizing gains from scipy's generalized-Schur Riccati
solver, checked for its residual and for closed-loop stability.

Everything is plain ``numpy`` arrays in and out, sized for desk-scale
problems (state dimension up to a few tens).  All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, ModelError, NumericError

__all__ = [
    "RankResult",
    "expm",
    "rank_svd",
    "rank_of",
    "eig",
    "spectral_radius",
    "dare_gain",
    "DEFAULT_RANK_RTOL",
    "DARE_RESIDUAL_RTOL",
]

DEFAULT_RANK_RTOL = 1e-9
# Measured worst case over the 7,200 equations of the 3,600 factorizations
# of the 450-plant benchmark population at T in {1, 0.1, 0.01, 1e-3}, ZOH
# and lifted, each solved stacked as ``coprime_factorize`` solves it: 1.5e-8
# (1.2e-8 with each equation solved alone).
DARE_RESIDUAL_RTOL = 1e-6


def _as_matrix(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """``M`` as a non-empty finite matrix (with ``stack``, or a 3-D stack)."""
    A = np.atleast_2d(np.asarray(M))
    if A.ndim != 2 and not (stack and A.ndim == 3):
        raise DimensionError(f"{name} must be two-dimensional, got ndim={A.ndim}")
    if A.size == 0:
        raise DimensionError(f"{name} is empty")
    if not np.isfinite(A).all():
        raise NumericError(f"{name} contains non-finite entries")
    return A


def _square(M, name: str = "matrix") -> np.ndarray:
    A = _as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def expm(M) -> np.ndarray:
    """Matrix exponential, scaling-and-squaring with a Pade approximant.

    Parameters
    ----------
    M : array_like
        Square matrix with finite entries.

    Returns
    -------
    np.ndarray
        exp(M).
    """
    A = _square(M, "expm input")
    with np.errstate(over="ignore"):
        E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E)):
        raise NumericError("matrix exponential overflowed; input norm is too large")
    return E


@dataclass(frozen=True)
class RankResult:
    """Numerical rank decision together with its audit trail.

    ``rank`` counts singular values strictly greater than
    ``tolerance_used`` (an absolute threshold: the relative tolerance times
    the largest singular value or a given scale).  ``gap`` reports the
    ratio between the smallest retained and the largest discarded singular
    value so borderline decisions are visible.
    """

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    @property
    def gap(self) -> float:
        s = self.singular_values
        if self.rank == 0:
            return 0.0
        if self.rank >= s.size or s[self.rank] == 0.0:
            return float("inf")
        return float(s[self.rank - 1] / s[self.rank])


def rank_svd(M, rel_tol: float = DEFAULT_RANK_RTOL, scale: float | None = None):
    """Numerical rank via singular values; every rank decision in the
    package goes through here or through ``rank_of``, which holds its rule.

    The rank is the number of singular values exceeding ``rel_tol *
    scale``, where ``scale`` defaults to sigma_max; an explicit absolute
    ``scale`` judges the matrix against a size it does not carry itself.
    The zero matrix has rank 0.  A 3-D input is a stack of matrices along
    its leading axis: one SVD call, and a list of one result per matrix.
    """
    A = _as_matrix(M, "rank input", stack=True)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if scale is not None and not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    out = [rank_of(s, rel_tol, scale) for s in np.atleast_2d(np.linalg.svd(A, compute_uv=False))]
    return out if A.ndim == 3 else out[0]


def rank_of(s, rel_tol: float = DEFAULT_RANK_RTOL, scale: float | None = None) -> RankResult:
    """``rank_svd``'s decision on computed, descending singular values ``s``."""
    tol = rel_tol * (s[0] if scale is None else scale)
    return RankResult(int(np.count_nonzero(s > tol)), s, float(tol))


def eig(M) -> np.ndarray:
    """Eigenvalues of a square matrix."""
    A = _square(M, "eig input")
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.max(np.abs(eig(M)))) if np.asarray(M).size else 0.0


def _check_weights(Q: np.ndarray, R: np.ndarray) -> None:
    for W, name in ((Q, "Q"), (R, "R")):
        if not np.allclose(W, W.T, atol=1e-10 * max(1.0, np.max(np.abs(W)))):
            raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(Q)) < -1e-10 * max(1.0, np.max(np.abs(Q))):
        raise ValueError("Q must be positive semidefinite")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise ValueError("R must be positive definite") from None


def _dare_data(A, B, Q, R):
    """One equation's (A, B, Q, R) as float matrices of matching sizes,
    identity weights filled in and supplied weights checked."""
    A = _square(np.asarray(A, dtype=float), "A")
    B = _as_matrix(np.asarray(B, dtype=float), "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
    n_u = B.shape[1]
    supplied = Q is not None or R is not None
    Q = np.eye(n) if Q is None else _square(np.asarray(Q, dtype=float), "Q")
    R = np.eye(n_u) if R is None else _square(np.asarray(R, dtype=float), "R")
    if Q.shape[0] != n or R.shape[0] != n_u:
        raise DimensionError("weight dimensions do not match (A, B)")
    if supplied:
        _check_weights(Q, R)
    return A, B, Q, R


def _checked_gain(A, B, Q, R, P) -> np.ndarray:
    """``F = -(R + B' P B)^{-1} B' P A`` from one equation's block ``P`` of
    the solution, after that equation's residual and stability checks."""
    BPA = B.T @ P @ A
    F = -np.linalg.solve(R + B.T @ P @ B, BPA)
    APA = A.T @ P @ A
    scale = max(np.max(np.abs(APA)), np.max(np.abs(P)), np.max(np.abs(Q)), np.finfo(float).tiny)
    residual = np.max(np.abs(APA - P + BPA.T @ F + Q)) / scale
    if not residual <= DARE_RESIDUAL_RTOL:
        raise NumericError(
            f"Riccati solution residual {residual:.3e} exceeds {DARE_RESIDUAL_RTOL:.0e} "
            "relative to the largest term of the equation; try different (Q, R) weights"
        )
    if spectral_radius(A + B @ F) >= 1.0:
        raise ModelError(
            "computed gain leaves an unstable eigenvalue: (A, B) is not stabilizable"
        )
    return F


def _direct_sum_gains(eqs) -> list:
    """Gains of ``eqs`` from one scipy solve of their direct sum, each
    formed and checked from its own diagonal block of the solution."""
    # Direct sums by slice assignment (scipy.linalg.block_diag costs more
    # than the copies it makes).
    n = sum(e[0].shape[0] for e in eqs)
    n_u = sum(e[1].shape[1] for e in eqs)
    A_sum, B_sum = np.zeros((n, n)), np.zeros((n, n_u))
    Q_sum, R_sum = np.zeros((n, n)), np.zeros((n_u, n_u))
    blocks = []
    i = j = 0
    for Ak, Bk, Qk, Rk in eqs:
        x, u = slice(i, i + Ak.shape[0]), slice(j, j + Bk.shape[1])
        A_sum[x, x], B_sum[x, u], Q_sum[x, x], R_sum[u, u] = Ak, Bk, Qk, Rk
        blocks.append(x)
        i, j = x.stop, u.stop
    try:
        P = scipy.linalg.solve_discrete_are(A_sum, B_sum, Q_sum, R_sum)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ModelError(
            f"no stabilizing Riccati solution: the pair (A, B) appears unstabilizable ({exc})"
        ) from exc
    return [_checked_gain(*eq, P[x, x]) for eq, x in zip(eqs, blocks)]


def dare_gain(A, B, Q=None, R=None):
    """Stabilizing state-feedback gain from the discrete Riccati equation.

    Solves

        P = A' P A - A' P B (R + B' P B)^{-1} B' P A + Q

    for its stabilizing solution with the generalized-Schur method of
    ``scipy.linalg.solve_discrete_are`` (Arnold & Laub, Proc. IEEE 1984)
    and returns ``F = -(R + B' P B)^{-1} B' P A``, so that every eigenvalue
    of ``A + B F`` has modulus below one.

    A 3-D ``A`` is a stack of k equations along its leading axis; ``B`` is
    then a sequence of k input matrices and ``Q`` and ``R`` are None or
    sequences of k weights (None entries for identity), and the result is
    a list of k gains.  The equations are independent, so the stabilizing
    solution of the block-diagonal equation ``(A1 + ... + Ak, B1 + ... +
    Bk, Q1 + ... + Qk, R1 + ... + Rk)`` (direct sums) carries each one's
    solution on its diagonal: one scipy call solves them all, and each
    equation's gain is formed and checked from its own block.  If the
    stacked solve or a block's check fails, every equation is solved
    again alone, so a stack builds every gain that separate calls build
    and raises the error the first failing one raises.

    Parameters
    ----------
    A, B : array_like
        Stabilizable pair (or a stack of them, as above).
    Q, R : array_like, optional
        Symmetric PSD / PD weights; both default to identity.

    Raises
    ------
    ModelError
        If a pair is not stabilizable: the solver finds no finite
        stabilizing solution, or the gain leaves an unstable eigenvalue.
    NumericError
        If an equation's entrywise Riccati residual, relative to the
        largest entry of its own ``A' P A``, ``P`` and ``Q``, exceeds
        ``DARE_RESIDUAL_RTOL``.
    """
    stacked = np.ndim(A) == 3
    if not stacked:
        A, B, Q, R = [A], [B], [Q], [R]
    k = len(A)
    Q = [None] * k if Q is None else Q
    R = [None] * k if R is None else R
    if not len(B) == len(Q) == len(R) == k:
        raise DimensionError(
            f"a stack of {k} equations needs {k} B, Q and R entries, "
            f"got {len(B)}, {len(Q)} and {len(R)}"
        )
    eqs = [_dare_data(*eq) for eq in zip(A, B, Q, R)]
    try:
        gains = _direct_sum_gains(eqs)
    except (ModelError, NumericError):
        if k == 1:
            raise
        # A block can lose accuracy to another of very different scale
        # (Q = 1e-6 I, R = 1e6 I beside the identity-weighted observer
        # equation fails the residual check at T <= 0.01 on plants that a
        # lone solve passes), so a failing stack is solved again one
        # equation at a time, with the single-equation errors.
        gains = [_direct_sum_gains([eq])[0] for eq in eqs]
    return gains if stacked else gains[0]
