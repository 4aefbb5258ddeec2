"""Coprime factorizations over the stable ring and the observer-based
stabilizing controller they imply.

With a state-feedback gain F (A+BF Schur) and an output-injection gain H
(A+HC Schur) the factor realizations are the standard ones,

    left:   Ml = [A+HC | H; C | I]       Nl = [A+HC | B+HD; C | D]
    unit:   X  = [A+BF | -H; C+DF | I]   Y  = [A+BF | -H; F | 0]

which satisfy the Bezout identity Ml*X - Nl*Y = I exactly (so the unit in
the closed-loop disturbance maps is the identity).  The plant factors as
Ml^{-1} Nl, the zeros of Ml are the plant poles, and Nl shares the plant's
non-minimum-phase zeros (Nett, Jacobson & Balas, IEEE TAC 29(9), 1984).
The right pair [A+BF | B; C+DF | D] and [A+BF | B; F | I] is not built:
nothing reads it, and the Bezout certificate reads the four factors Ml,
X, Nl and Y.  [Ml, -Nl] run on [y, u] is the plant's residual filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, NumericError
from .model import StateSpace, _require_minimal

__all__ = [
    "CoprimeFactors",
    "coprime_factorize",
    "observer_controller",
    "eval_lambda",
    "closed_loop_matrix",
    "BEZOUT_RTOL",
]

# Bound on the Bezout defect of constructed factors, relative to the
# magnitude of the evaluated products (and at least absolute).  The identity
# is exact in algebra; what survives numerically is round-off amplified by
# that magnitude and by the conditioning of the gains.
BEZOUT_RTOL = 1e-8


def eval_lambda(sys, lam) -> np.ndarray:
    """Transfer map D + lam*C (I - lam*A)^{-1} B at reciprocal frequency lam.

    A 1-D array of points gives the maps stacked along a leading axis, from
    one batched solve.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    return D + lam * (C @ np.linalg.solve(np.eye(A.shape[0]) - lam * A, B))


@dataclass(frozen=True)
class CoprimeFactors:
    """Left coprime pair and Bezout unit of a doubly-coprime factorization,
    plus the gains that built them."""

    F: np.ndarray
    H: np.ndarray
    Nl: StateSpace
    Ml: StateSpace
    X: StateSpace
    Y: StateSpace
    base: object  # the factored plant (discrete or lifted)


def coprime_factorize(sys, Q=None, R=None, minimality=None, certificate=None) -> CoprimeFactors:
    """Doubly-coprime factorization of a minimal discrete system.

    The gains come from one call of the Riccati solver, which checks each
    equation's residual and Schur condition itself: F with weights
    ``Q``/``R`` (identity when omitted) and H from the dual problem with
    identity weights, stacked into one scipy solve.  ``minimality`` is
    ``check_minimal(sys)`` when the caller already has it.  The factors
    are checked against the Bezout identity, to ``BEZOUT_RTOL`` times the
    products' magnitude, before they are returned; a list ``certificate``
    receives that check's defect, the largest 2-norm of Ml*X - Nl*Y - I
    on the 16th roots of unity (a ``dataclasses.replace`` copy of the
    factors would carry a stored one stale).
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    _require_minimal(sys, minimality, "coprime factorization requires")
    F, H = linalg.dare_gain(np.stack([A, A.T]), [B, C.T], [Q, None], [R, None])
    H = H.T

    AHC = A + H @ C
    ABF = A + B @ F
    CDF = C + D @ F
    factors = CoprimeFactors(
        F=F,
        H=H,
        Nl=StateSpace(AHC, B + H @ D, C, D),
        Ml=StateSpace(AHC, H, C, np.eye(C.shape[0])),
        X=StateSpace(ABF, -H, CDF, np.eye(C.shape[0])),
        Y=StateSpace(ABF, -H, F, np.zeros((B.shape[1], C.shape[0]))),
        base=sys,
    )
    defect, scale = _bezout_defect_scaled(factors)
    bound = BEZOUT_RTOL * max(1.0, scale)
    if not defect <= bound:
        raise NumericError(
            f"Bezout certificate failed: defect {defect:.3e} at product magnitude "
            f"{scale:.3e} exceeds the bound {bound:.3e} ({BEZOUT_RTOL:.0e} times the "
            "magnitude, at least 1)"
        )
    if certificate is not None:
        certificate.append(defect)
    return factors


def _bezout_defect_scaled(factors: CoprimeFactors):
    """Largest 2-norm of Ml*X - Nl*Y - I, and of either product, over 16
    unit-circle samples, from one stacked SVD.

    The factors are real, so their maps at conjugate points are conjugate
    and share their 2-norms: the upper half circle, k = 0..8 with both
    lambda = 1 and lambda = -1, covers all 16 samples.
    """
    lam = np.exp(2j * np.pi * np.arange(9) / 16)
    P1 = eval_lambda(factors.Ml, lam) @ eval_lambda(factors.X, lam)
    P2 = eval_lambda(factors.Nl, lam) @ eval_lambda(factors.Y, lam)
    norms = np.linalg.svd(
        np.stack([P1 - P2 - np.eye(factors.Ml.n_y), P1, P2]), compute_uv=False
    )[..., 0]
    return float(np.max(norms[0])), float(np.max(norms[1:]))


def closed_loop_matrix(plant, controller) -> np.ndarray:
    """State matrix of the positive-feedback interconnection u = K y.

    The controller must be strictly proper so no algebraic loop forms.
    """
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    Ak, Bk, Ck, Dk = controller.A, controller.B, controller.C, controller.D
    if np.any(Dk):
        raise DimensionError("closed-loop assembly expects a strictly proper controller")
    return np.block([[A, B @ Ck], [Bk @ C, Ak + Bk @ (D @ Ck)]])


def observer_controller(factors: CoprimeFactors) -> StateSpace:
    """Observer-based stabilizing controller assembled from the factor gains.

    The realization is [A+BF+HC+HDF | -H; F | 0]: strictly proper, so in a
    multirate implementation the control value for a hold interval depends
    only on samples gathered strictly before it starts.  Internal
    stability of the loop with the factored plant is asserted.  A lifted
    factored plant gives a controller on its m stacked samples.
    """
    A, B, C, D = factors.base.A, factors.base.B, factors.base.C, factors.base.D
    F, H = factors.F, factors.H
    K = StateSpace(
        A=A + B @ F + H @ C + H @ D @ F,
        B=-H,
        C=F,
        D=np.zeros((B.shape[1], C.shape[0])),
    )
    rho = linalg.spectral_radius(closed_loop_matrix(factors.base, K))
    if rho >= 1.0:
        raise NumericError(
            f"assembled observer controller fails internal stability (radius {rho:.6f}); "
            "this should be impossible with exact gains and signals conditioning problems"
        )
    return K
