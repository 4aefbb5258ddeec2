"""Coprime factorizations over the stable ring, the observer-based
stabilizing controller, and the residual generator they imply.

With a state-feedback gain F (A+BF Schur) and an output-injection gain H
(A+HC Schur) the factor realizations are the standard ones,

    left:   Ml = [A+HC | H; C | I]       Nl = [A+HC | B+HD; C | D]
    right:  Mr = [A+BF | B; F | I]       Nr = [A+BF | B; C+DF | D]
    unit:   X  = [A+BF | -H; C+DF | I]   Y  = [A+BF | -H; F | 0]

which satisfy the Bezout identity Ml*X - Nl*Y = I exactly (so the unit in
the closed-loop disturbance maps is the identity).  The plant factors as
Ml^{-1} Nl = Nr Mr^{-1}, the zeros of Ml are the plant poles, and Nl
shares the plant's non-minimum-phase zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, ModelError, NumericError
from .model import StateSpace, abcd, check_minimal

__all__ = [
    "CoprimeFactors",
    "Controller",
    "coprime_factorize",
    "observer_controller",
    "residual_generator",
    "bezout_defect",
    "eval_lambda",
    "closed_loop_matrix",
]


def eval_lambda(sys, lam) -> np.ndarray:
    """Transfer map D + lam*C (I - lam*A)^{-1} B at reciprocal frequency lam.

    A 1-D array of points gives the maps stacked along a leading axis, from
    one batched solve.
    """
    A, B, C, D = abcd(sys)
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    return D + lam * (C @ np.linalg.solve(np.eye(A.shape[0]) - lam * A, B))


@dataclass(frozen=True)
class Controller(StateSpace):
    """Observer-based stabilizing controller (strictly proper)."""

    kind: str = "observer_based_single_rate"

    @property
    def strictly_proper(self) -> bool:
        return not np.any(self.D)


@dataclass(frozen=True)
class CoprimeFactors:
    """Doubly-coprime factor realizations plus the gains that built them."""

    F: np.ndarray
    H: np.ndarray
    Nl: StateSpace
    Ml: StateSpace
    Nr: StateSpace
    Mr: StateSpace
    X: StateSpace
    Y: StateSpace
    base: object  # the factored plant (discrete or lifted)


def coprime_factorize(sys, F=None, H=None, Q=None, R=None) -> CoprimeFactors:
    """Doubly-coprime factorization of a minimal discrete system.

    Omitted gains come from the Riccati solver, which checks the Schur
    condition itself: F with weights ``Q``/``R`` (identity when omitted),
    H from the dual problem with identity weights.  A supplied F or H is
    checked here for its shape and its Schur condition.
    """
    A, B, C, D = abcd(sys)
    rep = check_minimal(sys)
    if not rep.minimal:
        raise ModelError(
            "coprime factorization requires a minimal realization "
            f"(controllable={rep.controllable}, observable={rep.observable})"
        )
    n = A.shape[0]
    if F is None:
        F = linalg.dare_gain(A, B, Q, R)
    else:
        F = np.atleast_2d(np.asarray(F, dtype=float))
        if F.shape != (B.shape[1], n):
            raise DimensionError(f"F must have shape {(B.shape[1], n)}, got {F.shape}")
        if linalg.spectral_radius(A + B @ F) >= 1.0:
            raise ModelError("state-feedback gain F does not make A+BF Schur stable")
    if H is None:
        H = linalg.dare_gain(A.T, C.T).T
    else:
        H = np.atleast_2d(np.asarray(H, dtype=float))
        if H.shape != (n, C.shape[0]):
            raise DimensionError(f"H must have shape {(n, C.shape[0])}, got {H.shape}")
        if linalg.spectral_radius(A + H @ C) >= 1.0:
            raise ModelError("output-injection gain H does not make A+HC Schur stable")

    AHC = A + H @ C
    ABF = A + B @ F
    CDF = C + D @ F
    factors = CoprimeFactors(
        F=F,
        H=H,
        Nl=StateSpace(AHC, B + H @ D, C, D),
        Ml=StateSpace(AHC, H, C, np.eye(C.shape[0])),
        Nr=StateSpace(ABF, B, CDF, D),
        Mr=StateSpace(ABF, B, F, np.eye(B.shape[1])),
        X=StateSpace(ABF, -H, CDF, np.eye(C.shape[0])),
        Y=StateSpace(ABF, -H, F, np.zeros((B.shape[1], C.shape[0]))),
        base=sys,
    )
    defect, scale = _bezout_defect_scaled(factors)
    # The identity is exact in algebra; what survives numerically is bounded
    # by round-off amplified by the magnitude of the evaluated products, so
    # the construction-time sanity check is relative to that magnitude.
    if defect > 1e-8 * max(1.0, scale):
        raise NumericError(
            f"Bezout identity violated by the constructed factors (defect {defect:.3e} "
            f"at product magnitude {scale:.3e}); this signals an algebra error"
        )
    return factors


def _bezout_defect_scaled(factors: CoprimeFactors):
    lam = np.exp(2j * np.pi * np.arange(16) / 16)
    P1 = eval_lambda(factors.Ml, lam) @ eval_lambda(factors.X, lam)
    P2 = eval_lambda(factors.Nl, lam) @ eval_lambda(factors.Y, lam)
    defect = np.linalg.norm(P1 - P2 - np.eye(factors.Ml.n_y), 2, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(P1, 2, axis=(-2, -1)), np.linalg.norm(P2, 2, axis=(-2, -1)))
    return float(np.max(defect)), float(np.max(scale))


def bezout_defect(factors: CoprimeFactors) -> float:
    """Largest deviation of Ml*X - Nl*Y from identity on 16 unit-circle samples."""
    return _bezout_defect_scaled(factors)[0]


def closed_loop_matrix(plant, controller) -> np.ndarray:
    """State matrix of the positive-feedback interconnection u = K y.

    The controller must be strictly proper so no algebraic loop forms.
    """
    A, B, C, D = abcd(plant)
    Ak, Bk, Ck, Dk = abcd(controller)
    if np.any(Dk):
        raise DimensionError("closed-loop assembly expects a strictly proper controller")
    return np.block([[A, B @ Ck], [Bk @ C, Ak + Bk @ (D @ Ck)]])


def observer_controller(factors: CoprimeFactors) -> Controller:
    """Observer-based stabilizing controller assembled from the factor gains.

    The realization is [A+BF+HC+HDF | -H; F | 0]: strictly proper, so in a
    multirate implementation the control value for a hold interval depends
    only on samples gathered strictly before it starts.  Internal
    stability of the loop with the factored plant is asserted.  A lifted
    factored plant gives an ``observer_based_lifted`` controller.
    """
    A, B, C, D = abcd(factors.base)
    F, H = factors.F, factors.H
    K = Controller(
        A=A + B @ F + H @ C + H @ D @ F,
        B=-H,
        C=F,
        D=np.zeros((B.shape[1], C.shape[0])),
        kind=(
            "observer_based_lifted"
            if hasattr(factors.base, "fast_plant")
            else "observer_based_single_rate"
        ),
    )
    rho = linalg.spectral_radius(closed_loop_matrix(factors.base, K))
    if rho >= 1.0:
        raise NumericError(
            f"assembled observer controller fails internal stability (radius {rho:.6f}); "
            "this should be impossible with exact gains and signals conditioning problems"
        )
    return K


def residual_generator(factors: CoprimeFactors) -> StateSpace:
    """Residual filter of the factored plant over the stacked input [y, u].

    The quadruple is (A+HC, [H, -(B+HD)], C, [I, -D]); run it with
    ``ss_response(residual_generator(f), np.hstack([y, u]))``.  In an
    attack-free closed loop started from zero states the residual is
    identically zero; injected actuator and sensor disturbances appear in
    it filtered by the stable left factors.
    """
    A, B, C, D = abcd(factors.base)
    H = factors.H
    return StateSpace(
        A + H @ C, np.hstack([H, -(B + H @ D)]), C, np.hstack([np.eye(C.shape[0]), -D])
    )
