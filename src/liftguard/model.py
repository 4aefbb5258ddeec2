"""Plant representations and the sample/hold bridge between them.

:class:`StateSpace` is the one quadruple type.  A :class:`ContinuousPlant`
is a minimal continuous-time state-space model; :func:`discretize`
converts it to a :class:`DiscretePlant` by zero-order hold at a given
period, and only that.  :func:`check_pathological` reports the eigenvalue
pairs that sampling at a given period aliases; a sampled system that loses
minimality that way is refused by the code that reads it.

System matrices are stored as read-only views of the validated arrays:
nothing writes through a system object, but a view shares the caller's
buffer, so an array passed in must not be mutated afterwards.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, ModelError

__all__ = [
    "StateSpace",
    "ContinuousPlant",
    "DiscretePlant",
    "MinimalityReport",
    "PathologyReport",
    "discretize",
    "check_pathological",
    "check_minimal",
    "observability_stack",
    "load_plant",
    "plant_to_dict",
    "PATHOLOGY_TOL",
]

# Tolerance of the pathological-sampling test on real parts and multiples.
PATHOLOGY_TOL = 1e-9


def _matrix(value, rows=None, cols=None, name="matrix"):
    """``value`` as a finite float matrix, returned as a read-only view (a
    float64 2-D ndarray keeps its data and strides)."""
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional")
    if not np.isfinite(M).all():
        raise DimensionError(f"{name} contains non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name} has {M.shape[1]} columns, expected {cols}")
    M = M.view()
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class StateSpace:
    """State-space quadruple, the base of the plant and lifted-system
    types; bare instances serve as factors, filters and controllers.

    The quadruple is validated and stored as float matrices: A square, the
    others conforming to it, every entry finite.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _matrix(self.A, name="A")
        if A.shape[0] != A.shape[1]:
            raise DimensionError("A must be square")
        n = A.shape[0]
        B = _matrix(self.B, rows=n, name="B")
        C = _matrix(self.C, cols=n, name="C")
        D = _matrix(self.D, rows=C.shape[0], cols=B.shape[1], name="D")
        for attr, val in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, attr, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class MinimalityReport:
    controllable: bool
    observable: bool
    controllability: linalg.RankResult
    observability: linalg.RankResult

    @property
    def minimal(self) -> bool:
        return self.controllable and self.observable


@dataclass(frozen=True)
class PathologyReport:
    """Verdict of the pathological-sampling test with offending eigenvalue pairs."""

    pathological: bool
    pairs: tuple = ()


@dataclass(frozen=True)
class ContinuousPlant(StateSpace):
    """Minimal continuous-time LTI plant.

    Minimality is validated at construction and violation is a hard error:
    every downstream result (coprimeness of the factors, the lifted-zero
    guarantees) assumes it.
    """

    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        rep = check_minimal(self)
        if not rep.minimal:
            raise ModelError(
                f"continuous plant {self.name!r} is not minimal "
                f"(controllable={rep.controllable}, observable={rep.observable})"
            )


@dataclass(frozen=True)
class DiscretePlant(StateSpace):
    """Discrete-time LTI plant with its sampling period (the fast period
    T/m for the fast plant of a dual-rate scheme)."""

    period: float

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")


def check_pathological(plant: ContinuousPlant, T: float) -> PathologyReport:
    """Flag eigenvalue pairs of ``A`` that alias under sampling at period ``T``.

    A pair is offending when the real parts coincide and the imaginary gap
    is a nonzero integer multiple of 2*pi/T, both within
    ``PATHOLOGY_TOL``.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"sampling period must be positive and finite, got {T}")
    lams = linalg.eig(plant.A)
    base = 2.0 * np.pi / T
    pairs = []
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i].real - lams[j].real) > PATHOLOGY_TOL:
                continue
            q = (lams[i].imag - lams[j].imag) / base
            k = round(q)
            if k != 0 and abs(q - k) <= PATHOLOGY_TOL * max(1.0, abs(q)):
                pairs.append((complex(lams[i]), complex(lams[j]), int(k)))
    return PathologyReport(pathological=bool(pairs), pairs=tuple(pairs))


def check_minimal(sys: StateSpace) -> MinimalityReport:
    """Controllability/observability rank tests on a :class:`StateSpace`.

    A :class:`DiscretePlant` is tested in δ form, on ``(δ, B/period, C)``
    (:func:`_delta_form`): the same Krylov subspaces, on matrices that do
    not collapse onto the identity as the period shrinks.
    """
    A, B, C = sys.A, sys.B, sys.C
    if isinstance(sys, DiscretePlant):
        A, B = _delta_form(sys)
    n = A.shape[0]
    blocks_c = [B]
    for _ in range(n - 1):
        blocks_c.append(A @ blocks_c[-1])
    ctrb = linalg.rank_svd(np.hstack(blocks_c))
    obsv = linalg.rank_svd(observability_stack(A, C, n + 1))
    return MinimalityReport(
        controllable=ctrb.rank == n,
        observable=obsv.rank == n,
        controllability=ctrb,
        observability=obsv,
    )


def _delta_form(plant: DiscretePlant):
    """``(δ, B/period)`` of a discrete plant, ``δ = (A - I)/period``: the
    delta operator (Middleton & Goodwin, *Digital Control and Estimation*,
    1990).  As the period shrinks, A tends to I, so rank tests on its
    powers lose digits, while δ tends to the continuous state matrix."""
    return (plant.A - np.eye(plant.n)) / plant.period, plant.B / plant.period


def _require_discrete(sys, needs: str) -> None:
    """A TypeError for a :class:`ContinuousPlant`, whose matrices are not a
    system in z; ``needs`` names the work, as in "poles need"."""
    if isinstance(sys, ContinuousPlant):
        raise TypeError(f"{needs} a discrete system, not a ContinuousPlant: discretize it first")


def _require_minimal(sys, minimality, needs: str) -> MinimalityReport:
    """``minimality``, or ``check_minimal(sys)`` when it is None, of a
    discrete ``sys``; a ModelError when ``sys`` is not minimal."""
    _require_discrete(sys, needs)
    rep = check_minimal(sys) if minimality is None else minimality
    if not rep.minimal:
        raise ModelError(
            f"{needs} a minimal realization "
            f"(controllable={rep.controllable}, observable={rep.observable})"
        )
    return rep


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


def discretize(plant: ContinuousPlant, T: float) -> DiscretePlant:
    """Zero-order-hold discretization at period ``T``.

    The state matrix is ``exp(A*T)`` and the input matrix is the exact
    integral of ``exp(A*tau)*B`` over one period, both read off the
    exponential of the augmented matrix ``[[A, B], [0, 0]] * T``.  The
    period is not checked for pathological sampling: a caller that wants
    the report calls :func:`check_pathological`.  Only a
    :class:`ContinuousPlant` is sampled: any other system is a TypeError.
    """
    if not isinstance(plant, ContinuousPlant):
        raise TypeError(f"discretize samples a ContinuousPlant, not a {type(plant).__name__}")
    if not 0 < T < np.inf:
        raise ValueError(f"sampling period must be positive and finite, got {T}")
    n, n_u = plant.n, plant.n_u
    M = np.zeros((n + n_u, n + n_u))
    M[:n, :n] = plant.A * T
    M[:n, n:] = plant.B * T
    E = linalg.expm(M)
    return DiscretePlant(
        A=E[:n, :n],
        B=E[:n, n:],
        C=plant.C.copy(),
        D=plant.D.copy(),
        period=float(T),
    )


def plant_to_dict(plant: ContinuousPlant, T: float, m=None) -> dict:
    """Serialize a plant and its sampling setup to the JSON plant format,
    whose keys ``"Ac"``…``"Dc"`` name the continuous quadruple."""
    out = {
        "Ac": plant.A.tolist(),
        "Bc": plant.B.tolist(),
        "Cc": plant.C.tolist(),
        "Dc": plant.D.tolist(),
        "T": float(T),
    }
    if m is not None:
        out["m"] = int(m)
    if plant.name:
        out["name"] = plant.name
    return out


def _field(what: str, doc: dict, key: str, convert):
    """``convert(doc[key])``; a missing or malformed field is a ValueError."""
    try:
        return convert(doc[key])
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ValueError(f"{what} field {key!r}: {type(exc).__name__}: {exc}") from None


def _no_booleans(value):
    """``value`` itself; a TypeError when it or an entry of its nested
    lists is a boolean or a boolean array, which ``float`` and numpy read
    as 1 or 0."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, (bool, np.bool_)) or isinstance(v, np.ndarray) and v.dtype == bool:
            raise TypeError("a boolean is not a number")
    return value


def _integer(value) -> int:
    """``value`` as an int: an integral number, never a boolean."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    return operator.index(value)


def load_plant(source):
    """Load a plant spec from one of three forms: a dict, the bytes of a
    JSON file (UTF-8), or the path of one (any string, or a path-like).

    The document must be an object carrying ``Ac``, ``Bc``, ``Cc``, ``Dc``
    (the plant's A, B, C, D) as nested number arrays and ``T`` as a positive finite number; ``m``
    (integer >= 1) and ``name`` are optional.  A field of the wrong type,
    a boolean among its numbers included, is a ValueError that names it.
    Returns ``(plant, T, m)`` with ``m`` possibly None.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, bytes):
        doc = json.loads(source.decode("utf-8"))
    else:
        with open(str(source), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"a plant spec must be a JSON object, not {type(doc).__name__}")
    missing = [k for k in ("Ac", "Bc", "Cc", "Dc", "T") if k not in doc]
    if missing:
        raise ValueError(f"plant spec is missing fields: {missing}")
    T = _field("plant", doc, "T", lambda v: float(_no_booleans(v)))
    if not 0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    m = doc.get("m")
    if m is not None:
        m = _field("plant", doc, "m", _integer)
        if m < 1:
            raise ValueError(f"m must be a positive integer, got {m}")
    matrices = [_field("plant", doc, k, lambda v: np.asarray(_no_booleans(v), dtype=float))
                for k in ("Ac", "Bc", "Cc", "Dc")]
    return ContinuousPlant(*matrices, name=str(doc.get("name", ""))), T, m
