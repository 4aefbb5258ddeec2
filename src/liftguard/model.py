"""Plant representations and the sample/hold bridge between them.

A :class:`ContinuousPlant` is a minimal continuous-time state-space model;
:func:`discretize` converts it to a :class:`DiscretePlant` by zero-order
hold at a given period.  :func:`ss_response` is the exact discrete state
recursion used both as the simulation engine and as the time-domain oracle
throughout the package.
"""

from __future__ import annotations

import json
import warnings
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
    "ss_response",
    "load_plant",
    "plant_to_dict",
]


def _matrix(value, rows=None, cols=None, name="matrix"):
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} contains non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name} has {M.shape[1]} columns, expected {cols}")
    return M


def _set_quadruple(obj, names) -> None:
    """Validate the quadruple stored under ``names`` on a frozen instance
    and store it back as float matrices: the first square, the others
    conforming to it, every entry finite."""
    nA, nB, nC, nD = names
    A = _matrix(getattr(obj, nA), name=nA)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{nA} must be square")
    n = A.shape[0]
    B = _matrix(getattr(obj, nB), rows=n, name=nB)
    C = _matrix(getattr(obj, nC), cols=n, name=nC)
    D = _matrix(getattr(obj, nD), rows=C.shape[0], cols=B.shape[1], name=nD)
    for attr, val in zip(names, (A, B, C, D)):
        object.__setattr__(obj, attr, val)


def abcd(sys):
    """The (A, B, C, D) quadruple of a :class:`StateSpace` or a
    :class:`ContinuousPlant`."""
    if isinstance(sys, StateSpace):
        return sys.A, sys.B, sys.C, sys.D
    if isinstance(sys, ContinuousPlant):
        return sys.Ac, sys.Bc, sys.Cc, sys.Dc
    raise TypeError(f"cannot extract a state-space quadruple from {type(sys)!r}")


@dataclass(frozen=True)
class StateSpace:
    """Discrete state-space quadruple, the base of the plant, lifted-system
    and controller types; bare instances serve as factors and filters."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        _set_quadruple(self, ("A", "B", "C", "D"))

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
    period: float
    pairs: tuple = ()


@dataclass(frozen=True)
class ContinuousPlant:
    """Minimal continuous-time LTI plant.

    Minimality is validated at construction and violation is a hard error:
    every downstream result (coprimeness of the factors, the lifted-zero
    guarantees) assumes it.
    """

    Ac: np.ndarray
    Bc: np.ndarray
    Cc: np.ndarray
    Dc: np.ndarray
    name: str = ""

    def __post_init__(self):
        _set_quadruple(self, ("Ac", "Bc", "Cc", "Dc"))
        rep = check_minimal(self)
        if not rep.minimal:
            raise ModelError(
                f"continuous plant {self.name!r} is not minimal "
                f"(controllable={rep.controllable}, observable={rep.observable})"
            )

    @property
    def n(self) -> int:
        return self.Ac.shape[0]

    @property
    def n_u(self) -> int:
        return self.Bc.shape[1]

    @property
    def n_y(self) -> int:
        return self.Cc.shape[0]


@dataclass(frozen=True)
class DiscretePlant(StateSpace):
    """Discrete-time LTI plant with its sampling period (the fast period
    T/m for the fast plant of a dual-rate scheme)."""

    period: float

    def __post_init__(self):
        super().__post_init__()
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")


def check_pathological(plant: ContinuousPlant, T: float) -> PathologyReport:
    """Flag eigenvalue pairs of ``Ac`` that alias under sampling at period ``T``.

    A pair is offending when the real parts coincide (tolerance 1e-9) and
    the imaginary gap is a nonzero integer multiple of 2*pi/T (tolerance
    1e-9 on the multiple).
    """
    if not T > 0:
        raise ValueError(f"sampling period must be positive, got {T}")
    lams = linalg.eig(plant.Ac)
    base = 2.0 * np.pi / T
    pairs = []
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i].real - lams[j].real) > 1e-9:
                continue
            q = (lams[i].imag - lams[j].imag) / base
            k = round(q)
            if k != 0 and abs(q - k) <= 1e-9 * max(1.0, abs(q)):
                pairs.append((complex(lams[i]), complex(lams[j]), int(k)))
    return PathologyReport(pathological=bool(pairs), period=float(T), pairs=tuple(pairs))


def check_minimal(sys) -> MinimalityReport:
    """Controllability/observability rank tests on a :class:`StateSpace` or
    a :class:`ContinuousPlant`."""
    A, B, C, _ = abcd(sys)
    n = A.shape[0]
    blocks_c, blocks_o = [B], [C]
    Mc, Mo = B, C
    for _ in range(n - 1):
        Mc = A @ Mc
        Mo = Mo @ A
        blocks_c.append(Mc)
        blocks_o.append(Mo)
    ctrb = linalg.rank_svd(np.hstack(blocks_c))
    obsv = linalg.rank_svd(np.vstack(blocks_o))
    return MinimalityReport(
        controllable=ctrb.rank == n,
        observable=obsv.rank == n,
        controllability=ctrb,
        observability=obsv,
    )


def discretize(plant: ContinuousPlant, T: float) -> DiscretePlant:
    """Zero-order-hold discretization at period ``T``.

    The state matrix is ``exp(Ac*T)`` and the input matrix is the exact
    integral of ``exp(Ac*tau)*Bc`` over one period, both read off the
    exponential of the augmented matrix ``[[Ac, Bc], [0, 0]] * T``.
    Pathological sampling is a warning, not a failure: the caller may be
    studying it deliberately.
    """
    if not T > 0:
        raise ValueError(f"sampling period must be positive, got {T}")
    report = check_pathological(plant, T)
    if report.pathological:
        warnings.warn(
            f"sampling period T={T} is pathological for plant {plant.name!r}: "
            f"aliasing eigenvalue pairs {report.pairs}",
            stacklevel=2,
        )
    n, n_u = plant.n, plant.n_u
    M = np.zeros((n + n_u, n + n_u))
    M[:n, :n] = plant.Ac * T
    M[:n, n:] = plant.Bc * T
    E = linalg.expm(M)
    return DiscretePlant(
        A=E[:n, :n],
        B=E[:n, n:],
        C=plant.Cc.copy(),
        D=plant.Dc.copy(),
        period=float(T),
    )


def ss_response(sys, inputs, x0=None, return_states: bool = False):
    """Exact discrete state recursion x+ = A x + B u, y = C x + D u.

    Parameters
    ----------
    sys : StateSpace
        The discrete system to step.
    inputs : array_like
        Input sequence, shape (N, n_u) (a 1-D array is accepted for
        single-input systems), or shape (N, n_u, k) for k independent runs
        stepped together as one recursion on an (n, k) state.
    x0 : array_like, optional
        Initial state of dimension n, shared by every run (defaults to zero).
    return_states : bool
        Also return the state trajectory, shape (N + 1, n) (or
        (N + 1, n, k)), including the final post-update state.

    Outputs have shape (N, n_y), or (N, n_y, k) for batched inputs.
    """
    A, B, C, D = abcd(sys)
    n, n_u = A.shape[0], B.shape[1]
    U = np.asarray(inputs, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.ndim not in (2, 3) or U.shape[1] != n_u:
        raise DimensionError(
            f"inputs must have shape (N, {n_u}) or (N, {n_u}, k), got {U.shape}"
        )
    if U.shape[0] < 1:
        raise DimensionError("input sequence must contain at least one sample")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise DimensionError(f"x0 must have dimension {n}, got {x.shape[0]}")
    runs = U.shape[2:]  # () or (k,)
    x = x.reshape((n,) + (1,) * len(runs))
    N = U.shape[0]
    Y = np.empty((N, C.shape[0]) + runs)
    X = np.empty((N + 1, n) + runs) if return_states else None
    for k in range(N):
        if return_states:
            X[k] = x
        Y[k] = C @ x + D @ U[k]
        x = A @ x + B @ U[k]
    if return_states:
        X[N] = x
        return Y, X
    return Y


def plant_to_dict(plant: ContinuousPlant, T: float, m=None) -> dict:
    """Serialize a plant and its sampling setup to the JSON plant format."""
    out = {
        "Ac": plant.Ac.tolist(),
        "Bc": plant.Bc.tolist(),
        "Cc": plant.Cc.tolist(),
        "Dc": plant.Dc.tolist(),
        "T": float(T),
    }
    if m is not None:
        out["m"] = int(m)
    if plant.name:
        out["name"] = plant.name
    return out


def load_plant(source):
    """Load a plant spec from a dict, JSON string, or file path.

    The document must carry ``Ac``, ``Bc``, ``Cc``, ``Dc`` as nested number
    arrays and ``T`` as a positive number; ``m`` (integer >= 1) and
    ``name`` are optional.  Returns ``(plant, T, m)`` with ``m`` possibly
    None.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    missing = [k for k in ("Ac", "Bc", "Cc", "Dc", "T") if k not in doc]
    if missing:
        raise ValueError(f"plant spec is missing fields: {missing}")
    T = float(doc["T"])
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    m = doc.get("m")
    if m is not None:
        m = int(m)
        if m < 1:
            raise ValueError(f"m must be a positive integer, got {m}")
    plant = ContinuousPlant(
        Ac=doc["Ac"],
        Bc=doc["Bc"],
        Cc=doc["Cc"],
        Dc=doc["Dc"],
        name=str(doc.get("name", "")),
    )
    return plant, T, m
