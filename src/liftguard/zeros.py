"""Transmission zeros, poles, and stealthy-attack vulnerability classification.

Zeros are computed in the z-domain as the rank-drop points of the system
pencil

    [ zI - A   -B ]
    [   C       D ].

One pencil decides every zero question of a system, a lifted one's
δ-form small pencil when it has one (``_deciding_system``).  For square
systems the finite rank-drop points are the finite generalized eigenvalues
of the pencil.  Non-square systems are squared down once at a fixed point;
only candidates confirmed by an explicit rank test survive.  The
reciprocal-frequency form of the pencil is used for evaluation outside the
unit circle so the rank tests stay well scaled.  A multiple zero at
frequency one is told from a pair of simple ones by a null-chain test on
the same pencil at z = 1; no coprime factor is built.

Every stealthy-attack verdict is one rule (``_rule``) on the pencil
``[zI - A, -B_S; C, D_S]`` of an attacked channel set S, the system with
the attacked channels as its inputs: the actuators ``(B, D)``, the system
itself, and the sensors ``(0, I)`` (``_sensor_set``), whose zeros are the
poles.  A normal rank below the column count is "yes" at any growth
ratio; else the zero of largest modulus strictly outside the unit disc
is the witness of a "yes"; else a boundary zero at z = 1 with a null
chain of length two is a "yes"; else repeated boundary zeros are
undecided, and simple ones or none give "no".

Classification lives in the reciprocal domain used by the vulnerability
rules (w = 1/z): a strictly non-minimum-phase zero has 0 < |w| < 1, the
boundary is |w| = 1, and a zero of the feedthrough relative to the normal
rank sits at w = 0 (it has no causal geometric input associated with it).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .lift import LiftedSystem, check_assumptions
from .model import StateSpace, _delta_form, _require_discrete, _require_minimal

__all__ = [
    "ZeroRecord",
    "PoleRecord",
    "ZeroReport",
    "VulnerabilityVerdict",
    "transmission_zeros",
    "zero_values",
    "poles",
    "classify_vulnerability",
    "pencil_matrix",
    "BOUNDARY_TOL",
    "CONFIRM_RTOL",
]

BOUNDARY_TOL = 1e-7
# A reported zero must drop the pencil rank at the default rank tolerance;
# anything looser admits near-zeros of the system rather than zeros.  True
# zeros of any multiplicity k land within eps^(1/k) of the computed
# candidate, where the pencil's deciding singular value is back at the
# machine level, so the tight threshold does not lose them.
CONFIRM_RTOL = 1e-9
MATCH_TOL = 1e-6
# Fixed real point whose singular vectors square a non-square pencil down;
# the squared pencil is regular wherever the pencil has full rank there.
_SQUARING_POINT = 1.2591
# Generalized eigenvalues beyond this magnitude are numerical leakage of the
# pencil's infinite spectrum when the reciprocal-domain pencil loses rank
# as the reciprocal frequency approaches zero, which is exactly the
# separately-counted zero at z-infinity, not a finite zero.
_Z_INFINITY_CUTOFF = 1e8
# Fixed generic probe points for normal-rank estimation (inside and outside
# the unit circle; the max over them is the normal rank almost surely).
_PROBE_POINTS = (
    1.2591 * cmath.exp(0.701j),
    0.7137 * cmath.exp(2.903j),
    1.8300 * cmath.exp(5.101j),
)


@dataclass(frozen=True)
class ZeroRecord:
    """One transmission zero with both frequency representations.

    ``z_value`` is None for a zero at z-infinity (reciprocal value 0);
    ``lambda_value`` is None ("lambda-infinity") for a zero at z = 0.
    ``input_direction`` is the input part of the pencil's null vector at
    the zero, scaled to max-norm one with its largest entry real positive
    (None on a sensor witness, whose plan computes its own).
    ``residual`` is the singular value of the (well-scaled) deciding
    pencil, a lifted system's small one, that certifies the rank drop.
    """

    z_value: complex | None
    lambda_value: complex | None
    input_direction: np.ndarray | None
    classification: str
    residual: float
    marginal: bool = False


@dataclass(frozen=True)
class PoleRecord:
    value: complex
    classification: str  # "stable" | "boundary" | "unstable"


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple
    poles: tuple
    normal_rank: int  # normal column rank of the system pencil
    system_shape: str  # "tall" | "square" | "fat"
    n_zeros_at_lambda_zero: int = 0


@dataclass(frozen=True)
class VulnerabilityVerdict:
    """Per-channel stealthy-attack verdicts with their witnesses."""

    actuator: str  # "yes" | "no" | "undecided"
    actuator_mechanism: str | None  # "nmp_zero" | "fat_plant" | "multiple_zero_at_one"
    actuator_witness: ZeroRecord | None
    sensor: str
    sensor_witness: ZeroRecord | None
    notes: tuple = ()


def pencil_matrix(sys, z) -> np.ndarray:
    """System pencil at ``z``, in whichever of the two frequency forms is
    well scaled at that point (|z| <= 1: plain form; otherwise the
    reciprocal form, which has the identical rank profile).

    A 1-D array of points gives the pencils stacked along a leading axis.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, n_u, n_y = A.shape[0], B.shape[1], C.shape[0]
    z = np.asarray(z, dtype=complex)
    # Per point, the coefficients of I and of (A, C): (z, 1) in the plain
    # form, (1, 1/z) in the reciprocal one.  1/z uses Python's complex
    # division: numpy's differs from it in the last bit at some points.
    coef = [(p, 1.0) if abs(p) <= 1.0 else (1.0, 1.0 / p) for p in map(complex, z.flat)]
    coef = np.array(coef, dtype=complex).reshape(z.shape + (2, 1, 1))
    a, b = coef[..., 0, :, :], coef[..., 1, :, :]
    M = np.empty(z.shape + (n + n_y, n + n_u), dtype=complex)
    M[..., :n, :n] = a * np.eye(n) - b * A
    M[..., :n, n:] = -B
    M[..., n:, :n] = b * C
    M[..., n:, n:] = D
    return M


def _deciding_system(sys, assumptions=None):
    """The system whose pencil answers every zero question of ``sys``: for
    a lifted system whose observability stack O has full column rank, the
    small system ``(A_l, B_l, [C_f; δ], [D_f; B_f/h])``, ``δ = (A_f - I)/h``.
    By ``X·C_l = O(I - A_f)`` and ``X·D_l = -O·B_f`` it has the lifted
    pencil's rank profile, it stays well scaled as h shrinks and the lifted
    output rows nearly coincide, and it shares A_l and B_l, so a null
    vector's input part is the lifted one.  Otherwise ``sys`` itself.
    ``assumptions`` is ``check_assumptions(sys)`` when the caller has it."""
    if not isinstance(sys, LiftedSystem):
        return sys
    if not (assumptions or check_assumptions(sys)).obs_full_rank:
        return sys
    f = sys.fast_plant
    delta, B_delta = _delta_form(f)
    return StateSpace(sys.A, sys.B, np.vstack([f.C, delta]), np.vstack([f.D, B_delta]))


def _confirmed(sys):
    """(normal rank of the pencil of ``sys``, [(z, residual)] for each
    finite eigenvalue of the pencil that drops its rank at
    ``CONFIRM_RTOL``).  One stacked SVD over the probe points and the
    candidates gives the normal rank and the residual, the singular value
    at that rank.  A rank deficiency at the probes is judged again on the
    probes equilibrated, so that a pole far larger than the channel
    blocks does not hide their rank.  Candidates past
    ``_Z_INFINITY_CUTOFF`` are dropped only when the pencil drops rank at
    z-infinity too: a sensor pencil keeps its poles there."""
    found = _candidates(sys)
    k, far = len(_PROBE_POINTS), any(abs(z) > _Z_INFINITY_CUTOFF for z in found)
    results = linalg.rank_svd(pencil_matrix(sys, [*_PROBE_POINTS, *found] + [np.inf] * far))
    rank = max(r.rank for r in results[:k])
    if rank < sys.n + sys.n_u:
        probes = pencil_matrix(sys, _PROBE_POINTS)
        for axis in (-1, -2):  # each row, then each column, by a power of two
            probes = probes * np.ldexp(1.0, -np.frexp(np.max(abs(probes), axis, keepdims=True))[1])
        rank = max(rank, *(r.rank for r in linalg.rank_svd(probes)))
    drops = [linalg.rank_of(r.singular_values, CONFIRM_RTOL).rank < rank for r in results[k:]]
    cutoff = _Z_INFINITY_CUTOFF if far and drops[-1] else np.inf
    return rank, [
        (z, float(r.singular_values[rank - 1]))
        for z, r, drop in zip(found, results[k:], drops)
        if drop and abs(z) <= cutoff
    ]


def _candidates(sys):
    """Finite generalized eigenvalues of the pencil ``zE - F`` of ``sys``.  A
    non-square pencil is first projected onto the thin SVD of its value at
    ``_SQUARING_POINT``, which keeps every zero; the spurious eigenvalues
    it may add are left to the caller's rank test."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, n_u, n_y = A.shape[0], B.shape[1], C.shape[0]
    F = np.block([[A, B], [-C, -D]])
    E = np.zeros((n + n_y, n + n_u))
    E[:n, :n] = np.eye(n)
    if n_y != n_u:
        U, _, Vh = np.linalg.svd(_SQUARING_POINT * E - F, full_matrices=False)
        if n_y > n_u:
            F, E = U.T @ F, U.T @ E
        else:
            F, E = F @ Vh.T, E @ Vh.T
    w = scipy.linalg.eig(F, E, right=False)
    return [complex(z) for z in w if np.isfinite(z)]


def _null_directions(sys, zs, labels=None):
    """Right null vector of the pencil at each point of ``zs``, split into
    (state, input) parts, from one stacked SVD.  The k points of a
    coincidence cluster (``MATCH_TOL``) take the last k right singular
    vectors at one point of the cluster, one each, so that the records of
    a zero with k independent null vectors span that null space instead
    of each carrying some vector of it; past the null space's dimension
    at ``CONFIRM_RTOL`` (a null chain) its vectors are taken again.
    ``labels`` is ``_cluster_labels(zs, MATCH_TOL)`` when the caller
    already has it."""
    n = sys.n
    if labels is None:
        labels = _cluster_labels(zs, MATCH_TOL)
    points = sorted(set(labels))
    _, s, Vh = np.linalg.svd(pencil_matrix(sys, [zs[p] for p in points]))
    taken = dict.fromkeys(points, 0)
    out = []
    for p in labels:
        i = points.index(p)
        null = max(1, Vh.shape[-1] - linalg.rank_of(s[i], CONFIRM_RTOL).rank)
        v = Vh[i][-1 - taken[p] % null].conj()
        taken[p] += 1
        xi, nu = v[:n], v[n:]
        if abs(zs[p]) > 1.0:
            # reciprocal form carries nu scaled by 1/z relative to the plain form
            nu = nu * zs[p]
        out.append((xi, nu))
    return out


def _normalize_direction(xi, nu):
    """The input direction ``nu`` of the null vector ``(xi, nu)`` scaled to
    max-norm one with its largest component real positive (the monitor's
    norm)."""
    mags = np.abs(nu)
    idx = int(np.argmax(mags))
    if mags[idx] < 1e-12 * max(1.0, float(np.max(np.abs(xi)))):
        return nu  # degenerate: leave unscaled rather than blow up
    return nu / (nu[idx] / abs(nu[idx]) * mags[idx])


def _match_multisets(a, b, tol):
    """Greedy nearest pairing of two complex multisets; None if they differ."""
    if len(a) != len(b):
        return None
    remaining = list(b)
    paired = []
    for z in a:
        dists = [abs(z - w) for w in remaining]
        j = int(np.argmin(dists))
        if not dists[j] <= tol:  # a NaN distance never matches
            return None
        paired.append(0.5 * (z + remaining.pop(j)))
    return paired


def _cluster_labels(values, tol):
    """Coincidence cluster of each value, named by the index of one of its
    values: values that reach each other through a chain of pairs within
    ``tol`` of each other share a label."""
    label = list(range(len(values)))
    for i, a in enumerate(values):
        for j, b in enumerate(values[:i]):
            if abs(a - b) <= tol and label[i] != label[j]:
                merged = label[i]
                label = [label[j] if lab == merged else lab for lab in label]
    return label


def _unit_circle_side(v: complex):
    """(side, marginal) of ``v`` against the unit circle: side is
    "boundary" within ``BOUNDARY_TOL`` of it, else "outside" or "inside";
    marginal flags a distance within a decade of the tolerance."""
    dist = abs(abs(v) - 1.0)
    marginal = BOUNDARY_TOL * 0.1 < dist < BOUNDARY_TOL * 10.0
    if dist <= BOUNDARY_TOL:
        return "boundary", marginal
    return ("outside" if abs(v) > 1.0 else "inside"), marginal


def _classify(z: complex, multiplicity: int):
    side, marginal = _unit_circle_side(z)
    if side == "boundary":
        return ("boundary_multiple" if multiplicity > 1 else "boundary_simple"), marginal
    return ("nmp_strict" if side == "outside" else "minimum_phase"), marginal


def _zero_records(sys, assumptions=None, directions=True):
    """(records, normal rank) of the finite confirmed zeros of the deciding
    pencil of ``sys``, with no minimality check: a channel set's system
    need not be minimal.  ``assumptions`` as for
    :func:`transmission_zeros`.  Without ``directions`` (a verdict reads
    none) every ``input_direction`` is None and no null vector is
    computed."""
    deciding = _deciding_system(sys, assumptions)
    normal_rank, found = _confirmed(deciding)
    # Conjugate-pair and multiplicity bookkeeping, then record assembly.
    zs = [z for z, _ in found]
    labels = _cluster_labels(zs, MATCH_TOL)
    nulls = _null_directions(deciding, zs, labels) if directions else [None] * len(zs)
    records = []
    for (z, residual), label, null in zip(found, labels, nulls):
        classification, marginal = _classify(z, labels.count(label))
        lam = None if abs(z) <= 1e-9 else 1.0 / z  # None encodes "lambda-infinity"
        direction = None if null is None else _normalize_direction(*null)
        records.append(ZeroRecord(z, lam, direction, classification, residual, marginal))
    return records, normal_rank


def transmission_zeros(sys, assumptions=None) -> ZeroReport:
    """Finite transmission zeros and poles of a discrete state-space system.

    The candidates are the eigenvalues of one generalized eigenvalue
    problem on the pencil of ``_deciding_system(sys)``, squared down at a
    fixed point when it is not square; a candidate survives only if it
    drops that pencil's rank at ``CONFIRM_RTOL``, and the same pencil gives
    the normal rank, residuals and directions.  No random draw is made.

    Zeros at z = 0 are recorded with ``lambda_value`` None
    ("lambda-infinity").  Zeros of the feedthrough relative to the normal
    rank (zeros at z-infinity, reciprocal value 0) are reported as
    ``at_lambda_zero`` records and counted separately in the report.

    ``assumptions`` is a lifted system's ``check_assumptions(sys)`` when
    the caller already has it.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, n_u, n_y = A.shape[0], B.shape[1], C.shape[0]
    _require_minimal(sys, None, "transmission zeros require")
    records, normal_rank = _zero_records(sys, assumptions)
    shape = "square" if n_y == n_u else ("tall" if n_y > n_u else "fat")

    # Zeros at z-infinity: the reciprocal-domain pencil at 0 is
    # [[I, -B], [0, D]], whose column rank is n + rank(D).  The feedthrough
    # rank is judged against the overall system scale, not against itself.
    sys_scale = max(float(np.max(np.abs(M))) for M in (A, B, C, D)) or 1.0
    rank_D = linalg.rank_svd(D, scale=sys_scale).rank
    n_at_lambda_zero = max(0, (normal_rank - n) - rank_D)
    if n_at_lambda_zero > 0:
        M0 = np.vstack([np.hstack([np.eye(n), -B]), np.hstack([np.zeros((n_y, n)), D])])
        s0 = np.linalg.svd(M0, compute_uv=False)
        residual0 = float(s0[normal_rank - 1])
        _, _, Vh = np.linalg.svd(D)
        null_D = Vh[rank_D:].conj()
        # normal_rank <= n + n_u, so null_D has n_at_lambda_zero rows or more
        for nu in null_D[:n_at_lambda_zero]:
            records.append(
                ZeroRecord(
                    z_value=None,
                    lambda_value=0j,
                    input_direction=_normalize_direction(B @ nu, nu),
                    classification="at_lambda_zero",
                    residual=residual0,
                    marginal=False,
                )
            )

    return ZeroReport(
        zeros=tuple(records),
        poles=poles(sys),
        normal_rank=normal_rank,
        system_shape=shape,
        n_zeros_at_lambda_zero=n_at_lambda_zero,
    )


def zero_values(sys, minimality=None) -> list:
    """The finite zeros of ``transmission_zeros(sys)``, in its order, as
    complex values: no directions, classification, poles or zeros at
    z-infinity.  Same minimality check, same ``ModelError``."""
    _require_minimal(sys, minimality, "transmission zeros require")
    return [z for z, _ in _confirmed(_deciding_system(sys))[1]]


def poles(sys) -> tuple:
    """Eigenvalues of the state matrix, classified against the unit circle."""
    _require_discrete(sys, "poles need")
    labels = {"boundary": "boundary", "outside": "unstable", "inside": "stable"}
    return tuple(PoleRecord(complex(lam), labels[_unit_circle_side(lam)[0]])
                 for lam in linalg.eig(sys.A))


def _multiple_at(sys, z) -> str:
    """``"not_a_zero"``, ``"simple"`` or ``"multiple"``: whether ``z``, on
    or inside the unit circle, is a zero of ``sys`` with a null chain of
    length two.  The chain is a pair with ``P v0 = 0``, ``P' v0 + P v1 = 0``
    and ``v0`` nonzero, for the deciding pencil ``P`` at ``z`` and its
    derivative ``P' = [[I, 0], [0, 0]]`` (Gohberg, Lancaster & Rodman,
    *Matrix Polynomials*, 1982).  Both ranks are judged against ``P``'s scale.
    """
    P = pencil_matrix(_deciding_system(sys), z)
    cols = P.shape[1]
    r = linalg.rank_svd(P)
    if r.rank == cols:
        return "not_a_zero"
    dP = np.zeros_like(P)
    dP[: sys.n, : sys.n] = np.eye(sys.n)
    chain = np.block([[P, np.zeros_like(P)], [dP, P]])
    # A null vector with nonzero leading block exists iff the stacked rank
    # falls short of (columns of one block) + rank of one block.
    r2 = linalg.rank_svd(chain, scale=r.singular_values[0]).rank
    return "multiple" if r2 < cols + r.rank else "simple"


def _sensor_set(sys, with_actuators=False):
    """The sampled system ``sys`` with the attacked channels as its inputs:
    ``(A, 0, C, I)`` for the sensors, ``(A, [B, 0], C, [D, I])`` for the
    sensors and the actuators (the actuators alone are ``sys`` itself)."""
    keep = slice(None if with_actuators else 0)
    return StateSpace(sys.A, np.hstack([sys.B[:, keep], np.zeros((sys.n, sys.n_y))]),
                      sys.C, np.hstack([sys.D[:, keep], np.eye(sys.n_y)]))


# How the rule names, per channel set, its witness, its repeated boundary
# zeros and (in a note, or not at all) its simple ones; the sensor set's
# zeros are the plant's poles.
_ACTUATOR_NOTES = ("actuator witness zero", "multiple boundary zeros away from frequency one", None)
_SENSOR_NOTES = ("sensor witness pole", "repeated boundary poles",
                 "boundary poles are simple: no unbounded sensor plan")


def _rule(channels, records, normal_rank, notes, chains=True):
    """(verdict, mechanism, witness, notes) of the attacked channel set
    whose system is ``channels``, by the rule of the module docstring, from
    the confirmed zero ``records`` and the ``normal_rank`` of its deciding
    pencil.  A repeated boundary cluster at z = 1 is decided by
    ``_multiple_at`` at exactly 1 (at a computed value 1e-8 off it the test
    can miss the chain of a double zero); ``chains=False`` leaves it
    undecided, as any other repeated boundary cluster."""
    witness_name, repeated_name, simple_note = notes
    if normal_rank < channels.n + channels.n_u:
        return "yes", "fat_plant", None, (
            "fat plant: one input channel can mask another regardless of zeros",)
    strict = [r for r in records if r.classification == "nmp_strict"]
    if strict:
        witness = max(strict, key=lambda r: abs(r.z_value))
        marginal = f"{witness_name} is marginal (near the boundary tolerance)"
        return "yes", "nmp_zero", witness, (marginal,) if witness.marginal else ()
    repeated = [r for r in records if r.classification == "boundary_multiple"]
    at_one = [r for r in repeated if chains and abs(r.z_value - 1.0) <= MATCH_TOL]
    found = ()
    if at_one:
        if _multiple_at(channels, 1.0) == "multiple":
            return "yes", "multiple_zero_at_one", at_one[0], ()
        found = ("boundary zero at frequency one is simple: no unbounded plan",)
    if len(repeated) > len(at_one):
        return "undecided", None, None, (*found, f"{repeated_name}: undecided (out of scope: "
                                         "invariant-factor multiplicity analysis)")
    if simple_note and any(r.classification == "boundary_simple" for r in records):
        found = (*found, simple_note)
    return "no", None, None, found


def _actuator_rule(report: ZeroReport, system):
    """``_rule`` on the actuators of ``system``, whose report is ``report``."""
    return _rule(system, report.zeros, report.normal_rank, _ACTUATOR_NOTES)


def _sensor_rule(system):
    """``_rule`` on the sensors of ``system``, without the chain test."""
    sensors = _sensor_set(system)
    records, normal_rank = _zero_records(sensors, directions=False)
    return _rule(sensors, records, normal_rank, _SENSOR_NOTES, chains=False)


def classify_vulnerability(report: ZeroReport, system) -> VulnerabilityVerdict:
    """Stealthy-attack verdicts of the actuator and the sensor channel sets
    of ``system``, whose zero report is ``report``, each by ``_rule`` on
    its own pencil, the one ``attack`` builds its plan from.  A fat plant,
    or one whose inputs are dependent, has an actuator pencil of deficient
    normal rank; the sensor pencil's zeros are the poles, so an unstable
    pole is the sensor witness and repeated boundary poles, at z = 1 too,
    are undecided."""
    actuator, mechanism, witness, notes = _actuator_rule(report, system)
    sensor, _, sensor_witness, sensor_notes = _sensor_rule(system)
    return VulnerabilityVerdict(
        actuator=actuator,
        actuator_mechanism=mechanism,
        actuator_witness=witness,
        sensor=sensor,
        sensor_witness=sensor_witness,
        notes=notes + sensor_notes,
    )
