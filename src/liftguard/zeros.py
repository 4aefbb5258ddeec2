"""Transmission zeros, poles, and stealthy-attack vulnerability classification.

Zeros are computed in the z-domain as the rank-drop points of the system
pencil

    [ zI - A   -B ]
    [   C       D ].

For square systems the finite rank-drop points are the finite generalized
eigenvalues of the pencil.  Non-square systems are squared down once at a
fixed point; only candidates confirmed by an explicit rank test on the full
pencil (and, for a lifted system, on a small pencil of the same rank
profile) survive.  The reciprocal-frequency form of the pencil is used for
evaluation outside the unit circle so the rank tests stay well scaled.

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
from .errors import ModelError
from .factor import eval_lambda
from .lift import LiftedSystem, check_assumptions
from .model import StateSpace, abcd, check_minimal

__all__ = [
    "ZeroRecord",
    "PoleRecord",
    "ZeroReport",
    "VulnerabilityVerdict",
    "transmission_zeros",
    "poles",
    "multiplicity_at_one",
    "classify_vulnerability",
    "has_zero_at",
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
# pencil's infinite spectrum: the reciprocal-domain pencil genuinely loses
# rank as the reciprocal frequency approaches zero whenever the feedthrough
# is rank deficient, which is exactly the separately-counted zero at
# z-infinity, not a finite zero.
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
    ``residual`` is the singular value of the (well-scaled) pencil that
    certifies the rank drop at this point.
    """

    z_value: complex | None
    lambda_value: complex | None
    input_direction: np.ndarray
    state_direction: np.ndarray
    classification: str
    residual: float
    marginal: bool = False


@dataclass(frozen=True)
class PoleRecord:
    value: complex
    classification: str  # "stable" | "boundary" | "unstable"
    marginal: bool = False


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
    sensor_witness: PoleRecord | None
    notes: tuple = ()


def pencil_matrix(sys, z) -> np.ndarray:
    """System pencil at ``z``, in whichever of the two frequency forms is
    well scaled at that point (|z| <= 1: plain form; otherwise the
    reciprocal form, which has the identical rank profile).

    A 1-D array of points gives the pencils stacked along a leading axis.
    """
    A, B, C, D = abcd(sys)
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


def _pencil_normal_rank(sys) -> int:
    s = np.linalg.svd(pencil_matrix(sys, _PROBE_POINTS), compute_uv=False)
    return int(np.max(np.count_nonzero(s > linalg.DEFAULT_RANK_RTOL * s[:, :1], axis=1)))


def _rank_tests(sys):
    """(system, normal rank) of each pencil a zero of ``sys`` must drop
    the rank of, the candidate source first and the full pencil last.  A
    lifted system whose observability stack O has full column rank adds the
    small system ``(A_l, B_l, [C_f; δ], [D_f; B_f/h])``, ``δ = (A_f - I)/h``:
    by ``X·C_l = O(I - A_f)`` and ``X·D_l = -O·B_f`` it has the lifted pencil's
    rank profile, and it stays well scaled as h shrinks and the lifted
    output rows become nearly equal.  Without that rank it would miss zeros."""
    systems = [sys]
    if isinstance(sys, LiftedSystem) and check_assumptions(sys).obs_full_rank:
        f = sys.fast_plant
        delta = (f.A - np.eye(f.n)) / f.period
        small = StateSpace(sys.A, sys.B, np.vstack([f.C, delta]), np.vstack([f.D, f.B / f.period]))
        systems.insert(0, small)
    return [(s, _pencil_normal_rank(s)) for s in systems]


def _confirmed(tests, candidates):
    """(z, residual) for each candidate that drops the rank of every pencil
    in ``tests`` (relative tolerance ``CONFIRM_RTOL``), with one stacked SVD
    per pencil over the candidates still standing.  The residual is the
    singular value of the last (full) pencil that must vanish for its column
    rank to fall below the normal rank."""
    found = [(complex(z), 0.0) for z in candidates]
    for pencil_sys, rank in tests:
        s = np.linalg.svd(pencil_matrix(pencil_sys, [z for z, _ in found]), compute_uv=False)
        found = [
            (z, float(sz[rank - 1]))
            for (z, _), sz in zip(found, s)
            if sz[rank - 1] <= CONFIRM_RTOL * sz[0]
        ]
    return found


def has_zero_at(sys, z: complex) -> bool:
    """Rank test: does the system pencil (and, for a lifted system, its
    small pencil) lose column rank at ``z`` (relative tolerance
    ``CONFIRM_RTOL``)?"""
    return bool(_confirmed(_rank_tests(sys), [z]))


def _candidates(sys):
    """Finite generalized eigenvalues of the pencil ``zE - F`` of ``sys``.  A
    non-square pencil is first projected onto the thin SVD of its value at
    ``_SQUARING_POINT``, which keeps every zero; the spurious eigenvalues
    it may add are left to the caller's rank test."""
    A, B, C, D = abcd(sys)
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


def _null_directions(sys, zs):
    """Right null vector of the pencil at each point of ``zs``, split into
    (state, input) parts, from one stacked SVD."""
    n = sys.n
    _, _, Vh = np.linalg.svd(pencil_matrix(sys, zs))
    out = []
    for z, vh in zip(zs, Vh):
        v = vh[-1].conj()
        xi, nu = v[:n], v[n:]
        if abs(z) > 1.0:
            # reciprocal form carries nu scaled by 1/z relative to the plain form
            nu = nu * z
        out.append((xi, nu))
    return out


def _normalize_direction(xi, nu):
    """Scale the pair so the input direction has max-norm one with its
    largest component real positive (the monitor's norm)."""
    mags = np.abs(nu)
    idx = int(np.argmax(mags))
    if mags[idx] < 1e-12 * max(1.0, float(np.max(np.abs(xi)))):
        return xi, nu  # degenerate: leave unscaled rather than blow up
    scale = nu[idx] / abs(nu[idx]) * mags[idx]
    return xi / scale, nu / scale


def _match_multisets(a, b, tol):
    """Greedy nearest pairing of two complex multisets; None if they differ."""
    if len(a) != len(b):
        return None
    remaining = list(b)
    paired = []
    for z in a:
        if not remaining:
            return None
        dists = [abs(z - w) for w in remaining]
        j = int(np.argmin(dists))
        if not dists[j] <= tol:  # a NaN distance never matches
            return None
        paired.append(0.5 * (z + remaining.pop(j)))
    return paired


def _cluster_sizes(values, tol):
    """Size of the coincidence cluster each value belongs to."""
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    sizes = {}
    for i in range(k):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return [sizes[find(i)] for i in range(k)]


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


def transmission_zeros(sys) -> ZeroReport:
    """Finite transmission zeros and poles of a discrete state-space system.

    The candidates are the eigenvalues of one generalized eigenvalue
    problem on the pencil, squared down at a fixed point when the system is
    not square; a lifted system takes them from its small pencil.  A
    candidate survives only if it drops the rank of the full pencil, and of
    the small one, at ``CONFIRM_RTOL``.  Residuals and directions come from
    the full pencil.  Nothing depends on a random draw.

    Zeros at z = 0 are recorded with ``lambda_value`` None
    ("lambda-infinity").  Zeros of the feedthrough relative to the normal
    rank (zeros at z-infinity, reciprocal value 0) are reported as
    ``at_lambda_zero`` records and counted separately in the report.
    """
    A, B, C, D = abcd(sys)
    n, n_u, n_y = A.shape[0], B.shape[1], C.shape[0]
    rep = check_minimal(sys)
    if not rep.minimal:
        raise ModelError(
            "transmission zeros require a minimal realization "
            f"(controllable={rep.controllable}, observable={rep.observable})"
        )

    tests = _rank_tests(sys)
    normal_rank = tests[-1][1]
    shape = "square" if n_y == n_u else ("tall" if n_y > n_u else "fat")
    cands = _candidates(tests[0][0])
    found = _confirmed(tests, [z for z in cands if abs(z) <= _Z_INFINITY_CUTOFF])

    # Conjugate-pair and multiplicity bookkeeping, then record assembly.
    zs = [z for z, _ in found]
    sizes = _cluster_sizes(zs, MATCH_TOL)
    records = []
    for (z, residual), mult, (xi, nu) in zip(found, sizes, _null_directions(sys, zs)):
        xi, nu = _normalize_direction(xi, nu)
        classification, marginal = _classify(z, mult)
        lam = None if abs(z) <= 1e-9 else 1.0 / z  # None encodes "lambda-infinity"
        records.append(
            ZeroRecord(
                z_value=z,
                lambda_value=lam,
                input_direction=nu,
                state_direction=xi,
                classification=classification,
                residual=residual,
                marginal=marginal,
            )
        )

    # Zeros at z-infinity: the reciprocal-domain pencil at 0 is
    # [[I, -B], [0, D]], whose column rank is n + rank(D).  The feedthrough
    # rank is judged against the overall system scale, not against itself.
    sys_scale = max(float(np.max(np.abs(M))) for M in (A, B, C, D)) or 1.0
    sD = np.linalg.svd(D, compute_uv=False)
    rank_D = int(np.count_nonzero(sD > linalg.DEFAULT_RANK_RTOL * sys_scale))
    n_at_lambda_zero = max(0, (normal_rank - n) - rank_D)
    if n_at_lambda_zero > 0:
        M0 = np.vstack([np.hstack([np.eye(n), -B]), np.hstack([np.zeros((n_y, n)), D])])
        s0 = np.linalg.svd(M0, compute_uv=False)
        residual0 = float(s0[normal_rank - 1])
        _, _, Vh = np.linalg.svd(D)
        null_D = Vh[rank_D:].conj()
        for i in range(n_at_lambda_zero):
            nu = null_D[i] if i < null_D.shape[0] else null_D[-1]
            xi = (B @ nu).astype(complex)
            xi, nu = _normalize_direction(xi, nu)
            records.append(
                ZeroRecord(
                    z_value=None,
                    lambda_value=0j,
                    input_direction=nu,
                    state_direction=xi,
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


def poles(sys) -> tuple:
    """Eigenvalues of the state matrix, classified against the unit circle."""
    A, _, _, _ = abcd(sys)
    labels = {"boundary": "boundary", "outside": "unstable", "inside": "stable"}
    out = []
    for lam in linalg.eig(A):
        side, marginal = _unit_circle_side(lam)
        out.append(PoleRecord(value=complex(lam), classification=labels[side], marginal=marginal))
    return tuple(out)


def multiplicity_at_one(left_numerator) -> str:
    """Algebraic multiplicity of a possible zero at frequency one of a
    stable left-factor numerator.

    The factor's transfer map and its frequency derivative are evaluated
    in closed form at the point, then stacked into the two-block test
    matrix whose right null chain certifies multiplicity greater than
    one.  Returns ``"not_a_zero"``, ``"simple"``, or ``"multiple"``.
    """
    A, B, C, D = abcd(left_numerator)
    if linalg.spectral_radius(A) >= 1.0:
        raise ModelError("left-factor state matrix must be Schur stable")
    n = A.shape[0]
    n_u = B.shape[1]
    I = np.eye(n)
    S = np.linalg.solve(I - A, B)  # (I - A)^{-1} B
    N1 = C @ S + D
    N1p = C @ np.linalg.solve(I - A, S)  # C (I - A)^{-2} B
    # Rank decisions need an absolute scale: a numerator that vanishes
    # entirely at the point would otherwise look full rank relative to its
    # own largest singular value.  Generic unit-circle samples of the
    # (stable) factor provide the scale.
    samples = eval_lambda(left_numerator, np.exp([0.379j, 2.211j]))
    scale = float(np.max(np.linalg.norm(samples, 2, axis=(-2, -1))))
    tol = linalg.DEFAULT_RANK_RTOL * max(scale, np.finfo(float).tiny)
    s1 = np.linalg.svd(N1, compute_uv=False)
    r1 = int(np.count_nonzero(s1 > tol))
    if r1 == n_u:
        return "not_a_zero"
    T = np.block([[N1, np.zeros_like(N1)], [N1p, N1]])
    sT = np.linalg.svd(T, compute_uv=False)
    rT = int(np.count_nonzero(sT > tol))
    # A null vector with nonzero leading block exists iff the stacked rank
    # falls short of (columns of one block) + rank of one block.
    return "multiple" if rT < n_u + r1 else "simple"


def classify_vulnerability(report: ZeroReport, left_numerator=None) -> VulnerabilityVerdict:
    """Stealthy-attack verdicts per channel from a zero/pole report.

    Actuator side: fat plants are always vulnerable (one input masks the
    other); otherwise a strictly non-minimum-phase zero is the witness;
    boundary zeros with multiplicity at frequency one are decided by the
    null-chain test when the stable left-factor numerator is supplied;
    multiple boundary zeros elsewhere are reported undecided.  Sensor
    side: an unstable pole is the witness; simple boundary poles are
    harmless; repeated boundary poles are undecided.
    """
    notes = []

    actuator = "no"
    mechanism = None
    witness = None
    if report.system_shape == "fat":
        actuator, mechanism = "yes", "fat_plant"
        notes.append("fat plant: one input channel can mask another regardless of zeros")
    else:
        strict = [r for r in report.zeros if r.classification == "nmp_strict"]
        if strict:
            witness = max(strict, key=lambda r: abs(r.z_value))
            actuator, mechanism = "yes", "nmp_zero"
            if witness.marginal:
                notes.append("actuator witness zero is marginal (near the boundary tolerance)")
        else:
            multi = [r for r in report.zeros if r.classification == "boundary_multiple"]
            at_one = [r for r in multi if abs(r.z_value - 1.0) <= MATCH_TOL]
            elsewhere = [r for r in multi if abs(r.z_value - 1.0) > MATCH_TOL]
            if at_one:
                if left_numerator is None:
                    actuator = "undecided"
                    notes.append(
                        "multiple boundary zero at frequency one: supply the left-factor "
                        "numerator to run the null-chain multiplicity test"
                    )
                else:
                    mult = multiplicity_at_one(left_numerator)
                    if mult == "multiple":
                        actuator, mechanism = "yes", "multiple_zero_at_one"
                        witness = at_one[0]
                    else:
                        notes.append("boundary zero at frequency one is simple: no unbounded plan")
            if elsewhere and actuator == "no":
                actuator = "undecided"
                notes.append(
                    "multiple boundary zeros away from frequency one: undecided "
                    "(out of scope: invariant-factor multiplicity analysis)"
                )

    sensor = "no"
    sensor_witness = None
    unstable = [p for p in report.poles if p.classification == "unstable"]
    if unstable:
        sensor_witness = max(unstable, key=lambda p: abs(p.value))
        sensor = "yes"
        if sensor_witness.marginal:
            notes.append("sensor witness pole is marginal (near the boundary tolerance)")
    else:
        boundary = [p for p in report.poles if p.classification == "boundary"]
        if boundary:
            sizes = _cluster_sizes([p.value for p in boundary], MATCH_TOL)
            if any(s > 1 for s in sizes):
                sensor = "undecided"
                notes.append(
                    "repeated boundary poles: undecided (out of scope: "
                    "invariant-factor multiplicity analysis)"
                )
            else:
                notes.append("boundary poles are simple: no unbounded sensor plan")

    return VulnerabilityVerdict(
        actuator=actuator,
        actuator_mechanism=mechanism,
        actuator_witness=witness,
        sensor=sensor,
        sensor_witness=sensor_witness,
        notes=tuple(notes),
    )
