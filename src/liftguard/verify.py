"""Randomized property suite over random plants, used by the command-line
``verify`` subcommand.

Each property runs a number of trials on freshly drawn random minimal
plants and reports pass/fail with a counterexample dump (plant JSON plus
the trial seed) on failure.  Properties that read the same expensive
object form a family and share each trial's: the Bezout and factor/pole
properties one ``coprime_factorize``, the four lifted properties one
``build_lifted`` and its certificate.  A deliberate negative control
corrupts a lifted block and must be caught by the lifted-block
certificate (``lift.shift_consistency_check``), guarding the test
machinery itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from .errors import LiftguardError
from .factor import BEZOUT_RTOL, coprime_factorize
from .lift import block_difference_matrix, build_lifted, shift_consistency_check
from .model import (
    ContinuousPlant,
    DiscretePlant,
    check_minimal,
    observability_stack,
    plant_to_dict,
)
from .zeros import BOUNDARY_TOL, MATCH_TOL, _match_multisets, _multiple_at, zero_values

__all__ = ["run_suite", "random_minimal_plant", "STRUCTURAL_IDENTITY_TOL"]

# Largest residual entry the three lifted structural identities may have.
STRUCTURAL_IDENTITY_TOL = 1e-12


def _redrawn(draw):
    """Repeat ``draw(rng)`` up to 60 times until it gives a plant; a draw
    that is not minimal returns None or raises a package error."""

    @functools.wraps(draw)
    def redraw(rng):
        for _ in range(60):
            try:
                plant = draw(rng)
            except LiftguardError:
                continue
            if plant is not None:
                return plant
        raise RuntimeError("failed to draw a minimal plant (should be astronomically unlikely)")

    return redraw


@_redrawn
def random_minimal_plant(rng) -> ContinuousPlant:
    """Random minimal strictly proper continuous plant: 2-4 states, 1-2
    inputs, and as many outputs as inputs or one more."""
    n = int(rng.integers(2, 5))
    n_u = int(rng.integers(1, 3))
    n_y = int(rng.integers(n_u, n_u + 2))
    return ContinuousPlant(
        A=rng.standard_normal((n, n)),
        B=rng.standard_normal((n, n_u)),
        C=rng.standard_normal((n_y, n)),
        D=np.zeros((n_y, n_u)),
    )


@_redrawn
def _minimal_discrete(rng):
    """Random minimal single-input single-output discrete plant with 2-4
    states and spectral radius scaled near one, with its ``check_minimal``
    report, which the properties hand on instead of checking again."""
    n = int(rng.integers(2, 5))
    A = rng.standard_normal((n, n))
    A = A / (1.2 * max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6))
    sys = DiscretePlant(
        A=A,
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((1, n)),
        D=rng.standard_normal((1, 1)),
        period=1.0,
    )
    rep = check_minimal(sys)
    return (sys, rep) if rep.minimal else None


def _counterexample(plant, trial_seed, detail):
    doc = {"seed": trial_seed, "detail": detail}
    if isinstance(plant, ContinuousPlant):
        doc["plant"] = plant_to_dict(plant, T=1.0)
    elif isinstance(plant, DiscretePlant):
        doc["plant"] = {
            "A": plant.A.tolist(),
            "B": plant.B.tolist(),
            "C": plant.C.tolist(),
            "D": plant.D.tolist(),
            "period": plant.period,
        }
    return doc


def _zero_set(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


def _similar_pair(rng):
    """Draw of the similarity property: a random minimal discrete plant,
    its minimality report and a well-conditioned similarity transform."""
    sys, rep = _minimal_discrete(rng)
    S = rng.standard_normal((sys.n, sys.n)) + 2.0 * np.eye(sys.n)
    return sys, rep, S


def _factored_plant(rng):
    """Draw of the factor properties: a random minimal discrete plant, its
    coprime factors and the Bezout defect their construction check
    computed."""
    sys, rep = _minimal_discrete(rng)
    certificate = []
    factors = coprime_factorize(sys, minimality=rep, certificate=certificate)
    return sys, factors, certificate[0]


def _lifted_plant(rng):
    """Draw of the lifted properties: a random minimal continuous plant,
    its lifted system at T = 1 and the certificate ``build_lifted`` ran."""
    plant = random_minimal_plant(rng)
    certificate = []
    L = build_lifted(plant, 1.0, certificate=certificate)
    return plant, L, certificate[0]


def _prop_zero_similarity(trial):
    sys, rep, S = trial
    base = _zero_set(zero_values(sys, minimality=rep))
    Si = np.linalg.inv(S)
    sim = DiscretePlant(
        A=S @ sys.A @ Si, B=S @ sys.B, C=sys.C @ Si, D=sys.D, period=1.0
    )
    transformed = _zero_set(zero_values(sim))
    if _match_multisets(base, transformed, MATCH_TOL) is None:
        return sys, f"{base} vs {transformed}"
    return None


def _prop_bezout(trial):
    sys, _, defect = trial
    if not defect <= BEZOUT_RTOL:
        return sys, f"defect {defect:.3e}"
    return None


def _prop_factor_sets(trial):
    sys, factors, _ = trial
    denom_zeros = _zero_set(zero_values(factors.Ml))
    plant_poles = sorted(
        (complex(z) for z in np.linalg.eigvals(sys.A)), key=lambda z: (z.real, z.imag)
    )
    if _match_multisets(denom_zeros, plant_poles, MATCH_TOL) is None:
        return sys, f"{denom_zeros} vs {plant_poles}"
    return None


def _prop_structural_identities(trial):
    plant, L, _ = trial
    fast = L.fast_plant
    X = block_difference_matrix(L.m, fast.n_y)
    O = observability_stack(fast.A, fast.C, L.m)
    e1 = np.max(np.abs(X @ L.C - O @ (np.eye(fast.n) - fast.A)))
    e2 = np.max(np.abs(X @ L.D + O @ fast.B))
    e3 = np.max(
        np.abs((np.eye(fast.n) - fast.A) @ L.B - (np.eye(fast.n) - L.A) @ fast.B)
    )
    worst = np.max([e1, e2, e3])
    if not worst <= STRUCTURAL_IDENTITY_TOL:
        return plant, f"identity error {worst:.3e}"
    return None


def _prop_lifted_zero_containment(trial):
    plant, L, _ = trial
    rep = check_minimal(L)
    if not rep.minimal:
        return None  # pathological fast sampling; excluded by assumption
    bad = [z for z in zero_values(L, minimality=rep) if abs(z) > 1.0 + BOUNDARY_TOL]
    mult = _multiple_at(L, 1.0)
    if bad or mult == "multiple":
        return plant, f"outside zeros {bad}, multiplicity {mult}"
    return None


def _prop_shift_consistency(trial):
    plant, _, result = trial
    if not result.consistent:
        return plant, f"max error {result.max_error:.3e}"
    return None


def _prop_negative_control(trial):
    """The certificate itself must flag a corrupted lifted block."""
    plant, L, _ = trial
    corrupted = dataclasses.replace(L, D=L.D + 1e-3 * (1.0 + np.max(np.abs(L.D))))
    if shift_consistency_check(corrupted).consistent:
        return plant, "corrupted block not detected"
    return None


# (name, draw, check, scale).  Consecutive properties with the same draw
# form a family and read one shared object per trial.
_PROPERTIES = (
    ("zero_set_similarity_invariance", _similar_pair, _prop_zero_similarity, 1.0),
    ("bezout_identity_on_unit_circle", _factored_plant, _prop_bezout, 1.0),
    ("denominator_zeros_are_plant_poles", _factored_plant, _prop_factor_sets, 1.0),
    ("lifted_structural_identities", _lifted_plant, _prop_structural_identities, 0.5),
    ("lifted_zeros_confined_to_unit_disc", _lifted_plant, _prop_lifted_zero_containment, 0.5),
    ("lifted_shift_consistency", _lifted_plant, _prop_shift_consistency, 0.3),
    ("negative_control_corrupted_lifted_block", _lifted_plant, _prop_negative_control, 0.0),
)


def _error_detail(exc):
    return f"{type(exc).__name__}: {exc}"


def _run_family(family, trials, rng):
    """Report of each ``(name, draw, check, scale)`` property of one
    family: ``draw`` runs once per trial and property p checks the first
    n_p trials.  A package error raised by the draw fails every property
    that reads the trial; one raised by a check fails that property."""
    counts = [max(1, round(trials * scale)) for *_, scale in family]
    draw = family[0][1]
    checks = [check for _, _, check, _ in family]
    failures = [[] for _ in family]
    for t in range(max(counts)):
        trial_seed = int(rng.integers(0, 2**31))
        readers = [p for p, n in enumerate(counts) if t < n]
        try:
            trial = draw(np.random.default_rng(trial_seed))
        except LiftguardError as exc:
            for p in readers:
                failures[p].append(_counterexample(None, trial_seed, _error_detail(exc)))
            continue
        for p in readers:
            try:
                found = checks[p](trial)
            except LiftguardError as exc:
                found = None, _error_detail(exc)
            if found is not None:
                failures[p].append(_counterexample(found[0], trial_seed, found[1]))
    return [
        {
            "name": name,
            "trials": n,
            "status": "pass" if not failed else "fail",
            "failures": failed[:5],
        }
        for (name, *_), n, failed in zip(family, counts, failures)
    ]


def run_suite(trials: int = 100, seed: int = 0) -> list:
    """Run every property; failures are report content, not exceptions.

    Consecutive properties with the same draw form a family, which draws
    one object per trial for all of them.  The family whose first property
    is ``idx`` draws its trial seeds from the stream ``[seed, idx]``, and
    each trial's draw gets an rng made from the trial seed.  Property p
    checks the first n_p = max(1, round(trials * scale)) of its family's
    trials.  So the first property of each family keeps the trial seeds it
    had when every property drew its own, the others read their family's,
    and a property appended with its own draw keeps every earlier stream.
    A check returns ``(plant, detail)`` for a counterexample or None.  A
    package error is a failure too, recorded with the trial seed and the
    error; one raised by a draw fails every property that reads the trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    out = []
    families = itertools.groupby(enumerate(_PROPERTIES), key=lambda e: e[1][1])
    for _, members in families:
        members = list(members)
        rng = np.random.default_rng([seed, members[0][0]])
        out.extend(_run_family([prop for _, prop in members], trials, rng))
    return out
