"""Randomized property suite over random plants, used by the command-line
``verify`` subcommand.

Each property runs a number of independent trials on freshly drawn random
minimal plants and reports pass/fail with a counterexample dump (plant
JSON plus the trial seed) on failure.  A deliberate negative control
corrupts a lifted block and must be caught by the shift-consistency
check, guarding the test machinery itself.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from .errors import LiftguardError
from .factor import bezout_defect, coprime_factorize
from .lift import (
    block_difference_matrix,
    build_lifted,
    choose_m,
    observability_stack,
    shift_consistency_check,
)
from .model import ContinuousPlant, DiscretePlant, check_minimal, plant_to_dict
from .zeros import _match_multisets, multiplicity_at_one, transmission_zeros

__all__ = ["run_suite", "random_minimal_plant", "random_minimal_discrete"]


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
        Ac=rng.standard_normal((n, n)),
        Bc=rng.standard_normal((n, n_u)),
        Cc=rng.standard_normal((n_y, n)),
        Dc=np.zeros((n_y, n_u)),
    )


@_redrawn
def random_minimal_discrete(rng) -> DiscretePlant:
    """Random minimal single-input single-output discrete plant with 2-4
    states and spectral radius scaled near one."""
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
    return sys if check_minimal(sys).minimal else None


@_redrawn
def _random_stable_plant(rng) -> ContinuousPlant:
    n = int(rng.integers(2, 5))
    Ac = rng.standard_normal((n, n))
    Ac = Ac - (np.max(np.linalg.eigvals(Ac).real) + 0.3) * np.eye(n)
    return ContinuousPlant(
        Ac=Ac,
        Bc=rng.standard_normal((n, 1)),
        Cc=rng.standard_normal((1, n)),
        Dc=np.zeros((1, 1)),
    )


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


def _zero_set(report):
    return sorted(
        (r.z_value for r in report.zeros if r.z_value is not None),
        key=lambda z: (z.real, z.imag),
    )


def _prop_zero_similarity(rng, trial_seed):
    sys = random_minimal_discrete(rng)
    base = _zero_set(transmission_zeros(sys))
    S = rng.standard_normal((sys.n, sys.n)) + 2.0 * np.eye(sys.n)
    Si = np.linalg.inv(S)
    sim = DiscretePlant(
        A=S @ sys.A @ Si, B=S @ sys.B, C=sys.C @ Si, D=sys.D, period=1.0
    )
    transformed = _zero_set(transmission_zeros(sim))
    if _match_multisets(base, transformed, 1e-6) is None:
        return sys, f"{base} vs {transformed}"
    return None


def _prop_bezout(rng, trial_seed):
    sys = random_minimal_discrete(rng)
    defect = bezout_defect(coprime_factorize(sys))
    if defect > 1e-8:
        return sys, f"defect {defect:.3e}"
    return None


def _prop_factor_sets(rng, trial_seed):
    sys = random_minimal_discrete(rng)
    factors = coprime_factorize(sys)
    denom_zeros = _zero_set(transmission_zeros(factors.Ml))
    plant_poles = sorted(
        (complex(z) for z in np.linalg.eigvals(sys.A)), key=lambda z: (z.real, z.imag)
    )
    if _match_multisets(denom_zeros, plant_poles, 1e-6) is None:
        return sys, f"{denom_zeros} vs {plant_poles}"
    return None


def _lifted(plant):
    """The lifted system at T = 1 with the smallest admissible m."""
    return build_lifted(plant, 1.0, choose_m(plant, 1.0))


def _prop_structural_identities(rng, trial_seed):
    plant = random_minimal_plant(rng)
    L = _lifted(plant)
    fast = L.fast_plant
    X = block_difference_matrix(L.m, fast.n_y)
    O = observability_stack(fast.A, fast.C, L.m)
    e1 = np.max(np.abs(X @ L.C - O @ (np.eye(fast.n) - fast.A)))
    e2 = np.max(np.abs(X @ L.D + O @ fast.B))
    e3 = np.max(
        np.abs((np.eye(fast.n) - fast.A) @ L.B - (np.eye(fast.n) - L.A) @ fast.B)
    )
    worst = max(e1, e2, e3)
    if worst > 1e-12:
        return plant, f"identity error {worst:.3e}"
    return None


def _prop_lifted_zero_containment(rng, trial_seed):
    plant = random_minimal_plant(rng)
    L = _lifted(plant)
    if not check_minimal(L).minimal:
        return None  # pathological fast sampling; excluded by assumption
    report = transmission_zeros(L)
    bad = [
        r.z_value
        for r in report.zeros
        if r.z_value is not None and abs(r.z_value) > 1.0 + 1e-7
    ]
    mult = multiplicity_at_one(coprime_factorize(L).Nl)
    if bad or mult == "multiple":
        return plant, f"outside zeros {bad}, multiplicity {mult}"
    return None


def _prop_shift_consistency(rng, trial_seed):
    plant = random_minimal_plant(rng)
    result = shift_consistency_check(_lifted(plant), trials=3, n_steps=30, rng=rng)
    if not result.consistent:
        return plant, f"max error {result.max_error:.3e}"
    return None


def _prop_negative_control(rng, trial_seed):
    """The checker itself must flag a corrupted lifted block.

    Runs on a stable plant so the corruption is not drowned, relative to
    the check's scale normalization, by natural response growth.
    """
    plant = _random_stable_plant(rng)
    L = _lifted(plant)
    corrupted = dataclasses.replace(L, D=L.D + 1e-3 * (1.0 + np.max(np.abs(L.D))))
    if shift_consistency_check(corrupted, trials=3, n_steps=30, rng=rng).consistent:
        return plant, "corrupted block not detected"
    return None


_PROPERTIES = (
    ("zero_set_similarity_invariance", _prop_zero_similarity, 1.0),
    ("bezout_identity_on_unit_circle", _prop_bezout, 1.0),
    ("denominator_zeros_are_plant_poles", _prop_factor_sets, 1.0),
    ("lifted_structural_identities", _prop_structural_identities, 0.5),
    ("lifted_zeros_confined_to_unit_disc", _prop_lifted_zero_containment, 0.5),
    ("lifted_shift_consistency", _prop_shift_consistency, 0.3),
    ("negative_control_corrupted_lifted_block", _prop_negative_control, 0.0),
)


def run_suite(trials: int = 100, seed: int = 0) -> list:
    """Run every property; failures are report content, not exceptions.

    Property ``idx`` draws its trial seeds from the stream ``[seed, idx]``.
    Each trial calls the property with an rng made from the trial seed and
    the seed itself, and the property returns ``(plant, detail)`` for a
    counterexample or None.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for idx, (name, prop, scale) in enumerate(_PROPERTIES):
            n = max(1, int(round(trials * scale))) if scale else 1
            rng = np.random.default_rng([seed, idx])
            failures = []
            for _ in range(n):
                trial_seed = int(rng.integers(0, 2**31))
                found = prop(np.random.default_rng(trial_seed), trial_seed)
                if found is not None:
                    failures.append(_counterexample(found[0], trial_seed, found[1]))
            out.append(
                {
                    "name": name,
                    "trials": n,
                    "status": "pass" if not failures else "fail",
                    "failures": failures[:5],
                }
            )
    return out
