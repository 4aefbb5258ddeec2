"""Synthesis of stealthy attack signals.

Unbounded actuator plans ride a geometric mode along a right null
vector of the system pencil, so the closed loop's monitored signals stay
bounded while the injected signal grows: at a strictly non-minimum-phase
zero, or, on a fat plant, whose pencil has a null vector at every point,
at the fixed ratio ``FREE_ZETA``.  Which of the two applies is
``zeros.classify_vulnerability``'s decision.  Sensor plans do the same
with an unstable pole and the left denominator factor's null direction.
A coordinated attack computes the sensor sequence that cancels an
arbitrary actuator sequence at the output, so the visible output never
moves.

Signal amplitudes are calibrated empirically: a probe run of the loop
with a unit-amplitude plan measures the monitor peak per unit amplitude,
and one more run at the amplitude aimed at the centre of the acceptance
band, (7/8, 1] times half the detection threshold (the factor two covers
horizon truncation), confirms the delivered peak.  The peak scales
linearly with the amplitude up to rounding, so that run is the last one
unless the rounding floor moves the peak out of the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import CapabilityError, DimensionError, NumericError
from .factor import eval_lambda, left_factors
from .model import _field, _integer, ss_response
from .sim import LoopConfig, run_dual_rate, run_single_rate
from .zeros import (
    _normalize_direction,
    _null_directions,
    classify_vulnerability,
    poles,
    transmission_zeros,
)

__all__ = [
    "AttackPlan",
    "synth_actuator_attack",
    "synth_sensor_attack",
    "synth_coordinated_attack",
    "geometric_sequence",
    "plan_to_dict",
    "plan_from_dict",
    "FREE_ZETA",
]

_PARAMETRIC_KINDS = ("actuator_zero", "sensor_pole")
_SEQUENCE_KINDS = ("coordinated",)
# Growth ratio of a fat plant's plan.  Its pencil has a right null vector
# at every point, so the ratio is free.  Measured on the first 40 fat
# plants of the benchmark's ``random_plant`` from ``default_rng([0, 7])``
# at T = 1, 0.5 and 0.1: at 1.5 calibration raises NumericError (the peak
# never settles below half the threshold) for 2 plants at T = 0.5 and 3 at
# T = 0.1; at 1.05 the dual-rate replay of 1 or 2 plants per period is not
# detected within the horizon; at 1.1 every plan replays stealthy at
# single rate and detected at dual rate.
FREE_ZETA = 1.1


def geometric_sequence(direction, ratio: complex, epsilon: float, n_steps: int) -> np.ndarray:
    """Real signal eps * Re(direction * ratio^k), shape (n_steps, len(direction)).

    For a complex ratio this is the sum of the conjugate mode pair divided
    by two, so the signal is real and both conjugate directions are
    excited (and annihilated) together.  Past float overflow the rows are
    non-finite; that is left to the caller to report, without a warning.
    """
    direction = np.asarray(direction, dtype=complex).reshape(-1)
    k = np.arange(n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        modes = np.power(complex(ratio), k)
        return epsilon * np.real(np.outer(modes, direction))


@dataclass(frozen=True)
class AttackPlan:
    """Parametric or sequence-carrying attack description.

    Parametric kinds (``actuator_zero``, ``sensor_pole``) generate
    ``epsilon * Re(direction * zeta^k)`` on their channels; ``zeta`` has
    modulus above one for every unbounded plan and ``direction`` has
    max-norm one.  The sequence kind ``coordinated`` carries its explicit
    signals ``d_a`` and ``d_s`` in ``companion`` as matrices.  Every
    parameter and companion signal must be finite.  ``channel_map`` names
    one distinct, non-negative channel per entry of ``direction`` or
    column of ``d_a``.
    """

    kind: str
    zeta: complex
    direction: np.ndarray
    epsilon: float
    horizon: int
    channel_map: tuple
    companion: dict | None = None
    calibration: dict | None = None

    def __post_init__(self):
        if self.kind not in _PARAMETRIC_KINDS + _SEQUENCE_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=complex).reshape(-1))
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "channel_map", tuple(int(c) for c in self.channel_map))
        if not (np.isfinite(self.zeta) and np.isfinite(self.direction).all()):
            raise ValueError("plan zeta and direction must be finite")
        if self.companion is not None and not all(
            np.isfinite(seq).all() for seq in self.companion.values()
        ):
            raise ValueError("plan companion signals must be finite")
        if self.kind in _PARAMETRIC_KINDS:
            if abs(self.zeta) <= 1.0:
                raise ValueError("unbounded plans require |zeta| > 1")
            mags = np.abs(self.direction)
            if abs(float(np.max(mags)) - 1.0) > 1e-9:
                raise ValueError("plan direction must have max-norm one")
            width = len(self.direction)
        else:
            needs = ["d_a", "d_s"]
            if any(np.ndim((self.companion or {}).get(k)) != 2 for k in needs):
                raise ValueError(f"a {self.kind} plan needs companion matrices {needs}")
            width = np.shape(self.companion["d_a"])[1]
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        ch = self.channel_map
        if len(ch) != width or len(set(ch)) < width or min(ch, default=0) < 0:
            raise ValueError(f"plan channel_map {list(ch)} does not name {width} distinct, "
                             "non-negative channels, one per signal column")

    def _scatter(self, seq: np.ndarray, n_steps: int, n_channels: int) -> np.ndarray:
        out = np.zeros((n_steps, n_channels))
        take = min(n_steps, seq.shape[0])
        for col, ch in enumerate(self.channel_map):
            if ch >= n_channels:
                raise DimensionError(
                    f"plan channel {ch} out of range for {n_channels} channels"
                )
            out[:take, ch] = seq[:take, col]
        return out

    def actuator_sequence(self, n_steps: int, n_channels: int):
        """Actuator injection, one row per base step (None for sensor plans)."""
        if self.kind == "actuator_zero":
            seq = geometric_sequence(self.direction, self.zeta, self.epsilon, n_steps)
            return self._scatter(seq, n_steps, n_channels)
        if self.kind == "coordinated":
            stored = np.asarray(self.companion["d_a"], dtype=float)
            return self._scatter(stored, n_steps, n_channels)
        return None

    def sensor_sequence(self, n_steps: int, n_channels: int, m: int = 1):
        """Sensor injection over ``n_steps`` base steps of ``m`` samples
        each, one row per sample (None for actuator plans).

        A ``sensor_pole`` plan whose channels reach past ``n_channels``
        rides a pole of the lifted system: its channels are the
        ``m * n_channels`` outputs stacked over one base step, so it is
        rendered one base step at a time and each row is unstacked into
        its m samples.
        """
        n_samples = n_steps * m
        if self.kind == "sensor_pole":
            if max(self.channel_map, default=-1) >= n_channels:
                rows, width = n_steps, m * n_channels
            else:
                rows, width = n_samples, n_channels
            seq = geometric_sequence(self.direction, self.zeta, self.epsilon, rows)
            return self._scatter(seq, rows, width).reshape(n_samples, n_channels)
        if self.kind == "coordinated":
            stored = np.asarray(self.companion["d_s"], dtype=float)
            out = np.zeros((n_samples, n_channels))
            take = min(n_samples, stored.shape[0])
            out[:take, : stored.shape[1]] = stored[:take]
            return out
        return None


def default_horizon(ratio: complex) -> int:
    """Horizon making the growth certificate (factor 1000) comfortable."""
    return max(200, math.ceil(3.0 / math.log10(abs(ratio))))


def _run(cfg: LoopConfig):
    return run_dual_rate(cfg) if cfg.mode == "dual_rate" else run_single_rate(cfg)


def _calibrate(cfg: LoopConfig, unit_plan: AttackPlan):
    """Amplitude and per-unit peak of the monitored signals, measured at
    the operating point.

    A probe run fixes the scale (rescaled by an exact power of two on
    overflow, which commutes with floating-point simulation).  Each
    further run aims the amplitude at the centre of the acceptance band
    (7/8, 1] times half the threshold, and the first run whose delivered
    peak lands in the band is the last.  Over long horizons the monitor
    floor is accumulated rounding noise quantized at the ulp of the
    internal states, so a run can land a few percent off its aim; aiming
    at the centre leaves that much slack on either side, and a run that
    still misses is corrected from its own peak, at most 8 times.
    """

    def peak_at(eps):
        trace = _run(replace(cfg, attack=replace(unit_plan, epsilon=eps), horizon=unit_plan.horizon))
        return float(np.max(trace.monitor))

    c0_raw = None
    for eps_cal in (1.0, 2.0 ** -512):
        peak = peak_at(eps_cal)
        if np.isfinite(peak):
            c0_raw = peak / eps_cal
            break
    if c0_raw is None:
        raise NumericError("calibration simulation overflowed even after rescaling")

    target = cfg.theta / 2.0
    aim = target * (15.0 / 16.0)  # centre of the band (7/8, 1] * target
    epsilon = aim / max(c0_raw, np.finfo(float).tiny)
    peak = peak_at(epsilon)
    for _ in range(8):
        if target * (7.0 / 8.0) < peak <= target:
            break
        epsilon = epsilon * (aim / peak)
        peak = peak_at(epsilon)
    if peak > target:
        raise NumericError(
            f"amplitude calibration did not settle below half the threshold "
            f"(final peak {peak:.3e} vs target {target:.3e})"
        )
    return epsilon, peak / epsilon


def _calibrated_plan(cfg: LoopConfig, kind: str, zeta: complex, direction, n_channels: int):
    """Plan of ``kind`` over all ``n_channels`` channels at the default
    horizon for ``zeta``, with its amplitude calibrated on ``cfg``."""
    unit = AttackPlan(
        kind=kind,
        zeta=zeta,
        direction=direction,
        epsilon=1.0,
        horizon=default_horizon(zeta),
        channel_map=tuple(range(n_channels)),
    )
    epsilon, c0 = _calibrate(cfg, unit)
    return replace(
        unit,
        epsilon=epsilon,
        calibration={"empirical_peak": c0, "theta": cfg.theta, "safety_factor": 2.0},
    )


def synth_actuator_attack(cfg: LoopConfig) -> AttackPlan:
    """Unbounded stealthy actuator plan for the configured loop, built for
    the mechanism ``classify_vulnerability`` reports on the loop's
    discrete (or lifted) plant.

    ``nmp_zero`` rides its witness, the strictly non-minimum-phase zero of
    largest modulus, along the zero's input direction; zeros of the
    feedthrough at reciprocal frequency zero have no causal geometric input
    and never qualify.  ``fat_plant`` rides ``FREE_ZETA`` along the input
    part of the pencil's right null vector there.  ``multiple_zero_at_one``
    calls for a ramp, which no plan kind renders, and is a
    ``CapabilityError`` naming it, as is a verdict other than "yes".  The
    amplitude is calibrated so the monitor peaks at half the threshold.
    """
    sys = cfg.system
    report = transmission_zeros(sys)
    verdict = classify_vulnerability(report, system=sys)
    if verdict.actuator_mechanism == "nmp_zero":
        witness = verdict.actuator_witness
        zeta, direction = complex(witness.z_value), witness.input_direction
    elif verdict.actuator_mechanism == "fat_plant":
        zeta = FREE_ZETA
        direction = _normalize_direction(*_null_directions(sys, [zeta])[0])[1]
    elif verdict.actuator_mechanism == "multiple_zero_at_one":
        raise CapabilityError(
            "plant vulnerable through a multiple zero at frequency one "
            "(multiple_zero_at_one): its attack is a ramp, which no plan kind renders"
        )
    else:
        boundary = [r for r in report.zeros if r.classification.startswith("boundary")]
        hint = "; only boundary zeros found" if boundary else ""
        raise CapabilityError(
            "plant not vulnerable: no strictly non-minimum-phase zero to ride" + hint
        )
    return _calibrated_plan(cfg, "actuator_zero", zeta, direction, sys.n_u)


def synth_sensor_attack(cfg: LoopConfig, factors=None) -> AttackPlan:
    """Unbounded stealthy sensor plan riding an unstable pole.

    The growth ratio is the unstable pole; the direction is the null
    vector of the left denominator factor evaluated at the pole's
    reciprocal frequency, so the factor annihilates the injected mode.
    """
    sys = cfg.system
    records = poles(sys)
    unstable = [p for p in records if p.classification == "unstable"]
    if not unstable:
        boundary = [p for p in records if p.classification == "boundary"]
        hint = (
            "; only boundary poles found, which admit no unbounded plan"
            if boundary
            else "; the plant is stable"
        )
        raise CapabilityError("plant not vulnerable: no unstable pole" + hint)
    witness = max(unstable, key=lambda p: abs(p.value))
    zeta = complex(witness.value)
    Ml = left_factors(sys)[2] if factors is None else factors.Ml
    Ml_at_pole = eval_lambda(Ml, 1.0 / zeta)
    _, svals, Vh = np.linalg.svd(Ml_at_pole)
    if svals[-1] > 1e-6 * svals[0]:
        raise NumericError(
            "left denominator factor is not singular at the pole's reciprocal "
            f"frequency (smallest singular value {svals[-1]:.3e}); pole data inconsistent"
        )
    d0 = Vh[-1].conj()
    idx = int(np.argmax(np.abs(d0)))
    d0 = d0 / (d0[idx] / abs(d0[idx])) / abs(d0[idx])
    return _calibrated_plan(cfg, "sensor_pole", zeta, d0, sys.n_y)


def synth_coordinated_attack(sys, d_a):
    """Sensor sequence canceling an arbitrary actuator sequence at the output.

    Returns the pair ``(d_a, d_s)`` with ``d_s = -(P d_a)`` computed from
    zero state; injecting both leaves the measured output identical to
    the attack-free run, for any plant, stable or not.
    """
    d_a = np.asarray(d_a, dtype=float)
    if d_a.ndim == 1:
        d_a = d_a.reshape(-1, 1)
    d_s = -ss_response(sys, d_a)
    return d_a, d_s


def plan_to_dict(plan: AttackPlan) -> dict:
    """JSON-ready plan representation (round-trips via plan_from_dict)."""
    out = {
        "kind": plan.kind,
        "zeta": {"re": plan.zeta.real, "im": plan.zeta.imag},
        "direction": [{"re": z.real, "im": z.imag} for z in plan.direction],
        "epsilon": plan.epsilon,
        "horizon": plan.horizon,
        "channel_map": list(plan.channel_map),
        "companion": None,
        "calibration": plan.calibration,
    }
    if plan.companion is not None:
        out["companion"] = {
            key: np.asarray(value, dtype=float).tolist()
            for key, value in plan.companion.items()
        }
    return out


def plan_from_dict(doc: dict) -> AttackPlan:
    """The plan of a :func:`plan_to_dict` document; a document that is not
    an object, or a field of the wrong type, is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"an attack plan must be a JSON object, not {type(doc).__name__}")
    field = partial(_field, "plan", doc)
    companion = doc.get("companion")
    if companion is not None:
        companion = field("companion", lambda c: {k: np.asarray(v, float) for k, v in c.items()})
    return AttackPlan(
        kind=doc["kind"],
        zeta=field("zeta", lambda z: complex(z["re"], z["im"])),
        direction=field("direction", lambda d: [complex(z["re"], z["im"]) for z in d]),
        epsilon=field("epsilon", float),
        horizon=field("horizon", _integer),
        channel_map=field("channel_map", lambda c: [_integer(ch) for ch in c]),
        companion=companion,
        calibration=doc.get("calibration"),
    )
