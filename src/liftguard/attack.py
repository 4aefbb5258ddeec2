"""Synthesis of stealthy attack signals.

Every plan rides a growth ratio zeta along the channel part ``a0`` of a
right null vector ``(x0, a0)`` of the pencil ``[zeta I - A, -B_att; C,
D_att]`` of the loop's sampled system: ``(B, D)`` for the actuators,
``(0, I)`` for the sensors, ``([B, 0], [D, I])`` for both.  From zero
state the injection ``eps * Re(a0 * zeta^k)`` leaves the measured output
equal to the closed loop's free response from ``-eps * x0``, which the
stabilizing controller damps, for any plant.  Actuator and sensor plans
ride what the one verdict rule of ``zeros.classify_vulnerability`` finds
on their channel set's pencil: its witness zero (for the sensors, an
unstable pole), or ``FREE_ZETA`` when the pencil has a null vector at
every point.  Coordinated plans ride ``FREE_ZETA``.

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
from .model import StateSpace, _field, _integer, _no_booleans
from .sim import LoopConfig, run_dual_rate, run_single_rate
from .zeros import (
    _actuator_rule,
    _deciding_system,
    _normalize_direction,
    _null_directions,
    _sensor_rule,
    _sensor_set,
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

_KINDS = ("actuator_zero", "sensor_pole", "coordinated")
# Growth ratio of a plan whose pencil has a right null vector at every
# point, so the ratio is free: a fat plant's actuator plan and every
# coordinated plan.  Measured on the first 40 fat plants of the
# benchmark's ``random_plant`` from ``default_rng([0, 7])`` at T = 1, 0.5
# and 0.1: at 1.5 calibration raises NumericError (the peak never settles
# below half the threshold) for 2 plants at T = 0.5 and 3 at T = 0.1; at
# 1.05 the dual-rate replay of 1 or 2 plants per period is not detected
# within the horizon; at 1.1 every plan replays stealthy at single rate
# and detected at dual rate.
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
    """Parametric attack description: ``epsilon * Re(direction * zeta^k)``.

    ``zeta`` has modulus above one, ``direction`` max-norm one and
    ``horizon`` at least one base step; every parameter must be finite.  An
    ``actuator_zero`` plan injects on the actuators, a ``sensor_pole`` plan
    on the sensors, one distinct, non-negative channel of ``channel_map``
    per entry of ``direction``.  A ``coordinated`` plan injects on both:
    ``channel_map`` names its actuator channels, one per leading entry of
    ``direction``, and the rest of ``direction`` is its sensor part, on
    sensor channels 0, 1, ...  :attr:`channels` is that one table, and
    :meth:`render` places the signal by it: actuator entries held for a
    hold period, sensor entries one per output sample.
    """

    kind: str
    zeta: complex
    direction: np.ndarray
    epsilon: float
    horizon: int
    channel_map: tuple
    calibration: dict | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=complex).reshape(-1))
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "channel_map", tuple(int(c) for c in self.channel_map))
        if not (np.isfinite(self.zeta) and np.isfinite(self.direction).all()):
            raise ValueError("plan zeta and direction must be finite")
        if abs(self.zeta) <= 1.0:
            raise ValueError("unbounded plans require |zeta| > 1")
        if not self.direction.size:
            raise ValueError("plan direction must not be empty")
        if abs(float(np.max(np.abs(self.direction))) - 1.0) > 1e-9:
            raise ValueError("plan direction must have max-norm one")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.horizon < 1:
            raise ValueError(f"plan horizon must be at least one step, got {self.horizon}")
        ch, width = self.channel_map, len(self.direction)
        if self.kind == "coordinated":
            # the actuator channels; the rest of the direction is the sensor part
            fits, wanted = 0 < len(ch) < width, f"1 to {width - 1}"
        else:
            fits, wanted = len(ch) == width, str(width)
        if not fits or len(set(ch)) < len(ch) or min(ch, default=0) < 0:
            raise ValueError(f"plan channel_map {list(ch)} does not name {wanted} distinct, "
                             "non-negative channels, one per direction entry it places")

    @property
    def channels(self) -> tuple:
        """(actuator channels, sensor channels) the plan injects on, one per
        entry of ``direction`` in that order; either part may be empty."""
        ch = self.channel_map
        if self.kind == "coordinated":
            return ch, tuple(range(len(self.direction) - len(ch)))
        return ((), ch) if self.kind == "sensor_pole" else (ch, ())

    def render(self, n_steps: int, n_u: int, n_y: int, m: int = 1):
        """``(d_a, d_s)`` over ``n_steps`` base steps of ``m`` samples each:
        the actuator injection on ``n_u`` channels, one row per base step,
        and the sensor injection on ``n_y`` channels, one row per sample,
        zero on every channel the plan leaves alone.

        A sensor part whose channels reach past ``n_y`` rides the lifted
        system: its channels are the ``m * n_y`` outputs stacked over one
        base step, so it is rendered one base step at a time and each row
        is unstacked into its m samples.  A channel out of range is a
        :class:`DimensionError`.
        """
        actuators, sensors = self.channels
        lifted = max(sensors, default=-1) >= n_y
        d_a = np.zeros((n_steps, n_u))
        d_s = np.zeros((n_steps, m * n_y) if lifted else (n_steps * m, n_y))
        parts = np.split(self.direction, [len(actuators)])
        for out, channels, direction in zip((d_a, d_s), (actuators, sensors), parts):
            if not channels:
                continue
            rows, width = out.shape
            if max(channels) >= width:
                raise DimensionError(
                    f"plan channel {max(channels)} out of range for {width} channels")
            out[:, list(channels)] = geometric_sequence(direction, self.zeta, self.epsilon, rows)
        return d_a, d_s.reshape(n_steps * m, n_y)


def default_horizon(ratio: complex) -> int:
    """Horizon making the growth certificate (factor 1000) comfortable."""
    return max(200, math.ceil(3.0 / math.log10(abs(ratio))))


def _run(cfg: LoopConfig):
    return run_dual_rate(cfg) if cfg.mode == "dual_rate" else run_single_rate(cfg)


def _calibrate(cfg: LoopConfig, unit_plan: AttackPlan):
    """Amplitude and per-unit peak of the monitored signals, measured at
    the operating point.

    A probe run fixes the scale (rescaled by an exact power of two on
    overflow, which commutes with floating-point simulation: from a zero
    initial state every product and sum of the loop's banded solve scales
    exactly, short of underflow; tested).  Each
    further run aims the amplitude at the centre of the acceptance band
    (7/8, 1] times half the threshold, and the first run whose delivered
    peak lands in the band is the last.  Over long horizons the monitor
    floor is accumulated rounding noise quantized at the ulp of the
    internal states, so a run can land a few percent off its aim; aiming
    at the centre leaves that much slack on either side, and a run that
    still misses is corrected from its own peak, at most 8 times.  An aimed
    amplitude outside the float range (a tiny threshold) or an aimed run
    that overflows (a huge one) is a :class:`NumericError`.
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

    def aimed_peak(eps):
        if not 0 < eps < np.inf:
            raise NumericError(f"amplitude calibration at theta={cfg.theta:g} aims at "
                               f"epsilon={eps:.3e}, outside the float range")
        peak = peak_at(eps)
        if not np.isfinite(peak):
            raise NumericError(f"amplitude calibration at theta={cfg.theta:g} overflowed: "
                               f"the run aimed at epsilon={eps:.3e} peaks at {peak}")
        return peak

    target = cfg.theta / 2.0
    aim = target * (15.0 / 16.0)  # centre of the band (7/8, 1] * target
    epsilon = aim / max(c0_raw, np.finfo(float).tiny)
    peak = aimed_peak(epsilon)
    for _ in range(8):
        if target * (7.0 / 8.0) < peak <= target:
            break
        epsilon = epsilon * (aim / peak)
        peak = aimed_peak(epsilon)
    if peak > target:
        raise NumericError(
            f"amplitude calibration did not settle below half the threshold "
            f"(final peak {peak:.3e} vs target {target:.3e})"
        )
    return epsilon, peak / epsilon


def _pencil_plan(cfg: LoopConfig, kind: str, zeta: complex, channels: StateSpace, n_named: int):
    """Plan of ``kind`` riding ``zeta`` along the channel part of the right
    null vector of the deciding pencil of ``channels``, the loop's sampled
    system with the attacked channels as its inputs (a lifted system's
    δ-form small pencil shares its input matrix), at the default horizon
    for ``zeta`` and with its amplitude calibrated on ``cfg``; its
    ``channel_map`` names the first ``n_named`` channels."""
    unit = AttackPlan(
        kind=kind,
        zeta=zeta,
        direction=_normalize_direction(*_null_directions(_deciding_system(channels), [zeta])[0]),
        epsilon=1.0,
        horizon=default_horizon(zeta),
        channel_map=tuple(range(n_named)),
    )
    epsilon, c0 = _calibrate(cfg, unit)
    return replace(
        unit,
        epsilon=epsilon,
        calibration={"empirical_peak": c0, "theta": cfg.theta, "safety_factor": 2.0},
    )


def synth_actuator_attack(cfg: LoopConfig) -> AttackPlan:
    """Unbounded stealthy actuator plan for the configured loop, built for
    the mechanism the verdict rule of ``classify_vulnerability`` finds on
    the actuators alone of the loop's discrete (or lifted) plant.

    ``nmp_zero`` rides its witness, the strictly non-minimum-phase zero of
    largest modulus; zeros of the feedthrough at reciprocal frequency zero
    have no causal geometric input and never qualify.  ``fat_plant`` (a
    fat plant, or dependent inputs) rides ``FREE_ZETA``.  Either way the
    direction is the input part of the pencil's right null vector there.
    ``multiple_zero_at_one`` calls for a ramp, which no plan kind renders,
    and is a ``CapabilityError`` naming it, as is a verdict other than
    "yes".  The amplitude is calibrated so the monitor peaks at half the
    threshold.
    """
    sys = cfg.system
    report = transmission_zeros(sys)
    _, mechanism, witness, _ = _actuator_rule(report, sys)
    if mechanism == "multiple_zero_at_one":
        raise CapabilityError(
            "plant vulnerable through a multiple zero at frequency one "
            "(multiple_zero_at_one): its attack is a ramp, which no plan kind renders"
        )
    if mechanism is None:
        boundary = [r for r in report.zeros if r.classification.startswith("boundary")]
        hint = "; only boundary zeros found" if boundary else ""
        raise CapabilityError(
            "plant not vulnerable: no strictly non-minimum-phase zero to ride" + hint
        )
    zeta = FREE_ZETA if witness is None else complex(witness.z_value)
    return _pencil_plan(cfg, "actuator_zero", zeta, sys, sys.n_u)


def synth_sensor_attack(cfg: LoopConfig) -> AttackPlan:
    """Unbounded stealthy sensor plan riding the witness of the sensor
    verdict ``classify_vulnerability`` reports: the zero of largest modulus
    outside the unit disc of the sensor pencil ``[zeta I - A, 0; C, I]``,
    that is the unstable pole of largest modulus.  The witness is a
    confirmed rank drop of that pencil, and the direction is the sensor
    part of its null vector there, ``-C v`` for the pole's eigenvector v.
    A verdict other than "yes" is a ``CapabilityError`` naming it.
    """
    sys = cfg.system
    verdict, _, witness, notes = _sensor_rule(sys)
    if verdict == "undecided":
        raise CapabilityError("no sensor plan: " + "; ".join(notes))
    if verdict == "no":
        # a "no" has a note only when it rests on simple boundary poles
        why = "only boundary poles found, which admit no unbounded plan"
        raise CapabilityError(
            "plant not vulnerable: no unstable pole; " + (why if notes else "the plant is stable")
        )
    zeta = FREE_ZETA if witness is None else complex(witness.z_value)
    return _pencil_plan(cfg, "sensor_pole", zeta, _sensor_set(sys), sys.n_y)


def synth_coordinated_attack(cfg: LoopConfig) -> AttackPlan:
    """Unbounded stealthy plan on every actuator and every sensor at once.

    The pencil ``[zeta I - A, -B, 0; C, D, I]`` has a right null vector at
    every point, so the plan rides ``FREE_ZETA`` for any plant, stable or
    not.  In a dual-rate loop the sensor part covers the m stacked outputs
    of a base step, so the plan stays stealthy there too.  The direction
    is the actuator part, one entry per input, then the sensor part.
    """
    sys = cfg.system
    both = _sensor_set(sys, with_actuators=True)
    return _pencil_plan(cfg, "coordinated", FREE_ZETA, both, sys.n_u)


def plan_to_dict(plan: AttackPlan) -> dict:
    """JSON-ready plan representation (round-trips via plan_from_dict)."""
    return {
        "kind": plan.kind,
        "zeta": {"re": plan.zeta.real, "im": plan.zeta.imag},
        "direction": [{"re": z.real, "im": z.imag} for z in plan.direction],
        "epsilon": plan.epsilon,
        "horizon": plan.horizon,
        "channel_map": list(plan.channel_map),
        "calibration": plan.calibration,
    }


def _complex(z) -> complex:
    """The number of a ``{"re": ..., "im": ...}`` object, whose parts must
    be numbers and not booleans."""
    return complex(*_no_booleans([z["re"], z["im"]]))


def plan_from_dict(doc: dict) -> AttackPlan:
    """The plan of a :func:`plan_to_dict` document; a document that is not
    an object, or a field of the wrong type (a boolean where a number is
    meant included), is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"an attack plan must be a JSON object, not {type(doc).__name__}")
    field = partial(_field, "plan", doc)
    return AttackPlan(
        kind=doc["kind"],
        zeta=field("zeta", _complex),
        direction=field("direction", lambda d: [_complex(z) for z in d]),
        epsilon=field("epsilon", lambda v: float(_no_booleans(v))),
        horizon=field("horizon", _integer),
        channel_map=field("channel_map", lambda c: [_integer(ch) for ch in c]),
        calibration=doc.get("calibration"),
    )
