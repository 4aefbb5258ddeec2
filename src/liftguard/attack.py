"""Synthesis of stealthy attack signals.

Unbounded actuator plans ride a geometric mode at a strictly
non-minimum-phase zero along its input direction, so the closed loop's
monitored signals stay bounded while the injected signal grows.  Sensor
plans do the same with an unstable pole and the left denominator factor's
null direction.  Coordinated and fat-plant attacks are masking
constructions that compute one injected sequence from another so the
visible output never moves.

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
from .model import StateSpace, _field, _integer, abcd, ss_response
from .sim import LoopConfig, run_dual_rate, run_single_rate
from .zeros import poles, transmission_zeros

__all__ = [
    "AttackPlan",
    "synth_actuator_attack",
    "synth_sensor_attack",
    "synth_coordinated_attack",
    "synth_fat_masking",
    "ramp_sequence",
    "geometric_sequence",
    "plan_to_dict",
    "plan_from_dict",
]

_PARAMETRIC_KINDS = ("actuator_zero", "sensor_pole")
_SEQUENCE_KINDS = ("coordinated", "fat_masking")


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


def ramp_sequence(direction, epsilon: float, n_steps: int) -> np.ndarray:
    """Polynomial-growth signal eps * k * direction (for a double boundary
    zero at frequency one, where geometric plans do not exist)."""
    direction = np.asarray(direction, dtype=float).reshape(-1)
    return epsilon * np.outer(np.arange(n_steps, dtype=float), direction)


@dataclass(frozen=True)
class AttackPlan:
    """Parametric or sequence-carrying attack description.

    Parametric kinds (``actuator_zero``, ``sensor_pole``) generate
    ``epsilon * Re(direction * zeta^k)`` on their channels; ``zeta`` has
    modulus above one for every unbounded plan and ``direction`` has
    max-norm one.  Sequence kinds (``coordinated``, ``fat_masking``)
    carry their explicit signals in ``companion`` as matrices.  Every
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
            needs = ["d_a", "d_s"] if self.kind == "coordinated" else ["d_a"]
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
        if self.kind in _SEQUENCE_KINDS:
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
    """Unbounded stealthy actuator plan for the configured loop.

    Requires a strictly non-minimum-phase zero of the loop's discrete (or
    lifted) plant; zeros of the feedthrough at reciprocal frequency zero
    have no causal geometric input and never qualify.  The amplitude is
    calibrated so the monitor peaks at half the threshold.
    """
    sys = cfg.system
    report = transmission_zeros(sys)
    strict = [r for r in report.zeros if r.classification == "nmp_strict"]
    if not strict:
        boundary = [r for r in report.zeros if r.classification.startswith("boundary")]
        hint = "; only boundary zeros found" if boundary else ""
        raise CapabilityError(
            "plant not vulnerable: no strictly non-minimum-phase zero to ride" + hint
        )
    witness = max(strict, key=lambda r: abs(r.z_value))
    return _calibrated_plan(
        cfg, "actuator_zero", complex(witness.z_value), witness.input_direction, sys.n_u
    )


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


def synth_fat_masking(sys, d_a1):
    """Second-channel injection masking the first on a one-output two-input plant.

    The second channel's response is inverted as a causal filter; when it
    is strictly proper the first signal is delayed by the relative-degree
    gap so the inverse stays causal.  Both relative degrees are read off
    the Markov parameters of one impulse response.  Returns
    ``(d_a1_used, d_a2)``.
    """
    A, B, C, D = abcd(sys)
    if C.shape[0] != 1 or B.shape[1] != 2:
        raise DimensionError("fat masking construction expects a 1-output 2-input plant")
    d_a1 = np.asarray(d_a1, dtype=float).reshape(-1)
    N = d_a1.shape[0]
    if N == 0:
        raise DimensionError("fat masking needs a non-empty first-channel signal")
    tol_scale = 1e-10 * max(
        1.0,
        float(np.max(np.abs(C)) * np.max(np.abs(B))) if B.size and C.size else 1.0,
    )
    # markov[k, j]: D[0, j] at k = 0, then C A^(k-1) B[:, j]; a channel's
    # relative degree is its first entry above tol_scale (-1: none).
    impulse = np.zeros((2 * A.shape[0] + 2, 2, 2))
    impulse[0] = np.eye(2)
    markov = ss_response(sys, impulse)[:, 0, :]
    r1, r2 = (int(np.argmax(big)) if big.any() else -1 for big in (np.abs(markov) > tol_scale).T)
    if r2 < 0:
        raise CapabilityError("second input channel has identically zero response")
    gap = max(0, r2 - r1) if r1 >= 0 else 0

    d1_used = np.zeros(N)
    if gap:
        d1_used[gap:] = d_a1[: N - gap]
    else:
        d1_used[:] = d_a1

    # Response of channel one, extended so the advanced target is available.
    P1 = StateSpace(A, B[:, :1], C, D[:, :1])
    w = ss_response(P1, np.concatenate([d1_used, np.zeros(r2)]))[:, 0]
    target = -w[r2 : r2 + N]

    # Advance channel two by its relative degree to make it biproper, then invert.
    b2 = B[:, 1]
    c_adv = C[0] @ np.linalg.matrix_power(A, r2)
    d_adv = float(markov[r2, 1])
    inv = StateSpace(
        A - np.outer(b2, c_adv) / d_adv,
        b2[:, None] / d_adv,
        (-c_adv / d_adv).reshape(1, -1),
        np.array([[1.0 / d_adv]]),
    )
    # Overflow is reported below as an error, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        d_a2 = ss_response(inv, target)[:, 0]
        overflowed = np.flatnonzero(~(np.abs(d_a2) <= 1e300))
    if overflowed.size:
        raise NumericError(
            f"unstable channel inverse overflowed at step {overflowed[0]}; "
            "the masking signal cannot be realized over this horizon"
        )
    return d1_used, d_a2


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
