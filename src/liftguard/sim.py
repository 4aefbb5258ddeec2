"""Closed-loop sampled-data simulation with attack injection and a
threshold detection monitor.

All propagation is exact LTI discretization: the plant state advances per
(sub-)step through the zero-order-hold quadruple, and no ODE solver is
involved.  Single rate is the dual-rate loop with one output sample per
hold period, so both modes share one recursion.  The monitor watches only
the cyber-layer signals, i.e. the measured outputs and the controller
commands; the continuous intersample output is for inspection only and is
evaluated from the logged states, on an exact finer grid whose points
contain the sample instants, when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ConfigurationError, DimensionError
from .factor import Controller, closed_loop_matrix, coprime_factorize, observer_controller
from .lift import LiftedSystem, build_lifted, choose_m
from .model import ContinuousPlant, DiscretePlant, discretize

__all__ = [
    "LoopConfig",
    "SimTrace",
    "Verdict",
    "monitor_eval",
    "run_single_rate",
    "run_dual_rate",
    "standard_loop",
    "trace_to_csv",
    "trace_metadata",
    "DIVERGENCE_GUARD",
]

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class Verdict:
    """Monitor outcome: stealthy over the horizon, or first strict crossing
    (a non-finite monitor value counts as one)."""

    detected: bool
    step: int | None = None  # flat sample index of the first crossing

    @property
    def stealthy(self) -> bool:
        return not self.detected


@dataclass(frozen=True)
class LoopConfig:
    """Closed-loop run description.

    ``system`` is the sampled system the loop runs on and its controller
    is designed for: the ZOH discretization of ``plant`` at the hold
    period (single rate) or the lifted system of ``plant`` (dual rate).
    It must be the sampling of ``plant``, which the loop reads only for
    the intersample grid.  ``mode``, ``T`` and ``m`` are derived from it.
    ``horizon`` counts base steps.  ``oversample`` is the intersample
    refinement per (sub-)sampling interval.  ``attack`` is an attack plan
    (or None); its signals are rendered at the base rate for the actuator
    channel and at the sampling rate of the sensors (a plan on the lifted
    outputs is unstacked into its m samples).  The plant starts
    from ``x0_plant`` (zero when None), the controller always from zero.
    """

    plant: ContinuousPlant
    system: DiscretePlant | LiftedSystem
    controller: Controller
    theta: float
    horizon: int
    oversample: int = 8
    attack: object = None
    x0_plant: np.ndarray | None = None

    def __post_init__(self):
        if self.mode == "dual_rate" and self.controller.kind != "observer_based_lifted":
            raise ConfigurationError("dual_rate mode requires a lifted controller")
        if not self.theta > 0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least one step")
        if self.oversample < 1:
            raise ConfigurationError("oversample must be at least 1")
        if not self.controller.strictly_proper:
            raise ConfigurationError("the loop requires a strictly proper controller")

    @property
    def mode(self) -> str:
        return "dual_rate" if isinstance(self.system, LiftedSystem) else "single_rate"

    @property
    def T(self) -> float:
        """The hold period."""
        return self.system.base_period if self.mode == "dual_rate" else self.system.period

    @property
    def m(self) -> int | None:
        return self.system.m if self.mode == "dual_rate" else None


@dataclass(frozen=True)
class SimTrace:
    """Time-stamped closed-loop trajectories with the monitor verdict.

    ``y`` holds one row per sample (m rows per base step in dual-rate
    mode) of the measured output; ``u`` one row per base step of the
    controller command; ``monitor`` one value per sample row.  ``x`` and
    ``y_physical`` are the plant state and the plant output before the
    sensor attack at each sample row.  The intersample output is derived
    from them only when it is read.
    """

    times: np.ndarray  # per sample row
    u: np.ndarray  # (horizon, n_u)
    y: np.ndarray  # (horizon * samples_per_step, n_y)
    d_a: np.ndarray  # (horizon, n_u)
    d_s: np.ndarray  # (horizon * samples_per_step, n_y)
    monitor: np.ndarray
    verdict: Verdict
    theta: float
    mode: str
    T: float
    samples_per_step: int  # 1 (single rate) or m (dual rate)
    x: np.ndarray  # (horizon * samples_per_step, n)
    y_physical: np.ndarray  # (horizon * samples_per_step, n_y)
    plant: ContinuousPlant
    oversample: int

    @cached_property
    def intersample_times(self) -> np.ndarray:
        step = self.T / (self.samples_per_step * self.oversample)
        return np.arange(self.y.shape[0] * self.oversample) * step

    @cached_property
    def y_intersample(self) -> np.ndarray:
        """Physical output on a grid ``oversample`` times finer than the
        samples, with the held input applied; the row at each sample
        instant is exactly ``y_physical``.

        The fine grid of one sampling interval is its r-fold lifting, so
        rows 1..r-1 of the lifted ``[C_l, D_l]`` map the interval's state
        and held input to its off-sample rows in one product.
        """
        r = self.oversample
        n_rows, n_y = self.y_physical.shape
        rows = np.empty((n_rows, r, n_y))
        rows[:, 0] = self.y_physical
        if r > 1:
            grid = build_lifted(self.plant, self.T / self.samples_per_step, r)
            blocks = np.hstack([grid.C, grid.D])[n_y:]
            u_applied = np.repeat(self.u + self.d_a, self.samples_per_step, axis=0)
            states = np.hstack([self.x, u_applied])
            rows[:, 1:] = (states @ blocks.T).reshape(n_rows, r - 1, n_y)
        return rows.reshape(n_rows * r, n_y)


def monitor_eval(y_stream, u_stream, theta: float):
    """Max-norm monitor over aligned streams with strict threshold crossing.

    Returns ``(verdict, values)`` where ``values[k]`` is the larger of the
    output and input max-norms at sample k and the verdict reports the
    first k with ``not values[k] <= theta``: a value exactly at the
    threshold is not a detection, a non-finite one is.
    """
    Y = np.atleast_2d(np.asarray(y_stream, dtype=float))
    U = np.atleast_2d(np.asarray(u_stream, dtype=float))
    if Y.shape[0] != U.shape[0]:
        raise DimensionError("monitor streams must be aligned (equal length)")
    values = np.maximum(np.max(np.abs(Y), axis=1), np.max(np.abs(U), axis=1))
    crossing = np.nonzero(~(values <= theta))[0]
    if crossing.size:
        return Verdict(detected=True, step=int(crossing[0])), values
    return Verdict(detected=False, step=None), values


def _render_attack(attack, n_base: int, n_u: int, m: int, n_y: int):
    d_a = np.zeros((n_base, n_u))
    d_s = np.zeros((n_base * m, n_y))
    if attack is not None:
        seq_a = attack.actuator_sequence(n_base, n_u)
        seq_s = attack.sensor_sequence(n_base, n_y, m)
        if seq_a is not None:
            d_a = seq_a
        if seq_s is not None:
            d_s = seq_s
    return d_a, d_s


def _assert_stable(plant_like, controller, what: str):
    rho = linalg.spectral_radius(closed_loop_matrix(plant_like, controller))
    if rho >= 1.0:
        raise ConfigurationError(
            f"{what} closed loop is unstable (spectral radius {rho:.6f}); "
            "refusing to simulate"
        )


def _check_divergence(Y: np.ndarray, U: np.ndarray) -> None:
    """Refuse an attack-free run at the first hold period whose stacked
    measurements ``Y[k]`` or command ``U[k]`` pass the divergence guard.

    The per-period value is Python ``max(max|Y[k]|, max|U[k]|)``, which
    keeps the output part when either part is NaN.
    """
    y, u = np.max(np.abs(Y), axis=1), np.max(np.abs(U), axis=1)
    over = np.flatnonzero(np.where(u > y, u, y) > DIVERGENCE_GUARD)
    if over.size:
        raise ConfigurationError(
            f"attack-free loop diverged past {DIVERGENCE_GUARD:.0e} at step {over[0]}"
        )


def _closed_loop(cfg: LoopConfig, mode: str) -> SimTrace:
    """The sampled-signal recursion behind both loop modes.

    It first checks that ``cfg`` is in ``mode``, that the controller's
    dimensions fit the loop plant and that the attack-free closed loop is
    stable.  The fast plant then advances one exact sub-step per output
    sample, m sub-steps per hold period while the input is held.  The m
    measured sub-samples (each possibly corrupted by the sensor attack,
    which runs at the sampling rate) are stacked and fed to the
    controller, which emits the next held command.  Single rate is the
    case m = 1 with the plant discretized at the hold period.  The
    monitor is evaluated per sample against the held command; an
    attack-free run is then refused at the first step past
    ``DIVERGENCE_GUARD``.
    """
    if cfg.mode != mode:
        raise ConfigurationError(f"configuration is not {mode}")
    K, sys = cfg.controller, cfg.system
    if K.B.shape[1] != sys.n_y or K.C.shape[0] != sys.n_u:
        raise ConfigurationError("controller dimensions do not match the loop plant")
    _assert_stable(sys, K, mode.replace("_", "-"))
    fast, m = (sys.fast_plant, sys.m) if mode == "dual_rate" else (sys, 1)
    N = cfg.horizon
    d_a, d_s = _render_attack(cfg.attack, N, fast.n_u, m, fast.n_y)

    x = np.zeros(fast.n) if cfg.x0_plant is None else np.asarray(cfg.x0_plant, dtype=float)
    xk = np.zeros(K.n)
    u_log = np.empty((N, fast.n_u))
    x_log = np.empty((N * m, fast.n))
    y_phys = np.empty((N * m, fast.n_y))
    # one row per hold period of the m stacked samples; Ys is a view
    Ys, Ds = y_phys.reshape(N, -1), d_s.reshape(N, -1)
    A, B, C, D = fast.A, fast.B, fast.C, fast.D
    KA, KB, KC = K.A, K.B, K.C

    # Overflow is reported through the trace (non-finite rows), not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            if xk[0] != xk[0] and np.isnan(xk).all() and np.isnan(x).all():
                # An all-NaN loop state makes every later row NaN.
                u_log[k:] = x_log[k * m :] = y_phys[k * m :] = np.nan
                break
            u_k = KC @ xk
            u_applied = u_k + d_a[k]
            u_log[k] = u_k
            # the input is held over the m sub-steps
            Du, Bu = D @ u_applied, B @ u_applied
            for idx in range(k * m, (k + 1) * m):
                x_log[idx] = x
                y_phys[idx] = C @ x + Du
                x = A @ x + Bu
            xk = KA @ xk + KB @ (Ys[k] + Ds[k])

        y_log = y_phys + d_s
        if cfg.attack is None:
            _check_divergence(y_log.reshape(N, -1), u_log)
        verdict, monitor = monitor_eval(y_log, np.repeat(u_log, m, axis=0), cfg.theta)
    return SimTrace(
        times=np.arange(N * m) * (cfg.T / m),
        u=u_log,
        y=y_log,
        d_a=d_a,
        d_s=d_s,
        monitor=monitor,
        verdict=verdict,
        theta=cfg.theta,
        mode=cfg.mode,
        T=cfg.T,
        samples_per_step=m,
        x=x_log,
        y_physical=y_phys,
        plant=cfg.plant,
        oversample=cfg.oversample,
    )


def run_single_rate(cfg: LoopConfig) -> SimTrace:
    """Closed-loop run at a single sample-and-hold rate."""
    return _closed_loop(cfg, "single_rate")


def run_dual_rate(cfg: LoopConfig) -> SimTrace:
    """Closed-loop run with the output sampled m times per hold period."""
    return _closed_loop(cfg, "dual_rate")


def _weight(value, dim: int):
    """Scalar weights become scaled identities; matrices pass through."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    return arr


def standard_loop(plant: ContinuousPlant, T: float, mode: str = "single_rate",
                  m=None, theta: float = 0.01, horizon: int = 200,
                  oversample: int = 8, attack=None, Q=None, R=None):
    """Assemble a stabilized loop with the default observer controller.

    The loop's sampled system is built here, once: the ZOH plant at T in
    single rate, the lifted system at (T, m) in dual rate, with m from
    :func:`choose_m` when None.  ``Q``/``R`` weight the state-feedback
    Riccati problem (scalars are taken as multiples of the identity); its
    observer dual uses identity weights.  Returns ``(config, factors)``; the factored system (discrete
    or lifted) is available as ``factors.base``.
    """
    if mode not in ("single_rate", "dual_rate"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "dual_rate":
        sys = build_lifted(plant, T, int(choose_m(plant, T) if m is None else m))
    else:
        sys = discretize(plant, T)
    factors = coprime_factorize(sys, Q=_weight(Q, sys.n), R=_weight(R, sys.n_u))
    cfg = LoopConfig(
        plant=plant,
        system=sys,
        controller=observer_controller(factors),
        theta=theta,
        horizon=horizon,
        oversample=oversample,
        attack=attack,
    )
    return cfg, factors


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write one CSV row per sub-sample, with ``\\r\\n`` line ends.

    Columns: step, substep, time, u_1..u_nu, y_1..y_ny, da_1..da_nu,
    ds_1..ds_ny, monitor, crossed.  Floats are written with ``repr`` so
    they read back exactly; ``crossed`` is 1 where ``not monitor <= theta``.
    """
    m = trace.samples_per_step
    n_u = trace.u.shape[1]
    n_y = trace.y.shape[1]
    header = (
        ["step", "substep", "time"]
        + [f"u_{i+1}" for i in range(n_u)]
        + [f"y_{i+1}" for i in range(n_y)]
        + [f"da_{i+1}" for i in range(n_u)]
        + [f"ds_{i+1}" for i in range(n_y)]
        + ["monitor", "crossed"]
    )
    step = np.arange(trace.y.shape[0]) // m
    floats = np.hstack(
        [trace.times[:, None], trace.u[step], trace.y, trace.d_a[step], trace.d_s,
         trace.monitor[:, None]]
    ).tolist()
    crossed = (~(trace.monitor <= trace.theta)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for idx, row in enumerate(floats):
            k, i = divmod(idx, m)
            fh.write(f"{k},{i},{','.join(map(repr, row))},{int(crossed[idx])}\r\n")


def trace_metadata(trace: SimTrace) -> dict:
    """Sidecar summary of a run: verdict, threshold, shape, the first
    sample whose monitor value is not finite, and the largest before it."""
    nonfinite = np.flatnonzero(~np.isfinite(trace.monitor))
    first_nonfinite = int(nonfinite[0]) if nonfinite.size else None
    return {
        "mode": trace.mode,
        "T": trace.T,
        "samples_per_step": trace.samples_per_step,
        "theta": trace.theta,
        "horizon": int(trace.u.shape[0]),
        "verdict": "detected" if trace.verdict.detected else "stealthy",
        "first_crossing": trace.verdict.step,
        "first_nonfinite": first_nonfinite,
        "max_monitor": float(np.max(trace.monitor[:first_nonfinite], initial=0.0)),
    }
