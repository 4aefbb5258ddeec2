"""Closed-loop sampled-data simulation with attack injection and a
threshold detection monitor.

A loop is its sampled system (the ZOH plant or the lifted system, from
which the mode, the hold period and m are read) closed through a strictly
proper state-space controller designed for it, and it runs on that
system.  Single rate is the dual-rate loop with one output sample per
hold period.  One hold period is one step of the loop state ξ = [x; x_K],
``ξ' = Mξ + drive``, with M the closed-loop matrix and the drive the
attack injected in that period (exact LTI discretization, no ODE
solver).  A run solves these steps together, as the unit
lower-triangular banded system ``[I; −M I; −M I; …]·Ξ = [ξ0; drive…]``
(LAPACK ``dtbtrs``), a block of whole hold periods at a time; the
command and the m output samples of each period are products on the
solved ξ.  Every signal is read at the samples; the
monitor watches only the measured outputs and the controller commands.

The CSV export formats the trace column by column, in blocks of whole
hold periods, with the bytes of the row-by-row writer the tests keep.  It
calls ``repr`` once per run of bit-identical values in a column, and not
at all for a monitor value that is the magnitude of an output or command
entry in its row: that entry's text, without its sign, is the value's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from . import linalg
from .errors import ConfigurationError, DimensionError, NumericError
from .factor import closed_loop_matrix, coprime_factorize, observer_controller
from .lift import LiftedSystem
from .model import DiscretePlant, StateSpace, _integer

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
_CSV_BLOCK_ROWS = 1024  # rows of trace text built before each write
_SOLVE_BLOCK_STEPS = 128  # hold periods per banded solve of the loop


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
    is designed for: a ZOH plant at the hold period (single rate) or a
    lifted system (dual rate); ``mode``, ``T`` and ``m`` are derived from
    it.  ``controller`` is a strictly proper state-space map from the
    system's outputs (the m stacked samples of a hold period in dual
    rate) to its inputs; its dimensions are checked here.  ``horizon``
    counts base steps.  ``attack`` is an attack plan (or None); its
    ``render`` gives the loop the actuator injection, one row per base
    step, and the sensor injection on the plant's outputs, one row per
    output sample.  The plant starts from ``x0_plant``, a finite vector
    of length ``system.n`` (zero when None), the controller always from
    zero.
    """

    system: DiscretePlant | LiftedSystem
    controller: StateSpace
    theta: float
    horizon: int
    attack: object = None
    x0_plant: np.ndarray | None = None

    def __post_init__(self):
        K, sys = self.controller, self.system
        if K.n_u != sys.n_y or K.n_y != sys.n_u:
            raise ConfigurationError(
                f"controller dimensions do not match the loop plant: it maps {K.n_u} "
                f"outputs to {K.n_y} inputs, the loop has {sys.n_y} and {sys.n_u}"
                + ("; dual_rate mode requires a lifted controller"
                   if self.mode == "dual_rate" else "")
            )
        if not 0 < self.theta < np.inf:
            raise ConfigurationError(f"theta must be positive and finite, got {self.theta}")
        try:
            object.__setattr__(self, "horizon", _integer(self.horizon))
        except (TypeError, ValueError):
            raise ConfigurationError(f"horizon must be an integer, got {self.horizon!r}") from None
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least one step")
        if np.any(K.D):
            raise ConfigurationError("the loop requires a strictly proper controller")
        if self.x0_plant is not None:
            x0 = np.asarray(self.x0_plant, dtype=float)
            if x0.shape != (sys.n,) or not np.isfinite(x0).all():
                raise ConfigurationError(
                    f"x0_plant must be a finite vector of length {sys.n}, got {x0.tolist()}")

    @property
    def mode(self) -> str:
        return "dual_rate" if isinstance(self.system, LiftedSystem) else "single_rate"

    @property
    def T(self) -> float:
        """The hold period."""
        return self.system.period

    @property
    def m(self) -> int | None:
        return self.system.m if self.mode == "dual_rate" else None


@dataclass(frozen=True)
class SimTrace:
    """Time-stamped closed-loop trajectories with the monitor verdict.

    ``y`` holds one row per sample (m rows per base step in dual-rate
    mode) of the measured output; ``u`` one row per base step of the
    controller command; ``monitor`` one value per sample row.  ``x`` is
    the plant state at the start of each hold period.
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
    x: np.ndarray  # (horizon, n)


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


def _band(M: np.ndarray, steps: int) -> np.ndarray:
    """LAPACK lower band storage (``dtbtrs``, ``uplo="L"``) of the unit
    lower-triangular system ``[I; −M I; −M I; …]`` over ``steps`` hold
    periods: ``band[d, j]`` is entry ``(j + d, j)``.  Its bandwidth is
    2·n_ξ − 1; the unit diagonal (row 0) is not read."""
    n = M.shape[0]
    band = np.zeros((2 * n, steps * n), order="F")
    for c in range(n):
        band[n - c : 2 * n - c, c::n] = -M[:, c : c + 1]
    return band


def _closed_loop(cfg: LoopConfig, mode: str) -> SimTrace:
    """The sampled-signal recursion behind both loop modes.

    It first checks that ``cfg`` is in ``mode`` and that the attack-free
    closed loop is stable.  Each hold period steps ξ once,
    ``ξ' = Mξ + drive``, with the drive ``[d_a, stacked d_s] @ [[B, 0],
    [K.B·D, K.B]]ᵀ``: the held command plus the actuator attack drives the
    system, and its m stacked output samples plus the sensor attack feed
    the controller.  The steps are solved by forward substitution in
    place in ``xi``, ``_SOLVE_BLOCK_STEPS`` hold periods per LAPACK call,
    each block starting from ``M·ξ_prev + drive``; the band of −M is built
    once per run.  Past an all-NaN row every later row solves to NaN.
    The monitor is evaluated per sample against the held command; an
    attack-free run is then refused at the first step past
    ``DIVERGENCE_GUARD``.
    """
    if cfg.mode != mode:
        raise ConfigurationError(f"configuration is not {mode}")
    K, sys = cfg.controller, cfg.system
    M = closed_loop_matrix(sys, K)
    rho = linalg.spectral_radius(M)
    if rho >= 1.0:
        raise ConfigurationError(f"{mode.replace('_', '-')} closed loop is unstable "
                                 f"(spectral radius {rho:.6f}); refusing to simulate")
    N, n, m = cfg.horizon, sys.n, cfg.m or 1
    if cfg.attack is None:
        d_a, d_s = np.zeros((N, sys.n_u)), np.zeros((N * m, sys.n_y // m))
    else:
        d_a, d_s = cfg.attack.render(N, sys.n_u, sys.n_y // m, m)
    xi = np.zeros((N, n + K.n))  # ξ at the start of each hold period
    if cfg.x0_plant is not None:
        xi[0, :n] = cfg.x0_plant
    drive_map = np.block([[sys.B, np.zeros((n, sys.n_y))], [K.B @ sys.D, K.B]])

    # Overflow is reported through the trace (non-finite rows), not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # right-hand side: ξ0, then drive[k] in the row of ξ_{k+1}
        np.matmul(np.hstack([d_a, d_s.reshape(N, -1)])[:-1], drive_map.T, out=xi[1:])
        band = _band(M, min(N, _SOLVE_BLOCK_STEPS))
        for k0 in range(0, N, _SOLVE_BLOCK_STEPS):
            block = xi[k0 : k0 + _SOLVE_BLOCK_STEPS]
            if k0:
                block[0] = M @ xi[k0 - 1] + block[0]
            _, info = dtbtrs(band[:, : block.size], block.reshape(-1, 1), uplo="L", diag="U",
                             overwrite_b=1)
            if info:
                raise NumericError(f"closed-loop banded solve failed (LAPACK dtbtrs info={info})")

        x, u_log = xi[:, :n], xi[:, n:] @ K.C.T
        y_log = (x @ sys.C.T + (u_log + d_a) @ sys.D.T).reshape(N * m, -1) + d_s
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
        x=x,
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


def standard_loop(system: DiscretePlant | LiftedSystem, theta: float = 0.01,
                  horizon: int = 200, attack=None, Q=None, R=None) -> LoopConfig:
    """The loop on ``system``, the sampled system it runs on (the ZOH plant
    from :func:`discretize` or the lifted system from :func:`build_lifted`),
    closed through the observer controller of its coprime factorization,
    whose Bezout certificate checks the design.  ``Q``/``R`` weight the
    state-feedback Riccati problem (scalars are taken as multiples of the
    identity); its observer dual uses identity weights.
    """
    factors = coprime_factorize(system, Q=_weight(Q, system.n), R=_weight(R, system.n_u))
    return LoopConfig(system, observer_controller(factors), theta, horizon, attack=attack)


def _repeated(text: list, repeat: int) -> list:
    """Each item of ``text`` ``repeat`` times in a row."""
    out = [None] * (len(text) * repeat)
    for i in range(repeat):
        out[i::repeat] = text
    return out


def _column_text(values: np.ndarray, repeat: int = 1) -> list:
    """``repr`` of each value of a 1-D float64 array, each string repeated
    ``repeat`` times in a row; ``repr`` runs once per run of neighbours
    with equal bit patterns."""
    bits = values.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if starts.size + 1 == values.size:
        return _repeated(list(map(repr, values.tolist())), repeat)
    starts = np.concatenate(([0], starts))
    text = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return np.repeat(text, np.diff(starts, append=values.size) * repeat).tolist()


def _monitor_text(monitor: np.ndarray, signals: np.ndarray, texts: list) -> list:
    """Text of the monitor column, from the rows of the ``signals`` it
    watches and their column texts ``texts``: the text of the entry each
    row's max-norm picks (``argmax |·|``), without its sign, where the
    value is bit for bit that entry's magnitude, and ``repr`` elsewhere."""
    rows = np.arange(signals.shape[0])
    col = np.argmax(np.abs(signals), axis=1)
    picked = signals[rows, col]
    matched = np.abs(picked).view(np.int64) == monitor.view(np.int64)
    text = np.array(texts, dtype=object)[col, rows]
    negative = matched & np.signbit(picked) & ~np.isnan(picked)
    text[negative] = [s[1:] for s in text[negative].tolist()]
    text[~matched] = list(map(repr, monitor[~matched].tolist()))
    return text.tolist()


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write one CSV row per sub-sample, with ``\\r\\n`` line ends.

    Columns: step, substep, time, u_1..u_nu, y_1..y_ny, da_1..da_nu,
    ds_1..ds_ny, monitor, crossed.  Floats are written with ``repr`` so
    they read back exactly; ``crossed`` is 1 where ``not monitor <= theta``.

    The text is built column by column, a block of whole hold periods
    (about ``_CSV_BLOCK_ROWS`` rows) at a time, so the strings held at once
    stay bounded for any horizon.  Each run of equal neighbours in a column
    is formatted once and its string repeated; the base-rate columns
    (``u``, ``da``) are formatted once per hold period and repeated for its
    m rows.  Neighbours are equal when their float64 bit patterns are, so
    they have one ``repr``: +0.0 and -0.0 stay apart, and a NaN prints
    ``nan`` whatever its sign or payload.  A monitor value that is bit for
    bit the magnitude of the ``y``/``u`` entry its row's max-norm picks
    takes that entry's text without a leading ``-``, which is its ``repr``,
    since ``repr(-x) == "-" + repr(x)`` for every float but NaN; any other
    monitor value (only a hand-built trace has one) is formatted.  So the
    bytes are those of ``repr`` on every value.
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
    substeps = list(map(str, range(m)))
    block = max(1, _CSV_BLOCK_ROWS // m)  # hold periods per block
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for k0 in range(0, trace.u.shape[0], block):
            k1 = min(k0 + block, trace.u.shape[0])
            rows = slice(k0 * m, k1 * m)
            monitor, u, y = trace.monitor[rows], trace.u[k0:k1], trace.y[rows]
            u_text = [_column_text(col, m) for col in u.T]
            y_text = [_column_text(col) for col in y.T]
            columns = [
                _repeated(list(map(str, range(k0, k1))), m),
                substeps * (k1 - k0),
                _column_text(trace.times[rows]),
                *u_text,
                *y_text,
                *(_column_text(col, m) for col in trace.d_a[k0:k1].T),
                *(_column_text(col) for col in trace.d_s[rows].T),
                _monitor_text(monitor, np.hstack([y, np.repeat(u, m, axis=0)]),
                              y_text + u_text),
                np.where(monitor <= trace.theta, "0", "1").tolist(),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns, strict=True))) + "\r\n")


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
