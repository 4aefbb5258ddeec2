"""Command-line front end: analysis, attack synthesis, lifting, simulation,
and the randomized property-verification suite, over JSON plant specs.

Exit codes: 0 success; 2 parse/validation failure: a malformed file, period
or Riccati weight; 3 capability failure (no plan for the verdict: "not
vulnerable", "undecided"); 4 numeric failure or a failing ``verify``
property; 5 configuration failure: loop parameters (``theta``, ``horizon``,
an explicit ``m`` below 2 or above ``MAX_EXPLICIT_M``) that cannot configure
a loop, or a loop that is unstable or whose arrays the host refuses to
allocate.  A usage error is a parse
failure, and every failure is one JSON error line on stderr.  Every output
embeds the tool version and the input file hash (``verify``: its seed); the
timestamp is isolated in a single field so reruns are byte-identical otherwise.

Checks run in one order: the plant file and the flags (``--m`` on every
plant command, ``--Q``/``--R``), then the loop (an explicit m, the rank
assumptions), then the plan file, then the loop parameters and stability.

Replay contract: ``attack`` records in ``plan.json``'s ``loop`` object the
loop it calibrated on: its mode, ``T``, ``m``, ``theta``, the parsed
``Q``/``R`` weights (null when not given) and the observer controller's
``A``, ``B`` and ``C`` (its ``D`` is zero).  ``simulate --plan`` reads that
record once.  A plan that rides the lifted outputs of the dual-rate loop at
its recorded m is refused (exit 5) in any other loop before that loop is
designed.  The replay closes its loop through the recorded controller when
the loop is the plan's own: the same plant-file hash, ``T``, mode, resolved
m, ``Q`` and ``R``.  Otherwise, or when the plan records no controller, it
designs the loop anew.  JSON floats round-trip exactly, so a recorded
controller is bitwise the one ``attack`` designed; a hand-edited one is
replayed as given, after a shape and finiteness check (exit 2 naming
``loop.controller``) and subject to the loop's stability refusal (exit 5).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .attack import plan_from_dict, plan_to_dict, synth_actuator_attack, synth_sensor_attack
from .errors import (
    CapabilityError,
    ConfigurationError,
    ModelError,
    NumericError,
)
from .lift import build_lifted, check_assumptions
from .model import (StateSpace, _field, _integer, _no_booleans, check_pathological, discretize,
                    load_plant)
from .sim import (
    LoopConfig,
    run_dual_rate,
    run_single_rate,
    standard_loop,
    trace_metadata,
    trace_to_csv,
)
from .zeros import classify_vulnerability, transmission_zeros
from . import verify as verify_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_NUMERIC = 4
EXIT_CONFIG = 5

DEFAULT_HORIZON = 200
# The largest explicit dual-rate factor: a loop design costs (m·n_y)³ and
# its Bezout certificate (m·n_y)² memory before the loop runs a step.
MAX_EXPLICIT_M = 256


def _complex_dict(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _rank_dict(r):
    return {
        "rank": r.rank,
        "singular_values": [float(s) for s in r.singular_values],
        "tolerance_used": r.tolerance_used,
        "gap": r.gap if np.isfinite(r.gap) else "inf",
    }


def _zero_dict(record):
    if record is None:
        return None
    return {
        "z": None if record.z_value is None else _complex_dict(record.z_value),
        "classification": record.classification,
    }


def _zero_report_dict(report):
    zeros = [
        {
            **_zero_dict(rec),
            "lambda": (
                "lambda-infinity" if rec.lambda_value is None else _complex_dict(rec.lambda_value)
            ),
            "residual": rec.residual,
            "marginal": rec.marginal,
            "input_direction": [_complex_dict(z) for z in rec.input_direction],
        }
        for rec in report.zeros
    ]
    return {
        "zeros": zeros,
        "poles": [
            {
                "z": _complex_dict(p.value),
                "lambda": (
                    "lambda-infinity" if p.value == 0 else _complex_dict(1.0 / p.value)
                ),
                "classification": p.classification,
            }
            for p in report.poles
        ],
        "normal_rank": report.normal_rank,
        "system_shape": report.system_shape,
        "n_zeros_at_lambda_zero": report.n_zeros_at_lambda_zero,
    }


def _verdict_dict(verdict):
    return {
        "actuator_stealthy": verdict.actuator,
        "actuator_mechanism": verdict.actuator_mechanism,
        "actuator_witness": _zero_dict(verdict.actuator_witness),
        "sensor_stealthy": verdict.sensor,
        "sensor_witness": _zero_dict(verdict.sensor_witness),
        "notes": list(verdict.notes),
    }


def _assumption_dict(report):
    return {
        "b_full_rank": report.b_full_rank,
        "b_rank": _rank_dict(report.b_rank),
        "obs_full_rank": report.obs_full_rank,
        "obs_rank": _rank_dict(report.obs_rank),
        "m_used": report.m_used,
    }


def _emit(doc: dict, args, default_name: str) -> None:
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, default_name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _load(args):
    """Plant, hold period, dual-rate factor (``--m``, else the file's ``m``;
    None for ``auto``) and the head of the output document: the version and
    the SHA-256 of the bytes parsed (the plant file is read once)."""
    with open(args.plant, "rb") as fh:
        data = fh.read()
    plant, T_file, m = load_plant(data)
    T = args.T if args.T is not None else T_file
    if args.m == "auto":
        m = None
    elif args.m is not None:
        try:
            m = int(args.m)
        except ValueError:
            raise ValueError(
                f"argument --m: expected an integer or 'auto', got {args.m!r}") from None
    head = {"version": __version__, "input_sha256": hashlib.sha256(data).hexdigest()}
    return plant, T, m, head


def _parse_weight(text, flag):
    """Riccati weight from the command line: a scalar or a JSON matrix.
    Anything but finite numbers (a boolean included) is a ValueError naming
    the flag."""
    if text is None:
        return None
    try:
        value = float(text)
    except ValueError:
        value = json.loads(text)
    try:
        finite = np.isfinite(np.asarray(_no_booleans(value), dtype=float)).all()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{flag} must be a number or a matrix of numbers: {exc}") from None
    if not finite:
        raise ValueError(f"{flag} must be finite, got {text}")
    return value


def _lifted(plant, T, m, report=True):
    """The lifted system at m (None: the smallest admissible), its block
    certificate and its rank report (None for an automatic m unless
    ``report``); an explicit m outside [2, ``MAX_EXPLICIT_M``] is rejected
    before anything is lifted, and one that fails the rank tests after."""
    if m is not None and m < 2:
        raise ConfigurationError(f"explicit m={m}: the dual-rate factor must be at least 2")
    if m is not None and m > MAX_EXPLICIT_M:
        raise ConfigurationError(
            f"explicit m={m}: the dual-rate factor must be at most {MAX_EXPLICIT_M}, since the "
            "loop design grows like (m*n_y)^3; a design at the state dimension (ROADMAP item 17) "
            "would lift this bound"
        )
    certificate = []
    lifted = build_lifted(plant, T, m, certificate)
    assumptions = check_assumptions(lifted) if report or m is not None else None
    if m is not None and not assumptions.satisfied:
        raise ConfigurationError(
            f"explicit m={m} violates the rank assumptions: "
            + json.dumps(_assumption_dict(assumptions), sort_keys=True)
        )
    return lifted, certificate[0], assumptions


def _loop_design(args, plant, T, m):
    """The sampled system the loop flags of ``attack`` and ``simulate`` ask
    for (the ZOH plant at T, or the lifted system at m) and what its
    controller design reads besides the plant file: mode, T, m and the
    parsed ``Q``/``R`` weights, as ``plan.json``'s ``loop`` records them.
    The weights are parsed before anything is sampled."""
    Q, R = _parse_weight(args.Q, "--Q"), _parse_weight(args.R, "--R")
    dual = args.mode == "dual_rate"
    system = _lifted(plant, T, m, report=False)[0] if dual else discretize(plant, T)
    return system, {"mode": args.mode, "T": T, "m": system.m if dual else None, "Q": Q, "R": R}


def cmd_analyze(args) -> int:
    plant, T, m, doc = _load(args)

    pathology = check_pathological(plant, T)
    P = discretize(plant, T)
    try:
        report = transmission_zeros(P)
    except ModelError as exc:
        if not pathology.pathological:
            raise
        aliased = ", ".join(f"{a:.6g} and {b:.6g} (multiple {k})" for a, b, k in pathology.pairs)
        raise ModelError(f"{exc}; T={T} aliases the eigenvalue pairs {aliased}") from None
    verdict = classify_vulnerability(report, system=P)
    doc["plant"] = {"name": plant.name, "n": plant.n, "n_u": plant.n_u, "n_y": plant.n_y}
    doc["single_rate"] = {
        "T": T,
        "pathological_sampling": {
            "pathological": pathology.pathological,
            "pairs": [
                {"lam_i": _complex_dict(a), "lam_j": _complex_dict(b), "multiple": k}
                for a, b, k in pathology.pairs
            ],
        },
        # always true: transmission_zeros raises ModelError on a non-minimal P
        "minimal": {"controllable": True, "observable": True},
        "zero_report": _zero_report_dict(report),
        "verdict": _verdict_dict(verdict),
    }

    try:
        lifted, _, assumptions = _lifted(plant, T, m)
        lifted_report = transmission_zeros(lifted, assumptions=assumptions)
        lifted_verdict = classify_vulnerability(lifted_report, system=lifted)
        doc["dual_rate"] = {
            "m": lifted.m,
            "m_auto": m is None,
            "fast_period": T / lifted.m,
            "assumptions": _assumption_dict(assumptions),
            "zero_report": _zero_report_dict(lifted_report),
            "verdict": _verdict_dict(lifted_verdict),
        }
    except (ModelError, ConfigurationError) as exc:
        doc["dual_rate"] = {"error": str(exc)}

    _emit(doc, args, "analyze.json")
    return EXIT_OK


def cmd_attack(args) -> int:
    plant, T, m, doc = _load(args)
    system, key = _loop_design(args, plant, T, m)
    cfg = standard_loop(system, theta=args.theta, horizon=DEFAULT_HORIZON,
                        Q=key["Q"], R=key["R"])
    synth = synth_actuator_attack if args.kind == "actuator" else synth_sensor_attack
    plan = synth(cfg)
    K = cfg.controller
    doc["plan"] = plan_to_dict(plan)
    doc["loop"] = {
        **key,
        "theta": args.theta,
        "controller": {"A": K.A.tolist(), "B": K.B.tolist(), "C": K.C.tolist()},
    }
    _emit(doc, args, "plan.json")
    return EXIT_OK


def _read_plan(path, head, system, plant_n_y, key):
    """The attack plan in the ``plan.json`` at ``path``, and the controller
    its ``loop`` records when that is the replay's own loop: the plant-file
    hash of ``head`` and the ``key`` of the loop on ``system``; else None.
    A malformed file, ``loop`` or recorded controller (one that does not fit
    ``system`` or holds a boolean or a non-finite entry) is a ValueError
    naming it, as is an actuator channel past the inputs of ``system`` or a
    sensor channel past the outputs of the loop the plan records
    (``plant_n_y`` times its m), all before any loop is designed; a plan
    whose sensor channels reach past the plant's ``plant_n_y`` outputs
    rides the lifted outputs at its recorded m, and any other loop is a
    ConfigurationError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "plan" not in doc:
        raise ValueError("a plan file must be the JSON object that `attack` writes, "
                         "with a 'plan' field")
    plan = plan_from_dict(doc["plan"])
    loop = doc.get("loop")
    if not isinstance(loop, dict):
        raise ValueError(f"plan field 'loop' must be an object, not {type(loop).__name__}")
    plan_m = None if loop.get("m") is None else _field("plan loop", loop, "m", _integer)
    actuators, sensors = plan.channels
    sensor = max(sensors, default=-1)
    for part, channel, count, of in (
        ("actuator", max(actuators, default=-1), system.n_u, "inputs of the plant"),
        ("sensor", sensor, plant_n_y * (plan_m or 1),
         f"outputs of the loop the plan records (m={plan_m})"),
    ):
        if channel >= count:
            raise ValueError(f"plan channel_map {list(plan.channel_map)} places {part} "
                             f"channel {channel}, past the {count} {of}")
    loop_m = key["m"] or 1  # single rate is the loop at m = 1
    if sensor >= plant_n_y and loop_m != plan_m:
        raise ConfigurationError(
            f"the plan rides the lifted outputs of the dual-rate loop at m={plan_m}; "
            f"it cannot be replayed in a {key['mode']} loop at m={loop_m}"
        )
    if ("controller" not in loop or doc.get("input_sha256") != head["input_sha256"]
            or any(loop.get(k) != v for k, v in key.items())):
        return plan, None
    n, n_u, n_y = system.n, system.n_u, system.n_y
    try:
        K = loop["controller"]
        for name, shape in (("A", (n, n)), ("B", (n, n_y)), ("C", (n_u, n))):
            _no_booleans(K[name])
            if np.shape(K[name]) != shape:
                raise ValueError(f"{name} has shape {np.shape(K[name])}, expected {shape}")
        return plan, StateSpace(K["A"], K["B"], K["C"], np.zeros((n_u, n_y)))
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"plan field 'loop.controller': {type(exc).__name__}: {exc}") from None


def cmd_simulate(args) -> int:
    plant, T, m, doc = _load(args)
    system, key = _loop_design(args, plant, T, m)
    plan, K = _read_plan(args.plan, doc, system, plant.n_y, key) if args.plan else (None, None)
    horizon = args.horizon
    if horizon is None:
        horizon = plan.horizon if plan is not None else DEFAULT_HORIZON
    if K is None:
        cfg = standard_loop(system, theta=args.theta, horizon=horizon, attack=plan,
                            Q=key["Q"], R=key["R"])
    else:
        cfg = LoopConfig(system, K, args.theta, horizon, attack=plan)
    trace = run_dual_rate(cfg) if args.mode == "dual_rate" else run_single_rate(cfg)
    doc["result"] = trace_metadata(trace)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trace.csv")
    trace_to_csv(trace, csv_path)
    doc["trace_csv"] = csv_path
    _emit(doc, args, "verdict.json")
    return EXIT_OK


def cmd_lift(args) -> int:
    plant, T, m, doc = _load(args)
    lifted, shift, assumptions = _lifted(plant, T, m)
    doc["lifted"] = {
        "m": lifted.m,
        "m_auto": m is None,
        "base_period": T,
        "fast_period": T / lifted.m,
        "A": lifted.A.tolist(),
        "B": lifted.B.tolist(),
        "C": lifted.C.tolist(),
        "D": lifted.D.tolist(),
        "assumptions": _assumption_dict(assumptions),
        "shift_consistency": {
            "consistent": shift.consistent,
            "max_error": shift.max_error,
        },
    }
    _emit(doc, args, "lift.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = {
        "version": __version__,
        "seed": args.seed,
        "trials": args.trials,
        "properties": verify_suite.run_suite(trials=args.trials, seed=args.seed),
    }
    doc["all_passed"] = all(p["status"] == "pass" for p in doc["properties"])
    _emit(doc, args, "verify.json")
    return EXIT_OK if doc["all_passed"] else EXIT_NUMERIC


class _Parser(argparse.ArgumentParser):
    """Usage errors are ValueErrors, which ``main`` reports as parse failures."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liftguard",
        description="Analyze sampled-data loops for stealthy-attack vulnerability, "
        "synthesize the attacks, and build the dual-rate defense.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--plant", required=True, help="plant spec JSON file")
        p.add_argument("--T", type=float, default=None, help="override hold period")
        p.add_argument("--m", default=None, help="sub-sampling factor or 'auto'")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("analyze", help="poles/zeros, vulnerability verdicts, dual-rate check")
    common(p)

    def loop_flags(p):
        p.add_argument("--theta", type=float, default=0.01)
        p.add_argument("--Q", default=None, help="state weight: scalar or JSON matrix")
        p.add_argument("--R", default=None, help="input weight: scalar or JSON matrix")

    p = sub.add_parser("attack", help="synthesize a stealthy attack plan")
    common(p)
    p.add_argument("--kind", choices=("actuator", "sensor"), default="actuator")
    p.add_argument("--mode", choices=("single_rate", "dual_rate"), default="single_rate")
    loop_flags(p)

    p = sub.add_parser("simulate", help="closed-loop run with optional attack plan")
    common(p)
    p.add_argument("--mode", choices=("single_rate", "dual_rate"), default="single_rate")
    loop_flags(p)
    p.add_argument("--horizon", type=int, default=None,
                   help=f"base steps (default: the replayed plan's, else {DEFAULT_HORIZON})")
    p.add_argument("--plan", default=None, help="attack plan JSON file")

    p = sub.add_parser("lift", help="build the dual-rate lifted system")
    common(p)

    p = sub.add_parser("verify", help="randomized property suite over random plants")
    p.add_argument("--seed", type=int, default=0, help="random seed of the plant draws")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--trials", type=int, default=100)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first ``main`` call.  Parsing
    does not change it: each call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a replaced module attribute is what runs
        command = globals()[f"cmd_{args.command}"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return command(args)
    except CapabilityError as exc:
        _error(exc)
        return EXIT_CAPABILITY
    except NumericError as exc:
        _error(exc)
        return EXIT_NUMERIC
    except (ConfigurationError, MemoryError) as exc:
        _error(exc)
        return EXIT_CONFIG
    except (ModelError, ValueError, KeyError, OSError) as exc:
        _error(exc)
        return EXIT_PARSE


def _error(exc) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
