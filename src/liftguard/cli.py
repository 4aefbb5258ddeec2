"""Command-line front end: analysis, attack synthesis, lifting, simulation,
and the randomized property-verification suite, over JSON plant specs.

Exit codes: 0 success, 2 parse/validation failure, 3 capability failure
("not vulnerable"), 4 numeric failure, 5 configuration failure.  Every
output embeds the tool version, the seed, and the input file hash; the
timestamp is isolated in a single field so reruns are byte-identical
otherwise.
"""

from __future__ import annotations

import argparse
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
from .factor import coprime_factorize
from .lift import build_lifted, check_assumptions, choose_m, shift_consistency_check
from .model import check_minimal, check_pathological, discretize, load_plant
from .sim import run_dual_rate, run_single_rate, standard_loop, trace_metadata, trace_to_csv
from .zeros import classify_vulnerability, transmission_zeros
from . import verify as verify_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_NUMERIC = 4
EXIT_CONFIG = 5

DEFAULT_HORIZON = 200


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


def _zero_report_dict(report):
    zeros = []
    for rec in report.zeros:
        zeros.append(
            {
                "z": None if rec.z_value is None else _complex_dict(rec.z_value),
                "lambda": (
                    "lambda-infinity"
                    if rec.lambda_value is None
                    else _complex_dict(rec.lambda_value)
                ),
                "classification": rec.classification,
                "residual": rec.residual,
                "marginal": rec.marginal,
                "input_direction": [_complex_dict(z) for z in rec.input_direction],
            }
        )
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
        "actuator_witness": (
            None
            if verdict.actuator_witness is None
            else {
                "z": (
                    None
                    if verdict.actuator_witness.z_value is None
                    else _complex_dict(verdict.actuator_witness.z_value)
                ),
                "classification": verdict.actuator_witness.classification,
            }
        ),
        "sensor_stealthy": verdict.sensor,
        "sensor_witness": (
            None
            if verdict.sensor_witness is None
            else {
                "z": _complex_dict(verdict.sensor_witness.value),
                "classification": verdict.sensor_witness.classification,
            }
        ),
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


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def _base_doc(args, seed) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "input_sha256": _file_sha256(args.plant),
    }


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LIFTGUARD_SEED")
    return int(env) if env else 0


def _load(args):
    plant, T_file, m_file = load_plant(args.plant)
    T = args.T if args.T is not None else T_file
    return plant, T, m_file


def _parse_weight(text):
    """Riccati weight from the command line: a scalar or a JSON matrix."""
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return json.loads(text)


def _resolve_m(args, plant, T, m_file):
    """Dual-rate factor from --m / the plant file / automatic choice."""
    raw = args.m if args.m is not None else (str(m_file) if m_file else "auto")
    if raw == "auto":
        return choose_m(plant, T), True
    m = int(raw)
    if m < 2:
        raise ConfigurationError(f"explicit m={m}: the dual-rate factor must be at least 2")
    report = check_assumptions(build_lifted(plant, T, m))
    if not report.satisfied:
        raise ConfigurationError(
            f"explicit m={m} violates the rank assumptions: "
            + json.dumps(_assumption_dict(report), sort_keys=True)
        )
    return m, False


def _standard_loop(args, plant, T, m_file, horizon, attack=None):
    """``standard_loop`` built from the loop flags of ``attack`` and ``simulate``."""
    m = None
    if args.mode == "dual_rate":
        m, _ = _resolve_m(args, plant, T, m_file)
    return standard_loop(
        plant, T, mode=args.mode, m=m, theta=args.theta, horizon=horizon, attack=attack,
        Q=_parse_weight(args.Q), R=_parse_weight(args.R),
    )


def cmd_analyze(args) -> int:
    seed = _resolve_seed(args)
    plant, T, m_file = _load(args)
    doc = _base_doc(args, seed)

    P = discretize(plant, T)
    pathology = check_pathological(plant, T)
    minimal = check_minimal(P)
    report = transmission_zeros(P)
    factors = coprime_factorize(P)
    verdict = classify_vulnerability(report, left_numerator=factors.Nl)
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
        "minimal": {"controllable": minimal.controllable, "observable": minimal.observable},
        "zero_report": _zero_report_dict(report),
        "verdict": _verdict_dict(verdict),
    }

    try:
        m, auto = _resolve_m(args, plant, T, m_file)
        lifted = build_lifted(plant, T, m)
        assumptions = check_assumptions(lifted)
        lifted_report = transmission_zeros(lifted)
        lifted_factors = coprime_factorize(lifted)
        lifted_verdict = classify_vulnerability(lifted_report, left_numerator=lifted_factors.Nl)
        doc["dual_rate"] = {
            "m": m,
            "m_auto": auto,
            "fast_period": T / m,
            "assumptions": _assumption_dict(assumptions),
            "zero_report": _zero_report_dict(lifted_report),
            "verdict": _verdict_dict(lifted_verdict),
        }
    except (ModelError, ConfigurationError) as exc:
        doc["dual_rate"] = {"error": str(exc)}

    _emit(doc, args, "analyze.json")
    return EXIT_OK


def cmd_attack(args) -> int:
    seed = _resolve_seed(args)
    plant, T, m_file = _load(args)
    cfg, factors = _standard_loop(args, plant, T, m_file, DEFAULT_HORIZON)
    if args.kind == "actuator":
        plan = synth_actuator_attack(cfg)
    else:
        plan = synth_sensor_attack(cfg, factors=factors)
    doc = _base_doc(args, seed)
    doc["plan"] = plan_to_dict(plan)
    doc["loop"] = {"mode": cfg.mode, "T": T, "m": cfg.m, "theta": args.theta}
    _emit(doc, args, "plan.json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    plant, T, m_file = _load(args)
    plan = None
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan_doc = json.load(fh)
        plan = plan_from_dict(plan_doc["plan"] if "plan" in plan_doc else plan_doc)
    horizon = args.horizon
    if horizon is None:
        horizon = plan.horizon if plan is not None else DEFAULT_HORIZON
    cfg, _ = _standard_loop(args, plant, T, m_file, horizon, attack=plan)
    trace = run_dual_rate(cfg) if args.mode == "dual_rate" else run_single_rate(cfg)
    doc = _base_doc(args, seed)
    doc["result"] = trace_metadata(trace)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trace.csv")
    trace_to_csv(trace, csv_path)
    doc["trace_csv"] = csv_path
    _emit(doc, args, "verdict.json")
    return EXIT_OK


def cmd_lift(args) -> int:
    seed = _resolve_seed(args)
    plant, T, m_file = _load(args)
    m, auto = _resolve_m(args, plant, T, m_file)
    lifted = build_lifted(plant, T, m)
    assumptions = check_assumptions(lifted)
    shift = shift_consistency_check(lifted, rng=np.random.default_rng(seed))
    doc = _base_doc(args, seed)
    doc["lifted"] = {
        "m": m,
        "m_auto": auto,
        "base_period": T,
        "fast_period": T / m,
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
    seed = _resolve_seed(args)
    doc = {
        "version": __version__,
        "seed": seed,
        "trials": args.trials,
        "properties": verify_suite.run_suite(trials=args.trials, seed=seed),
    }
    doc["all_passed"] = all(p["status"] == "pass" for p in doc["properties"])
    _emit(doc, args, "verify.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftguard",
        description="Analyze sampled-data loops for stealthy-attack vulnerability, "
        "synthesize the attacks, and build the dual-rate defense.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plant_required=True):
        if plant_required:
            p.add_argument("--plant", required=True, help="plant spec JSON file")
            p.add_argument("--T", type=float, default=None, help="override hold period")
            p.add_argument("--m", default=None, help="sub-sampling factor or 'auto'")
        p.add_argument("--seed", type=int, default=None, help="random seed (env LIFTGUARD_SEED)")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("analyze", help="poles/zeros, vulnerability verdicts, dual-rate check")
    common(p)
    p.set_defaults(func=cmd_analyze)

    def loop_flags(p):
        p.add_argument("--theta", type=float, default=0.01)
        p.add_argument("--Q", default=None, help="state weight: scalar or JSON matrix")
        p.add_argument("--R", default=None, help="input weight: scalar or JSON matrix")

    p = sub.add_parser("attack", help="synthesize a stealthy attack plan")
    common(p)
    p.add_argument("--kind", choices=("actuator", "sensor"), default="actuator")
    p.add_argument("--mode", choices=("single_rate", "dual_rate"), default="single_rate")
    loop_flags(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("simulate", help="closed-loop run with optional attack plan")
    common(p)
    p.add_argument("--mode", choices=("single_rate", "dual_rate"), default="single_rate")
    loop_flags(p)
    p.add_argument("--horizon", type=int, default=None,
                   help=f"base steps (default: the replayed plan's, else {DEFAULT_HORIZON})")
    p.add_argument("--plan", default=None, help="attack plan JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lift", help="build the dual-rate lifted system")
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="randomized property suite over random plants")
    common(p, plant_required=False)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except CapabilityError as exc:
        _error(exc)
        return EXIT_CAPABILITY
    except NumericError as exc:
        _error(exc)
        return EXIT_NUMERIC
    except ConfigurationError as exc:
        _error(exc)
        return EXIT_CONFIG
    except (ModelError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _error(exc)
        return EXIT_PARSE


def _error(exc) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())
