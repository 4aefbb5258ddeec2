"""liftguard benchmark: CLI workloads timed end to end, plus a traced run
that splits the time across the package's layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One process runs one workload as a
closed loop with one client: each iteration calls ``liftguard.cli.main``
once per op, in order, and times each call.  Every op must pass its gate
(exit code, strict JSON, expected verdict; see ``workloads.py``).

A run does a fixed number of iterations, ``--seconds`` times the
workload's nominal rate (``workloads.py``), so which ops run, and which of
them fail, depends on the seed alone and not on the host's speed.  Only a
run slower than CAP times ``--seconds`` stops early, and says so.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
half the iterations untraced, then half with every public layer function
wrapped (``tracer.py``), and prints the per-layer metrics per traced
iteration.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(versions, wall-clock medians, tail percentile, failing ops, spans) goes
to ``bench/out/``.

Reference-normalized time.  On a shared host the CPU's speed can change
by a factor of two for tens of seconds at a time, which moves the median
of a 20-second run by 20-30%.  So a fixed reference kernel runs before
every op and after the last, and each op's time is reported as
``wall * REF_SECONDS / kernel`` (kernel: mean of the runs just before and
after it): the time it would take on a host where the kernel takes
REF_SECONDS.  Units ``ref_s``/``ref_ms`` mark these values.
``setup_s`` stays plain wall-clock seconds.
"""

from __future__ import annotations

import os

# Pin BLAS threading before numpy is imported anywhere in this process or
# in the set-up probes it starts, and keep the CLI's seed at its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LIFTGUARD_SEED", None)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
from tracer import END, FAILED, INFO, NAME, OP, PARENT, START
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 4  # before and again after the measured iterations
CAP = 4  # a run taking longer than CAP * --seconds stops early
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it
COMMANDS = ("analyze", "attack", "simulate", "lift", "verify")
REF_SECONDS = 0.004
_REF_A = np.random.default_rng(0).standard_normal((6, 6)) / 6.0
_REF_M = _REF_A + 3.0 * np.eye(6)


def reference_seconds() -> float:
    """Wall time of a fixed kernel with the package's instruction mix:
    interpreter work, small matrix products, LAPACK solves and SVDs, and
    JSON encoding."""
    t0 = perf_counter()
    x = np.ones(6)
    for k in range(100):
        x = np.linalg.solve(_REF_M, _REF_A @ x + 1.0)
        s = np.linalg.svd(_REF_M * x[0], compute_uv=False)
        json.dumps({"k": k, "s": [float(v) for v in s]})
    return perf_counter() - t0


def import_cli():
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    package = SRC / "liftguard"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import liftguard
    import liftguard.cli

    if Path(liftguard.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported liftguard from {liftguard.__file__}, not {package}")
    return liftguard.cli


def write_plants(workload, seed, iteration, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, doc in workload.plants(seed, iteration).items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[key] = str(path)
    return paths


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def gate(op, rc, stdout: str, stderr: str):
    """Returns ``(reason, wrong)``: reason is None when the op passed;
    wrong is True when a well-formed document contradicts the expected
    answer (as opposed to an error exit or malformed output)."""
    if rc != 0:
        first = stderr.strip().splitlines()[0] if stderr.strip() else ""
        return f"exit {rc}: {first[:160]}", False
    try:
        path = stdout.strip().splitlines()[-1]
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read(), parse_constant=_reject_constant)
    except (IndexError, OSError, ValueError) as exc:
        return f"output: {exc}", False
    if op.check is None:
        return None, False
    try:
        reason = op.check(doc)
    except (KeyError, TypeError) as exc:
        return f"document lacks field {exc}", False
    return reason, reason is not None


def iteration_seconds(records) -> float:
    """Normalized time of one iteration: the sum of its ops."""
    return sum(r["ms"] * r["scale"] for r in records if r["ms"] is not None) / 1e3


class Runner:
    """Runs iterations of one workload and keeps every op record."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir
        self.tracer = None
        self.plant_digests = []

    def iteration(self, i: int) -> list:
        """One op record per op: name, command, wall ms, normalizing scale,
        gate reason and whether the answer was wrong."""
        idir = self.workdir / f"it{i}"
        paths = write_plants(self.workload, self.seed, i, idir)
        self.plant_digests.append(
            {k: hashlib.sha256(Path(p).read_bytes()).hexdigest()[:16]
             for k, p in sorted(paths.items())})
        refs, timed, records, plans = [], [], [], {}
        for j, op in enumerate(self.workload.ops(self.seed, i)):
            out = idir / f"op{j}"
            argv = [paths[a[1:]] if a.startswith("@") else a for a in op.argv]
            argv += ["--out", str(out)]
            record = {"op": op.name, "command": op.command, "ms": None, "scale": None,
                      "reason": None, "wrong": False}
            records.append(record)
            if op.plan is not None:
                if op.plan not in plans:
                    record["reason"] = f"no plan: op {op.plan!r} failed"
                    continue
                argv += ["--plan", plans[op.plan]]
            refs.append(reference_seconds())
            timed.append((record, len(refs) - 1))
            if self.tracer is not None:
                self.tracer.op = (i, j)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a crash is a failed op, not a failed run
                    rc = f"crash {type(exc).__name__}"
                    stderr.write(str(exc))
                record["ms"] = (perf_counter() - t0) * 1e3
            record["reason"], record["wrong"] = gate(op, rc, stdout.getvalue(), stderr.getvalue())
            if record["reason"] is None and op.command == "attack":
                plans[op.name] = str(out / "plan.json")
        refs.append(reference_seconds())
        for record, k in timed:
            record["scale"] = 2 * REF_SECONDS / (refs[k] + refs[k + 1])
        shutil.rmtree(idir)
        return records

    def phase(self, first: int, iterations: int, cap_s: float) -> list:
        """``iterations`` iterations from index ``first``; fewer only if
        they take longer than ``cap_s``."""
        result = []
        t0 = perf_counter()
        while len(result) < iterations and (not result or perf_counter() - t0 < cap_s):
            result.append(self.iteration(first + len(result)))
        return result


def tail(values):
    """Highest percentile with at least TAIL_SAMPLES samples beyond it,
    never below the median."""
    p = max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / len(values)))
    return float(np.percentile(values, p)), p


def command_p50(iterations, normalized: bool = True) -> dict:
    """Median op latency in ms per subcommand (0 where it never ran)."""
    by = defaultdict(list)
    for records in iterations:
        for r in records:
            if r["ms"] is not None:
                by[r["command"]].append(r["ms"] * (r["scale"] if normalized else 1.0))
    return {c: statistics.median(by[c]) if by[c] else 0.0 for c in COMMANDS}


def failures(iterations) -> dict:
    out = {}
    for records in iterations:
        for r in records:
            if r["reason"] is not None:
                entry = out.setdefault(r["op"], {"count": 0, "reason": r["reason"]})
                entry["count"] += 1
    return out


def setup_seconds(args, workdir: Path) -> list:
    """Wall time of fresh interpreters that import the package and write
    the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", probe_dir,
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - t0)
    return times


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


def layer_metrics(workload, tracer, traced: list, first: int) -> dict:
    """Per-layer metrics per traced iteration; times are normalized with the
    scale of the op each span ran in."""
    spans = tracer.spans
    scale = [traced[s[OP][0] - first][s[OP][1]]["scale"] for s in spans]
    own = [t * f for t, f in zip(tracing.self_times(spans), scale)]
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    root_total = sum((spans[i][END] - spans[i][START]) * scale[i] for i in roots)
    if {spans[i][NAME] for i in roots} != {"cli.main"}:
        raise SystemExit(f"bench: root spans other than cli.main: "
                         f"{sorted({spans[i][NAME] for i in roots})}")
    if abs(sum(own) - root_total) > 1e-6 * root_total:
        raise SystemExit("bench: layer self times do not sum to the cli.main span durations")

    calls, failed, incl = Counter(), Counter(), defaultdict(float)
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    info = defaultdict(float)
    keys = defaultdict(set)  # (function, iteration) -> distinct input keys
    in_attack = 0
    for idx, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        failed[name] += s[FAILED]
        self_s[tracing.layer_of(name)] += own[idx]
        if tracing.outermost(spans, idx):
            incl[name] += (s[END] - s[START]) * scale[idx]
        if s[INFO]:
            if "probe_error" in s[INFO]:
                raise SystemExit(f"bench: probe of {name} failed ({s[INFO]['probe_error']}); "
                                 "bench/tracer.py no longer fits the package")
            if "key" in s[INFO]:
                keys[name, s[OP][0]].add(s[INFO]["key"])
            else:
                for k, v in s[INFO].items():
                    info[k] += v
        if name in ("sim.run_single_rate", "sim.run_dual_rate"):
            parent = s[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith("attack.synth_"):
                parent = spans[parent][PARENT]
            in_attack += parent >= 0

    missing = [f for f in workload.profile if calls[f] == 0]
    unknown = [f for f in workload.profile if f not in tracer.functions]
    touched = sorted(n for n in calls if tracing.layer_of(n) in workload.untouched)
    if missing or unknown or touched:
        raise SystemExit(f"bench: {workload.name} profile broken: no calls to {missing}, "
                         f"unknown {unknown}, unexpected calls to {touched}")

    def distinct_ratio(fn):
        n_keys = sum(len(v) for (f, _), v in keys.items() if f == fn)
        return n_keys / calls[fn] if calls[fn] else 0.0

    runs = calls["sim.run_single_rate"] + calls["sim.run_dual_rate"]
    run_s = incl["sim.run_single_rate"] + incl["sim.run_dual_rate"]
    plans = calls["attack.synth_actuator_attack"] + calls["attack.synth_sensor_attack"]
    per = 1.0 / len(traced)
    ms = 1e3 * per
    metrics = {f"{layer}.self_ms": (self_s[layer] * ms, "ref_ms") for layer in tracing.LAYERS}
    metrics.update({
        "sim.run.ms": (run_s * ms, "ref_ms"),
        "sim.runs": (runs * per, "count"),
        "sim.base_steps": (info["base_steps"] * per, "count"),
        "sim.base_steps_per_s": (info["base_steps"] / run_s if run_s else 0.0, "1/ref_s"),
        "sim.intersample_rows": (info["intersample_rows"] * per, "count"),
        "sim.trace_to_csv.ms": (incl["sim.trace_to_csv"] * ms, "ref_ms"),
        "sim.csv_rows": (info["csv_rows"] * per, "count"),
        "attack.plans": (plans * per, "count"),
        "attack.calibration_runs_per_plan": (in_attack / plans if plans else 0.0, "ratio"),
        "linalg.dare_gain.ms": (incl["linalg.dare_gain"] * ms, "ref_ms"),
        "linalg.dare_gain.calls": (calls["linalg.dare_gain"] * per, "count"),
        "linalg.dare_gain.failed": (failed["linalg.dare_gain"] * per, "count"),
        "linalg.expm.calls": (calls["linalg.expm"] * per, "count"),
        "factor.coprime_factorize.ms": (incl["factor.coprime_factorize"] * ms, "ref_ms"),
        "factor.coprime_factorize.calls": (calls["factor.coprime_factorize"] * per, "count"),
        "factor.eval_lambda.calls": (calls["factor.eval_lambda"] * per, "count"),
        "zeros.transmission_zeros.ms": (incl["zeros.transmission_zeros"] * ms, "ref_ms"),
        "zeros.transmission_zeros.calls": (calls["zeros.transmission_zeros"] * per, "count"),
        "zeros.transmission_zeros.failed": (failed["zeros.transmission_zeros"] * per, "count"),
        "lift.build_lifted.ms": (incl["lift.build_lifted"] * ms, "ref_ms"),
        "lift.build_lifted.calls": (calls["lift.build_lifted"] * per, "count"),
        "lift.build_lifted.distinct_ratio": (distinct_ratio("lift.build_lifted"), "ratio"),
        "lift.choose_m.ms": (incl["lift.choose_m"] * ms, "ref_ms"),
        "model.discretize.calls": (calls["model.discretize"] * per, "count"),
        "model.discretize.distinct_ratio": (distinct_ratio("model.discretize"), "ratio"),
        "model.load_plant.ms": (incl["model.load_plant"] * ms, "ref_ms"),
    })
    return metrics


def run(args, cli) -> dict:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    traced = []
    try:
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "ref_seconds": REF_SECONDS}
        runner = Runner(cli, workload, args.seed, workdir)
        runner.iteration(0)  # warm-up, not measured
        count = args.iterations or max(1, round(args.seconds * workload.per_second))
        t0 = perf_counter()
        cap_s = CAP * args.seconds
        if args.trace:
            count = args.iterations or max(1, count // 2)
            plain = runner.phase(1, count, cap_s / 2)
            runner.tracer = tracing.Tracer()
            runner.tracer.install()
            try:
                traced = runner.phase(1 + len(plain), count, cap_s / 2)
            finally:
                runner.tracer.uninstall()
            planned = 2 * count
        else:
            record["setup_s"] = setup_seconds(args, workdir)
            plain = runner.phase(1, count, cap_s)
            record["setup_s"] += setup_seconds(args, workdir)
            planned = count
        record["run_s"] = perf_counter() - t0  # after warm-up, set-up probes included
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = plain + traced
    ops = [r for records in iterations for r in records]
    attempted = len(ops)
    failed = sum(r["reason"] is not None for r in ops)
    plain_s = [iteration_seconds(records) for records in plain]
    p50 = record["command_ms.p50"] = command_p50(plain)
    record["wall"] = {
        "iter_s.p50": statistics.median(sum(r["ms"] or 0.0 for r in records) / 1e3
                                        for records in plain),
        "command_ms.p50": command_p50(plain, normalized=False),
        "reference_ms.p50": 1e3 * REF_SECONDS / statistics.median(
            r["scale"] for records in plain for r in records if r["ms"] is not None),
    }
    if args.trace:
        metrics = layer_metrics(workload, runner.tracer, traced, 1 + len(plain))
        overhead = (statistics.median(iteration_seconds(records) for records in traced)
                    - statistics.median(plain_s))
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ref_ms")
        for c in COMMANDS:
            metrics[f"{c}_ms.p50"] = (p50[c], "ref_ms")
    else:
        tail_value, tail_p = tail(plain_s)
        record["tail"] = {"percentile": tail_p, "n": len(plain_s)}
        metrics = {
            "setup_s": (statistics.median(record["setup_s"]), "s"),
            "iter_s.p50": (statistics.median(plain_s), "ref_s"),
            "iter_s.tail": (tail_value, "ref_s"),
            "ops_per_s": (sum(len(records) for records in plain) / sum(plain_s), "1/ref_s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record.update({
        "iterations": len(iterations),
        "iterations_planned": planned,
        "ops_per_iteration": sorted({len(records) for records in iterations}),
        "plant_digests": runner.plant_digests,
        "failures": failures(iterations),
        "wrong_answers": sum(r["wrong"] for r in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = [s[:INFO] for s in runner.tracer.spans]
        (OUT / f"spans-{name}.json").write_text(json.dumps(spans), encoding="utf-8")
    summary = ", ".join(f"{op} x{f['count']} ({f['reason']})"
                        for op, f in record["failures"].items()) or "none"
    print(f"bench: {name}: {len(iterations)} iterations; failed ops: {summary}")
    if len(iterations) < planned:
        print(f"bench: stopped after {CAP} x --seconds, {len(iterations)} of {planned} "
              "iterations; ops and failures are not comparable with full runs")
    if not args.trace:
        print(f"bench: iter_s.tail is p{tail_p:.1f} of n={len(plain_s)}")
    return {
        "correct": record["wrong_answers"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="iteration count per phase instead of the one --seconds gives")
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cli = import_cli()
    if args.setup_probe:
        write_plants(WORKLOADS[args.workload], args.seed, 0, Path(args.setup_probe))
        return 0
    print(json.dumps(run(args, cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
