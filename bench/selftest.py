"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, with short fixed-length traced runs:
- the same seed gives identical deterministic counts (every ``*.calls``,
  the simulation step and row counts, calibration runs per plan),
  identical plants and the same failed ops;
- another seed changes the plant-population plants but not the number of
  ops per iteration;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ITERATIONS = 2
DETERMINISTIC = ("sim.base_steps", "sim.intersample_rows", "sim.csv_rows",
                 "attack.calibration_runs_per_plan")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1", "--iterations", str(ITERATIONS)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    path = BENCH / "out" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def counts(record: dict) -> dict:
    return {k: v["value"] for k, v in record["metrics"].items()
            if k.endswith(".calls") or k in DETERMINISTIC}


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        sys.exit(1)


def main() -> None:
    for workload in ("replay-story", "fast-rate", "plant-population"):
        first, second = traced(workload, 1), traced(workload, 1)
        check(counts(first) == counts(second), f"{workload}: same seed, same counts")
        check(first["plant_digests"] == second["plant_digests"], f"{workload}: same seed, same plants")
        check(first["failures"] == second["failures"], f"{workload}: same seed, same failed ops")
        if workload == "plant-population":
            other = traced(workload, 2)
            check(other["plant_digests"] != first["plant_digests"],
                  f"{workload}: another seed, other plants")
            check(other["ops_per_iteration"] == first["ops_per_iteration"],
                  f"{workload}: another seed, same ops per iteration")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "replay-story",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the package source: non-zero exit, no result")


if __name__ == "__main__":
    main()
