"""Workload definitions: the inputs each iteration feeds to the CLI, and the
gate every op must pass.

An op is one ``liftguard`` subcommand call.  Its gate is the expected exit
code (always 0), a strict JSON parse of its output document, and an
optional verdict check that returns a reason string when the document
contradicts the expected answer.

Plants are plain JSON documents built with numpy alone, so nothing here
calls into ``liftguard``: every call the traced run sees comes from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TRIPLE_INTEGRATOR = {
    "Ac": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    "Bc": [[0.0], [0.0], [1.0]],
    "Cc": [[1.0, 0.0, 0.0]],
    "Dc": [[0.0]],
    "T": 1.0,
    "name": "triple-integrator",
}
POLE_AT_2 = {
    "Ac": [[math.log(2.0)]],
    "Bc": [[1.0]],
    "Cc": [[1.0]],
    "Dc": [[0.0]],
    "T": 1.0,
    "name": "pole-at-2",
}
OSCILLATOR = {
    "Ac": [[0.0, 1.0], [-4.0, -0.04]],
    "Bc": [[0.0], [1.0]],
    "Cc": [[1.0, 0.0]],
    "Dc": [[0.0]],
    "T": 0.01,
    "name": "light-oscillator",
}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` names plants by key into the iteration's
    plant files; ``plan`` names the earlier op whose plan.json is replayed."""

    name: str
    argv: tuple
    plan: str | None = None
    check: Callable[[dict], str | None] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    # plants(seed, iteration) -> {key: plant document}
    plants: Callable[[int, int], dict]
    # ops(seed, iteration) -> [Op]; plant keys appear as "@key" in argv
    ops: Callable[[int, int], list]
    # every wrapped function named here must record calls in a traced run
    profile: tuple
    # iterations per second of --seconds, set a little below what a host
    # whose reference kernel (run.py) takes 4 ms does, so that a run lasts
    # about --seconds there and not much longer on a slower host
    per_second: float
    # layers whose functions must record no calls in a traced run
    untouched: tuple = ()


# ---------------------------------------------------------------- checks


def _verdict_is(expected):
    def check(doc):
        got = doc["result"]["verdict"]
        return None if got == expected else f"verdict {got!r}, expected {expected!r}"

    return check


def _plan_kind(expected):
    def check(doc):
        got = doc["plan"]["kind"]
        return None if got == expected else f"plan kind {got!r}, expected {expected!r}"

    return check


def _actuator_verdicts(single, dual):
    def check(doc):
        got_single = doc["single_rate"]["verdict"]["actuator_stealthy"]
        got_dual = doc["dual_rate"].get("verdict", {}).get("actuator_stealthy")
        if (got_single, got_dual) != (single, dual):
            return (
                f"actuator verdicts single={got_single!r} dual={got_dual!r}, "
                f"expected single={single!r} dual={dual!r}"
            )
        return None

    return check


def _dual_rate_removes_actuator_attack(doc):
    """Paper claim: under both rank assumptions the lifted loop has no
    unbounded stealthy actuator attack."""
    dual = doc["dual_rate"]
    if "error" in dual:
        return None
    a = dual["assumptions"]
    if a["b_full_rank"] and a["obs_full_rank"] and dual["verdict"]["actuator_stealthy"] == "yes":
        return f"dual-rate actuator verdict 'yes' with both rank assumptions (m={dual['m']})"
    return None


def _all_passed(doc):
    if doc["all_passed"] is True:
        return None
    failing = [p["name"] for p in doc["properties"] if p["status"] != "pass"]
    return f"verify properties failed: {failing}"


# ---------------------------------------------------------------- replay-story


def _story_plants(seed, iteration):
    return {"tri": TRIPLE_INTEGRATOR, "pole2": POLE_AT_2}


def _story_ops(seed, iteration):
    return [
        Op("analyze", ("analyze", "--plant", "@tri"), check=_actuator_verdicts("yes", "no")),
        Op("attack", ("attack", "--plant", "@tri"), check=_plan_kind("actuator_zero")),
        Op("replay", ("simulate", "--plant", "@tri"), plan="attack",
           check=_verdict_is("stealthy")),
        Op("replay_dual", ("simulate", "--plant", "@tri", "--mode", "dual_rate"),
           plan="attack", check=_verdict_is("detected")),
        Op("attack_sensor", ("attack", "--plant", "@pole2", "--kind", "sensor"),
           check=_plan_kind("sensor_pole")),
        Op("replay_sensor", ("simulate", "--plant", "@pole2"), plan="attack_sensor",
           check=_verdict_is("stealthy")),
    ]


# ---------------------------------------------------------------- fast-rate


def _fast_plants(seed, iteration):
    return {"tri": TRIPLE_INTEGRATOR, "osc": OSCILLATOR}


def _fast_ops(seed, iteration):
    fast = ("--T", "0.01")
    return [
        Op("attack", ("attack", "--plant", "@tri") + fast, check=_plan_kind("actuator_zero")),
        Op("replay", ("simulate", "--plant", "@tri") + fast, plan="attack",
           check=_verdict_is("stealthy")),
        Op("replay_dual", ("simulate", "--plant", "@tri", "--mode", "dual_rate") + fast,
           plan="attack", check=_verdict_is("detected")),
        Op("oscillator_dual", ("simulate", "--plant", "@osc", "--mode", "dual_rate",
                               "--horizon", "2000"), check=_verdict_is("stealthy")),
        # Past float overflow: the injected signal reaches inf.  The gate asks
        # only for a strict-JSON verdict, which the seed does not give.
        Op("replay_overflow", ("simulate", "--plant", "@tri", "--horizon", "2000") + fast,
           plan="attack"),
        Op("analyze_khz", ("analyze", "--plant", "@tri", "--T", "1e-3"),
           check=_actuator_verdicts("yes", "no")),
    ]


# ---------------------------------------------------------------- plant-population

# (n_u, n_y) choices per shape; a choice is used only when n_u <= n.
SHAPES = (
    ("tall", ((1, 2), (1, 3), (2, 3))),
    ("square", ((1, 1), (2, 2))),
    ("fat", ((2, 1), (3, 1), (3, 2))),
)
PERIODS = (1.0, 0.5, 0.1)


def _clearly_minimal(A, B, C) -> bool:
    """Controllability and observability with a margin well above the
    package's own rank tolerance, so no drawn plant is rejected as input."""
    n = A.shape[0]
    ctrb, obsv = [B], [C]
    for _ in range(n - 1):
        ctrb.append(A @ ctrb[-1])
        obsv.append(obsv[-1] @ A)
    for M in (np.hstack(ctrb), np.vstack(obsv)):
        s = np.linalg.svd(M, compute_uv=False)
        if s[n - 1] <= 1e-6 * s[0]:
            return False
    return True


def random_plant(rng, shape: str) -> dict:
    choices = dict(SHAPES)[shape]
    while True:
        n = int(rng.integers(2, 6))
        fits = [c for c in choices if c[0] <= n]
        n_u, n_y = fits[int(rng.integers(len(fits)))]
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n_u))
        C = rng.standard_normal((n_y, n))
        T = PERIODS[int(rng.integers(len(PERIODS)))]
        if _clearly_minimal(A, B, C):
            return {
                "Ac": A.tolist(),
                "Bc": B.tolist(),
                "Cc": C.tolist(),
                "Dc": np.zeros((n_y, n_u)).tolist(),
                "T": T,
                "name": f"{shape}-n{n}",
            }


def _population_plants(seed, iteration):
    rng = np.random.default_rng([seed, iteration])
    return {shape: random_plant(rng, shape) for shape, _ in SHAPES}


def _population_ops(seed, iteration):
    ops = []
    for shape, _ in SHAPES:
        ops.append(Op(f"analyze_{shape}", ("analyze", "--plant", f"@{shape}"),
                      check=_dual_rate_removes_actuator_attack))
        ops.append(Op(f"lift_{shape}", ("lift", "--plant", f"@{shape}")))
    verify_seed = int(np.random.default_rng([seed, iteration, 1]).integers(2**31))
    ops.append(Op("verify", ("verify", "--trials", "10", "--seed", str(verify_seed)),
                  check=_all_passed))
    return ops


_LOOP_PROFILE = (
    "cli.main", "cli.cmd_analyze", "cli.cmd_attack", "cli.cmd_simulate",
    "model.load_plant", "model.discretize", "linalg.dare_gain", "linalg.expm",
    "zeros.transmission_zeros", "factor.coprime_factorize", "factor.eval_lambda",
    "lift.build_lifted", "lift.choose_m", "attack.synth_actuator_attack",
    "sim.standard_loop", "sim.run_single_rate", "sim.run_dual_rate", "sim.trace_to_csv",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay-story",
            per_second=3.0,
            plants=_story_plants,
            ops=_story_ops,
            profile=_LOOP_PROFILE + ("attack.synth_sensor_attack",),
        ),
        Workload(
            name="fast-rate",
            per_second=0.45,
            plants=_fast_plants,
            ops=_fast_ops,
            profile=_LOOP_PROFILE,
        ),
        Workload(
            name="plant-population",
            per_second=2.0,
            plants=_population_plants,
            ops=_population_ops,
            profile=(
                "cli.main", "cli.cmd_analyze", "cli.cmd_lift", "cli.cmd_verify",
                "model.load_plant", "model.discretize", "linalg.dare_gain",
                "zeros.transmission_zeros", "factor.coprime_factorize",
                "factor.eval_lambda", "lift.build_lifted", "lift.choose_m",
                "lift.shift_consistency_check", "verify.run_suite",
            ),
            untouched=("sim", "attack"),
        ),
    )
}
