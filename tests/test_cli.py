import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from liftguard import build_lifted, plant_to_dict, standard_loop
from liftguard.attack import plan_to_dict, synth_coordinated_attack

from helpers import (
    bench_module,
    double_integrator,
    stable_two_state,
    triple_integrator,
    unstable_scalar,
)


DEPENDENT_INPUTS = {
    "Ac": [[-1.0, 0.3], [0.2, -0.5]],
    "Bc": [[1.0, 1.0], [0.5, 0.5]],
    "Cc": [[1.0, 0.0], [0.0, 1.0]],
    "Dc": [[0.0, 0.0], [0.0, 0.0]],
    "T": 1.0,
    "name": "dependent-inputs",
}


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "liftguard", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def plant_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("plants")
    paths = {}
    for name, plant, T in [
        ("triple", triple_integrator(), 1.0),
        ("double", double_integrator(), 1.0),
        ("stable", stable_two_state(), 0.5),
        ("unstable", unstable_scalar(), 1.0),
    ]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(plant_to_dict(plant, T=T)))
        paths[name] = str(p)
    fat = root / "fat.json"
    fat.write_text(
        json.dumps(
            {
                "Ac": [[-0.4, 0.2], [0.1, -0.8]],
                "Bc": [[1.0, 0.3], [0.2, 1.0]],
                "Cc": [[1.0, 0.5]],
                "Dc": [[0.0, 0.0]],
                "T": 0.5,
                "name": "fat-plant",
            }
        )
    )
    paths["fat"] = str(fat)
    # two inputs along one direction: square and minimal, but its pencil's
    # normal rank is 3 < 4, so one input masks the other
    dependent = root / "dependent.json"
    dependent.write_text(json.dumps(DEPENDENT_INPUTS))
    paths["dependent"] = str(dependent)
    # sampling at T = pi/2 aliases the eigenvalues +-2j of the rotation; the
    # two inputs keep the sampled system minimal
    oscillator = root / "oscillator.json"
    oscillator.write_text(
        json.dumps(
            {
                "Ac": [[0.0, 2.0], [-2.0, 0.0]],
                "Bc": [[1.0, 0.0], [0.0, 1.0]],
                "Cc": [[1.0, 0.0], [0.0, 1.0]],
                "Dc": [[0.0, 0.0], [0.0, 0.0]],
                "T": math.pi / 2,
                "name": "two-input-oscillator",
            }
        )
    )
    paths["oscillator"] = str(oscillator)
    bad = root / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    return paths


def _m_one(plant_files, tmp_path, source):
    """The triple integrator with m = 1 given by --m or by the plant file."""
    if source == "flag":
        return plant_files["triple"], ("--m", "1")
    path = tmp_path / "triple_m1.json"
    path.write_text(json.dumps(plant_to_dict(triple_integrator(), T=1.0, m=1)))
    return str(path), ()


class TestAnalyze:
    def test_triple_integrator_verdicts(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["triple"])
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert doc["dual_rate"]["m"] == 4
        assert doc["dual_rate"]["verdict"]["actuator_stealthy"] == "no"

    def test_triple_integrator_at_khz(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["triple"], "--T", "1e-3")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert doc["dual_rate"]["verdict"]["actuator_stealthy"] == "no"

    def test_population_fat_plant_8_dual_rate_no_at_khz(self, tmp_path, capsys):
        # the ninth fat plant that the benchmark's random_plant draws from
        # default_rng([0, 7]) after 150 tall and 150 square ones: at T = 1e-3
        # the chain test on the full lifted pencil called its zero at
        # frequency one multiple, a "yes" the paper rules out
        from liftguard import cli

        random_plant = bench_module("workloads").random_plant
        rng = np.random.default_rng([0, 7])
        docs = [random_plant(rng, shape) for shape in ("tall", "square") for _ in range(150)]
        docs += [random_plant(rng, "fat") for _ in range(9)]
        path = tmp_path / "fat8.json"
        path.write_text(json.dumps(docs[-1]))
        assert cli.main(["analyze", "--plant", str(path), "--T", "1e-3"]) == 0
        dual = json.loads(capsys.readouterr().out)["dual_rate"]
        assert dual["assumptions"]["b_full_rank"] and dual["assumptions"]["obs_full_rank"]
        assert dual["verdict"]["actuator_stealthy"] == "no"

    def test_stable_minimum_phase_all_no(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["stable"])
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "no"
        assert doc["single_rate"]["verdict"]["sensor_stealthy"] == "no"

    def test_fat_plant_masking_verdict(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["fat"])
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert doc["single_rate"]["verdict"]["actuator_mechanism"] == "fat_plant"

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_m_below_two_reported_under_dual_rate(self, plant_files, tmp_path, source):
        plant, extra = _m_one(plant_files, tmp_path, source)
        res = run_cli("analyze", "--plant", plant, *extra)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert "at least 2" in doc["dual_rate"]["error"]

    def test_parse_error_exit_2(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["bad"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "error" in err

    def test_missing_file_exit_2(self):
        res = run_cli("analyze", "--plant", "/nonexistent/plant.json")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "content, error, message",
        [
            (None, "FileNotFoundError", "[Errno 2] No such file or directory: '{path}'"),
            (b'\xff\xfe{"T": 1}', "UnicodeDecodeError",
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"{not json", "JSONDecodeError",
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (b"[1, 2]", "ValueError", "a plant spec must be a JSON object, not list"),
        ],
        ids=["missing", "not_utf8", "malformed", "not_object"],
    )
    @pytest.mark.parametrize("command", ["analyze", "attack", "simulate", "lift"])
    def test_unreadable_plant_file_exit_2(self, tmp_path, capsys, command, content, error, message):
        from liftguard import cli

        path = tmp_path / "plant.json"
        if content is not None:
            path.write_bytes(content)
        assert cli.main([command, "--plant", str(path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": error, "message": message.format(path=path)}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("analyze", ("--T", "inf"), "sampling period must be positive and finite, got inf"),
            ("lift", (), "T must be positive and finite, got inf"),
            ("attack", (), "T must be positive and finite, got inf"),
        ],
        ids=["analyze_T_flag", "lift_T_field", "attack_T_field"],
    )
    def test_non_finite_period_exit_2(self, plant_files, tmp_path, capsys, command, flags, message):
        # an infinite period used to reach the pathology test or the matrix
        # exponential unchecked, which failed without naming the period
        from liftguard import cli

        doc = json.loads(open(plant_files["unstable"]).read())
        if not flags:
            doc["T"] = math.inf  # written as Infinity, which Python's json reads
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps(doc))
        argv = [command, "--plant", str(plant), *flags, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "out").exists()

    def test_pathological_period_reported(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["oscillator"])
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = json.loads(res.stdout)["single_rate"]["pathological_sampling"]
        assert report["pathological"] is True
        assert [pair["multiple"] for pair in report["pairs"]] == [1]

    def test_pathological_period_named_when_minimality_is_lost(self, tmp_path, capsys):
        # with one input the aliased pair +-2j costs the sampled oscillator
        # its minimality; the refusal names the pair and its multiple
        from liftguard import cli

        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps({"Ac": [[0, 2], [-2, 0]], "Bc": [[0], [1]], "Cc": [[1, 0]],
                                    "Dc": [[0]], "T": math.pi / 2}))
        assert cli.main(["analyze", "--plant", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ModelError"
        assert err["message"] == (
            "transmission zeros require a minimal realization (controllable=False, "
            f"observable=False); T={math.pi / 2} aliases the eigenvalue pairs "
            "0+2j and 0-2j (multiple 1)"
        )
        assert not (tmp_path / "out").exists()

    def test_pathology_checked_once_per_period(self, plant_files, tmp_path, monkeypatch):
        # analyze checks its hold period once; nothing else checks a period
        from liftguard import cli, model

        periods = []
        check = model.check_pathological

        def counted(plant, T):
            periods.append(T)
            return check(plant, T)

        for module in (cli, model):
            monkeypatch.setattr(module, "check_pathological", counted)
        path = plant_files["triple"]
        assert cli.main(["analyze", "--plant", path, "--out", str(tmp_path)]) == 0
        assert periods == [1.0]

    def test_plant_file_read_once_and_hashed(self, plant_files, tmp_path, monkeypatch):
        # input_sha256 is the hash of the bytes that were parsed
        import builtins

        from liftguard import cli, model

        opened = []

        def counted(file, *args, **kwargs):
            opened.append(str(file))
            return builtins.open(file, *args, **kwargs)

        for module in (cli, model):
            monkeypatch.setattr(module, "open", counted, raising=False)
        path = plant_files["triple"]
        assert cli.main(["analyze", "--plant", path, "--out", str(tmp_path)]) == 0
        assert opened.count(path) == 1
        doc = json.loads((tmp_path / "analyze.json").read_text())
        with open(path, "rb") as fh:
            assert doc["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()


class TestAttackAndSimulate:
    def test_plan_then_replay(self, plant_files, tmp_path):
        out = str(tmp_path / "out")
        res = run_cli(
            "attack", "--plant", plant_files["triple"], "--theta", "0.01",
            "--out", out,
        )
        assert res.returncode == 0, res.stderr
        plan_doc = json.load(open(f"{out}/plan.json"))
        assert plan_doc["plan"]["kind"] == "actuator_zero"
        assert "empirical_peak" in plan_doc["plan"]["calibration"]

        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            "--theta", "0.01", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "stealthy"
        header = open(f"{out}/trace.csv").readline().strip()
        assert header == "step,substep,time,u_1,y_1,da_1,ds_1,monitor,crossed"

        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            "--mode", "dual_rate", "--theta", "0.01", "--out", out,
        )
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "detected"

    @pytest.mark.parametrize("flags", [(), ("--horizon=50",), ("--hor", "50")])
    def test_replay_horizon(self, plant_files, tmp_path, flags):
        # without the flag the replay runs for the plan's horizon; either
        # spelling argparse accepts for the flag overrides it
        out = str(tmp_path / "h")
        res = run_cli("attack", "--plant", plant_files["triple"], "--out", out)
        assert res.returncode == 0, res.stderr
        plan_horizon = json.load(open(f"{out}/plan.json"))["plan"]["horizon"]
        assert plan_horizon != 50
        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            *flags, "--out", out,
        )
        assert res.returncode == 0, res.stderr
        horizon = json.load(open(f"{out}/verdict.json"))["result"]["horizon"]
        assert horizon == (50 if flags else plan_horizon)

    @pytest.mark.parametrize(
        "field, value", [("zeta", {"re": math.nan, "im": 0.0}), ("epsilon", math.inf)]
    )
    def test_non_finite_plan_exit_2(self, plant_files, tmp_path, capsys, field, value):
        # Python's json reads NaN and Infinity, so a plan file can carry them
        from liftguard import cli

        out = tmp_path / "out"
        assert cli.main(["attack", "--plant", plant_files["triple"], "--out", str(out)]) == 0
        plan_doc = json.loads((out / "plan.json").read_text())
        plan_doc["plan"][field] = value
        (out / "plan.json").write_text(json.dumps(plan_doc))
        capsys.readouterr()
        argv = ["simulate", "--plant", plant_files["triple"], "--plan", str(out / "plan.json"),
                "--out", str(tmp_path / "sim")]
        assert cli.main(argv) == 2
        assert "finite" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "sim" / "verdict.json").exists()

    @pytest.mark.parametrize(
        "loop, channel_map, message",
        [
            ((), [-1], "[-1] does not name 1 distinct"),
            (("--mode", "dual_rate", "--m", "2"), [0, 0], "[0, 0] does not name 2 distinct"),
            ((), [0, 1], "[0, 1] does not name 1 distinct"),
            # a single-rate plan on a sensor past the plant's one output was
            # refused as riding the lifted outputs of a dual-rate loop (exit 5)
            ((), [5], "[5] places sensor channel 5, past the 1 outputs"),
        ],
        ids=["negative", "repeated", "longer_than_direction", "past_the_outputs"],
    )
    def test_bad_channel_map_exit_2(
        self, plant_files, tmp_path, capsys, loop, channel_map, message
    ):
        # a negative channel used to replay on the last channel, a repeated
        # one to overwrite a column, and a long map to end in an IndexError
        from liftguard import cli

        out = tmp_path / "out"
        argv = ["--plant", plant_files["unstable"], *loop]
        assert cli.main(["attack", "--kind", "sensor", *argv, "--out", str(out)]) == 0
        plan_doc = json.loads((out / "plan.json").read_text())
        assert plan_doc["plan"]["channel_map"] == list(range(len(plan_doc["plan"]["direction"])))
        plan_doc["plan"]["channel_map"] = channel_map
        (out / "plan.json").write_text(json.dumps(plan_doc))
        capsys.readouterr()
        sim = tmp_path / "sim"
        assert cli.main(["simulate", *argv, "--plan", str(out / "plan.json"),
                         "--out", str(sim)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"plan channel_map {message}" in err["message"]
        assert not (sim / "verdict.json").exists()

    @pytest.mark.parametrize(
        "target, edit, field",
        [
            ("plant", lambda doc: doc.update(Ac={"a": 1}), "'Ac'"),
            ("plant", lambda doc: doc.update(T=None), "'T'"),
            ("plan", lambda doc: doc["plan"].update(direction=[1.0]), "'direction'"),
            ("plan", lambda doc: doc["plan"].update(direction=[]), "direction must not be empty"),
            ("plan", lambda doc: doc["plan"].update(zeta=2.0), "'zeta'"),
            ("plan", lambda doc: [doc["plan"]], "JSON object"),
            ("plan", lambda doc: doc["plan"], "'plan' field"),
            ("plan", lambda doc: doc.pop("loop") and None, "'loop' must be an object"),
            ("plan", lambda doc: doc.update(loop=[1]), "'loop' must be an object"),
            ("plan", lambda doc: doc.update(loop="x"), "'loop' must be an object"),
            ("plan", lambda doc: doc["loop"].update(m=2.5), "loop field 'm'"),
            ("plan", lambda doc: doc["loop"].update(m="2"), "loop field 'm'"),
            ("plant", lambda doc: doc.update(m=2.5), "plant field 'm'"),
            ("plant", lambda doc: doc.update(m=True), "plant field 'm'"),
            ("plan", lambda doc: doc["plan"].update(horizon=2.5), "'horizon'"),
            ("plan", lambda doc: doc["plan"].update(horizon=True), "'horizon'"),
            ("plan", lambda doc: doc["plan"].update(channel_map=[0.7]), "'channel_map'"),
            ("plan", lambda doc: doc["plan"].update(channel_map=[False]), "'channel_map'"),
            # float and np.asarray read a JSON boolean as 1 or 0
            ("plan", lambda doc: doc["plan"].update(epsilon=True), "'epsilon'"),
            ("plan", lambda doc: doc["plan"]["zeta"].update(im=False), "'zeta'"),
            ("plan", lambda doc: doc["plan"]["direction"][0].update(re=True), "'direction'"),
            ("plant", lambda doc: doc.update(Bc=[[True]]), "plant field 'Bc'"),
            ("plant", lambda doc: doc.update(T=True), "plant field 'T'"),
            ("plan", lambda doc: doc["loop"]["controller"]["C"][0].__setitem__(0, False),
             "'loop.controller'"),
        ],
        ids=["plant_Ac_object", "plant_T_null", "plan_direction_numbers", "plan_direction_empty",
             "plan_zeta_number",
             "plan_file_list", "plan_file_bare", "plan_loop_missing", "plan_loop_list", "plan_loop_string", "plan_loop_m_fraction",
             "plan_loop_m_string", "plant_m_fraction", "plant_m_boolean",
             "plan_horizon_fraction", "plan_horizon_boolean", "plan_channel_map_fraction",
             "plan_channel_map_boolean", "plan_epsilon_boolean", "plan_zeta_boolean",
             "plan_direction_boolean", "plant_Bc_boolean", "plant_T_boolean",
             "plan_loop_controller_boolean"],
    )
    def test_malformed_input_file_exit_2(
        self, plant_files, tmp_path, capsys, target, edit, field
    ):
        # a field of the wrong type used to end in an uncaught TypeError or
        # AttributeError, and a non-integral integer field was truncated
        from liftguard import cli

        plant = tmp_path / "plant.json"
        plant.write_text(open(plant_files["unstable"]).read())
        plan = tmp_path / "plan.json"
        assert cli.main(["attack", "--kind", "sensor", "--plant", str(plant),
                         "--out", str(tmp_path)]) == 0
        path = plant if target == "plant" else plan
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(edit(doc) or doc))
        capsys.readouterr()
        sim = tmp_path / "sim"
        argv = ["simulate", "--plant", str(plant), "--plan", str(plan), "--out", str(sim)]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and field in err["message"]
        assert not (sim / "verdict.json").exists()

    def test_refused_allocation_exit_5(self, plant_files, tmp_path, capsys):
        # 10**17 float rows fit in no 64-bit address space, so the host
        # refuses the loop's arrays at once instead of granting them lazily
        from liftguard import cli

        argv = ["simulate", "--plant", plant_files["unstable"], "--horizon", str(10**17),
                "--out", str(tmp_path)]
        assert cli.main(argv) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"].endswith("MemoryError") and "allocate" in err["message"]
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize(
        "command",
        [("simulate", "--horizon", "5"), ("attack", "--kind", "sensor")],
        ids=["simulate", "attack_sensor"],
    )
    def test_infinite_theta_exit_5(self, plant_files, tmp_path, capsys, command):
        # theta = inf used to pass the loop check: simulate wrote trace.csv and
        # then failed on the verdict's JSON, and attack failed on the plan
        from liftguard import cli

        argv = [*command, "--plant", plant_files["unstable"], "--theta", "inf",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 5
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigurationError",
                       "message": "theta must be positive and finite, got inf"}
        assert not (tmp_path / "trace.csv").exists()
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "theta, message",
        [("1e300", "theta=1e+300 overflowed: the run aimed at epsilon=1.282e+254 peaks at nan"),
         ("1e-300", "theta=1e-300 aims at epsilon=0.000e+00, outside the float range")],
        ids=["huge", "tiny"],
    )
    def test_calibration_out_of_float_range_exit_4(self, plant_files, tmp_path, capsys,
                                                  theta, message):
        # the run aimed at half of a huge theta overflows, and half of a tiny
        # one over the unit peak underflows; either used to reach the plan as
        # an epsilon that is not positive and finite (exit 2, naming epsilon)
        from liftguard import cli

        argv = ["attack", "--plant", plant_files["unstable"], "--kind", "sensor",
                "--theta", theta, "--out", str(tmp_path)]
        assert cli.main(argv) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "NumericError", "message": f"amplitude calibration at {message}"}
        assert not (tmp_path / "plan.json").exists()

    def test_attack_rejects_horizon(self, plant_files, tmp_path):
        # a plan's horizon follows from its growth ratio, so attack takes none
        res = run_cli(
            "attack", "--plant", plant_files["triple"], "--horizon", "30",
            "--out", str(tmp_path),
        )
        assert res.returncode == 2
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    def test_overflow_is_reported(self, plant_files, tmp_path, mode):
        # replayed past its horizon at T = 0.01, the actuator plan overflows
        # to inf and the loop to NaN; the run still ends in strict JSON and
        # every row from the first non-finite sample on counts as a crossing
        plan = tmp_path / "plan"
        res = run_cli(
            "attack", "--plant", plant_files["triple"], "--T", "0.01", "--out", str(plan)
        )
        assert res.returncode == 0, res.stderr
        out = tmp_path / mode
        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--T", "0.01", "--mode", mode,
            "--plan", str(plan / "plan.json"), "--horizon", "2000", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        result = json.loads((out / "verdict.json").read_text(), parse_constant=reject)["result"]
        first = result["first_nonfinite"]
        assert isinstance(first, int) and not isinstance(first, bool)
        assert result["verdict"] == "detected"
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2000 * result["samples_per_step"]
        assert all(math.isfinite(float(row[-2])) for row in rows[:first])
        assert not math.isfinite(float(rows[first][-2]))
        assert all(row[-1] == "1" for row in rows[first:])

    def test_fat_plant_attack_agrees_with_analyze(self, plant_files, tmp_path):
        # analyze's fat_plant "yes" gets a plan: FREE_ZETA along the pencil's
        # null vector, stealthy at single rate and detected at dual rate
        fat = plant_files["fat"]
        res = run_cli("analyze", "--plant", fat)
        verdict = json.loads(res.stdout)["single_rate"]["verdict"]
        assert (verdict["actuator_stealthy"], verdict["actuator_mechanism"]) == ("yes", "fat_plant")
        out = str(tmp_path / "fat")
        res = run_cli("attack", "--plant", fat, "--out", out)
        assert res.returncode == 0, res.stderr
        plan = json.load(open(f"{out}/plan.json"))["plan"]
        assert plan["kind"] == "actuator_zero" and plan["zeta"] == {"re": 1.1, "im": 0.0}
        results = {}
        for mode in ("single_rate", "dual_rate"):
            res = run_cli("simulate", "--plant", fat, "--plan", f"{out}/plan.json",
                          "--mode", mode, "--out", out)
            assert res.returncode == 0, res.stderr
            results[mode] = json.load(open(f"{out}/verdict.json"))["result"]
        assert results["single_rate"]["verdict"] == "stealthy"
        assert results["single_rate"]["max_monitor"] <= 0.01 / 2.0
        assert results["dual_rate"]["verdict"] == "detected"

    def test_dependent_inputs_mask_each_other(self, plant_files, tmp_path):
        # a square plant whose two inputs share one direction has a pencil
        # of deficient normal rank: analyze says "yes" as for a fat plant,
        # and attack's plan along the null direction (-1, 1) replays
        # stealthy at single rate while the injection grows without bound
        dependent = plant_files["dependent"]
        res = run_cli("analyze", "--plant", dependent)
        assert res.returncode == 0, res.stderr
        single = json.loads(res.stdout)["single_rate"]
        assert single["zero_report"]["normal_rank"] == 3
        verdict = single["verdict"]
        assert (verdict["actuator_stealthy"], verdict["actuator_mechanism"]) == ("yes", "fat_plant")
        out = str(tmp_path / "dependent")
        res = run_cli("attack", "--plant", dependent, "--out", out)
        assert res.returncode == 0, res.stderr
        plan = json.load(open(f"{out}/plan.json"))["plan"]
        assert plan["kind"] == "actuator_zero" and plan["zeta"] == {"re": 1.1, "im": 0.0}
        res = run_cli("simulate", "--plant", dependent, "--plan", f"{out}/plan.json", "--out", out)
        assert res.returncode == 0, res.stderr
        result = json.load(open(f"{out}/verdict.json"))["result"]
        assert result["verdict"] == "stealthy" and result["max_monitor"] <= 0.01 / 2.0
        rows = (tmp_path / "dependent" / "trace.csv").read_text().splitlines()
        header, last = rows[0].split(","), rows[-1].split(",")
        d_a = [abs(float(last[header.index(f"da_{i}")])) for i in (1, 2)]
        assert min(d_a) >= 1e12

    def test_invulnerable_plant_exit_3(self, plant_files):
        res = run_cli("attack", "--plant", plant_files["double"])
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert "not vulnerable" in err["message"]

    def test_sensor_attack(self, plant_files, tmp_path):
        out = str(tmp_path / "sens")
        res = run_cli(
            "attack", "--plant", plant_files["unstable"], "--kind", "sensor",
            "--theta", "0.01", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        plan_doc = json.load(open(f"{out}/plan.json"))
        assert plan_doc["plan"]["kind"] == "sensor_pole"
        assert abs(plan_doc["plan"]["zeta"]["re"] - 2.0) < 1e-9

    def test_dual_rate_sensor_attack_replays_stealthy(self, plant_files, tmp_path):
        # the plan rides the lifted pole over the m stacked outputs of a
        # base step; the dual-rate loop renders it sample by sample
        out = str(tmp_path / "dual")
        loop = ("--plant", plant_files["unstable"], "--mode", "dual_rate", "--out", out)
        res = run_cli("attack", "--kind", "sensor", *loop)
        assert res.returncode == 0, res.stderr
        plan_doc = json.load(open(f"{out}/plan.json"))
        assert plan_doc["plan"]["kind"] == "sensor_pole"
        assert len(plan_doc["plan"]["direction"]) == plan_doc["loop"]["m"] == 2
        res = run_cli("simulate", "--plan", f"{out}/plan.json", *loop)
        assert res.returncode == 0, res.stderr
        result = json.load(open(f"{out}/verdict.json"))["result"]
        assert result["verdict"] == "stealthy"
        assert result["max_monitor"] <= 0.01 / 2.0

    @pytest.mark.parametrize(
        "loop, loop_m",
        [(("--mode", "dual_rate", "--m", "3"), 3), ((), 1)],
        ids=["dual_rate_m3", "single_rate"],
    )
    def test_lifted_sensor_plan_replays_only_at_its_m(
        self, plant_files, tmp_path, loop, loop_m
    ):
        # the plan's channels are the two stacked outputs of the m = 2 loop
        out = str(tmp_path / "dual")
        res = run_cli(
            "attack", "--kind", "sensor", "--plant", plant_files["unstable"],
            "--mode", "dual_rate", "--m", "2", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "simulate", "--plan", f"{out}/plan.json", "--plant", plant_files["unstable"],
            *loop, "--out", out,
        )
        assert res.returncode == 5
        err = json.loads(res.stderr)
        assert err["error"] == "ConfigurationError"
        assert "m=2" in err["message"] and f"m={loop_m}" in err["message"]
        assert not (tmp_path / "dual" / "verdict.json").exists()

    @pytest.mark.parametrize(
        "loop, code",
        [(("--mode", "dual_rate", "--m", "2"), 0), (("--mode", "dual_rate", "--m", "3"), 5),
         ((), 5)],
        ids=["dual_rate_m2", "dual_rate_m3", "single_rate"],
    )
    def test_lifted_coordinated_plan_replays_only_at_its_m(self, plant_files, tmp_path, loop, code):
        # the guard reads the width of the sensor part, whatever the kind:
        # a coordinated plan of the m = 2 loop rides its stacked outputs
        plant = unstable_scalar()
        plan = synth_coordinated_attack(standard_loop(build_lifted(plant, 1.0, 2)))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"plan": plan_to_dict(plan),
                                    "loop": {"mode": "dual_rate", "T": 1.0, "m": 2}}))
        out = tmp_path / "replay"
        res = run_cli("simulate", "--plan", str(path), "--plant", plant_files["unstable"],
                      *loop, "--out", str(out))
        assert res.returncode == code, res.stderr
        if code == 0:
            assert json.load(open(out / "verdict.json"))["result"]["verdict"] == "stealthy"
        else:
            assert json.loads(res.stderr)["error"] == "ConfigurationError"
            assert not (out / "verdict.json").exists()

    def test_double_integrator_sensor_attack_agrees_with_analyze(self, plant_files):
        # repeated boundary poles: analyze's sensor verdict is "undecided",
        # and attack names it instead of calling the plant not vulnerable
        res = run_cli("analyze", "--plant", plant_files["double"])
        assert json.loads(res.stdout)["single_rate"]["verdict"]["sensor_stealthy"] == "undecided"
        res = run_cli("attack", "--plant", plant_files["double"], "--kind", "sensor")
        assert res.returncode == 3
        message = json.loads(res.stderr)["message"]
        assert "undecided" in message and "not vulnerable" not in message

    def test_weight_overrides_accepted(self, plant_files, tmp_path):
        out = str(tmp_path / "w")
        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--horizon", "20",
            "--Q", "5", "--R", "[[0.5]]", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        assert json.load(open(f"{out}/verdict.json"))["result"]["verdict"] == "stealthy"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--Q", "nan", "--Q must be finite, got nan"),
            ("--Q", "inf", "--Q must be finite, got inf"),
            ("--R", "nan", "--R must be finite, got nan"),
            ("--Q", "[[NaN]]", "--Q must be finite, got [[NaN]]"),
            ("--R", "[[1e999]]", "--R must be finite, got [[1e999]]"),
            ("--Q", '{"a": 1}', "--Q must be a number or a matrix of numbers"),
            ("--R", "0", "R must be positive definite"),
            # np.asarray reads a JSON boolean as 1, alone or among numbers
            ("--Q", "true", "--Q must be a number or a matrix of numbers"),
            ("--R", "[[true]]", "--R must be a number or a matrix of numbers"),
            ("--Q", "[[1, true]]", "--Q must be a number or a matrix of numbers"),
        ],
    )
    def test_invalid_weight_exit_2(self, plant_files, tmp_path, capsys, flag, value, message):
        # every invalid weight is a caller error of one class: non-finite
        # entries used to exit 4 and a JSON object with a traceback
        from liftguard import cli

        argv = ["simulate", "--plant", plant_files["unstable"], "--horizon", "5",
                flag, value, "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"].startswith(message)
        assert not any(tmp_path.iterdir())

    def test_simulate_without_plan_is_baseline(self, plant_files, tmp_path):
        out = str(tmp_path / "base")
        res = run_cli(
            "simulate", "--plant", plant_files["stable"], "--horizon", "20",
            "--out", out,
        )
        assert res.returncode == 0
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "stealthy"
        assert verdict["result"]["max_monitor"] == 0.0


def _count_designs(monkeypatch):
    """Count the loop designs (``coprime_factorize`` as ``standard_loop``
    calls it) and the Riccati solves (``linalg.dare_gain``) from here on."""
    from liftguard import linalg, sim

    calls = {"coprime_factorize": 0, "dare_gain": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "coprime_factorize",
                        counted("coprime_factorize", sim.coprime_factorize))
    monkeypatch.setattr(linalg, "dare_gain", counted("dare_gain", linalg.dare_gain))
    return calls


class TestRecordedLoop:
    """``plan.json`` records the controller ``attack`` calibrated on, and
    ``simulate --plan`` closes its own loop through it when the loop is
    the plan's: same plant file, T, mode, m, Q and R."""

    @staticmethod
    def _attack(cli, plant, out, *loop):
        assert cli.main(["attack", "--plant", plant, *loop, "--out", str(out)]) == 0
        return json.loads((out / "plan.json").read_text())

    @pytest.mark.parametrize(
        "plant, loop",
        [
            ("triple", ()),
            ("triple", ("--Q", "2", "--R", "[[0.5]]")),
            ("fat", ()),
            ("unstable", ("--kind", "sensor")),
            ("unstable", ("--kind", "sensor", "--mode", "dual_rate", "--m", "2")),
        ],
        ids=["triple", "triple_weighted", "fat", "sensor", "sensor_dual_rate"],
    )
    def test_matching_replay_designs_no_loop(
        self, plant_files, tmp_path, monkeypatch, capsys, plant, loop
    ):
        from liftguard import cli

        plan_doc = self._attack(cli, plant_files[plant], tmp_path / "plan", *loop)
        K = plan_doc["loop"]["controller"]
        assert sorted(K) == ["A", "B", "C"] and len(K["A"]) == len(K["C"][0])
        without = tmp_path / "without.json"
        del plan_doc["loop"]["controller"]
        without.write_text(json.dumps(plan_doc))
        flags = [flag for flag in loop if flag not in ("--kind", "sensor")]
        replays = []
        for path, designs, solves in [(tmp_path / "plan" / "plan.json", 0, 0), (without, 1, 1)]:
            calls = _count_designs(monkeypatch)
            argv = ["simulate", "--plant", plant_files[plant], "--plan", str(path), *flags,
                    "--out", str(tmp_path / "replay")]
            assert cli.main(argv) == 0
            assert calls == {"coprime_factorize": designs, "dare_gain": solves}
            replays.append([(tmp_path / "replay" / name).read_bytes()
                            for name in ("trace.csv", "verdict.json")])
        capsys.readouterr()
        assert replays[0][0] == replays[1][0]
        assert _untimed(replays[0][1].decode()) == _untimed(replays[1][1].decode())

    @pytest.mark.parametrize(
        "flags",
        [("--Q", "2"), ("--mode", "dual_rate"), ("--T", "0.5"), ("edited",)],
        ids=["Q", "dual_rate", "T", "edited_plant_file"],
    )
    def test_other_loop_designs_anew(self, plant_files, tmp_path, monkeypatch, capsys, flags):
        from liftguard import cli

        assert "controller" in self._attack(cli, plant_files["triple"], tmp_path)["loop"]
        plant = plant_files["triple"]
        if flags == ("edited",):
            # the same plant, other bytes: the plan's input_sha256 no longer matches
            edited = tmp_path / "triple_edited.json"
            edited.write_text(json.dumps(json.loads(open(plant).read()), indent=1))
            plant, flags = str(edited), ()
        calls = _count_designs(monkeypatch)
        argv = ["simulate", "--plant", plant, "--plan", str(tmp_path / "plan.json"), *flags,
                "--horizon", "20", "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == {"coprime_factorize": 1, "dare_gain": 1}

    @pytest.mark.parametrize(
        "controller, message",
        [
            ("abc", "TypeError"),
            ({"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [1.0]], "C": [[1.0, 1.0]]},
             "A has shape (2, 2), expected (3, 3)"),
            ({"A": [[0.5, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 0.5]],
              "B": [[1.0], [1.0], [1.0]], "C": [[1.0, 1.0, 1.0]]}, "non-finite"),
        ],
        ids=["string", "wrong_order", "non_finite"],
    )
    def test_bad_recorded_controller_exit_2(
        self, plant_files, tmp_path, capsys, controller, message
    ):
        from liftguard import cli

        plan_doc = self._attack(cli, plant_files["triple"], tmp_path)
        plan_doc["loop"]["controller"] = controller
        (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
        capsys.readouterr()
        argv = ["simulate", "--plant", plant_files["triple"], "--plan",
                str(tmp_path / "plan.json"), "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'loop.controller'" in err["message"] and message in err["message"]
        assert not (tmp_path / "replay").exists()

    def test_destabilizing_controller_exit_5(self, plant_files, tmp_path, capsys):
        # a hand-edited controller is replayed as given: a zero controller
        # leaves the pole at 2 in the loop, and the stability refusal holds
        from liftguard import cli

        plan_doc = self._attack(cli, plant_files["unstable"], tmp_path, "--kind", "sensor")
        plan_doc["loop"]["controller"] = {"A": [[0.0]], "B": [[0.0]], "C": [[0.0]]}
        (tmp_path / "plan.json").write_text(json.dumps(plan_doc))
        capsys.readouterr()
        argv = ["simulate", "--plant", plant_files["unstable"], "--plan",
                str(tmp_path / "plan.json"), "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "closed loop is unstable" in err["message"]
        assert not (tmp_path / "replay" / "verdict.json").exists()


class TestChecksOnce:
    """Each input is checked once, where it is read: ``--m`` with the plant
    file on every plant command, the plan file after the loop it replays
    on is set up and before its controller is designed."""

    @pytest.mark.parametrize("command", [("attack",), ("simulate", "--horizon", "5")],
                             ids=["attack", "simulate"])
    def test_single_rate_m_word_exit_2(self, plant_files, tmp_path, capsys, command):
        # a single-rate loop reads no m, and --m x used to exit 0 there
        from liftguard import cli

        argv = [*command, "--plant", plant_files["unstable"], "--m", "x",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "argument --m: expected an integer or 'auto', got 'x'"}
        assert not (tmp_path / "out").exists()

    def test_refused_replay_designs_no_loop(self, plant_files, tmp_path, monkeypatch, capsys):
        # the m = 2 sensor plan rides two stacked outputs; at m = 3 the
        # refusal used to come after the loop's two Riccati solves
        from liftguard import cli

        plan = tmp_path / "plan"
        assert cli.main(["attack", "--kind", "sensor", "--plant", plant_files["unstable"],
                         "--mode", "dual_rate", "--m", "2", "--out", str(plan)]) == 0
        capsys.readouterr()
        calls = _count_designs(monkeypatch)
        argv = ["simulate", "--plant", plant_files["unstable"], "--plan",
                str(plan / "plan.json"), "--mode", "dual_rate", "--m", "3",
                "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError" and "m=2" in err["message"]
        assert calls == {"coprime_factorize": 0, "dare_gain": 0}
        assert not (tmp_path / "replay").exists()

    @staticmethod
    def _edited_sensor_plan(cli, plant, tmp_path, capsys, **fields):
        """pole-at-2's sensor plan with ``fields`` of its ``plan`` replaced."""
        assert cli.main(["attack", "--kind", "sensor", "--plant", plant,
                         "--out", str(tmp_path / "plan")]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "plan" / "plan.json").read_text())
        doc["plan"].update(fields)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("actuator_zero", "[3] places actuator channel 3, past the 1 inputs of the plant"),
            ("sensor_pole", "[3] places sensor channel 3, past the 1 outputs of the loop"),
        ],
        ids=["actuator", "sensor"],
    )
    def test_channel_past_the_plant_designs_no_loop(
        self, plant_files, tmp_path, monkeypatch, capsys, kind, message
    ):
        # replayed with --Q 2, so the recorded controller is not reused: an
        # actuator channel past the inputs used to be refused only when the
        # designed loop rendered the plan
        from liftguard import cli

        plan = self._edited_sensor_plan(cli, plant_files["unstable"], tmp_path, capsys,
                                        kind=kind, channel_map=[3])
        calls = _count_designs(monkeypatch)
        argv = ["simulate", "--plant", plant_files["unstable"], "--plan", plan, "--Q", "2",
                "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"plan channel_map {message}")
        assert calls == {"coprime_factorize": 0, "dare_gain": 0}
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("flags", [(), ("--horizon", "20")], ids=["no_flag", "horizon_flag"])
    @pytest.mark.parametrize("horizon", [0, -4])
    def test_plan_horizon_below_one_exit_2(
        self, plant_files, tmp_path, monkeypatch, capsys, horizon, flags
    ):
        # such a plan used to be read: it exited 5 after its loop was
        # designed, or ran under --horizon 20
        from liftguard import cli

        plan = self._edited_sensor_plan(cli, plant_files["unstable"], tmp_path, capsys,
                                        horizon=horizon)
        calls = _count_designs(monkeypatch)
        argv = ["simulate", "--plant", plant_files["unstable"], "--plan", plan, *flags,
                "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"plan horizon must be at least one step, got {horizon}"}
        assert calls == {"coprime_factorize": 0, "dare_gain": 0}
        assert not (tmp_path / "replay").exists()

    def test_horizon_flag_below_one_exit_5(self, plant_files, tmp_path, capsys):
        # the flag is a loop parameter, refused when the loop is configured
        from liftguard import cli

        plan = self._edited_sensor_plan(cli, plant_files["unstable"], tmp_path, capsys)
        argv = ["simulate", "--plant", plant_files["unstable"], "--plan", plan,
                "--horizon", "0", "--out", str(tmp_path / "replay")]
        assert cli.main(argv) == 5
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigurationError",
                       "message": "horizon must be at least one step"}
        assert not (tmp_path / "replay" / "verdict.json").exists()

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (("--m", "1", "--Q", "nan"), 2, "--Q must be finite"),
            (("--m", "1", "--plan", "@bad"), 5, "must be at least 2"),
        ],
        ids=["flag_before_loop", "loop_before_plan_file"],
    )
    def test_two_faults_fail_in_check_order(
        self, plant_files, tmp_path, capsys, flags, code, message
    ):
        # the plant file and flags first, then the loop, then the plan file
        from liftguard import cli

        flags = [plant_files["bad"] if flag == "@bad" else flag for flag in flags]
        argv = ["simulate", "--plant", plant_files["triple"], "--mode", "dual_rate", *flags,
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == code
        assert message in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()


class TestLift:
    def test_lift_report(self, plant_files):
        res = run_cli("lift", "--plant", plant_files["triple"])
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["lifted"]["m"] == 4
        assert doc["lifted"]["assumptions"]["obs_full_rank"]
        assert doc["lifted"]["shift_consistency"]["consistent"]
        assert len(doc["lifted"]["C"]) == 4  # m stacked output rows

    def test_explicit_bad_m_exit_5(self, plant_files):
        res = run_cli("lift", "--plant", plant_files["triple"], "--m", "2")
        assert res.returncode == 5
        err = json.loads(res.stderr)
        assert "assumptions" in err["message"]

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_m_below_two_exit_5(self, plant_files, tmp_path, source):
        plant, extra = _m_one(plant_files, tmp_path, source)
        for cmd in (("lift",), ("simulate", "--mode", "dual_rate", "--horizon", "5")):
            res = run_cli(*cmd, "--plant", plant, *extra)
            assert res.returncode == 5, res.stderr
            assert "at least 2" in json.loads(res.stderr)["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("lift", "--m", "257"),
            ("simulate", "--mode", "dual_rate", "--m", "100000"),
            ("attack", "--mode", "dual_rate", "--m", "257"),
        ],
        ids=["lift", "simulate", "attack"],
    )
    def test_m_above_bound_exit_5(self, plant_files, tmp_path, monkeypatch, capsys, argv):
        # refused before anything is lifted: the loop design at m = 1000
        # did not finish in 60 s
        from liftguard import cli

        monkeypatch.setattr(cli, "build_lifted", None)
        command, *flags = argv
        full = [command, "--plant", plant_files["unstable"], *flags, "--out", str(tmp_path)]
        assert cli.main(full) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert f"m={flags[-1]}" in err["message"] and "at most 256" in err["message"]
        assert "item 17" in err["message"]

    def test_m_above_bound_reported_under_dual_rate(self, plant_files, tmp_path, capsys):
        from liftguard import cli

        path = tmp_path / "unstable_m.json"
        path.write_text(json.dumps({**json.loads(open(plant_files["unstable"]).read()),
                                    "m": 100000}))
        for argv in (["--plant", plant_files["unstable"], "--m", "100000"],
                     ["--plant", str(path)]):
            assert cli.main(["analyze", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["single_rate"]["verdict"]["sensor_stealthy"] == "yes"
            assert "at most 256" in doc["dual_rate"]["error"]

    @pytest.mark.parametrize(
        "command, flags, code",
        [
            ("analyze", (), 0),
            ("lift", (), 0),
            ("simulate", ("--mode", "dual_rate", "--horizon", "20"), 0),
            ("attack", ("--mode", "dual_rate"), 3),
        ],
        ids=["analyze", "lift", "simulate", "attack"],
    )
    def test_explicit_m_lifted_once(
        self, plant_files, tmp_path, monkeypatch, command, flags, code
    ):
        from liftguard import cli

        calls = []

        def counted(*args):
            calls.append(args[2])
            return build_lifted(*args)

        monkeypatch.setattr(cli, "build_lifted", counted)
        argv = [command, "--plant", plant_files["triple"], "--m", "4", *flags,
                "--out", str(tmp_path)]
        assert cli.main(argv) == code
        assert calls == [4]


    @pytest.mark.parametrize("m, expm_calls", [("4", 1), ("auto", 1)])
    def test_dual_rate_loop_samples_the_plant_once(
        self, plant_files, tmp_path, monkeypatch, m, expm_calls
    ):
        # an explicit m samples T/m once, for the rank check and the loop
        # alike; the automatic choice samples each candidate m once, and
        # for n = 3 and one output the first candidate is m = 4
        from liftguard import cli, linalg

        calls = []
        expm = linalg.expm
        monkeypatch.setattr(linalg, "expm", lambda M: calls.append(M.shape) or expm(M))
        argv = ["simulate", "--plant", plant_files["triple"], "--mode", "dual_rate",
                "--m", m, "--horizon", "20", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(calls) == expm_calls


class TestVerify:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, trials):
        res = run_cli("verify", "--trials", trials)
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "ValueError" and "trials" in err["message"]

    def test_negative_seed_exit_2_naming_it(self):
        res = run_cli("verify", "--trials", "1", "--seed", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "ValueError"
        assert err["message"] == "seed must be non-negative, got -1"

    def test_small_run_passes(self):
        res = run_cli("verify", "--trials", "6", "--seed", "2")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["all_passed"] is True
        names = {p["name"] for p in doc["properties"]}
        assert "negative_control_corrupted_lifted_block" in names

    def test_trial_error_is_a_failure(self, tmp_path, monkeypatch):
        # a lifted-block certificate that rejects everything makes
        # build_lifted raise inside the trials; verify still reports
        from liftguard import cli, lift

        monkeypatch.setattr(lift, "SHIFT_CONSISTENCY_TOL", -1.0)
        assert cli.main(["verify", "--trials", "4", "--out", str(tmp_path)]) == 4
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["all_passed"] is False
        failing = {p["name"]: p["failures"] for p in doc["properties"] if p["status"] == "fail"}
        # the four lifted properties read one build per trial, so each
        # fails on the same trial seeds
        assert list(failing) == [
            "lifted_structural_identities",
            "lifted_zeros_confined_to_unit_disc",
            "lifted_shift_consistency",
            "negative_control_corrupted_lifted_block",
        ]
        first = [entry["seed"] for entry in failing["lifted_structural_identities"]]
        seeds = [[entry["seed"] for entry in failures] for failures in failing.values()]
        assert len(first) == 2 and seeds == [first, first, first[:1], first[:1]]
        for failures in failing.values():
            for entry in failures:
                assert isinstance(entry["seed"], int)
                assert entry["detail"].startswith("ModelError: lifted blocks disagree")

    def test_failing_property_exit_4(self, tmp_path, monkeypatch, capsys):
        # the report is written and the exit code says a property failed
        from liftguard import cli, verify

        def forced(trial):
            return None, "forced failure"

        props = [(name, draw, forced if i == 1 else check, scale)
                 for i, (name, draw, check, scale) in enumerate(verify._PROPERTIES)]
        monkeypatch.setattr(verify, "_PROPERTIES", tuple(props))
        assert cli.main(["verify", "--trials", "2", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["all_passed"] is False
        status = {p["name"]: p["status"] for p in doc["properties"]}
        assert status.pop("bezout_identity_on_unit_circle") == "fail"
        assert set(status.values()) == {"pass"}
        failure = doc["properties"][1]["failures"][0]
        assert failure["detail"] == "forced failure" and "plant" not in failure


class TestDeterminism:
    @pytest.mark.parametrize("command", ["analyze", "attack", "verify"])
    def test_byte_identical_modulo_timestamp(self, plant_files, command):
        args = {
            "analyze": ("analyze", "--plant", plant_files["triple"]),
            "attack": ("attack", "--plant", plant_files["triple"], "--theta", "0.01"),
            "verify": ("verify", "--trials", "4", "--seed", "11"),
        }[command]
        outs = []
        for _ in range(2):
            res = run_cli(*args)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            doc.pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["analyze", "lift", "verify"])
    def test_analyze_does_not_depend_on_seed(self, plant_files, command):
        # only verify's --seed sets a seed: the environment sets none, and
        # the deterministic commands record none
        args = ("verify", "--trials", "3") if command == "verify" else (
            command, "--plant", plant_files["fat"])
        outs = []
        for env in (None, dict(os.environ, LIFTGUARD_SEED="7")):
            res = run_cli(*args, env=env)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            assert ("seed" in doc) == (command == "verify")
            outs.append(_untimed(res.stdout))
        assert outs[0] == outs[1]
        assert command != "verify" or doc["seed"] == 0


def _untimed(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


class TestParserCache:
    """``main`` builds its parser once per process and reuses it."""

    def test_calls_in_one_process_match_fresh_processes(self, plant_files, capsys):
        from liftguard import cli

        calls = [
            ("analyze", "--plant", plant_files["triple"], "--T", "0.5", "--m", "5"),
            ("lift", "--plant", plant_files["triple"], "--T", "2.0", "--no-such-flag"),
            ("lift", "--plant", plant_files["double"], "--m", "3"),
            ("verify", "--trials", "3", "--seed", "7"),
            ("verify", "--trials", "3"),
        ]
        codes = []
        for argv in calls:
            codes.append(cli.main(list(argv)))
            got = capsys.readouterr()
            fresh = run_cli(*argv)
            assert codes[-1] == fresh.returncode, argv
            assert _untimed(got.out) == _untimed(fresh.stdout), argv
            assert got.err == fresh.stderr, argv
        assert codes == [0, 2, 0, 0, 0]
        doc = json.loads(got.out)
        assert doc["seed"] == 0  # the --seed 7 of the call before did not stay

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("analyze", "@triple", "--T", "abc"), "argument --T: invalid float value: 'abc'"),
            (("analyze", "@triple", "--bogus"), "unrecognized arguments: --bogus"),
            (("verify", "--trials", "x"), "argument --trials: invalid int value: 'x'"),
            (("analyze", "@triple", "--seed", "1"), "unrecognized arguments: --seed 1"),
            (("attack", "@triple", "--seed", "1"), "unrecognized arguments: --seed 1"),
            (("simulate", "@triple", "--seed", "1"), "unrecognized arguments: --seed 1"),
            (("lift", "@triple", "--seed", "1"), "unrecognized arguments: --seed 1"),
            (("simulate", "@triple", "--T", "abc"), "argument --T: invalid float value: 'abc'"),
            (("lift",), "the following arguments are required: --plant"),
            (("scan",), "argument command: invalid choice: 'scan'"),
            (("analyze", "@triple", "--m", "x"),
             "argument --m: expected an integer or 'auto', got 'x'"),
            (("simulate", "@triple", "--mode", "dual_rate", "--m", "1.5"),
             "argument --m: expected an integer or 'auto', got '1.5'"),
        ],
        ids=["analyze_T_word", "analyze_unknown_flag", "verify_trials_word", "analyze_seed",
             "attack_seed", "simulate_seed", "lift_seed", "simulate_T_word", "lift_no_plant",
             "unknown_command", "analyze_m_word", "simulate_m_fraction"],
    )
    def test_usage_error_is_one_json_line(self, plant_files, tmp_path, capsys, argv, message):
        from liftguard import cli

        argv = [a for arg in argv
                for a in (("--plant", plant_files["triple"]) if arg == "@triple" else (arg,))]
        argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        got = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, got.out, got.err)
        assert got.out == ""
        lines = got.err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError" and err["message"].startswith(message)
        assert not (tmp_path / "out").exists()

    def test_help_lists_seed_for_verify_only(self, capsys):
        from liftguard import cli

        for command in ("analyze", "attack", "simulate", "lift", "verify"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            got = capsys.readouterr()
            assert got.err == "" and got.out.startswith(f"usage: liftguard {command}")
            assert ("--seed" in got.out) == (command == "verify")

    def test_dispatch_reads_the_module_attribute(self, plant_files, monkeypatch, capsys):
        from liftguard import cli

        assert cli.main(["lift", "--plant", plant_files["double"]]) == 0
        seen = []

        def fake(args):
            seen.append((args.command, args.m))
            return 17

        monkeypatch.setattr(cli, "cmd_lift", fake)
        assert cli.main(["lift", "--plant", plant_files["double"], "--m", "2"]) == 17
        assert seen == [("lift", "2")]

    def test_version(self, capsys):
        from liftguard import __version__, cli

        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"{__version__}\n"
