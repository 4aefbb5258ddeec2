import json
import math
import subprocess
import sys

import pytest

from liftguard import plant_to_dict

from helpers import double_integrator, stable_two_state, triple_integrator, unstable_scalar


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
        res = run_cli("analyze", "--plant", plant_files["triple"], "--seed", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert doc["dual_rate"]["m"] == 4
        assert doc["dual_rate"]["verdict"]["actuator_stealthy"] == "no"

    def test_triple_integrator_at_khz(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["triple"], "--T", "1e-3", "--seed", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "yes"
        assert doc["dual_rate"]["verdict"]["actuator_stealthy"] == "no"

    def test_stable_minimum_phase_all_no(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["stable"], "--seed", "1")
        doc = json.loads(res.stdout)
        assert doc["single_rate"]["verdict"]["actuator_stealthy"] == "no"
        assert doc["single_rate"]["verdict"]["sensor_stealthy"] == "no"

    def test_fat_plant_masking_verdict(self, plant_files):
        res = run_cli("analyze", "--plant", plant_files["fat"], "--seed", "1")
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


class TestAttackAndSimulate:
    def test_plan_then_replay(self, plant_files, tmp_path):
        out = str(tmp_path / "out")
        res = run_cli(
            "attack", "--plant", plant_files["triple"], "--theta", "0.01",
            "--seed", "5", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        plan_doc = json.load(open(f"{out}/plan.json"))
        assert plan_doc["plan"]["kind"] == "actuator_zero"
        assert "empirical_peak" in plan_doc["plan"]["calibration"]

        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            "--theta", "0.01", "--seed", "5", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "stealthy"
        header = open(f"{out}/trace.csv").readline().strip()
        assert header == "step,substep,time,u_1,y_1,da_1,ds_1,monitor,crossed"

        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            "--mode", "dual_rate", "--theta", "0.01", "--seed", "5", "--out", out,
        )
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "detected"

    @pytest.mark.parametrize("flags", [(), ("--horizon=50",), ("--hor", "50")])
    def test_replay_horizon(self, plant_files, tmp_path, flags):
        # without the flag the replay runs for the plan's horizon; either
        # spelling argparse accepts for the flag overrides it
        out = str(tmp_path / "h")
        res = run_cli("attack", "--plant", plant_files["triple"], "--seed", "5", "--out", out)
        assert res.returncode == 0, res.stderr
        plan_horizon = json.load(open(f"{out}/plan.json"))["plan"]["horizon"]
        assert plan_horizon != 50
        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--plan", f"{out}/plan.json",
            *flags, "--seed", "5", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        horizon = json.load(open(f"{out}/verdict.json"))["result"]["horizon"]
        assert horizon == (50 if flags else plan_horizon)

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

    def test_invulnerable_plant_exit_3(self, plant_files):
        res = run_cli("attack", "--plant", plant_files["double"], "--seed", "1")
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert "not vulnerable" in err["message"]

    def test_sensor_attack(self, plant_files, tmp_path):
        out = str(tmp_path / "sens")
        res = run_cli(
            "attack", "--plant", plant_files["unstable"], "--kind", "sensor",
            "--theta", "0.01", "--seed", "5", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        plan_doc = json.load(open(f"{out}/plan.json"))
        assert plan_doc["plan"]["kind"] == "sensor_pole"
        assert abs(plan_doc["plan"]["zeta"]["re"] - 2.0) < 1e-9

    def test_weight_overrides_accepted(self, plant_files, tmp_path):
        out = str(tmp_path / "w")
        res = run_cli(
            "simulate", "--plant", plant_files["triple"], "--horizon", "20",
            "--Q", "5", "--R", "[[0.5]]", "--seed", "1", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        assert json.load(open(f"{out}/verdict.json"))["result"]["verdict"] == "stealthy"

    def test_simulate_without_plan_is_baseline(self, plant_files, tmp_path):
        out = str(tmp_path / "base")
        res = run_cli(
            "simulate", "--plant", plant_files["stable"], "--horizon", "20",
            "--seed", "1", "--out", out,
        )
        assert res.returncode == 0
        verdict = json.load(open(f"{out}/verdict.json"))
        assert verdict["result"]["verdict"] == "stealthy"
        assert verdict["result"]["max_monitor"] == 0.0


class TestLift:
    def test_lift_report(self, plant_files):
        res = run_cli("lift", "--plant", plant_files["triple"], "--seed", "1")
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


class TestVerify:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, trials):
        res = run_cli("verify", "--trials", trials)
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "ValueError" and "trials" in err["message"]

    def test_small_run_passes(self):
        res = run_cli("verify", "--trials", "6", "--seed", "2")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["all_passed"] is True
        names = {p["name"] for p in doc["properties"]}
        assert "negative_control_corrupted_lifted_block" in names

    def test_seed_env_fallback(self, plant_files):
        import os

        env = dict(os.environ, LIFTGUARD_SEED="99")
        res = run_cli("analyze", "--plant", plant_files["double"], env=env)
        doc = json.loads(res.stdout)
        assert doc["seed"] == 99


class TestDeterminism:
    @pytest.mark.parametrize("command", ["analyze", "attack", "verify"])
    def test_byte_identical_modulo_timestamp(self, plant_files, command):
        args = {
            "analyze": ("analyze", "--plant", plant_files["triple"]),
            "attack": ("attack", "--plant", plant_files["triple"], "--theta", "0.01"),
            "verify": ("verify", "--trials", "4"),
        }[command]
        outs = []
        for _ in range(2):
            res = run_cli(*args, "--seed", "11")
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            doc.pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_analyze_does_not_depend_on_seed(self, plant_files):
        outs = []
        for seed in ("0", "7"):
            res = run_cli("analyze", "--plant", plant_files["fat"], "--seed", seed)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            doc.pop("seed")
            doc.pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]
