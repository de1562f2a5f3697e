"""End-to-end command-line checks through main(argv)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorsched
from sensorsched import (ChannelModel, DqnConfig, ProcessModel, Scenario,
                         init_mlp, load_scenario, load_weights,
                         save_scenario, save_weights)
from sensorsched.cli import (EXIT_GENERATION, EXIT_IO, EXIT_OK,
                             EXIT_TRAINING, SEED_ENV_VAR, main)
from conftest import MISKINDED, resave_scenario

# Edits that keep a scenario file well formed but leave it unusable.
UNUSABLE_EDITS = {
    "more channels than sensors":
        lambda doc: doc.update(channels=doc["channels"] * 3),
    "no channels": lambda doc: doc.update(channels=[]),
    "diverging Riccati recursion":
        lambda doc: doc["processes"][0].update(
            A=[[1e160]], C=[[1.0]], W=[[1.0]], V=[[1.0]]),
    "W overflows when symmetrized":
        lambda doc: doc["processes"][0].update(W=[[1.7e308, 0.0], [0.0, 1.0]]),
    # 1e18 * [[1, 1], [1, 1]] + I rounds to a singular innovation
    # covariance, so the first gain solve raises LinAlgError
    "singular innovation covariance":
        lambda doc: doc["processes"][0].update(
            A=[[1e9]], C=[[1.0], [1.0]], W=[[1.0]],
            V=[[1.0, 0.0], [0.0, 1.0]]),
}
TINY_CONFIG = {"episodes": 2, "episode_length": 30, "hidden_sizes": [8],
               "minibatch_size": 4, "replay_capacity": 64}
# Config files that parse as JSON but cannot configure a run, each with
# the text its error must show.
BAD_CONFIGS = {
    "fractional episodes": ({**TINY_CONFIG, "episodes": 2.5}, "episodes"),
    "boolean episodes": ({**TINY_CONFIG, "episodes": True}, "episodes"),
    "negative lr_initial": ({**TINY_CONFIG, "lr_initial": -1}, "lr_initial"),
    "infinite lr_initial": ({**TINY_CONFIG, "lr_initial": float("inf")},
                            "lr_initial"),
    "infinite lr_decay": ({**TINY_CONFIG, "lr_decay": float("inf")},
                          "lr_decay"),
    "negative seed": ({**TINY_CONFIG, "seed": -3}, "seed"),
    "fractional minibatch": ({**TINY_CONFIG, "minibatch_size": 1.5,
                              "replay_capacity": 4}, "minibatch_size"),
    "string hidden_sizes": ({**TINY_CONFIG, "hidden_sizes": "12"},
                            "hidden_sizes"),
    "zero-width layer": ({**TINY_CONFIG, "hidden_sizes": [0]},
                         "hidden_sizes"),
    "string discount": ({**TINY_CONFIG, "discount": "0.9"}, "discount"),
    "null epsilon_start": ({**TINY_CONFIG, "epsilon_start": None},
                           "epsilon_start"),
    "boolean lr_initial": ({**TINY_CONFIG, "lr_initial": True}, "lr_initial"),
    "huge lr_decay": ({**TINY_CONFIG, "lr_decay": 10**400}, "lr_decay"),
    "number": (42, "JSON object"),
    "null": (None, "JSON object"),
    "string": ("episodes", "JSON object"),
}
# A byte-order mark of UTF-16, which no UTF-8 decoder accepts.
NOT_UTF8 = b"\xff\xfe\x00"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scn.json"
    assert main(["gen-scenario", "--n", "4", "--m", "2", "--seed", "3",
                 "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


class TestGenScenario:
    def test_writes_loadable_file(self, scenario_file, capsys):
        scn = load_scenario(scenario_file)
        assert len(scn.processes) == 4
        assert len(scn.channels) == 2

    def test_impossible_request_exits_generation_code(self, tmp_path):
        code = main(["gen-scenario", "--n", "2", "--m", "5",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_GENERATION

    @pytest.mark.parametrize("n, m", [(4, 0), (0, 0)])
    def test_zero_channels_exits_generation_code(self, tmp_path, n, m,
                                                 capsys):
        out = tmp_path / "x.json"
        code = main(["gen-scenario", "--n", str(n), "--m", str(m),
                     "--out", str(out)])
        assert code == EXIT_GENERATION
        assert "n_channels" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_sets_default_seed(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        main(["gen-scenario", "--n", "3", "--m", "1", "--out", str(a)])
        monkeypatch.delenv(SEED_ENV_VAR)
        main(["gen-scenario", "--n", "3", "--m", "1", "--seed", "7",
              "--out", str(b)])
        main(["gen-scenario", "--n", "3", "--m", "1", "--seed", "8",
              "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_seed_flag_wins_over_env_var(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        main(["gen-scenario", "--n", "3", "--m", "1", "--seed", "8",
              "--out", str(a)])
        monkeypatch.delenv(SEED_ENV_VAR)
        main(["gen-scenario", "--n", "3", "--m", "1", "--seed", "8",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_var_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code = main(["gen-scenario", "--n", "3", "--m", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_IO


class TestTrain:
    def test_produces_weights_and_curve(self, scenario_file, config_file,
                                        tmp_path):
        wpath = tmp_path / "w.bin"
        cpath = tmp_path / "curve.csv"
        code = main(["train", "--scenario", str(scenario_file),
                     "--config", str(config_file),
                     "--weights-out", str(wpath),
                     "--curve-out", str(cpath), "--seed", "0"])
        assert code == EXIT_OK
        params = load_weights(wpath)
        assert params.layer_sizes == (2 * 4 + 2, 8, 12)  # 4P2 = 12 actions
        lines = cpath.read_text().splitlines()
        assert lines[0] == "episode,avg_cost,epsilon,lr,wall_seconds"
        assert len(lines) == 1 + TINY_CONFIG["episodes"]

    def test_missing_scenario_exits_io_code(self, tmp_path, config_file):
        code = main(["train", "--scenario", str(tmp_path / "absent.json"),
                     "--config", str(config_file),
                     "--weights-out", str(tmp_path / "w.bin")])
        assert code == EXIT_IO

    # use_replay and normalize_obs were config keys once; files that
    # still name them are rejected like any other unknown key
    @pytest.mark.parametrize("key", ["learning_rate", "use_replay",
                                     "normalize_obs"])
    def test_unknown_config_key_exits_io_code(self, scenario_file, tmp_path,
                                              key, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"episodes": 2, key: False}))
        code = main(["train", "--scenario", str(scenario_file),
                     "--config", str(bad),
                     "--weights-out", str(tmp_path / "w.bin")])
        assert code == EXIT_IO
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", BAD_CONFIGS.values(),
                             ids=BAD_CONFIGS.keys())
    def test_bad_config_exits_io_code(self, scenario_file, tmp_path, doc,
                                      named, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        weights = tmp_path / "w.bin"
        code = main(["train", "--scenario", str(scenario_file),
                     "--config", str(bad), "--weights-out", str(weights)])
        assert code == EXIT_IO
        assert named in capsys.readouterr().err
        assert not weights.exists()

    def test_config_not_utf8_exits_io_code(self, scenario_file, tmp_path,
                                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_UTF8)
        code = main(["train", "--scenario", str(scenario_file),
                     "--config", str(bad),
                     "--weights-out", str(tmp_path / "w.bin")])
        assert code == EXIT_IO
        assert "bad.json" in capsys.readouterr().err

    # numpy refuses a 10**18-row replay memory before allocating anything
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_agent_too_large_to_allocate_exits_training_code(
            self, scenario_file, tmp_path, command, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({**TINY_CONFIG,
                                    "replay_capacity": 10**18}))
        out = tmp_path / "out"
        flags = {"train": ["--weights-out", str(out)],
                 "compare": ["--out", str(out), "--eval-steps", "10"]}
        code = main([command, "--scenario", str(scenario_file),
                     "--config", str(huge), *flags[command]])
        assert code == EXIT_TRAINING
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "replay capacity 1000000000000000000" in err[0]
        assert not out.exists()

    def test_seed_precedence(self, scenario_file, tmp_path, monkeypatch):
        # the --seed flag, then the config file, then SENSORSCHED_SEED
        def weights(env, file_seed, flag):
            if env is None:
                monkeypatch.delenv(SEED_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(SEED_ENV_VAR, env)
            cfg = tmp_path / "cfg.json"
            doc = TINY_CONFIG if file_seed is None else {**TINY_CONFIG,
                                                         "seed": file_seed}
            cfg.write_text(json.dumps(doc))
            out = tmp_path / "w.bin"
            argv = ["train", "--scenario", str(scenario_file), "--config",
                    str(cfg), "--weights-out", str(out)]
            assert main(argv + ([] if flag is None else ["--seed", flag])
                        ) == EXIT_OK
            return out.read_bytes()
        assert weights(None, None, "5") != weights(None, None, "6")
        assert weights("5", None, None) == weights(None, None, "5")
        assert weights("5", 6, None) == weights(None, None, "6")
        assert weights("5", 6, "7") == weights(None, None, "7")

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("Omitted fields keep their defaults:")[1]
        example = json.loads(block.split("```json")[1].split("```")[0])
        assert list(example) and set(example) == {
            f.name for f in dataclasses.fields(DqnConfig)}


class TestEval:
    def test_all_baselines_run(self, scenario_file, tmp_path):
        for policy in ["random", "roundrobin", "greedy-tau", "greedy-cov"]:
            out = tmp_path / f"{policy}.json"
            code = main(["eval", "--scenario", str(scenario_file),
                         "--policy", policy, "--steps", "500",
                         "--out", str(out)])
            assert code == EXIT_OK
            report = json.loads(out.read_text())
            assert report["policy"] == policy
            assert report["steps"] == 500

    def test_dqn_roundtrip_through_files(self, scenario_file, config_file,
                                         tmp_path):
        wpath = tmp_path / "w.bin"
        main(["train", "--scenario", str(scenario_file),
              "--config", str(config_file), "--weights-out", str(wpath),
              "--seed", "0"])
        out = tmp_path / "dqn.json"
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "dqn", "--weights", str(wpath),
                     "--steps", "500", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["policy"] == "dqn"

    def test_dqn_without_weights_exits_io_code(self, scenario_file):
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "dqn", "--steps", "100"])
        assert code == EXIT_IO

    # the 4x2 scenario needs 10 inputs and 12 outputs
    @pytest.mark.parametrize("sizes", [(8, 4, 6), (10, 4, 6), (8, 4, 12)])
    def test_dqn_weights_of_another_shape_exit_io_code(
            self, scenario_file, tmp_path, sizes, capsys):
        wpath = tmp_path / "w.bin"
        save_weights(init_mlp(sizes, np.random.default_rng(0)), wpath)
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "dqn", "--weights", str(wpath),
                     "--steps", "100"])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert str(sizes) in err and "10 inputs and 12 outputs" in err

    def test_dqn_weights_not_finite_exit_io_code(self, scenario_file,
                                                 tmp_path, capsys):
        params = init_mlp((10, 8, 12), np.random.default_rng(0))
        params.flat[3] = np.nan
        wpath = tmp_path / "w.bin"
        save_weights(params, wpath)
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "dqn", "--weights", str(wpath),
                     "--steps", "100"])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err

    def test_dqn_weights_that_overflow_exit_io_code(self, scenario_file,
                                                    tmp_path, capsys):
        # every parameter is finite, but the first forward pass is not
        params = init_mlp((10, 8, 12), np.random.default_rng(0))
        params.flat[:] *= 1e300
        wpath = tmp_path / "w.bin"
        save_weights(params, wpath)
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "dqn", "--weights", str(wpath),
                     "--steps", "100"])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "overflow" in captured.err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_is_a_usage_error(self, scenario_file, steps):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--scenario", str(scenario_file),
                  "--policy", "random", "--steps", steps])
        assert info.value.code == 2

    def test_step_count_too_large_to_allocate_exits_training_code(
            self, scenario_file, capsys):
        # numpy refuses 10**20 entries before it allocates anything
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "random", "--steps", str(10**20)])
        assert code == EXIT_TRAINING
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(10**20) in err[0]

    def test_overflow_step_is_printed(self, tmp_path, capsys):
        # an unstable process on a channel that never delivers: its trace
        # overflows float64 near holding time 512
        path = tmp_path / "starved.json"
        save_scenario(Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0), path)
        code = main(["eval", "--scenario", str(path), "--policy", "random",
                     "--steps", "2000"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("avg_cost=inf")
        assert lines[1].startswith("cost overflowed at step ")

    def test_corrupted_scenario_exits_io_code(self, scenario_file):
        raw = json.loads(scenario_file.read_text())
        raw["seed"] = raw["seed"] + 1
        scenario_file.write_text(json.dumps(raw, sort_keys=True, indent=2))
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "random", "--steps", "100"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("edit", UNUSABLE_EDITS.values(),
                             ids=UNUSABLE_EDITS.keys())
    def test_unusable_scenario_exits_io_code(self, scenario_file, edit):
        resave_scenario(scenario_file, edit)
        code = main(["eval", "--scenario", str(scenario_file),
                     "--policy", "random", "--steps", "100"])
        assert code == EXIT_IO

    def test_scenario_not_utf8_exits_io_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_UTF8)
        code = main(["eval", "--scenario", str(bad), "--policy", "random",
                     "--steps", "100"])
        assert code == EXIT_IO
        assert "bad.json" in capsys.readouterr().err

    def test_unknown_policy_is_a_usage_error(self, scenario_file):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--scenario", str(scenario_file),
                  "--policy", "mystery"])
        assert info.value.code == 2

    def test_identical_seeds_identical_reports(self, scenario_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["eval", "--scenario", str(scenario_file),
                  "--policy", "greedy-cov", "--steps", "800",
                  "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def test_writes_full_table(self, scenario_file, config_file, tmp_path):
        out = tmp_path / "table.csv"
        curve = tmp_path / "curve.csv"
        code = main(["compare", "--scenario", str(scenario_file),
                     "--config", str(config_file), "--out", str(out),
                     "--curve-out", str(curve), "--eval-steps", "400",
                     "--seed", "0"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,avg_cost,steps,seed,note"
        policies = [line.split(",")[0] for line in lines[1:]]
        assert policies == ["random", "roundrobin", "greedy-tau",
                            "greedy-cov", "dqn", "dqn-ablated"]
        assert curve.exists()

    # training diverges in episode 0, as in the harness divergence test
    def test_curve_written_when_dqn_diverges_in_first_episode(self,
                                                              tmp_path):
        scn = tmp_path / "dead.json"
        save_scenario(Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0), scn)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "episode_length": 600,
                                   "hidden_sizes": [4]}))
        curve = tmp_path / "curve.csv"
        code = main(["compare", "--scenario", str(scn), "--config", str(cfg),
                     "--out", str(tmp_path / "table.csv"),
                     "--curve-out", str(curve), "--eval-steps", "400"])
        assert code == EXIT_OK
        assert curve.read_text().splitlines() == [
            "episode,avg_cost,epsilon,lr,wall_seconds"]

    def test_eval_steps_below_one_is_a_usage_error(self, scenario_file,
                                                  tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["compare", "--scenario", str(scenario_file),
                  "--out", str(tmp_path / "t.csv"), "--eval-steps", "0"])
        assert info.value.code == 2

    def test_no_ablation_flag(self, scenario_file, config_file, tmp_path):
        out = tmp_path / "table.csv"
        main(["compare", "--scenario", str(scenario_file),
              "--config", str(config_file), "--out", str(out),
              "--eval-steps", "300", "--no-ablation", "--seed", "0"])
        policies = [line.split(",")[0]
                    for line in out.read_text().splitlines()[1:]]
        assert policies == ["random", "roundrobin", "greedy-tau",
                            "greedy-cov", "dqn"]


class TestNegativeSeeds:
    @staticmethod
    def commands(scenario_file, config_file, tmp_path):
        scn, cfg = str(scenario_file), str(config_file)
        return {
            "gen-scenario": ["gen-scenario", "--n", "3", "--m", "1",
                             "--out", str(tmp_path / "x.json")],
            "train": ["train", "--scenario", scn, "--config", cfg,
                      "--weights-out", str(tmp_path / "w.bin")],
            "eval": ["eval", "--scenario", scn, "--policy", "random",
                     "--steps", "100"],
            "compare": ["compare", "--scenario", scn, "--config", cfg,
                        "--out", str(tmp_path / "t.csv"),
                        "--eval-steps", "100"],
        }

    @pytest.mark.parametrize("command",
                             ["gen-scenario", "train", "eval", "compare"])
    def test_negative_seed_flag_is_a_usage_error(
            self, scenario_file, config_file, tmp_path, command):
        argv = self.commands(scenario_file, config_file, tmp_path)[command]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--seed", "-1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command",
                             ["gen-scenario", "train", "eval", "compare"])
    def test_malformed_env_var_exits_io_code_even_with_seed_flag(
            self, scenario_file, config_file, tmp_path, command, monkeypatch,
            capsys):
        argv = self.commands(scenario_file, config_file, tmp_path)[command]
        monkeypatch.setenv(SEED_ENV_VAR, "bad")
        assert main(argv + ["--seed", "1"]) == EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"error: {SEED_ENV_VAR}='bad' is not a non-negative integer"]

    @pytest.mark.parametrize("command", ["gen-scenario", "train", "eval"])
    def test_negative_seed_env_var_exits_io_code(
            self, scenario_file, config_file, tmp_path, command, monkeypatch,
            capsys):
        argv = self.commands(scenario_file, config_file, tmp_path)[command]
        monkeypatch.setenv(SEED_ENV_VAR, "-2")
        assert main(argv) == EXIT_IO
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestCheckStability:
    def test_prints_report(self, scenario_file, capsys):
        code = main(["check-stability", "--scenario", str(scenario_file)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split(":")[0] for line in lines]
        assert keys == ["rho_max", "q_max", "margin", "satisfied"]
        assert lines[-1].split(": ")[1] in ("true", "false")

    @pytest.mark.parametrize("rewrite, shown", MISKINDED.values(),
                             ids=MISKINDED.keys())
    def test_value_of_another_kind_exits_io_code(self, scenario_file,
                                                 rewrite, shown, capsys):
        rewrite(scenario_file)
        code = main(["check-stability", "--scenario", str(scenario_file)])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and shown in captured.err


def test_exit_statuses_of_a_real_process(tmp_path):
    # every other test calls main() in-process; this one goes through
    # sys.exit(main()) in a fresh interpreter
    src = Path(sensorsched.__file__).resolve().parents[1]
    scn = str(tmp_path / "scn.json")

    def status(*args):
        return subprocess.run(
            [sys.executable, "-m", "sensorsched.cli", *args],
            capture_output=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)}).returncode

    assert status("gen-scenario", "--n", "4", "--m", "2", "--seed", "2",
                  "--out", scn) == EXIT_OK
    assert status("check-stability", "--scenario", scn) == EXIT_OK
    assert status("eval", "--scenario", scn, "--policy", "random",
                  "--steps", "0") == 2
    assert status("gen-scenario", "--n", "4", "--m", "0",
                  "--out", scn) == EXIT_GENERATION
    assert status("eval", "--scenario", scn, "--policy", "random",
                  "--steps", str(10**30)) == EXIT_TRAINING
    assert status("check-stability", "--scenario",
                  str(tmp_path / "missing.json")) == EXIT_IO


def test_cli_imports_only_the_standard_library_and_numpy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the CLI and building its parser loads
    script = ("import sys; before = set(sys.modules); "
              "import sensorsched.cli; sensorsched.cli.build_parser(); "
              "print(*sorted(set(sys.modules) - before))")
    src = Path(sensorsched.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "numpy" in loaded and "sensorsched" in loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "sensorsched"} == set()
