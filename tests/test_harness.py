"""Scenario generation, persistence, evaluation, and comparison table."""

import copy
import csv
import json
import warnings
from functools import reduce
from math import isnan
from operator import getitem

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (ChannelModel, ChecksumError, CompareRow, DqnConfig,
                         GenerationError, MalformedFileError, NumericalError,
                         PersistenceError, ProcessModel,
                         RiccatiConvergenceError, Scenario,
                         TrainingDivergedError, VersionMismatchError,
                         compare_all, evaluate_policy, harness, load_scenario,
                         make_policy, policy_random, save_scenario,
                         scenario_generate, stability_check,
                         write_compare_csv, write_eval_report)
from conftest import CSV_FLOATS, MISKINDED, resave_scenario

# Replacement values for a retyped field, and for one set out of range.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3), st.just([]), st.just({}),
                 st.lists(st.floats(-2.0, 2.0), max_size=3))
# Texts a CSV cell must carry unchanged: the characters csv has to quote
# or escape, and printable ASCII.
CSV_TEXT = st.text(st.one_of(st.characters(min_codepoint=32,
                                           max_codepoint=126),
                             st.sampled_from(',"\n\r')))
OUT_OF_RANGE = st.sampled_from([-1.0, 0.0, 1.5, 1e160, -1e160, 1e308,
                                float("inf"), float("-inf"), float("nan")])


def json_paths(node, path=()):
    """The key path of every field below a parsed JSON value."""
    if isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield path + (key,)
            yield from json_paths(node[key], path + (key,))


def draw_field(data, doc):
    """Key path of a random field: a top-level field, then any field in
    it, so a field such as ``seed`` comes up as often as ``processes``."""
    if not doc:
        return ()
    top = (data.draw(st.sampled_from(sorted(doc)), label="top"),)
    paths = [top] + [top + p for p in json_paths(doc[top[0]])]
    return data.draw(st.sampled_from(paths), label="field")


class TestGeneration:
    def test_deterministic_bitwise(self):
        a = scenario_generate(6, 3, seed=42)
        b = scenario_generate(6, 3, seed=42)
        for pa, pb in zip(a.processes, b.processes):
            assert np.array_equal(pa.A, pb.A)
            assert np.array_equal(pa.C, pb.C)
            assert np.array_equal(pa.W, pb.W)
            assert np.array_equal(pa.V, pb.V)
        assert [c.p for c in a.channels] == [c.p for c in b.channels]
        assert [c.q for c in a.channels] == [c.q for c in b.channels]

    def test_shapes_and_counts(self):
        scn = scenario_generate(4, 2, seed=7)
        assert len(scn.processes) == 4
        assert len(scn.channels) == 2
        assert len(scn.caches) == 4
        for p in scn.processes:
            assert p.A.shape == (2, 2)
            assert p.C.shape == (1, 2)
            assert p.W.shape == (2, 2)
            assert p.V.shape == (1, 1)

    def test_drawn_parameter_ranges(self):
        for seed in range(5, 10):
            scn = scenario_generate(6, 3, seed=seed)
            for p in scn.processes:
                assert np.allclose(p.A, p.A.T, atol=1e-12)
                eig = np.linalg.eigvalsh(p.A)
                assert np.all(np.abs(eig) <= 1.3 + 1e-12)
                assert np.all(np.linalg.eigvalsh(p.W) >= 0.2 - 1e-9)
                assert np.all(np.linalg.eigvalsh(p.W) <= 1.0 + 1e-9)
                assert np.all(np.linalg.eigvalsh(p.V) >= 0.2 - 1e-9)
                assert np.all((p.C >= 0) & (p.C <= 1))
            for c in scn.channels:
                assert 0 <= c.p <= 1 and 0 <= c.q <= 1

    def test_stability_enforced_by_default(self):
        for seed in range(1, 8):
            scn = scenario_generate(6, 3, seed=seed)
            assert stability_check(scn).satisfied

    def test_unstable_allowed_when_requested(self):
        found = False
        for seed in range(1, 40):
            scn = scenario_generate(6, 3, seed=seed, require_stable=False)
            if not stability_check(scn).satisfied:
                found = True
                break
        assert found, "no unstable draw in 40 seeds"

    def test_more_channels_than_sensors_rejected(self):
        with pytest.raises(GenerationError):
            scenario_generate(2, 3, seed=0)

    def test_zero_channels_rejected(self):
        with pytest.raises(GenerationError):
            scenario_generate(4, 0, seed=0)

    # each stand-in fails once, on the first attempt, then delegates
    @pytest.mark.parametrize("name, error", [
        ("_draw_process", ValueError("(A, C) must be observable")),
        ("steady_state_covariance", RiccatiConvergenceError("no fixed point")),
    ])
    def test_failed_attempt_is_redrawn(self, monkeypatch, name, error):
        assert scenario_generate(3, 1, seed=1, require_stable=False
                                 ).metadata["attempt"] == 0
        real = getattr(harness, name)
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error
            return real(*args)
        monkeypatch.setattr(harness, name, fails_once)
        scn = scenario_generate(3, 1, seed=1, require_stable=False)
        assert scn.metadata["attempt"] == 1

    def test_exhausted_attempts_raise(self, monkeypatch):
        def always_fails(rng):
            raise ValueError("(A, C) must be observable")
        monkeypatch.setattr(harness, "_draw_process", always_fails)
        monkeypatch.setattr(harness, "_MAX_ATTEMPTS", 3)
        with pytest.raises(GenerationError, match="3 attempts"):
            scenario_generate(3, 1, seed=1)

    def test_metadata_records_inputs(self):
        scn = scenario_generate(6, 3, seed=9)
        assert scn.seed == 9
        assert scn.metadata["require_stable"] is True
        assert scn.metadata["state_dim"] == 2
        assert scn.metadata["meas_dim"] == 1
        assert scn.metadata["attempt"] >= 0


class TestScenarioCounts:
    @pytest.mark.parametrize("n_channels", [0, 3])
    def test_bad_channel_count_rejected_before_any_solve(self, monkeypatch,
                                                         n_channels):
        solves = []
        monkeypatch.setattr(harness, "steady_state_covariance",
                            solves.append)
        process = ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="n_channels"):
            Scenario([process, process],
                     [ChannelModel(0.5, 0.5)] * n_channels, seed=0)
        assert solves == []


class TestScenarioPersistence:
    def test_round_trip_equality(self, tmp_path):
        scn = scenario_generate(5, 2, seed=3)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        back = load_scenario(path)
        for pa, pb in zip(scn.processes, back.processes):
            assert np.array_equal(pa.A, pb.A)
            assert np.array_equal(pa.C, pb.C)
            assert np.array_equal(pa.W, pb.W)
            assert np.array_equal(pa.V, pb.V)
        assert [(c.p, c.q) for c in scn.channels] == \
            [(c.p, c.q) for c in back.channels]
        assert back.seed == scn.seed
        assert back.metadata == scn.metadata

    def test_resave_is_byte_identical(self, tmp_path):
        scn = scenario_generate(4, 2, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scn, p1)
        save_scenario(load_scenario(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checksum_detects_tampering(self, tmp_path):
        scn = scenario_generate(3, 1, seed=2)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        doc = json.loads(path.read_text())
        doc["processes"][0]["A"][0][0] += 1e-3
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with pytest.raises(ChecksumError):
            load_scenario(path)

    def test_version_mismatch_detected(self, tmp_path):
        scn = scenario_generate(3, 1, seed=2)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with pytest.raises(VersionMismatchError):
            load_scenario(path)

    def test_malformed_json_detected(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text("{not json")
        with pytest.raises(MalformedFileError):
            load_scenario(path)

    def test_wrong_file_kind_detected(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(MalformedFileError):
            load_scenario(path)

    @pytest.mark.parametrize("seed", [1.7, "5", True, -5])
    def test_seed_not_a_non_negative_integer_rejected(self, tmp_path, seed):
        path = tmp_path / "scn.json"
        save_scenario(scenario_generate(3, 1, seed=2), path)
        resave_scenario(path, lambda doc: doc.update(seed=seed))
        with pytest.raises(MalformedFileError, match="seed"):
            load_scenario(path)

    @pytest.mark.parametrize("rewrite, shown", MISKINDED.values(),
                             ids=MISKINDED.keys())
    def test_value_of_another_kind_rejected(self, tmp_path, rewrite, shown):
        path = tmp_path / "scn.json"
        save_scenario(scenario_generate(3, 2, seed=2), path)
        rewrite(path)
        with pytest.raises((MalformedFileError, VersionMismatchError),
                           match=shown):
            load_scenario(path)

    def test_entry_that_overflows_the_rank_test_rejected(self, tmp_path):
        # C @ A leaves float range, so the observability matrix does
        path = tmp_path / "scn.json"
        save_scenario(scenario_generate(3, 2, seed=2), path)
        resave_scenario(path, lambda doc: doc["processes"][2]["C"][0]
                        .__setitem__(1, 1.784079356965042e+308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedFileError, match="overflow"):
                load_scenario(path)

    def test_missing_checksum_detected(self, tmp_path):
        scn = scenario_generate(3, 1, seed=2)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with pytest.raises(MalformedFileError):
            load_scenario(path)


# A 3x2 scenario with 1-D processes, as (A, C, W, V) and (p, q).
ONE_D_PROCESSES = [
    (0.834981660763961, 0.4343689579417588, 0.9862752162228199,
     0.6189457828541516),
    (0.20957651339640773, 0.6940088751362639, 0.2290380197866269,
     0.6615832557510233),
    (1.1162949707933445, 0.7559853738082603, 0.5165420724106662,
     0.897731296439239)]
ONE_D_CHANNELS = [(0.7021865902720406, 0.42499633379642),
                  (0.9211088822589582, 0.6609962848567419)]


@pytest.fixture(scope="module")
def saved_scenario_texts(tmp_path_factory):
    """Saved 3x2 scenarios with 1-D and with 2-D processes.  Only 1-D ones
    stay observable with a huge entry in A, so only they reach a diverging
    Riccati recursion."""
    path = tmp_path_factory.mktemp("saved") / "scn.json"
    one_d = Scenario(
        [ProcessModel([[a]], [[c]], [[w]], [[v]])
         for a, c, w, v in ONE_D_PROCESSES],
        [ChannelModel(p, q) for p, q in ONE_D_CHANNELS], 2,
        {"attempt": 0, "require_stable": True, "state_dim": 1,
         "meas_dim": 1})
    texts = []
    for scenario in (one_d, scenario_generate(3, 2, seed=2)):
        save_scenario(scenario, path)
        texts.append(path.read_text())
    return texts


class TestScenarioCorruption:
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_files_fail_typed_or_evaluate(self,
                                                    saved_scenario_texts,
                                                    tmp_path, data):
        def corrupt(doc):
            for _ in range(data.draw(st.integers(1, 3), label="edits")):
                path = draw_field(data, doc)
                if not path:
                    return
                parent = reduce(getitem, path[:-1], doc)
                key, node = path[-1], parent[path[-1]]
                kind = data.draw(st.sampled_from(
                    ["drop", "retype", "resize", "range"]), label="edit")
                if kind == "drop":
                    del parent[key]
                elif kind == "retype":
                    parent[key] = data.draw(JUNK, label="value")
                elif kind == "range":
                    parent[key] = data.draw(OUT_OF_RANGE, label="value")
                elif isinstance(node, list):
                    size = data.draw(st.integers(0, len(node) + 2),
                                     label="size")
                    parent[key] = copy.deepcopy((node * 3)[:size])
                else:
                    parent[key] = [node]

        path = tmp_path / "scn.json"
        path.write_text(data.draw(st.sampled_from(saved_scenario_texts),
                                  label="saved"))
        resave_scenario(path, corrupt)
        try:
            scn = load_scenario(path)
        except PersistenceError:
            return
        report = evaluate_policy(scn, make_policy("random", scn), 5)
        assert report.steps <= 5

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_files_that_load_resave_their_values(
            self, saved_scenario_texts, tmp_path, data):
        def corrupt(doc):
            path = draw_field(data, doc)
            parent = reduce(getitem, path[:-1], doc)
            if data.draw(st.booleans(), label="drop"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.one_of(JUNK, OUT_OF_RANGE),
                                             label="value")

        path = tmp_path / "scn.json"
        path.write_text(data.draw(st.sampled_from(saved_scenario_texts),
                                  label="saved"))
        resave_scenario(path, corrupt)
        try:
            scn = load_scenario(path)
        except PersistenceError:
            return
        stored = json.loads(path.read_text())
        del stored["checksum"]
        for process in stored["processes"]:
            for name in ("W", "V"):
                mat = np.array(process[name], dtype=np.float64)
                process[name] = ((mat + mat.T) * 0.5).tolist()
        saved = harness._scenario_payload(scn)
        assert_holds_values(saved, stored)
        numbers = [saved["version"], saved["seed"],
                   *(c[k] for c in saved["channels"] for k in "pq"),
                   *(x for process in saved["processes"]
                     for mat in process.values() for row in mat for x in row)]
        assert all(type(x) in (int, float) for x in numbers)


def assert_holds_values(saved, stored):
    """The same keys and list lengths; a float holds a stored integer or
    float of its value, and anything else is the stored value of its type."""
    if isinstance(saved, dict):
        assert type(stored) is dict and stored.keys() == saved.keys()
        for key in saved:
            assert_holds_values(saved[key], stored[key])
    elif isinstance(saved, list):
        assert type(stored) is list and len(stored) == len(saved)
        for item, stored_item in zip(saved, stored):
            assert_holds_values(item, stored_item)
    elif type(saved) is float:
        assert type(stored) in (int, float)
        assert float(stored) == saved or isnan(saved) and isnan(stored)
    else:
        assert type(stored) is type(saved) and stored == saved


class TestEvaluation:
    def test_reports_are_deterministic(self, six_sensor_scenario, tmp_path):
        pol = make_policy("greedy-cov", six_sensor_scenario)
        r1 = evaluate_policy(six_sensor_scenario, pol, 2000, seed=4,
                             name="greedy-cov")
        r2 = evaluate_policy(six_sensor_scenario, pol, 2000, seed=4,
                             name="greedy-cov")
        assert r1.empirical_avg_cost == r2.empirical_avg_cost
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_eval_report(r1, p1)
        write_eval_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_fields(self, six_sensor_scenario):
        rep = evaluate_policy(six_sensor_scenario,
                              make_policy("roundrobin", six_sensor_scenario),
                              1500, seed=0, name="roundrobin")
        assert rep.policy == "roundrobin"
        assert rep.steps == 1500
        assert rep.seed == 0
        assert rep.overflow_step is None
        assert len(rep.per_sensor_mean_trace) == 6
        assert rep.empirical_avg_cost == pytest.approx(
            sum(rep.per_sensor_mean_trace), rel=1e-9)

    def test_overflow_is_flagged(self):
        # unstable sensor on a channel that never succeeds: the holding
        # time climbs until the trace leaves float range
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        rep = evaluate_policy(scn, make_policy("random", scn), 3000, seed=0,
                              name="random")
        assert rep.empirical_avg_cost == np.inf
        assert rep.overflow_step is not None
        assert 400 < rep.overflow_step < 1000

    def test_overflow_inside_network_policy_is_flagged(self, rng):
        # same starvation scenario, but the policy itself reads the traces
        # through a network: once the observation overflows the policy cannot
        # evaluate, and the report must flag overflow instead of crashing
        from sensorsched import init_mlp, scheduling_policy_from
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        params = init_mlp((3, 4, 1), rng)
        pol = scheduling_policy_from(params, scn)
        rep = evaluate_policy(scn, pol, 3000, seed=0, name="dqn")
        assert rep.empirical_avg_cost == np.inf
        assert rep.overflow_step is not None

    def test_longer_runs_agree_with_block_averages(self, six_sensor_scenario):
        # the time average over 2T steps sits between plausible bounds
        # derived from independent T-step runs
        pol = make_policy("greedy-tau", six_sensor_scenario)
        short = [evaluate_policy(six_sensor_scenario, pol, 4000, seed=s,
                                 name="greedy-tau").empirical_avg_cost
                 for s in range(6)]
        long = evaluate_policy(six_sensor_scenario, pol, 24000, seed=99,
                               name="greedy-tau").empirical_avg_cost
        mean, sd = np.mean(short), np.std(short, ddof=1)
        assert abs(long - mean) < 6 * sd

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, six_sensor_scenario, steps):
        with pytest.raises(ValueError, match="steps"):
            evaluate_policy(six_sensor_scenario, policy_random, steps)

    def test_step_count_too_large_to_allocate_is_a_numerical_error(
            self, six_sensor_scenario):
        # numpy refuses 10**20 entries before it allocates anything
        with pytest.raises(NumericalError, match=str(10**20)):
            evaluate_policy(six_sensor_scenario, policy_random, 10**20)

    def test_make_policy_rejects_unknown(self, six_sensor_scenario):
        with pytest.raises(ValueError):
            make_policy("mystery", six_sensor_scenario)
        with pytest.raises(ValueError):
            make_policy("dqn", six_sensor_scenario)  # weights required


class TestCompareTable:
    def test_smoke_table(self, six_sensor_scenario, tmp_path):
        cfg = DqnConfig(episodes=2, episode_length=40, hidden_sizes=(8,),
                        minibatch_size=4, replay_capacity=64, seed=0)
        rows, artifacts = compare_all(six_sensor_scenario, cfg,
                                      eval_steps=800)
        assert [r.policy for r in rows] == [
            "random", "roundrobin", "greedy-tau", "greedy-cov", "dqn",
            "dqn-ablated"]
        for r in rows:
            assert np.isfinite(r.avg_cost)
            assert r.steps == 800
        assert "weights" in artifacts["dqn"] and "curve" in artifacts["dqn"]
        assert "weights" in artifacts["dqn-ablated"]
        out = tmp_path / "table.csv"
        write_compare_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,avg_cost,steps,seed,note"
        assert len(lines) == 7

    def test_ablation_can_be_skipped(self, six_sensor_scenario):
        cfg = DqnConfig(episodes=1, episode_length=30, hidden_sizes=(8,),
                        minibatch_size=4, replay_capacity=64, seed=0)
        rows, _ = compare_all(six_sensor_scenario, cfg, eval_steps=400,
                              include_ablation=False)
        assert [r.policy for r in rows] == [
            "random", "roundrobin", "greedy-tau", "greedy-cov", "dqn"]

    def test_diverged_training_yields_failed_cell(self):
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        cfg = DqnConfig(episodes=3, episode_length=600, hidden_sizes=(4,),
                        minibatch_size=4, replay_capacity=64, seed=0,
                        epsilon_start=0.0, epsilon_min=0.0)
        rows, artifacts = compare_all(scn, cfg, eval_steps=400,
                                      include_ablation=False)
        dqn_row = rows[-1]
        assert dqn_row.policy == "dqn"
        assert np.isnan(dqn_row.avg_cost)
        assert dqn_row.note != ""
        # baseline rows still produced (evaluation itself may overflow,
        # which is reported, not raised)
        assert len(rows) == 5


    def test_agent_too_large_fails_before_any_evaluation(
            self, six_sensor_scenario, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["name"])
            return evaluate_policy(*args, **kwargs)
        monkeypatch.setattr(harness, "evaluate_policy", counting)
        cfg = DqnConfig(episodes=1, episode_length=10, hidden_sizes=(8,),
                        minibatch_size=4, replay_capacity=10**18)
        with pytest.raises(NumericalError, match="replay capacity"):
            compare_all(six_sensor_scenario, cfg, eval_steps=100)
        assert calls == []

    def test_every_row_is_evaluated_from_the_config_seed(
            self, six_sensor_scenario):
        cfg = DqnConfig(episodes=1, episode_length=30, hidden_sizes=(8,),
                        minibatch_size=4, replay_capacity=64, seed=7)
        rows, artifacts = compare_all(six_sensor_scenario, cfg,
                                      eval_steps=300, include_ablation=False)
        assert [r.seed for r in rows] == [7] * 5
        policies = {"random": policy_random,
                    "dqn": make_policy("dqn", six_sensor_scenario,
                                       weights=artifacts["dqn"]["weights"])}
        for row in (rows[0], rows[-1]):
            report = evaluate_policy(six_sensor_scenario,
                                     policies[row.policy], 300, seed=7)
            assert (row.avg_cost, row.steps) == (report.empirical_avg_cost,
                                                 report.steps)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_eval_steps_below_one_rejected_before_training(
            self, six_sensor_scenario, monkeypatch, steps):
        trained = []
        monkeypatch.setattr(harness, "train",
                            lambda *args, **kwargs: trained.append(args))
        with pytest.raises(ValueError, match="eval_steps"):
            compare_all(six_sensor_scenario, DqnConfig(), eval_steps=steps)
        assert trained == []

    def test_diverged_variant_keeps_its_place(self, six_sensor_scenario,
                                              monkeypatch):
        real = harness.train

        def unablated_diverges(cfg, scenario, timing=False):
            if cfg.replay_capacity > 1:
                raise TrainingDivergedError("stand-in", curve=[])
            return real(cfg, scenario, timing=timing)
        monkeypatch.setattr(harness, "train", unablated_diverges)
        cfg = DqnConfig(episodes=1, episode_length=30, hidden_sizes=(8,),
                        minibatch_size=4, replay_capacity=64)
        rows, artifacts = compare_all(six_sensor_scenario, cfg,
                                      eval_steps=200)
        dqn, ablated = rows[-2:]
        assert (dqn.policy, dqn.steps, dqn.note) == (
            "dqn", 0, "training diverged: stand-in")
        assert np.isnan(dqn.avg_cost)
        assert (ablated.policy, ablated.steps, ablated.note) == (
            "dqn-ablated", 200, "")
        assert artifacts["dqn"] == {"weights": None, "curve": []}

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.builds(CompareRow, policy=CSV_TEXT,
                                   avg_cost=CSV_FLOATS, steps=st.integers(),
                                   seed=st.integers(), note=CSV_TEXT),
                         max_size=5))
    def test_csv_bytes_match_explicit_repr_cells(self, tmp_path, rows):
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        write_compare_csv(rows, ours)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "avg_cost", "steps", "seed", "note"])
            for row in rows:
                writer.writerow([row.policy, repr(row.avg_cost), row.steps,
                                 row.seed, row.note])
        assert ours.read_bytes() == reference.read_bytes()


def test_random_policy_importable_via_make_policy(six_sensor_scenario):
    pol = make_policy("random", six_sensor_scenario)
    assert pol.__name__ == policy_random.__name__
