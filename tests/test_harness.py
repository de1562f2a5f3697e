"""Scenario generation, persistence, evaluation, and comparison table."""

import copy
import json
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (ChannelModel, ChecksumError, DqnConfig,
                         GenerationError, MalformedFileError, PersistenceError,
                         ProcessModel, VersionMismatchError, compare_all,
                         evaluate_policy, load_scenario, make_policy,
                         policy_random, save_scenario, scenario_generate,
                         stability_check, write_compare_csv,
                         write_eval_report)
from conftest import build_scenario, resave_scenario

# Replacement values for a retyped field, and for one set out of range.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3), st.just([]), st.just({}),
                 st.lists(st.floats(-2.0, 2.0), max_size=3))
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
        scn = scenario_generate(4, 2, seed=7, state_dim=3, meas_dim=2)
        assert len(scn.processes) == 4
        assert len(scn.channels) == 2
        assert len(scn.caches) == 4
        for p in scn.processes:
            assert p.A.shape == (3, 3)
            assert p.C.shape == (2, 3)
            assert p.W.shape == (3, 3)
            assert p.V.shape == (2, 2)

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

    def test_metadata_records_inputs(self):
        scn = scenario_generate(6, 3, seed=9)
        assert scn.seed == 9
        assert scn.metadata["require_stable"] is True
        assert scn.metadata["state_dim"] == 2
        assert scn.metadata["meas_dim"] == 1
        assert scn.metadata["attempt"] >= 0


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

    def test_missing_checksum_detected(self, tmp_path):
        scn = scenario_generate(3, 1, seed=2)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with pytest.raises(MalformedFileError):
            load_scenario(path)


@pytest.fixture(scope="module")
def saved_scenario_texts(tmp_path_factory):
    """Saved 3x2 scenarios with 1-D and with 2-D processes.  Only 1-D ones
    stay observable with a huge entry in A, so only they reach a diverging
    Riccati recursion."""
    path = tmp_path_factory.mktemp("saved") / "scn.json"
    texts = []
    for dim in (1, 2):
        save_scenario(scenario_generate(3, 2, seed=2, state_dim=dim), path)
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
        scn = build_scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)])
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
        scn = build_scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)])
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
                                      eval_steps=800, eval_seed=0)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_yields_failed_cell(self):
        scn = build_scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)])
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


def test_random_policy_importable_via_make_policy(six_sensor_scenario):
    pol = make_policy("random", six_sensor_scenario)
    assert pol.__name__ == policy_random.__name__
