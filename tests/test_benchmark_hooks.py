"""The benchmark's tracing hooks still find every name they wrap.

``perfbench/tracing.py`` swaps package attributes by name, from outside
the package.  A refactor that renames or removes one breaks the benchmark,
so this runs a tiny training and one evaluation under the hooks, and then
the rollout workload's calls on a loaded scenario: such a break fails here,
not only in the benchmark's slow smoke test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sensorsched import DqnConfig, analysis, dqn, harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Spans the benchmark reads that a tiny train plus a dqn evaluation make.
SPANS = ("dqn.train", "dqn.train_step", "dqn.act_epsilon_greedy",
         "dqn.compute_targets", "dqn.ReplayBuffer.add",
         "dqn.ReplayBuffer.sample", "neural.loss_and_gradient",
         "neural.adam_update", "neural.MlpParams.copy",
         "neural.mlp_forward.single", "dqn.scheduling_policy",
         "harness.evaluate_policy", "environment.env_step",
         "environment.observation_build", "environment.action_decode",
         "channel.channel_step")
# Spans the rollout-wide workload reads: a cold load, the four baselines,
# the threshold rule and the discounted comparison.
ROLLOUT_SPANS = ("harness.load_scenario",
                 "estimation.steady_state_covariance", "policies.random",
                 "policies.roundrobin", "policies.greedy-tau",
                 "policies.greedy-cov",
                 "analysis.threshold_policy_running_cost",
                 "analysis.discounted_vs_average", "channel.channel_step")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_trace_a_training_and_an_evaluation(tracing,
                                                  six_sensor_scenario):
    scn = six_sensor_scenario
    tracer = tracing.Tracer()
    patches = tracing.make_patches(tracer)
    originals = [getattr(owner, attr) for owner, attr, _ in patches]
    cfg = DqnConfig(episodes=1, episode_length=20, hidden_sizes=(8,),
                    minibatch_size=4, replay_capacity=64,
                    target_sync_period=10)
    with tracing.installed(patches):
        weights, _ = dqn.train(cfg, scn)
        policy = harness.make_policy("dqn", scn, weights=weights)
        harness.evaluate_policy(scn, policy, 10, seed=0, name="dqn")
        scn.caches[0].trace_at(0)
    assert [getattr(owner, attr) for owner, attr, _ in patches] == originals

    stats, _ = tracing.summarize(tracer, [])
    assert {name for name in SPANS if name not in stats} == set()
    assert stats["dqn.train_step"]["calls"] == 20
    assert stats["neural.adam_update"]["calls"] == 17  # from the 4th step
    assert "neural.mlp_forward.batch" not in stats
    assert tracer.replay_fill[0] == 20
    assert tracer.trace_at_calls[0] == 1
    assert sum(len(cache.trace_powers) for cache in scn.caches) > 0


def table_entries(scn):
    """The trace entries a scenario holds, counted as the benchmark's
    ``estimation.trace_entries_grown`` counts them."""
    return sum(len(cache.trace_powers) for cache in scn.caches)


def test_hooks_trace_the_rollout_workload(tracing, six_sensor_scenario,
                                          tmp_path):
    path = tmp_path / "scn.json"
    harness.save_scenario(six_sensor_scenario, path)
    tracer = tracing.Tracer()
    patches = tracing.make_patches(tracer)
    with tracing.installed(patches):
        scn = harness.load_scenario(path)
        for name in ("random", "roundrobin", "greedy-tau", "greedy-cov"):
            harness.evaluate_policy(scn, harness.make_policy(name, scn), 5,
                                    seed=0, name=name)
        analysis.threshold_policy_running_cost(scn, 0.0, 5, seed=0)
        analysis.discounted_vs_average(
            scn, harness.make_policy("greedy-cov", scn), [0.9], 5, seed=0)

    stats, _ = tracing.summarize(tracer, [])
    assert {name for name in ROLLOUT_SPANS if name not in stats} == set()
    assert stats["estimation.steady_state_covariance"]["calls"] == 6
    # the unstable processes (rho 1.05 and 1.15) still grow past 256
    before = table_entries(scn)
    scn.traces.at(np.full(len(scn.caches), 300))
    assert table_entries(scn) > before
