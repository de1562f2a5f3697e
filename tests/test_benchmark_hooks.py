"""The benchmark's tracing hooks still find every name they wrap.

``perfbench/tracing.py`` swaps package attributes by name, from outside
the package.  A refactor that renames or removes one breaks the benchmark,
so this runs a tiny training and one evaluation under the hooks: such a
break fails here, not only in the benchmark's slow smoke test.
"""

import importlib.util
from pathlib import Path

import pytest

from sensorsched import DqnConfig, dqn, harness

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
