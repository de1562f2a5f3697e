"""Byte-level guard on the rollout outputs at 20 sensors and 5 channels.

The digests were taken from the per-sensor Python-loop implementation the
vectorised rollout replaced.  At 400 steps greedy-cov leaves open-loop
stable sensors unscheduled past the step at which their trace tables
freeze, so the frozen lookups are covered too.  The greedy-dqn digest at
6 sensors and 3 channels was taken before every evaluation went through
one rollout loop, and covers a network policy on that path.  The ablated
training digest (weights and per-episode costs of the same run with
neither replay nor a frozen target) was taken while the ablation still had
its own no-replay branch, so it pins the capacity-1 form of it.  It was
retaken when training moved to float32, which changed the trained
weights' bits (this run's two episode costs stayed the same).  The
discounted digest was retaken when ``abel_comparison`` began to average
the costs left to right, as ``evaluate_policy`` does, instead of with
``np.mean``'s pairwise sum, so one rollout gives one time average.  The
saved-scenario digests were taken while ``scenario_generate`` still took
the process sizes as arguments and spawned all of a seed's attempt
substreams up front.  A change that alters any of these bytes must say
why.
"""

import hashlib

import numpy as np

from sensorsched import (DqnConfig, discounted_vs_average, env_reset,
                         env_step, evaluate_policy, make_policy,
                         save_scenario, scenario_generate,
                         spawn_channel_rngs, threshold_policy_running_cost,
                         train)

STEPS = 400
SEED = 1
DIGESTS = {
    "random": "d870d9a98d257dde3e337995096d6ad65fba5bb85f30a78f79b7207db695b761",
    "roundrobin": "9a3dbb56f72f6fed265107aa1a1b052d4b326460201c82661a12649418bb7d08",
    "greedy-tau": "38103a7e855c6bba021fd3aaecd9e10b3d46d2cfecfc6f934aa234395b5ec712",
    "greedy-cov": "4e8270dd4f4a51669efb7c7ddd92c09161b960a4eb78cf18113f5f7c16c448e5",
    "threshold": "dd28c426288f0ad2319400fc5f07ccb95ba3fc4f76475f822dbc06cc0f9ee3ee",
    "discounted": "12b014460478719e1d43d08a5b646d9e17ae13fe7b87e6ff7ed9baf15fded917",
}
DQN_DIGEST = "cb0c46d6b12698766408055713586cb2da12e1e00912c58285663ea96bb30dd2"
ABLATED_DIGEST = "7c45316911d87e4c81509e6c597f92620d83a741057619c11547ed46c074365f"
SCENARIO_DIGESTS = {
    (6, 3): "9f524440741321e616c6efe119ea2bc6d6f13153c1e4f68b42274942c0954094",
    (20, 5): "417ef1a3e8a6d6c50bd6d2876f462b817be1079a85bc319a85a7d1ad0ef3069d",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def fresh():
    return scenario_generate(20, 5, seed=SEED)


def test_rollout_outputs_are_byte_identical():
    got = {}
    for name in ("random", "roundrobin", "greedy-tau", "greedy-cov"):
        scn = fresh()
        report = evaluate_policy(scn, make_policy(name, scn), STEPS,
                                 seed=SEED, name=name)
        got[name] = sha256(repr(report).encode())
    running = threshold_policy_running_cost(fresh(), 0, STEPS, seed=SEED)
    got["threshold"] = sha256(running.tobytes())
    scn = fresh()
    rows = discounted_vs_average(scn, make_policy("greedy-cov", scn),
                                 (0.9, 0.99, 0.999), STEPS, seed=SEED)
    got["discounted"] = sha256(repr(rows).encode())
    assert got == DIGESTS
    scn = fresh()
    report = evaluate_policy(scn, make_policy("greedy-cov", scn), STEPS,
                             seed=SEED)
    assert rows[0].time_average == report.empirical_avg_cost


def dqn_config():
    return DqnConfig(episodes=2, episode_length=100, hidden_sizes=(32,),
                     minibatch_size=16, replay_capacity=256,
                     epsilon_decay=0.98, lr_initial=1e-3, seed=SEED)


def test_greedy_dqn_report_is_byte_identical():
    scn = scenario_generate(6, 3, seed=SEED)
    weights, _ = train(dqn_config(), scn)
    report = evaluate_policy(scn, make_policy("dqn", scn, weights=weights),
                             STEPS, seed=SEED, name="dqn")
    assert sha256(repr(report).encode()) == DQN_DIGEST


def test_ablated_training_is_byte_identical():
    scn = scenario_generate(6, 3, seed=SEED)
    weights, curve = train(dqn_config().ablated(), scn)
    costs = repr([rec.avg_cost for rec in curve]).encode()
    assert sha256(weights.flat.tobytes() + costs) == ABLATED_DIGEST


def test_greedy_cov_reads_past_frozen_entries():
    scn = fresh()
    policy = make_policy("greedy-cov", scn)
    rngs, rng = spawn_channel_rngs(SEED, 5), np.random.default_rng(SEED)
    state = env_reset(scn)
    longest = state.tau
    for _ in range(STEPS):
        state, _ = env_step(scn, state, policy(state, rng), rngs)
        longest = np.maximum(longest, state.tau)
    # a table shorter than the longest holding time read from it froze
    # before that holding time and answered from its last entry
    assert any(len(c.trace_powers) <= t for c, t in zip(scn.caches, longest))


def test_saved_scenarios_are_byte_identical(tmp_path):
    got = {}
    for size in SCENARIO_DIGESTS:
        path = tmp_path / f"{size[0]}x{size[1]}.json"
        save_scenario(scenario_generate(*size, seed=SEED), path)
        got[size] = sha256(path.read_bytes())
    assert got == SCENARIO_DIGESTS
