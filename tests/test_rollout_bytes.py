"""Byte-level guard on the rollout outputs at 20 sensors and 5 channels.

The digests were taken from the per-sensor Python-loop implementation the
vectorised rollout replaced.  At 400 steps greedy-cov leaves open-loop
stable sensors unscheduled past the step at which their trace tables
freeze, so the frozen lookups are covered too.  The greedy-dqn digest at
6 sensors and 3 channels was taken before every evaluation went through
one rollout loop, and covers a network policy on that path.  A change
that alters any of these bytes must say why.
"""

import hashlib

import numpy as np

from sensorsched import (DqnConfig, discounted_vs_average, env_reset,
                         env_step, evaluate_policy, make_policy,
                         scenario_generate, spawn_channel_rngs,
                         threshold_policy_running_cost, train)

STEPS = 400
SEED = 1
DIGESTS = {
    "random": "d870d9a98d257dde3e337995096d6ad65fba5bb85f30a78f79b7207db695b761",
    "roundrobin": "9a3dbb56f72f6fed265107aa1a1b052d4b326460201c82661a12649418bb7d08",
    "greedy-tau": "38103a7e855c6bba021fd3aaecd9e10b3d46d2cfecfc6f934aa234395b5ec712",
    "greedy-cov": "4e8270dd4f4a51669efb7c7ddd92c09161b960a4eb78cf18113f5f7c16c448e5",
    "threshold": "dd28c426288f0ad2319400fc5f07ccb95ba3fc4f76475f822dbc06cc0f9ee3ee",
    "discounted": "01b2a0df90376fce3829ca87e217571c29234274330017ad5453f5bce6d23755",
}
DQN_DIGEST = "cb0c46d6b12698766408055713586cb2da12e1e00912c58285663ea96bb30dd2"


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


def test_greedy_dqn_report_is_byte_identical():
    scn = scenario_generate(6, 3, seed=SEED)
    config = DqnConfig(episodes=2, episode_length=100, hidden_sizes=(32,),
                       minibatch_size=16, replay_capacity=256,
                       epsilon_decay=0.98, lr_initial=1e-3, seed=SEED)
    weights, _ = train(config, scn)
    report = evaluate_policy(scn, make_policy("dqn", scn, weights=weights),
                             STEPS, seed=SEED, name="dqn")
    assert sha256(repr(report).encode()) == DQN_DIGEST


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
