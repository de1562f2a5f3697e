"""Baseline policy tests: selection rules, tie-breaking, distributional checks."""

from dataclasses import replace

import numpy as np
import pytest

from sensorsched import (ChannelModel, EnvState, ProcessModel, Scenario,
                         policy_greedy_covariance, policy_greedy_holding,
                         policy_random, policy_round_robin)


def make_state(tau, n_channels, step_index=0, scenario=None):
    """A state at holding times tau, with the scenario's traces if given."""
    tau = np.asarray(tau, dtype=np.int64)
    trace = (np.zeros(len(tau)) if scenario is None
             else scenario.traces.at(tau))
    return EnvState(tau=tau, trace=trace,
                    gamma_prev=np.ones(n_channels, dtype=np.int64),
                    step_index=step_index)


class TestRandomPolicy:
    def test_all_ordered_pairs_seen_roughly_uniformly(self, rng):
        # N=4, M=2: 12 ordered pairs
        state = make_state([0, 0, 0, 0], 2)
        counts = {}
        draws = 12_000
        for _ in range(draws):
            a = policy_random(state, rng).assignment
            counts[a] = counts.get(a, 0) + 1
        assert len(counts) == 12
        expect = draws / 12
        sigma = np.sqrt(draws * (1 / 12) * (11 / 12))
        for pair, count in counts.items():
            assert abs(count - expect) < 5 * sigma, (pair, count)

    def test_entries_valid(self, rng):
        state = make_state([0] * 6, 3)
        for _ in range(200):
            a = policy_random(state, rng).assignment
            assert len(set(a)) == 3
            assert all(1 <= s <= 6 for s in a)


class TestRoundRobin:
    def test_window_advances_by_channel_count(self, rng):
        for step, want in [(0, {1, 2, 3}), (1, {4, 5, 6}), (2, {1, 2, 3}),
                           (3, {4, 5, 6})]:
            state = make_state([0] * 6, 3, step_index=step)
            assert set(policy_round_robin(state, rng).assignment) == want

    def test_wraparound_window(self, rng):
        # N=5, M=2: windows 12, 34, 51, 23, 45, then repeat
        wants = [{1, 2}, {3, 4}, {5, 1}, {2, 3}, {4, 5}, {1, 2}]
        for step, want in enumerate(wants):
            state = make_state([0] * 5, 2, step_index=step)
            assert set(policy_round_robin(state, rng).assignment) == want

    def test_every_sensor_once_per_period(self, rng):
        # M divides N: a full period is N/M steps and covers each sensor once
        seen = []
        for step in range(2):
            state = make_state([0] * 6, 3, step_index=step)
            seen.extend(policy_round_robin(state, rng).assignment)
        assert sorted(seen) == [1, 2, 3, 4, 5, 6]

    def test_channel_order_is_randomized(self, rng):
        state = make_state([0] * 6, 3, step_index=0)
        orders = {policy_round_robin(state, rng).assignment
                  for _ in range(100)}
        assert len(orders) > 1  # same set, varying channel placement


class TestGreedyHolding:
    def test_picks_largest_holding_time(self, rng):
        state = make_state([5, 1, 3], 1)
        assert policy_greedy_holding(state, rng).assignment == (1,)

    def test_tie_breaks_to_lowest_index(self, rng):
        state = make_state([2, 2, 0], 1)
        assert policy_greedy_holding(state, rng).assignment == (1,)
        state = make_state([0, 2, 2], 1)
        assert policy_greedy_holding(state, rng).assignment == (2,)

    def test_all_equal_selects_first_m(self, rng):
        state = make_state([0, 0, 0, 0, 0, 0], 3)
        assert set(policy_greedy_holding(state, rng).assignment) == {1, 2, 3}

    def test_top_m_set(self, rng):
        state = make_state([9, 2, 7, 4, 0, 8], 3)
        assert set(policy_greedy_holding(state, rng).assignment) == {1, 3, 6}


class TestGreedyCovariance:
    def test_fresh_state_selects_largest_steady_traces(self, rng,
                                                       six_sensor_scenario):
        state = make_state([0] * 6, 3, scenario=six_sensor_scenario)
        traces = [c.trace_at(0) for c in six_sensor_scenario.caches]
        want = set(np.argsort(traces)[-3:] + 1)
        got = set(policy_greedy_covariance(state, rng).assignment)
        assert got == want

    def test_unstable_sensor_dominates_once_stale(self, rng):
        # one sensor near the stability edge against stable peers: verify
        # numerically that its one-step-stale trace tops every peer's
        # steady-state ceiling, then check it is always selected
        hot = ProcessModel(np.diag([1.29, 1.2]), [[1.0, 0.3]],
                           np.eye(2), [[1.0]])
        cold = [ProcessModel(np.diag([0.3, 0.25]), [[1.0, 0.4]],
                             np.eye(2) * 0.5, [[1.0]]) for _ in range(3)]
        scn = Scenario([hot] + cold, [ChannelModel(0.1, 0.9)], seed=0)
        hot_stale = scn.caches[0].trace_at(1)
        cold_ceiling = max(c.trace_at(500) for c in scn.caches[1:])
        assert hot_stale > cold_ceiling
        for tau_hot in (1, 3, 10):
            tau = np.array([tau_hot, 400, 400, 400])
            state = make_state(tau, 1, scenario=scn)
            assert policy_greedy_covariance(state, rng).assignment == (1,)

    def test_tie_breaks_to_lowest_index(self, rng):
        model = ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        scn = Scenario([model, model, model], [ChannelModel(0.5, 0.5)], seed=0)
        state = make_state([4, 4, 4], 1, scenario=scn)
        assert policy_greedy_covariance(state, rng).assignment == (1,)

    def test_selection_invariant_to_monotone_score_transforms(self, rng,
                                                              six_sensor_scenario):
        # argmax sets depend only on the order of the scores
        real = six_sensor_scenario

        def transformed(state, f):
            return replace(state, trace=f(state.trace))

        sampler = np.random.default_rng(3)
        for _ in range(50):
            tau = sampler.integers(0, 30, size=6)
            state = make_state(tau, 3, scenario=real)
            base = policy_greedy_covariance(
                state, np.random.default_rng(99)).assignment
            for f in (lambda x: 3.0 * x + 7.0, np.log1p,
                      lambda x: x ** 3):
                got = policy_greedy_covariance(
                    transformed(state, f), np.random.default_rng(99)).assignment
                assert got == base

    def test_agrees_with_holding_policy_on_identical_sensors(self, rng):
        # identical processes make trace order equal holding-time order
        model = ProcessModel([[0.9]], [[1.0]], [[1.0]], [[1.0]])
        scn = Scenario([model] * 5,
                       [ChannelModel(0.5, 0.5), ChannelModel(0.5, 0.5)],
                       seed=0)
        sampler = np.random.default_rng(17)
        for _ in range(30):
            tau = sampler.integers(0, 50, size=5)
            state = make_state(tau, 2, scenario=scn)
            a = set(policy_greedy_holding(state, np.random.default_rng(1)).assignment)
            b = set(policy_greedy_covariance(state,
                                             np.random.default_rng(1)).assignment)
            assert a == b
