"""Environment tests: action codec, step dynamics, observations, determinism."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (ChannelModel, EnvState, ProcessModel, SchedAction,
                         Scenario, action_count, action_decode, action_encode,
                         env_reset, env_step, observation_build,
                         spawn_channel_rngs)
from sensorsched.environment import total_trace
from conftest import open_loop_step


def start(scenario, seed):
    """A reset state and the channel streams spawned from ``seed``."""
    return env_reset(scenario), spawn_channel_rngs(seed,
                                                   len(scenario.channels))


class TestActionCodec:
    def test_counts(self):
        assert action_count(6, 3) == 120
        assert action_count(5, 2) == 20
        assert action_count(4, 4) == 24
        assert action_count(1, 1) == 1

    def test_count_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            action_count(3, 4)
        with pytest.raises(ValueError):
            action_count(3, 0)

    def test_lexicographic_anchors(self):
        assert action_decode(0, 6, 3).assignment == (1, 2, 3)
        assert action_decode(1, 6, 3).assignment == (1, 2, 4)
        assert action_decode(119, 6, 3).assignment == (6, 5, 4)

    @pytest.mark.parametrize("n,m", [(6, 3), (5, 2), (4, 4), (3, 1)])
    def test_exhaustive_bijection(self, n, m):
        seen = set()
        for idx in range(action_count(n, m)):
            action = action_decode(idx, n, m)
            assert action_encode(action, n, m) == idx
            seen.add(action.assignment)
        assert len(seen) == action_count(n, m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bijection_at_random_sizes(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        m = data.draw(st.integers(1, n), label="m")
        idx = data.draw(st.integers(0, action_count(n, m) - 1), label="index")
        action = action_decode(idx, n, m)
        assert len(set(action.assignment)) == m
        assert set(action.assignment) <= set(range(1, n + 1))
        assert action_encode(action, n, m) == idx
        sensors = data.draw(st.permutations(range(1, n + 1)), label="sensors")
        back = action_encode(SchedAction(tuple(sensors[:m])), n, m)
        assert 0 <= back < action_count(n, m)
        assert action_decode(back, n, m).assignment == tuple(sensors[:m])

    def test_decode_order_is_lexicographic(self):
        tuples = [action_decode(i, 5, 2).assignment for i in range(20)]
        assert tuples == sorted(tuples)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            action_decode(120, 6, 3)
        with pytest.raises(ValueError):
            action_decode(-1, 6, 3)

    def test_duplicate_sensor_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            SchedAction((1, 1, 2))

    def test_sensor_ids_must_be_integers(self):
        # a float id is an error, not a truncation to another sensor
        for ids in [(1.5, 2, 3), (np.float64(2.7), 1, 3), (1.0, 2)]:
            with pytest.raises(TypeError, match="integers"):
                SchedAction(ids)
        action = SchedAction((np.int64(2), np.int32(1), 3))
        assert action.assignment == (2, 1, 3)
        assert all(type(s) is int for s in action.assignment)

    def test_encode_validates_entries(self):
        with pytest.raises(ValueError):
            action_encode(SchedAction((1, 7, 2)), 6, 3)
        with pytest.raises(ValueError):
            action_encode(SchedAction((1, 2)), 6, 3)


class TestStepDynamics:
    def test_reset_state(self, six_sensor_scenario):
        state = env_reset(six_sensor_scenario)
        assert np.all(state.tau == 0)
        assert np.all(state.gamma_prev == 1)
        assert state.step_index == 0

    def test_perfect_channel_resets_scheduled_sensor(self, two_sensor_scenario):
        scn = two_sensor_scenario
        state, rngs = start(scn, 0)
        state, _ = env_step(scn, state, SchedAction((1,)), rngs)
        assert state.tau[0] == 0 and state.tau[1] == 1
        state, _ = env_step(scn, state, SchedAction((2,)), rngs)
        assert state.tau[0] == 1 and state.tau[1] == 0
        assert state.step_index == 2

    def test_always_bad_channel_starves_everyone(self):
        scn = Scenario(
            [ProcessModel([[0.9]], [[1.0]], [[1.0]], [[1.0]])] * 2,
            [ChannelModel(1.0, 0.0)], seed=0)
        state, rngs = start(scn, 0)
        for k in range(1, 6):
            state, _ = env_step(scn, state, SchedAction((1,)), rngs)
            assert state.tau.tolist() == [k, k]
            assert state.gamma_prev[0] == 0

    def test_reward_is_negative_total_trace(self, two_sensor_scenario):
        state, rngs = start(two_sensor_scenario, 0)
        state, reward = env_step(two_sensor_scenario, state, SchedAction((1,)),
                                 rngs)
        caches = two_sensor_scenario.caches
        want = -(caches[0].trace_at(0) + caches[1].trace_at(1))
        assert reward == pytest.approx(want, rel=1e-12)

    def test_reward_matches_matrix_route(self, six_sensor_scenario):
        # dual route: the scalar trace table vs full covariance matrices
        scn = six_sensor_scenario
        state, rngs = start(scn, 3)
        action = SchedAction((2, 4, 6))
        for _ in range(10):
            state, reward = env_step(scn, state, action, rngs)
            want = 0.0
            for proc, cache, t in zip(scn.processes, scn.caches, state.tau):
                mat = cache.pbar
                for _ in range(int(t)):
                    mat = open_loop_step(proc.A, proc.W, mat)
                want -= float(np.trace(mat))
            assert reward == pytest.approx(want, rel=1e-9)

    def test_first_reward_brackets(self, six_sensor_scenario):
        state, rngs = start(six_sensor_scenario, 1)
        _, reward = env_step(six_sensor_scenario, state,
                             SchedAction((1, 2, 3)), rngs)
        caches = six_sensor_scenario.caches
        low = -sum(c.trace_at(1) for c in caches)
        high = -sum(c.trace_at(0) for c in caches)
        assert low - 1e-12 <= reward <= high + 1e-12

    def test_action_validation(self, six_sensor_scenario):
        scn = six_sensor_scenario
        state, rngs = start(scn, 0)
        with pytest.raises(ValueError):  # wrong arity
            env_step(scn, state, SchedAction((1, 2)), rngs)
        with pytest.raises(ValueError):  # id out of range
            env_step(scn, state, SchedAction((0, 1, 2)), rngs)
        with pytest.raises(ValueError):
            env_step(scn, state, SchedAction((1, 2, 7)), rngs)

    def test_determinism_same_seed_same_path(self, six_sensor_scenario):
        actions = [action_decode(i % 120, 6, 3) for i in range(200)]

        def run():
            state, rngs = start(six_sensor_scenario, 99)
            taus, gammas, rewards = [], [], []
            for a in actions:
                state, r = env_step(six_sensor_scenario, state, a, rngs)
                taus.append(state.tau.copy())
                gammas.append(state.gamma_prev.copy())
                rewards.append(r)
            return np.array(taus), np.array(gammas), np.array(rewards)

        t1, g1, r1 = run()
        t2, g2, r2 = run()
        assert np.array_equal(t1, t2)
        assert np.array_equal(g1, g2)
        assert np.array_equal(r1, r2)

    def test_reset_keeps_channel_streams_fresh(self, six_sensor_scenario):
        # two episodes after one reset differ (streams continue), but the
        # whole two-episode run is reproducible from the seed
        scn = six_sensor_scenario
        a = action_decode(17, 6, 3)

        def episode(rngs):
            state, rewards = env_reset(scn), []
            for _ in range(50):
                state, r = env_step(scn, state, a, rngs)
                rewards.append(r)
            return rewards

        def run():
            rngs = spawn_channel_rngs(5, len(scn.channels))
            return episode(rngs), episode(rngs)

        f1, s1 = run()
        f2, s2 = run()
        assert f1 == f2 and s1 == s2
        assert f1 != s1


class TestStepProperties:
    """env_step and observation_build against per-sensor references."""

    def test_total_trace_adds_left_to_right(self):
        # np.sum's pairwise order rounds differently on many such vectors
        sampler = np.random.default_rng(0)
        for _ in range(200):
            traces = sampler.random(20) * sampler.choice([1.0, 1e3], 20)
            want = 0.0
            for t in traces.tolist():
                want += t
            assert total_trace(traces) == want

    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tau=st.lists(st.integers(0, 3000), min_size=6, max_size=6),
           gamma_prev=st.lists(st.integers(0, 1), min_size=3, max_size=3),
           action=st.integers(0, 119), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_against_per_sensor_loop(self, six_sensor_scenario, tau,
                                          gamma_prev, action, seed):
        scn = six_sensor_scenario
        start = np.array(tau, dtype=np.int64)
        state = EnvState(tau=start, trace=scn.traces.at(start),
                         gamma_prev=np.array(gamma_prev, dtype=np.int64),
                         step_index=0)
        assignment = action_decode(action, 6, 3).assignment
        new, reward = env_step(scn, state, action_decode(action, 6, 3),
                               spawn_channel_rngs(seed, 3))
        # each channel's chain from one scalar draw of its own substream
        streams = [np.random.Generator(np.random.Philox(child))
                   for child in np.random.SeedSequence(seed).spawn(3)]
        gamma = []
        for chan, stream, prev in zip(scn.channels, streams, gamma_prev):
            u = stream.random()
            gamma.append(int(u >= chan.p) if prev == 1 else int(u < chan.q))
        assert new.gamma_prev.tolist() == gamma
        delivered = {s - 1 for s, g in zip(assignment, gamma) if g == 1}
        want_tau = [0 if i in delivered else t + 1 for i, t in enumerate(tau)]
        assert new.tau.tolist() == want_tau
        want = 0.0
        for cache, t in zip(scn.caches, want_tau):
            want -= cache.trace_at(t)
        assert type(reward) is float and reward == want
        # the state carries the traces the reward was summed from
        want_trace = [cache.trace_at(t) for cache, t in zip(scn.caches, want_tau)]
        assert new.trace.tobytes() == np.array(want_trace).tobytes()
        assert new.trace.tobytes() == scn.traces.at(new.tau).tobytes()
        reset = env_reset(scn)
        assert reset.trace.tobytes() == scn.traces.at(reset.tau).tobytes()
        obs = observation_build(new, scn)
        ref = [float(t) for t in want_tau]
        ref += [cache.trace_at(t + 1) for cache, t in zip(scn.caches, want_tau)]
        ref += [float(g) for g in gamma]
        assert obs.tobytes() == np.array(ref).tobytes()


class TestObservation:
    def test_layout_and_length(self, six_sensor_scenario):
        state = env_reset(six_sensor_scenario)
        obs = observation_build(state, six_sensor_scenario)
        assert obs.shape == (2 * 6 + 3,)
        assert np.all(obs[:6] == 0.0)
        want = [c.trace_at(1) for c in six_sensor_scenario.caches]
        assert np.allclose(obs[6:12], want, rtol=1e-12)
        assert np.all(obs[12:] == 1.0)

    def test_trace_block_uses_next_holding_time(self, six_sensor_scenario):
        state = env_reset(six_sensor_scenario)
        state.tau[2] = 7
        obs = observation_build(state, six_sensor_scenario)
        assert obs[6 + 2] == pytest.approx(
            six_sensor_scenario.caches[2].trace_at(8), rel=1e-12)

    def test_gamma_block_tracks_outcomes(self):
        scn = Scenario(
            [ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])] * 2,
            [ChannelModel(1.0, 1.0)], seed=0)  # deterministic alternation
        state, rngs = start(scn, 0)
        state, _ = env_step(scn, state, SchedAction((1,)), rngs)
        assert observation_build(state, scn)[-1] == 0.0
        state, _ = env_step(scn, state, SchedAction((1,)), rngs)
        assert observation_build(state, scn)[-1] == 1.0
