"""Environment tests: action codec, step dynamics, observations, determinism."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (ChannelModel, EnvState, ProcessModel, Scenario,
                         action_count, action_decode, action_encode,
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
        assert action_decode(0, 6, 3).tolist() == [1, 2, 3]
        assert action_decode(1, 6, 3).tolist() == [1, 2, 4]
        assert action_decode(119, 6, 3).tolist() == [6, 5, 4]

    @pytest.mark.parametrize("n,m", [(6, 3), (5, 2), (4, 4), (3, 1)])
    def test_exhaustive_bijection(self, n, m):
        seen = set()
        for idx in range(action_count(n, m)):
            action = action_decode(idx, n, m)
            assert action_encode(action, n, m) == idx
            seen.add(tuple(action.tolist()))
        assert len(seen) == action_count(n, m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bijection_at_random_sizes(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        m = data.draw(st.integers(1, n), label="m")
        idx = data.draw(st.integers(0, action_count(n, m) - 1), label="index")
        action = action_decode(idx, n, m)
        assert len(set(action.tolist())) == m
        assert set(action.tolist()) <= set(range(1, n + 1))
        assert action_encode(action, n, m) == idx
        sensors = data.draw(st.permutations(range(1, n + 1)), label="sensors")
        back = action_encode(np.array(sensors[:m]), n, m)
        assert 0 <= back < action_count(n, m)
        assert action_decode(back, n, m).tolist() == list(sensors[:m])

    def test_decode_order_is_lexicographic(self):
        tuples = [action_decode(i, 5, 2).tolist() for i in range(20)]
        assert tuples == sorted(tuples)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            action_decode(120, 6, 3)
        with pytest.raises(ValueError):
            action_decode(-1, 6, 3)

    def test_codec_takes_no_bool_or_float(self):
        # True is neither index 1 nor sensor 1, and 1.0 is not an index
        for index in (True, 1.0, np.float64(1.0)):
            with pytest.raises(TypeError, match="index"):
                action_decode(index, 6, 3)
        for ids in [(True, 2, 3), (1, 2.0, 3), np.array([1.0, 2.0, 3.0])]:
            with pytest.raises(TypeError, match="integers"):
                action_encode(ids, 6, 3)
        assert action_encode((np.int32(1), 2, np.uint8(4)), 6, 3) == 1

    def test_decoded_actions_are_read_only(self):
        # every caller shares the cached array, so none may write to it
        action = action_decode(5, 6, 3)
        with pytest.raises(ValueError):
            action[0] = 6
        assert action_decode(5, 6, 3).tolist() == [1, 3, 4]

    def test_duplicate_sensor_rejected(self, six_sensor_scenario):
        state, rngs = start(six_sensor_scenario, 0)
        with pytest.raises(ValueError, match="distinct"):
            env_step(six_sensor_scenario, state, np.array([1, 1, 2]), rngs)

    def test_sensor_ids_must_be_integers(self, six_sensor_scenario):
        # a float id is an error, not a truncation to another sensor
        scn = six_sensor_scenario
        state, rngs = start(scn, 0)
        for ids in [(1.5, 2, 3), (np.float64(2.7), 1, 3), (1.0, 2)]:
            with pytest.raises(TypeError, match="integers"):
                env_step(scn, state, np.array(ids), rngs)
        got, _ = env_step(scn, state, np.array([2, 1, 3], np.int32), rngs)
        want, _ = env_step(scn, state, np.array([2, 1, 3]),
                           spawn_channel_rngs(0, 3))
        assert got.tau.tolist() == want.tau.tolist()
        assert got.gamma_prev.tolist() == want.gamma_prev.tolist()

    def test_encode_validates_entries(self):
        with pytest.raises(ValueError):
            action_encode(np.array([1, 7, 2]), 6, 3)
        with pytest.raises(ValueError):
            action_encode(np.array([1, 2]), 6, 3)


class TestStepDynamics:
    def test_reset_state(self, six_sensor_scenario):
        state = env_reset(six_sensor_scenario)
        assert np.all(state.tau == 0)
        assert np.all(state.gamma_prev == 1)
        assert state.step_index == 0

    def test_perfect_channel_resets_scheduled_sensor(self, two_sensor_scenario):
        scn = two_sensor_scenario
        state, rngs = start(scn, 0)
        state, _ = env_step(scn, state, np.array([1]), rngs)
        assert state.tau[0] == 0 and state.tau[1] == 1
        state, _ = env_step(scn, state, np.array([2]), rngs)
        assert state.tau[0] == 1 and state.tau[1] == 0
        assert state.step_index == 2

    def test_always_bad_channel_starves_everyone(self):
        scn = Scenario(
            [ProcessModel([[0.9]], [[1.0]], [[1.0]], [[1.0]])] * 2,
            [ChannelModel(1.0, 0.0)], seed=0)
        state, rngs = start(scn, 0)
        for k in range(1, 6):
            state, _ = env_step(scn, state, np.array([1]), rngs)
            assert state.tau.tolist() == [k, k]
            assert state.gamma_prev[0] == 0

    def test_reward_is_negative_total_trace(self, two_sensor_scenario):
        state, rngs = start(two_sensor_scenario, 0)
        state, reward = env_step(two_sensor_scenario, state, np.array([1]),
                                 rngs)
        caches = two_sensor_scenario.caches
        want = -(caches[0].trace_at(0) + caches[1].trace_at(1))
        assert reward == pytest.approx(want, rel=1e-12)

    def test_reward_matches_matrix_route(self, six_sensor_scenario):
        # dual route: the scalar trace table vs full covariance matrices
        scn = six_sensor_scenario
        state, rngs = start(scn, 3)
        action = np.array([2, 4, 6])
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
                             np.array([1, 2, 3]), rngs)
        caches = six_sensor_scenario.caches
        low = -sum(c.trace_at(1) for c in caches)
        high = -sum(c.trace_at(0) for c in caches)
        assert low - 1e-12 <= reward <= high + 1e-12

    def test_action_validation(self, six_sensor_scenario):
        scn = six_sensor_scenario
        state, rngs = start(scn, 0)
        with pytest.raises(ValueError):  # wrong arity
            env_step(scn, state, np.array([1, 2]), rngs)
        with pytest.raises(ValueError):  # id out of range
            env_step(scn, state, np.array([0, 1, 2]), rngs)
        with pytest.raises(ValueError):
            env_step(scn, state, np.array([1, 2, 7]), rngs)

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.one_of(st.lists(st.integers(-1, 7), max_size=4),
                         st.permutations(range(1, 7)).map(lambda p: p[:3])),
           tau=st.lists(st.integers(0, 50), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_step_accepts_exactly_the_valid_actions(self, six_sensor_scenario,
                                                    ids, tau, seed):
        # entries span -1..N+1 and lengths 0..M+1; the permutations make
        # sure valid actions are drawn often
        scn = six_sensor_scenario
        start_tau = np.array(tau, dtype=np.int64)
        state = EnvState(tau=start_tau, trace=scn.traces.at(start_tau),
                         gamma_prev=np.array([1, 0, 1]), step_index=0)
        rngs = spawn_channel_rngs(seed, 3)
        action = np.array(ids, dtype=np.int64)  # an empty list is float64
        valid = (len(ids) == 3 and len(set(ids)) == 3
                 and all(1 <= s <= 6 for s in ids))
        if valid:
            new, _ = env_step(scn, state, action, rngs)
            delivered = {s - 1 for s, g in zip(ids, new.gamma_prev) if g}
            assert new.tau.tolist() == [0 if i in delivered else t + 1
                                        for i, t in enumerate(tau)]
            return
        with pytest.raises(ValueError):
            env_step(scn, state, action, rngs)
        # the rejected action drew nothing from the channel streams
        fallback = np.array([1, 2, 3])
        got, got_reward = env_step(scn, state, fallback, rngs)
        want, want_reward = env_step(scn, state, fallback,
                                     spawn_channel_rngs(seed, 3))
        assert got.gamma_prev.tolist() == want.gamma_prev.tolist()
        assert got.tau.tolist() == want.tau.tolist()
        assert got_reward == want_reward

    def test_action_must_be_an_integer_array(self, six_sensor_scenario):
        scn = six_sensor_scenario
        state, rngs = start(scn, 4)
        for action in [np.array([1.0, 2.0, 3.0]),
                       np.array([True, False, True]), np.array([True, False]),
                       (1, 2, 3), [1, 2, 3], (True, 2, 3)]:
            with pytest.raises(TypeError, match="integers"):
                env_step(scn, state, action, rngs)
        want, want_reward = env_step(scn, state, np.array([4, 1, 6]),
                                     spawn_channel_rngs(4, 3))
        for dtype in (np.int32, np.uint8, np.int64):
            got, reward = env_step(scn, state, np.array([4, 1, 6], dtype),
                                   spawn_channel_rngs(4, 3))
            assert got.tau.tobytes() == want.tau.tobytes()
            assert got.trace.tobytes() == want.trace.tobytes()
            assert got.gamma_prev.tobytes() == want.gamma_prev.tobytes()
            assert reward == want_reward
        got, _ = env_step(scn, state, np.array([4, 1, 6]), rngs)
        assert got.gamma_prev.tolist() == want.gamma_prev.tolist()

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
        assignment = action_decode(action, 6, 3).tolist()
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
        state, _ = env_step(scn, state, np.array([1]), rngs)
        assert observation_build(state, scn)[-1] == 0.0
        state, _ = env_step(scn, state, np.array([1]), rngs)
        assert observation_build(state, scn)[-1] == 1.0
