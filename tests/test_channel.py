"""Loss-channel tests: degenerate chains exactly, random chains statistically."""

import numpy as np
import pytest

from sensorsched import (ChannelModel, channel_reset, channel_step,
                         spawn_channel_rngs)


def run_chain(model, steps, seed=0, start_good=True):
    rngs = spawn_channel_rngs(seed, 1)
    state = (channel_reset([model]) if start_good
             else np.zeros(1, np.int64))
    path = np.empty(steps, dtype=np.int64)
    for k in range(steps):
        state = channel_step([model], state, rngs)
        path[k] = state[0]
    return path


class TestDegenerateChains:
    def test_never_failing_channel_stays_good(self):
        path = run_chain(ChannelModel(0.0, 0.5), 200)
        assert np.all(path == 1)

    def test_never_recovering_channel_absorbs(self):
        path = run_chain(ChannelModel(1.0, 0.0), 200)
        assert path[0] == 0 and np.all(path == 0)

    def test_p_and_q_one_alternates_deterministically(self):
        path = run_chain(ChannelModel(1.0, 1.0), 10)
        assert path.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


class TestStationaryDistribution:
    def test_empirical_fraction_matches(self):
        p, q = 0.3, 0.6
        path = run_chain(ChannelModel(p, q), 200_000, seed=5)
        pi1 = q / (p + q)
        # Markov-chain corrected standard error: samples are correlated
        # with one-step autocorrelation 1 - p - q
        lam = 1.0 - p - q
        se = np.sqrt(pi1 * (1 - pi1) * (1 + lam) / (1 - lam) / path.size)
        assert abs(path.mean() - pi1) < 3.0 * se

    def test_empirical_transitions_match(self):
        p, q = 0.25, 0.55
        path = run_chain(ChannelModel(p, q), 200_000, seed=9)
        prev, cur = path[:-1], path[1:]
        n_good = np.sum(prev == 1)
        n_bad = np.sum(prev == 0)
        p_hat = np.sum((prev == 1) & (cur == 0)) / n_good
        q_hat = np.sum((prev == 0) & (cur == 1)) / n_bad
        # conditional counts are exactly binomial
        assert abs(p_hat - p) < 3.0 * np.sqrt(p * (1 - p) / n_good)
        assert abs(q_hat - q) < 3.0 * np.sqrt(q * (1 - q) / n_bad)


class TestIndependence:
    def test_channels_are_uncorrelated(self):
        models = [ChannelModel(0.3, 0.6), ChannelModel(0.3, 0.6)]
        rngs = spawn_channel_rngs(3, 2)
        state = channel_reset(models)
        steps = 200_000
        paths = np.empty((steps, 2), dtype=np.int64)
        for k in range(steps):
            state = channel_step(models, state, rngs)
            paths[k] = state
        corr = np.corrcoef(paths[:, 0], paths[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_removing_a_channel_leaves_others_untouched(self):
        # substreams are spawned per channel, so channel 0's path is the
        # same whether or not channel 1 exists
        solo = run_chain(ChannelModel(0.4, 0.5), 500, seed=21)
        models = [ChannelModel(0.4, 0.5), ChannelModel(0.2, 0.9)]
        rngs = spawn_channel_rngs(21, 2)
        state = channel_reset(models)
        pair = np.empty(500, dtype=np.int64)
        for k in range(500):
            state = channel_step(models, state, rngs)
            pair[k] = state[0]
        assert np.array_equal(solo, pair)


    def test_block_draws_follow_the_scalar_rule(self):
        # 600 steps cross several refills of the per-channel draw blocks;
        # each step must use the next scalar draw of each channel's stream
        models = [ChannelModel(0.3, 0.6), ChannelModel(0.1, 0.2),
                  ChannelModel(0.8, 0.5)]
        rngs = spawn_channel_rngs(13, 3)
        scalar = [np.random.Generator(np.random.Philox(child))
                  for child in np.random.SeedSequence(13).spawn(3)]
        state = channel_reset(models)
        want = [1, 1, 1]
        for _ in range(600):
            state = channel_step(models, state, rngs)
            for m, (model, stream) in enumerate(zip(models, scalar)):
                u = stream.random()
                if want[m] == 1:
                    want[m] = 0 if u < model.p else 1
                else:
                    want[m] = 1 if u < model.q else 0
            assert state.tolist() == want


class TestValidationAndDeterminism:
    def test_rates_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(1.5, 0.5)
        with pytest.raises(ValueError):
            ChannelModel(0.5, -0.1)

    def test_mismatched_stream_count_rejected(self):
        models = [ChannelModel(0.5, 0.5)]
        with pytest.raises(ValueError, match="rngs"):
            channel_step(models, channel_reset(models),
                         spawn_channel_rngs(0, 2))

    def test_same_seed_same_path(self):
        a = run_chain(ChannelModel(0.37, 0.52), 1000, seed=77)
        b = run_chain(ChannelModel(0.37, 0.52), 1000, seed=77)
        assert np.array_equal(a, b)

    def test_reset_state_choice(self):
        models = [ChannelModel(0.5, 0.5)] * 3
        state = channel_reset(models)
        assert state.dtype == np.int64 and np.all(state == 1)
