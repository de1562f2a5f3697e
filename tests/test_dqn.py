"""Q-learning machinery tests: buffer, schedule, targets, loop mechanics."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (ChannelModel, DqnConfig, EpisodeRecord,
                         NumericalError,
                         ProcessModel, ReplayBuffer, Scenario, Transition,
                         TrainingDivergedError, SensorSchedError, Workspace,
                         act_epsilon_greedy, compute_targets, env_reset,
                         init_agent, init_mlp, make_policy,
                         scheduling_policy_from, train, train_step,
                         write_curve_csv)
from sensorsched.dqn import fold_observation_scaling
from sensorsched.neural import MlpParams
from conftest import CSV_FLOATS

# DqnConfig's fields whose annotation fixes their kind
TYPED_FIELDS = [f.name for f in dataclasses.fields(DqnConfig)
                if f.type in ("int", "float")]


def tiny_config(**kw):
    base = dict(episodes=2, episode_length=30, hidden_sizes=(8,),
                minibatch_size=4, replay_capacity=64, seed=0,
                target_sync_period=10)
    base.update(kw)
    return DqnConfig(**base)


def params_equal(a, b):
    return all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
               for (wa, ba), (wb, bb) in zip(a.layers, b.layers))


def numbered(k):
    """Transition k, with every field derived from k (2 features)."""
    return Transition(s=np.full(2, float(k)), a=k, r=-float(k),
                      s_next=np.full(2, k + 1.0))


def acted(count, seed=0):
    """``count`` random transitions shaped like the two-sensor scenario's
    (5 observation features, 2 actions)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Transition(s=rng.random(5), a=int(rng.integers(2)),
                         r=-rng.random(), s_next=rng.random(5))


def stored(buf):
    """The set of action labels a long sample (batch size 2000) can draw."""
    return set(buf.sample(np.random.default_rng(0)).a.tolist())


class TestReplayBuffer:
    def test_fifo_overwrite(self):
        buf = ReplayBuffer(5, 2000, 2)
        for k in range(1, 9):
            buf.add(numbered(k))
        assert len(buf) == 5
        assert stored(buf) == {4, 5, 6, 7, 8}

    def test_partial_fill_samples_added_rows_only(self):
        buf = ReplayBuffer(5, 2000, 2)
        buf.add(numbered(1))
        buf.add(numbered(2))
        assert len(buf) == 2
        assert stored(buf) == {1, 2}

    def test_capacity_one_samples_the_latest(self):
        # the ablation's memory: every draw is the transition just added
        buf = ReplayBuffer(1, 3, 2)
        rng = np.random.default_rng(0)
        for k in range(4):
            buf.add(numbered(k))
            assert buf.sample(rng).a.tolist() == [k, k, k]

    def test_sample_refills_the_same_rows(self):
        buf = ReplayBuffer(4, 3, 2)
        buf.add(numbered(1))
        rng = np.random.default_rng(0)
        first = buf.sample(rng)
        buf.add(numbered(2))
        assert buf.sample(rng) is first

    def test_sampling_uniform_with_replacement(self):
        buf = ReplayBuffer(3, 6000, 2)
        for k in range(3):
            buf.add(numbered(k))
        rng = np.random.default_rng(0)
        draws = buf.sample(rng).a
        counts = np.bincount(draws, minlength=3)
        assert np.all(counts > 1700)  # roughly uniform
        assert len(draws) == 6000  # replacement: more draws than items

    def test_empty_buffer_raises(self):
        buf = ReplayBuffer(2, 1, 2)
        with pytest.raises(IndexError):
            buf.sample(np.random.default_rng(0))

    @settings(deadline=None, max_examples=60)
    @given(capacity=st.integers(1, 8), adds=st.integers(1, 30))
    def test_matches_list_model_fifo(self, capacity, adds):
        buf = ReplayBuffer(capacity, 2000, 2)
        model = []
        for k in range(adds):
            buf.add(numbered(k))
            model = (model + [k])[-capacity:]
            assert len(buf) == len(model)
        assert stored(buf) == set(model)
        batch = buf.sample(np.random.default_rng(1))
        assert np.array_equal(batch.s[:, 0], batch.a)
        assert np.array_equal(batch.r, -batch.a)
        assert np.array_equal(batch.s_next[:, 1], batch.a + 1)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 1, 2)


class TestEpsilonSchedule:
    def test_closed_form_decay(self):
        cfg = tiny_config(episodes=1, episode_length=230)
        agent = init_agent(5, 2, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        for step in acted(230):
            train_step(agent, step, cfg, rng)
        assert agent.epsilon == max(0.999 ** 230, 0.01)
        assert agent.epsilon == pytest.approx(0.7945, abs=5e-4)

    def test_floor_reached(self):
        cfg = tiny_config(episodes=1, episode_length=1, epsilon_decay=0.5)
        agent = init_agent(5, 2, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for step in acted(10):
            train_step(agent, step, cfg, rng)
        assert agent.epsilon == cfg.epsilon_min


class TestActionSelection:
    def test_full_exploration_is_uniform(self):
        agent_params = MlpParams((3, 6))
        agent = _FakeAgent(agent_params, epsilon=1.0)
        rng = np.random.default_rng(4)
        counts = np.bincount([act_epsilon_greedy(agent, np.zeros(3), rng)
                              for _ in range(6000)], minlength=6)
        assert np.all(counts > 800)

    def test_zero_epsilon_is_argmax(self):
        params = MlpParams((2, 4))
        params.layers[0][1][:] = [0.0, 3.0, -1.0, 2.0]
        agent = _FakeAgent(params, epsilon=0.0)
        rng = np.random.default_rng(0)
        assert act_epsilon_greedy(agent, np.zeros(2), rng) == 1

    def test_ties_break_to_lowest_index(self):
        agent = _FakeAgent(MlpParams((2, 4)), epsilon=0.0)
        assert act_epsilon_greedy(agent, np.ones(2),
                                  np.random.default_rng(0)) == 0

    def test_greedy_policy_wrapper_matches(self, two_sensor_scenario):
        # 2 sensors, 1 channel: 5 inputs, 2 actions; action 1 sends sensor 2
        params = MlpParams((5, 2))
        params.layers[0][1][:] = [0.0, 3.0]
        policy = scheduling_policy_from(params, two_sensor_scenario)
        action = policy(env_reset(two_sensor_scenario),
                        np.random.default_rng(0))
        assert action.assignment == (2,)

    def test_weights_of_another_shape_raise_typed_error(self,
                                                        six_sensor_scenario):
        # the 6x3 scenario needs 15 inputs and 120 outputs
        params = init_mlp((8, 4, 6), np.random.default_rng(0))
        with pytest.raises(SensorSchedError, match="15 inputs and 120"):
            make_policy("dqn", six_sensor_scenario, weights=params)


class _FakeAgent:
    def __init__(self, params, epsilon):
        self.online = params
        self.epsilon = epsilon


class TestTargets:
    def test_manual_bellman_backup(self):
        # tabular net: one-hot states index rows of the weight matrix
        q_table = np.array([[1.0, 5.0], [2.0, 0.5]])
        params = MlpParams((2, 2))
        params.layers[0][0][:] = q_table
        s0 = np.array([1.0, 0.0])
        s1 = np.array([0.0, 1.0])
        batch = Transition(s=np.array([s0, s1]), a=np.array([0, 1]),
                           r=np.array([-3.0, 1.0]), s_next=np.array([s1, s0]))
        z = compute_targets(params, batch, 0.9, Workspace((2, 2), 2))
        assert z[0] == pytest.approx(-3.0 + 0.9 * 2.0)
        assert z[1] == pytest.approx(1.0 + 0.9 * 5.0)

    def test_no_terminal_masking(self):
        # continuing task: every target bootstraps, nothing is truncated
        params = MlpParams((1, 1), np.array([7.0, 0.0]))
        batch = Transition(s=np.zeros((1, 1)), a=np.array([0]),
                           r=np.array([0.0]), s_next=np.ones((1, 1)))
        z = compute_targets(params, batch, 0.5, Workspace((1, 1), 1))
        assert z[0] == pytest.approx(3.5)


class TestTrainStepMechanics:
    def _setup(self, cfg):
        agent = init_agent(5, 2, cfg, np.random.default_rng(0))
        return agent, np.random.default_rng(2)

    def test_no_update_until_minibatch_full(self):
        cfg = tiny_config(minibatch_size=8)
        agent, rng = self._setup(cfg)
        frozen = agent.online.copy()
        steps = list(acted(8))
        for step in steps[:7]:
            train_step(agent, step, cfg, rng)
            assert params_equal(agent.online, frozen)
        train_step(agent, steps[7], cfg, rng)
        assert not params_equal(agent.online, frozen)

    def test_ablation_updates_from_first_step(self):
        cfg = tiny_config().ablated()
        agent, rng = self._setup(cfg)
        frozen = agent.online.copy()
        train_step(agent, next(acted(1)), cfg, rng)
        assert not params_equal(agent.online, frozen)

    def test_target_sync_period(self):
        cfg = tiny_config(target_sync_period=5, minibatch_size=2)
        agent, rng = self._setup(cfg)
        for step, transition in enumerate(acted(12), start=1):
            train_step(agent, transition, cfg, rng)
            if step % 5 == 0:
                assert params_equal(agent.target, agent.online)
        # off the sync boundary the target lags the online net
        assert agent.global_step == 12
        assert not params_equal(agent.target, agent.online)

    def test_degenerate_sync_keeps_them_equal(self):
        cfg = tiny_config(target_sync_period=1, minibatch_size=2)
        agent, rng = self._setup(cfg)
        for step in acted(6):
            train_step(agent, step, cfg, rng)
            assert params_equal(agent.target, agent.online)

    def test_nonfinite_reward_raises(self):
        # the sampled transition's -inf reward makes a -inf target
        cfg = tiny_config(minibatch_size=1)
        agent, rng = self._setup(cfg)
        step = Transition(s=np.zeros(5), a=0, r=-np.inf, s_next=np.zeros(5))
        with pytest.raises(NumericalError, match="non-finite targets"):
            train_step(agent, step, cfg, rng)

    def test_target_frozen_between_syncs(self):
        cfg = tiny_config(target_sync_period=100, minibatch_size=2)
        agent, rng = self._setup(cfg)
        snapshot = agent.target.copy()
        for step in acted(20):
            train_step(agent, step, cfg, rng)
        assert params_equal(agent.target, snapshot)


def desk_agent(seed):
    """An agent at the desk sizes (6x3: 15 inputs, 120 actions), with its
    minibatch generator, config and acted transitions."""
    cfg = DqnConfig(hidden_sizes=(128, 128), minibatch_size=32)
    agent = init_agent(15, 120, cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    data = np.random.default_rng(seed + 2)
    steps = [Transition(s=data.random(15), a=int(data.integers(120)),
                        r=-data.random(), s_next=data.random(15))
             for _ in range(150)]
    return agent, rng, cfg, steps


def agent_bytes(agent):
    return (agent.online.flat.tobytes(), agent.target.flat.tobytes(),
            agent.opt.m.tobytes(), agent.opt.v.tobytes())


class TestUpdateBuffers:
    def test_fitted_step_allocates_almost_nothing(self):
        # the workspace, Adam's scratch and the minibatch rows exist after
        # warm-up, so one more fitted step only makes small temporaries
        agent, rng, cfg, steps = desk_agent(0)
        for step in steps[:50]:
            train_step(agent, step, cfg, rng)
        assert agent.opt.timestep > 0
        assert (agent.global_step + 1) % cfg.target_sync_period != 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_step(agent, steps[50], cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024

    def test_agents_stepped_interleaved_match_each_alone(self):
        alone = []
        for seed in (0, 7):
            agent, rng, cfg, steps = desk_agent(seed)
            for step in steps:
                train_step(agent, step, cfg, rng)
            alone.append(agent_bytes(agent))
        runs = [desk_agent(0), desk_agent(7)]
        for k in range(150):
            for agent, rng, cfg, steps in runs:
                train_step(agent, steps[k], cfg, rng)
        assert [agent_bytes(run[0]) for run in runs] == alone


class TestTraining:
    def test_single_action_world_learns_exact_cost(self):
        # one sensor, one perfect channel: every step delivers, so the
        # per-step cost is exactly the steady-state trace
        scn = Scenario(
            [ProcessModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(0.0, 1.0)], seed=0)
        cfg = DqnConfig(episodes=2, episode_length=40, hidden_sizes=(4,),
                        minibatch_size=2, replay_capacity=16, seed=1)
        weights, curve = train(cfg, scn)
        steady = scn.caches[0].trace_at(0)
        for rec in curve:
            assert rec.avg_cost == pytest.approx(steady, rel=1e-9)
        policy = scheduling_policy_from(weights, scn)
        action = policy(env_reset(scn), np.random.default_rng(0))
        assert action.assignment == (1,)

    def test_bit_identical_reruns(self, six_sensor_scenario):
        cfg = tiny_config(episodes=3, episode_length=40)
        w1, c1 = train(cfg, six_sensor_scenario)
        w2, c2 = train(cfg, six_sensor_scenario)
        assert params_equal(w1, w2)
        assert [r.avg_cost for r in c1] == [r.avg_cost for r in c2]
        assert [r.epsilon for r in c1] == [r.epsilon for r in c2]

    def test_seed_changes_the_run(self, six_sensor_scenario):
        c1 = train(tiny_config(), six_sensor_scenario)[1]
        c2 = train(tiny_config(seed=9), six_sensor_scenario)[1]
        assert [r.avg_cost for r in c1] != [r.avg_cost for r in c2]

    def test_curve_metadata(self, six_sensor_scenario):
        cfg = tiny_config(episodes=3, episode_length=25)
        _, curve = train(cfg, six_sensor_scenario)
        assert [r.episode for r in curve] == [0, 1, 2]
        eps = [r.epsilon for r in curve]
        assert eps == sorted(eps, reverse=True)
        lrs = [r.lr for r in curve]
        assert lrs == sorted(lrs, reverse=True)
        assert all(r.wall_seconds == 0.0 for r in curve)  # timing off

    def test_timing_flag_records_wall_clock(self, six_sensor_scenario,
                                            tmp_path):
        cfg = tiny_config(episodes=1, episode_length=25)
        _, curve = train(cfg, six_sensor_scenario, timing=True)
        assert curve[0].wall_seconds > 0.0
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        row = path.read_text().splitlines()[1]
        assert row.split(",")[-1] == repr(curve[0].wall_seconds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_partial_curve(self):
        # unstable process, channel that fails forever: the holding time
        # climbs all episode and the error trace overflows near tau=512,
        # so the run must stop mid-flight
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        cfg = DqnConfig(episodes=10, episode_length=600, hidden_sizes=(4,),
                        minibatch_size=4, replay_capacity=64, seed=0,
                        epsilon_start=0.0, epsilon_min=0.0)
        with pytest.raises(TrainingDivergedError) as info:
            train(cfg, scn)
        assert isinstance(info.value.curve, list)
        assert len(info.value.curve) < 10

    def test_infinite_episode_average_aborts(self):
        # the same starved sensor, but no forward pass (every action is
        # exploratory) and no update (the minibatch outgrows the episode),
        # so the overflowed traces reach only the episode's average cost
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        cfg = DqnConfig(episodes=2, episode_length=600, hidden_sizes=(4,),
                        minibatch_size=700, replay_capacity=700, seed=0,
                        epsilon_start=1.0, epsilon_min=1.0)
        with pytest.raises(TrainingDivergedError,
                           match="episode 0: average cost inf") as info:
            train(cfg, scn)
        assert info.value.curve == []

    def test_agent_too_large_to_allocate_is_a_numerical_error(self):
        # 20 sensors on 20 channels give 20! actions: numpy refuses the
        # output layer's weights before it allocates anything
        scn = Scenario(
            [ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])] * 20,
            [ChannelModel(0.1, 0.9)] * 20, seed=0)
        cfg = DqnConfig(episodes=1, episode_length=1, hidden_sizes=(1,),
                        minibatch_size=1, replay_capacity=1)
        with pytest.raises(NumericalError,
                           match=r"\(60, 1, 2432902008176640000\)"):
            train(cfg, scn)

    def test_observation_scaling_fold_is_exact(self, six_sensor_scenario,
                                               rng):
        from sensorsched import init_mlp, mlp_forward, observation_build, \
            env_reset
        params = init_mlp((15, 8, 120), rng)
        folded = fold_observation_scaling(params, six_sensor_scenario)
        state = env_reset(six_sensor_scenario)
        state.tau[:] = [3, 0, 7, 2, 9, 1]
        raw = observation_build(state, six_sensor_scenario)
        scaled = observation_build(state, six_sensor_scenario, normalize=True)
        assert np.allclose(mlp_forward(folded, raw),
                           mlp_forward(params, scaled), rtol=1e-10)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tau=st.lists(st.integers(0, 60), min_size=6, max_size=6),
           hidden=st.lists(st.integers(1, 12), max_size=2),
           outputs=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_observation_scaling_fold_holds_at_random(self,
                                                      six_sensor_scenario,
                                                      tau, hidden, outputs,
                                                      seed):
        from sensorsched import mlp_forward, observation_build, env_reset
        params = init_mlp((15, *hidden, outputs), np.random.default_rng(seed))
        folded = fold_observation_scaling(params, six_sensor_scenario)
        state = env_reset(six_sensor_scenario)
        state.tau[:] = tau
        raw = observation_build(state, six_sensor_scenario)
        scaled = observation_build(state, six_sensor_scenario, normalize=True)
        assert np.allclose(mlp_forward(folded, raw),
                           mlp_forward(params, scaled), rtol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DqnConfig(discount=1.0)
        with pytest.raises(ValueError):
            DqnConfig(epsilon_min=0.5, epsilon_start=0.1)
        with pytest.raises(ValueError):
            DqnConfig(replay_capacity=8, minibatch_size=32)
        for bad, named in [({"epsilon_decay": 0.0}, "epsilon_decay"),
                           ({"epsilon_decay": 1.5}, "epsilon_decay"),
                           ({"target_sync_period": 0}, "sync period"),
                           ({"minibatch_size": 0}, "minibatch size"),
                           ({"episodes": 0}, "episodes"),
                           ({"episode_length": 0}, "episode_length")]:
            with pytest.raises(ValueError, match=named):
                DqnConfig(**bad)
        abl = DqnConfig().ablated()
        assert (abl.replay_capacity, abl.minibatch_size,
                abl.target_sync_period) == (1, 1, 1)

    @given(name=st.sampled_from(TYPED_FIELDS),
           value=st.one_of(st.text(max_size=4), st.none(), st.booleans(),
                           st.lists(st.integers(), max_size=2)))
    def test_typed_field_of_another_kind_names_the_field(self, name, value):
        with pytest.raises(TypeError, match=name):
            DqnConfig(**{name: value})

    def test_numpy_scalars_pass_the_kind_checks(self):
        cfg = DqnConfig(discount=np.float32(0.9), lr_initial=np.float64(1e-3),
                        episodes=np.int64(3), seed=np.uint8(2),
                        hidden_sizes=[np.int32(4)])
        assert cfg.ablated().episodes == 3


class TestLearningRate:
    def test_inverse_time_decay_values(self):
        cfg = DqnConfig(lr_initial=1e-4, lr_decay=1e-3)
        assert cfg.learning_rate(0) == 1e-4
        assert cfg.learning_rate(1000) == pytest.approx(5e-5, rel=1e-12)
        assert cfg.learning_rate(9000) == pytest.approx(1e-5, rel=1e-12)

    def test_first_fitted_step_uses_lr_initial(self):
        cfg = tiny_config(minibatch_size=1, lr_initial=1e-3, lr_decay=0.5)
        agent = init_agent(5, 2, cfg, np.random.default_rng(0))
        before = agent.online.flat.copy()
        train_step(agent, next(acted(1)), cfg, np.random.default_rng(2))
        # bias-corrected first Adam step is -rate * g/|g| up to eps
        step = np.abs(agent.online.flat - before).max()
        assert step == pytest.approx(1e-3, rel=1e-4)
        assert agent.opt.timestep == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="lr_initial"):
            DqnConfig(lr_initial=0.0)
        with pytest.raises(ValueError, match="lr_decay"):
            DqnConfig(lr_decay=-1.0)
        with pytest.raises(ValueError, match="lr_initial"):
            DqnConfig(lr_initial=float("nan"))


class TestCurveCsv:
    def test_columns_and_determinism(self, six_sensor_scenario, tmp_path):
        cfg = tiny_config(episodes=2, episode_length=20)
        _, curve = train(cfg, six_sensor_scenario)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(curve, p1)
        write_curve_csv(curve, p2)
        lines = p1.read_text().splitlines()
        assert lines[0] == "episode,avg_cost,epsilon,lr,wall_seconds"
        assert len(lines) == 3
        assert all(line.endswith(",0.0") for line in lines[1:])
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(curve=st.lists(st.builds(EpisodeRecord, episode=st.integers(),
                                    avg_cost=CSV_FLOATS, epsilon=CSV_FLOATS,
                                    lr=CSV_FLOATS, wall_seconds=CSV_FLOATS),
                          max_size=5))
    def test_bytes_match_explicit_repr_cells(self, tmp_path, curve):
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        write_curve_csv(curve, ours)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "avg_cost", "epsilon", "lr",
                             "wall_seconds"])
            for rec in curve:
                writer.writerow([
                    rec.episode, repr(rec.avg_cost), repr(rec.epsilon),
                    repr(rec.lr), repr(rec.wall_seconds)])
        assert ours.read_bytes() == reference.read_bytes()
