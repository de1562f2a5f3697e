"""Deep Q-learning for the scheduling environment.

Classic recipe: an online network picks epsilon-greedy actions over the
discrete assignment space, transitions go to a bounded FIFO replay memory,
uniform minibatches fit one-step bootstrapped targets computed from a
frozen copy of the network that is resynchronized every
``target_sync_period`` environment steps.  The task is continuing, so
episode boundaries exist only to reset the simulator: no terminal masking
is applied to the targets, and the transition spanning a reset is never
stored.

Ablation switches: ``use_replay=False`` fits each step on the most recent
transition only, and ``target_sync_period=1`` degenerates the frozen copy
to the online network.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .environment import (SchedulingEnv, Transition, action_count,
                          action_decode, observation_build)
from .errors import NumericalError, PersistenceError, TrainingDivergedError
from .neural import (LrSchedule, MlpParams, adam_update, init_adam, init_mlp,
                     loss_and_gradient, mlp_forward)


class ReplayBuffer:
    """Bounded FIFO transition store with uniform sampling (with replacement):
    one column per Transition field, allocated on the first add, with the
    k-th add in row k % capacity.  Reads return a Transition of row arrays."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._columns = None
        self._added = 0

    def __len__(self):
        return min(self._added, self.capacity)

    def add(self, transition):
        if self._columns is None:
            rows, width = self.capacity, len(transition.s)
            self._columns = Transition(
                s=np.empty((rows, width)), a=np.empty(rows, dtype=np.int64),
                r=np.empty(rows), s_next=np.empty((rows, width)))
        row = self._added % self.capacity
        self._columns.s[row] = transition.s
        self._columns.a[row] = transition.a
        self._columns.r[row] = transition.r
        self._columns.s_next[row] = transition.s_next
        self._added += 1

    def _rows(self, idx):
        cols = self._columns
        return Transition(s=cols.s[idx], a=cols.a[idx], r=cols.r[idx],
                          s_next=cols.s_next[idx])

    def latest(self):
        """The most recent transition as a batch of one."""
        if not len(self):
            raise IndexError("buffer is empty")
        return self._rows([(self._added - 1) % self.capacity])

    def sample(self, batch_size, rng):
        if not len(self):
            raise IndexError("cannot sample from an empty buffer")
        return self._rows(rng.integers(len(self), size=batch_size))


@dataclass
class DqnConfig:
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.01
    epsilon_decay: float = 0.999
    target_sync_period: int = 100
    minibatch_size: int = 32
    replay_capacity: int = 20_000
    episode_length: int = 500
    episodes: int = 100
    hidden_sizes: tuple = (128, 128)
    lr_initial: float = 1e-4
    lr_decay: float = 1e-3
    seed: int = 0
    use_replay: bool = True
    normalize_obs: bool = True

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.target_sync_period < 1 or self.minibatch_size < 1:
            raise ValueError("sync period and minibatch size must be >= 1")
        if self.replay_capacity < self.minibatch_size:
            raise ValueError("replay capacity must hold at least one minibatch")
        if self.episode_length < 1 or self.episodes < 1:
            raise ValueError("episodes and episode_length must be >= 1")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)

    def ablated(self):
        """No replay, no frozen target: fit the latest transition only."""
        return replace(self, use_replay=False, target_sync_period=1)


@dataclass
class AgentState:
    online: MlpParams
    target: MlpParams
    opt: object
    epsilon: float
    global_step: int = 0


@dataclass
class EpisodeRecord:
    episode: int
    avg_cost: float
    epsilon: float
    lr: float
    wall_seconds: float


def init_agent(obs_dim, n_actions, config, rng):
    """Fresh online/target pair (initially identical) plus optimizer."""
    sizes = (obs_dim, *config.hidden_sizes, n_actions)
    online = init_mlp(sizes, rng)
    return AgentState(online=online, target=online.copy(),
                      opt=init_adam(online), epsilon=config.epsilon_start)


def act_epsilon_greedy(agent, obs, rng):
    """Uniform action with probability epsilon, else argmax of the online
    network (ties to the lowest index)."""
    n_actions = agent.online.n_outputs
    if rng.random() < agent.epsilon:
        return int(rng.integers(n_actions))
    return int(np.argmax(mlp_forward(agent.online, obs)))


def compute_targets(target_params, batch, discount):
    """One-step bootstrapped targets r + discount * max_a' Q(s', a')."""
    q_next = mlp_forward(target_params, batch.s_next)
    targets = batch.r + discount * q_next.max(axis=1)
    if not np.all(np.isfinite(targets)):
        raise NumericalError("non-finite bootstrapped targets")
    return targets


def train_step(agent, env, buffer, obs, config, sched, rng_action, rng_batch):
    """One interaction plus (once warm) one fitted minibatch.

    Order per step: act, advance the environment, store the transition,
    update the online network, count the step, maybe resync the frozen
    copy, decay epsilon.  Returns (next observation, reward).
    """
    a_idx = act_epsilon_greedy(agent, obs, rng_action)
    action = action_decode(a_idx, env.n_sensors, env.n_channels)
    _, reward = env.step(action)
    new_obs = env.observe(normalize=config.normalize_obs)
    buffer.add(Transition(s=obs, a=a_idx, r=reward, s_next=new_obs))

    warm = config.minibatch_size if config.use_replay else 1
    if len(buffer) >= warm:
        if config.use_replay:
            batch = buffer.sample(config.minibatch_size, rng_batch)
        else:
            batch = buffer.latest()
        targets = compute_targets(agent.target, batch, config.discount)
        _, grads = loss_and_gradient(agent.online, batch.s, batch.a, targets)
        adam_update(agent.online, grads, agent.opt, sched)

    agent.global_step += 1
    if agent.global_step % config.target_sync_period == 0:
        agent.target = agent.online.copy()
    agent.epsilon = max(
        config.epsilon_start * config.epsilon_decay ** agent.global_step,
        config.epsilon_min)
    return new_obs, reward


def train(config, scenario, timing=False):
    """Full training run; returns (weights, per-episode curve).

    Seed handling: four independent substreams (network init, channel
    noise, exploration, minibatch draws) derived from config.seed, so the
    whole run is reproducible bit for bit.  A non-finite episode cost or
    network output aborts with TrainingDivergedError carrying the partial
    curve.  The returned weights always consume raw observations: if
    training normalized the trace features, the scaling is folded into the
    first layer before returning.
    """
    root = np.random.SeedSequence(config.seed)
    ss_init, ss_env, ss_act, ss_batch = root.spawn(4)
    rng_init = np.random.Generator(np.random.Philox(ss_init))
    rng_act = np.random.Generator(np.random.Philox(ss_act))
    rng_batch = np.random.Generator(np.random.Philox(ss_batch))

    n = len(scenario.processes)
    m = len(scenario.channels)
    agent = init_agent(2 * n + m, action_count(n, m), config, rng_init)
    sched = LrSchedule(config.lr_initial, config.lr_decay)
    env = SchedulingEnv(scenario, seed=ss_env)
    buffer = ReplayBuffer(config.replay_capacity)

    curve = []
    for episode in range(config.episodes):
        started = time.perf_counter() if timing else 0.0
        env.reset()
        obs = env.observe(normalize=config.normalize_obs)
        total_cost = 0.0
        try:
            for _ in range(config.episode_length):
                obs, reward = train_step(agent, env, buffer, obs, config,
                                         sched, rng_act, rng_batch)
                total_cost -= reward
        except NumericalError as exc:
            raise TrainingDivergedError(
                f"episode {episode}: {exc}", curve=curve) from exc
        avg_cost = total_cost / config.episode_length
        if not np.isfinite(avg_cost):
            raise TrainingDivergedError(
                f"episode {episode}: average cost {avg_cost}", curve=curve)
        elapsed = time.perf_counter() - started if timing else 0.0
        curve.append(EpisodeRecord(
            episode=episode, avg_cost=avg_cost, epsilon=agent.epsilon,
            lr=sched.rate(agent.opt.timestep), wall_seconds=elapsed))

    weights = agent.online
    if config.normalize_obs:
        weights = fold_observation_scaling(weights, scenario)
    return weights, curve


def fold_observation_scaling(params, scenario):
    """Rewrite first-layer weights so the net accepts raw observations.

    Dividing input feature i by a constant c is equivalent to dividing row
    i of the first weight matrix by c; applying that to the trace block
    makes the trained network and the raw observation convention agree, so
    saved weights need no companion scaling metadata.
    """
    folded = params.copy()
    w0 = folded.layers[0][0]
    n = len(scenario.processes)
    if w0.shape[0] != 2 * n + len(scenario.channels):
        raise ValueError("network input width does not match the scenario")
    w0[n:2 * n] /= scenario.traces.at(np.ones(n, dtype=np.int64))[:, None]
    return folded


def scheduling_policy_from(params, scenario):
    """Greedy (state, rng) -> SchedAction policy, ties to the lowest index.

    Raises PersistenceError if the network does not take this scenario's
    2N + M observation or does not output its N!/(N-M)! actions.
    """
    n = len(scenario.processes)
    m = len(scenario.channels)
    needed = (2 * n + m, action_count(n, m))
    if (params.layer_sizes[0], params.n_outputs) != needed:
        raise PersistenceError(
            f"weights with layer sizes {params.layer_sizes} do not fit this "
            f"scenario: it needs {needed[0]} inputs and {needed[1]} outputs")

    def policy(state, rng):
        obs = observation_build(state, scenario)
        return action_decode(int(np.argmax(mlp_forward(params, obs))), n, m)
    return policy


def write_curve_csv(curve, path, timing=False):
    """One row per episode.  Wall-clock timing is zeroed unless requested,
    so identical seeds produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "avg_cost", "epsilon", "lr",
                         "wall_seconds"])
        for rec in curve:
            writer.writerow([
                rec.episode, repr(rec.avg_cost), repr(rec.epsilon),
                repr(rec.lr), repr(rec.wall_seconds) if timing else "0.0"])
