"""Deep Q-learning for the scheduling environment.

Classic recipe: an online network picks epsilon-greedy actions over the
discrete assignment space, transitions go to a bounded FIFO replay memory,
uniform minibatches fit one-step bootstrapped targets computed from a
frozen copy of the network that is resynchronized every
``target_sync_period`` environment steps.  The task is continuing, so
episode boundaries exist only to reset the simulator: no terminal masking
is applied to the targets, and the transition spanning a reset is never
stored.

The ablation (``DqnConfig.ablated``) is the same loop with a replay memory
and minibatch of one transition, so each step fits the latest transition,
and a sync period of one, so the frozen copy is the online network.
"""

from __future__ import annotations

import csv
import numbers
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .channel import spawn_channel_rngs
from .environment import (Transition, action_count, action_decode, env_reset,
                          env_step, observation_build)
from .errors import NumericalError, PersistenceError, TrainingDivergedError
from .neural import (MlpParams, Workspace, adam_update, init_adam, init_mlp,
                     loss_and_gradient, mlp_forward)


def _rows(count, width):
    """An uninitialised Transition of ``count`` rows, ``width`` features."""
    return Transition(s=np.empty((count, width)),
                      a=np.empty(count, dtype=np.int64), r=np.empty(count),
                      s_next=np.empty((count, width)))


class ReplayBuffer:
    """Bounded FIFO transition store with uniform sampling (with replacement)
    of ``batch_size`` rows: one column per Transition field, with the k-th
    add in row k % capacity, and the minibatch rows, both allocated here for
    observations of ``width`` features.  ``sample`` overwrites those rows
    and returns them."""

    def __init__(self, capacity, batch_size, width):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.batch_size = int(batch_size)
        self._columns = _rows(self.capacity, width)
        self._batch = _rows(self.batch_size, width)
        self._added = 0

    def __len__(self):
        return min(self._added, self.capacity)

    def add(self, transition):
        row = self._added % self.capacity
        self._columns.s[row] = transition.s
        self._columns.a[row] = transition.a
        self._columns.r[row] = transition.r
        self._columns.s_next[row] = transition.s_next
        self._added += 1

    def sample(self, rng):
        if not len(self):
            raise IndexError("cannot sample from an empty buffer")
        idx = rng.integers(len(self), size=self.batch_size)
        cols, out = self._columns, self._batch
        # idx is in range, so "clip" only skips the copy "raise" makes of out
        cols.s.take(idx, axis=0, out=out.s, mode="clip")
        cols.a.take(idx, out=out.a, mode="clip")
        cols.r.take(idx, out=out.r, mode="clip")
        cols.s_next.take(idx, axis=0, out=out.s_next, mode="clip")
        return out


_KINDS = {"int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a number")}
# numpy's ValueErrors for an array whose size its index type cannot hold
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def _is_kind(value, kind=numbers.Integral):
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class DqnConfig:
    """Hyperparameters of ``train``.  Fields annotated ``int`` or ``float``
    reject other kinds and booleans with a TypeError naming the field."""
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

    def __post_init__(self):
        for f in fields(self):
            kind, noun = _KINDS.get(f.type, (None, None))
            value = getattr(self, f.name)
            if kind and not _is_kind(value, kind):
                raise TypeError(f"{f.name} must be {noun}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.hidden_sizes, (list, tuple)) or not all(
                _is_kind(h) and h >= 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be a list of positive "
                             f"integers, got {self.hidden_sizes!r}")
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
        if not 0.0 < self.lr_initial < np.inf:  # NaN fails too
            raise ValueError("lr_initial must be finite and > 0")
        if not 0.0 <= self.lr_decay < np.inf:
            raise ValueError("lr_decay must be finite and >= 0")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)

    def learning_rate(self, updates):
        """Inverse-time decay: the Adam step size after ``updates`` fitted
        minibatches, so the very first update uses lr_initial."""
        return self.lr_initial / (1.0 + self.lr_decay * updates)

    def ablated(self):
        """No replay, no frozen target: fit the latest transition only."""
        return replace(self, replay_capacity=1, minibatch_size=1,
                       target_sync_period=1)


@dataclass
class AgentState:
    """``replay`` is the agent's replay memory and ``work`` the network
    workspace every update writes into, both sized by the minibatch."""
    online: MlpParams
    target: MlpParams
    opt: object
    work: Workspace
    replay: ReplayBuffer
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
    """Fresh online/target pair (initially identical), optimizer, workspace
    and empty replay memory; NumericalError if they cannot be allocated."""
    sizes = (obs_dim, *config.hidden_sizes, n_actions)
    rows = config.minibatch_size
    try:
        online = init_mlp(sizes, rng)
        return AgentState(online=online, target=online.copy(),
                          opt=init_adam(online), work=Workspace(sizes, rows),
                          replay=ReplayBuffer(config.replay_capacity, rows,
                                              obs_dim),
                          epsilon=config.epsilon_start)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        raise NumericalError(
            f"cannot allocate an agent with layer sizes {sizes} and replay "
            f"capacity {config.replay_capacity}: {exc}") from exc


def act_epsilon_greedy(agent, obs, rng):
    """Uniform action with probability epsilon, else argmax of the online
    network (ties to the lowest index)."""
    n_actions = agent.online.n_outputs
    if rng.random() < agent.epsilon:
        return int(rng.integers(n_actions))
    return int(np.argmax(mlp_forward(agent.online, obs)))


def compute_targets(target_params, batch, discount, work):
    """One-step bootstrapped targets r + discount * max_a' Q(s', a') in
    ``work.targets``; ``loss_and_gradient`` rejects non-finite ones."""
    q_next = work.forward(target_params, batch.s_next)
    targets = work.targets
    q_next.max(axis=1, out=targets)
    targets *= discount
    targets += batch.r
    return targets


def train_step(agent, transition, config, rng_batch):
    """Learn from one acted transition.

    Order: store the transition in the agent's replay memory, fit one
    minibatch once the memory holds one, count the step, maybe resync the
    frozen copy, decay epsilon.
    """
    agent.replay.add(transition)
    if len(agent.replay) >= config.minibatch_size:
        batch = agent.replay.sample(rng_batch)
        targets = compute_targets(agent.target, batch, config.discount,
                                  agent.work)
        _, grads = loss_and_gradient(agent.online, batch.s, batch.a, targets,
                                     agent.work)
        adam_update(agent.online, grads, agent.opt,
                    config.learning_rate(agent.opt.timestep))

    agent.global_step += 1
    if agent.global_step % config.target_sync_period == 0:
        agent.target = agent.online.copy()
    agent.epsilon = max(
        config.epsilon_start * config.epsilon_decay ** agent.global_step,
        config.epsilon_min)


def train(config, scenario, timing=False):
    """Full training run; returns (weights, per-episode curve).

    Seed handling: four independent substreams (network init, channel
    noise, exploration, minibatch draws) derived from config.seed, so the
    whole run is reproducible bit for bit.  A non-finite episode cost or
    network output aborts with TrainingDivergedError carrying the partial
    curve.  Each step acts on the normalized observation, advances the
    MDP with ``env_step`` and hands the transition to ``train_step``.  The
    returned weights consume raw observations: the trace scaling is folded
    into the first layer before returning.
    """
    root = np.random.SeedSequence(config.seed)
    ss_init, ss_env, ss_act, ss_batch = root.spawn(4)
    rng_init = np.random.Generator(np.random.Philox(ss_init))
    rng_act = np.random.Generator(np.random.Philox(ss_act))
    rng_batch = np.random.Generator(np.random.Philox(ss_batch))

    n = len(scenario.processes)
    m = len(scenario.channels)
    agent = init_agent(2 * n + m, action_count(n, m), config, rng_init)
    chan_rngs = spawn_channel_rngs(ss_env, m)

    curve = []
    for episode in range(config.episodes):
        started = time.perf_counter() if timing else 0.0
        state = env_reset(scenario)
        obs = observation_build(state, scenario, normalize=True)
        total_cost = 0.0
        try:
            for _ in range(config.episode_length):
                a_idx = act_epsilon_greedy(agent, obs, rng_act)
                action = action_decode(a_idx, n, m)
                state, reward = env_step(scenario, state, action, chan_rngs)
                new_obs = observation_build(state, scenario, normalize=True)
                step = Transition(s=obs, a=a_idx, r=reward, s_next=new_obs)
                train_step(agent, step, config, rng_batch)
                obs = new_obs
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
            lr=config.learning_rate(agent.opt.timestep),
            wall_seconds=elapsed))

    return fold_observation_scaling(agent.online, scenario), curve


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
    w0[n:2 * n] /= scenario.traces.at_one[:, None]
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


def write_curve_csv(curve, path):
    """One row per episode.  ``train`` records wall-clock time only when
    asked to, so identical seeds produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(EpisodeRecord)])
        writer.writerows(astuple(rec) for rec in curve)
