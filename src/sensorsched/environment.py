"""Scheduling MDP: state, ordered sensor-to-channel actions, step dynamics.

At each step the scheduler sees the previous step's holding times and
channel outcomes, assigns M distinct sensors (1-based ids) to the M
channels, the channels advance their loss chains, and every scheduled
sensor whose channel came up good has its holding time reset to zero while
all other holding times grow by one.  The reward is minus the total error
covariance trace at the new holding times, so maximizing reward minimizes
estimation cost.  There is no terminal state.

Actions are indexed lexicographically over the ordered arrangements of M
distinct sensors out of N (N!/(N-M)! in total), which keeps the discrete
action space of the learning agent dense and enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import perm
from operator import add

import numpy as np

from .channel import ChannelState, channel_step, spawn_channel_rngs


@dataclass(frozen=True)
class SchedAction:
    """assignment[m] = 1-based id of the sensor transmitting on channel m."""
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(s) for s in self.assignment))
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError(f"sensors must be distinct, got {self.assignment}")


@dataclass
class EnvState:
    tau: np.ndarray         # holding time per sensor, steps since delivery
    gamma_prev: np.ndarray  # previous step's channel outcomes
    step_index: int


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray


def action_count(n_sensors, n_channels):
    """Number of ordered assignments: N!/(N-M)!."""
    if not 1 <= n_channels <= n_sensors:
        raise ValueError(
            f"need 1 <= channels <= sensors, got {n_channels}, {n_sensors}")
    return perm(n_sensors, n_channels)


def action_decode(index, n_sensors, n_channels):
    """index -> SchedAction, lexicographic over assignment tuples."""
    total = action_count(n_sensors, n_channels)
    if not 0 <= index < total:
        raise ValueError(f"action index {index} outside [0, {total})")
    available = list(range(1, n_sensors + 1))
    chosen = []
    for pos in range(n_channels):
        block = perm(n_sensors - 1 - pos, n_channels - 1 - pos)
        slot, index = divmod(index, block)
        chosen.append(available.pop(slot))
    return SchedAction(tuple(chosen))


def action_encode(action, n_sensors, n_channels):
    """SchedAction -> index; inverse of action_decode."""
    if len(action.assignment) != n_channels:
        raise ValueError(
            f"action has {len(action.assignment)} entries, expected {n_channels}")
    available = list(range(1, n_sensors + 1))
    index = 0
    for pos, sensor in enumerate(action.assignment):
        if sensor not in available:
            raise ValueError(f"sensor id {sensor} invalid or repeated")
        slot = available.index(sensor)
        index += slot * perm(n_sensors - 1 - pos, n_channels - 1 - pos)
        available.pop(slot)
    return index


def env_reset(scenario):
    """Fresh state: every sensor just delivered, every channel good."""
    n = len(scenario.processes)
    m = len(scenario.channels)
    return EnvState(tau=np.zeros(n, dtype=np.int64),
                    gamma_prev=np.ones(m, dtype=np.int64),
                    step_index=0)


def total_trace(traces):
    """t_0 + t_1 + ... added left to right, as a Python float.

    Costs are defined by this order of additions: np.sum adds pairwise and
    builtin sum() compensates on Python 3.12+, so both can round
    differently.
    """
    return reduce(add, traces.tolist(), 0.0)


def env_step(scenario, state, action, chan_rngs):
    """One transition; returns (new state, reward).

    Channel chains advance regardless of which sensors were scheduled: the
    loss process is a property of the radio environment, not of use.
    """
    n = len(scenario.processes)
    m = len(scenario.channels)
    assignment = action.assignment
    if len(assignment) != m:
        raise ValueError(f"action assigns {len(assignment)} channels, expected {m}")
    for sensor in assignment:
        if not 1 <= sensor <= n:
            raise ValueError(f"sensor id {sensor} outside 1..{n}")
    new_chan = channel_step(scenario.channels, ChannelState(state.gamma_prev),
                            chan_rngs)
    gamma = new_chan.gamma
    tau = state.tau + 1
    for sensor, good in zip(assignment, gamma.tolist()):
        if good:
            tau[sensor - 1] = 0
    reward = 0.0 - total_trace(scenario.traces.at(tau))
    return EnvState(tau=tau, gamma_prev=gamma,
                    step_index=state.step_index + 1), reward


def observation_build(state, scenario, normalize=False):
    """Flat feature vector: holding times, next-step cost traces, outcomes.

    The middle block holds each sensor's covariance trace at tau + 1, the
    cost it will incur if not delivered this step.  With ``normalize`` the
    trace block is divided per sensor by its just-delivered value
    (trace at holding time 1), which puts heterogeneous processes on a
    comparable scale for function approximation.  Length is 2N + M.
    """
    n = len(scenario.processes)
    m = len(scenario.channels)
    obs = np.empty(2 * n + m, dtype=np.float64)
    obs[:n] = state.tau
    obs[n:2 * n] = scenario.traces.at(state.tau + 1)
    if normalize:
        obs[n:2 * n] /= scenario.traces.at(np.ones(n, dtype=np.int64))
    obs[2 * n:] = state.gamma_prev
    return obs


class SchedulingEnv:
    """Stateful wrapper owning the channel RNG substreams.

    The substreams are created once from ``seed`` and persist across
    resets, so successive episodes see fresh channel noise while the whole
    run stays reproducible from the single seed.
    """

    def __init__(self, scenario, seed=0):
        self.scenario = scenario
        self._chan_rngs = spawn_channel_rngs(seed, len(scenario.channels))
        self.state = env_reset(scenario)

    @property
    def n_sensors(self):
        return len(self.scenario.processes)

    @property
    def n_channels(self):
        return len(self.scenario.channels)

    def reset(self):
        self.state = env_reset(self.scenario)
        return self.state

    def step(self, action):
        self.state, reward = env_step(self.scenario, self.state, action,
                                      self._chan_rngs)
        return self.state, reward

    def observe(self, normalize=False):
        return observation_build(self.state, self.scenario, normalize)
