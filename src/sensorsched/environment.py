"""Scheduling MDP: state, ordered sensor-to-channel actions, step dynamics.

At each step the scheduler sees the previous step's holding times and
channel outcomes, assigns M distinct sensors (1-based ids) to the M
channels, the channels advance their loss chains, and every scheduled
sensor whose channel came up good has its holding time reset to zero while
all other holding times grow by one.  The reward is minus the total error
covariance trace at the new holding times, so maximizing reward minimizes
estimation cost.  There is no terminal state.  ``rollout`` runs a policy
along one trajectory of this MDP; every policy evaluation goes through it.

Actions are indexed lexicographically over the ordered arrangements of M
distinct sensors out of N (N!/(N-M)! in total), which keeps the discrete
action space of the learning agent dense and enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import isfinite, perm
from operator import add

import numpy as np

from .channel import channel_reset, channel_step, spawn_channel_rngs
from .errors import NumericalError


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
    trace: np.ndarray       # per-sensor cost: covariance trace at tau
    gamma_prev: np.ndarray  # previous step's channel outcomes
    step_index: int


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray


def action_count(n_sensors, n_channels):
    """Number of ordered assignments, N!/(N-M)!; needs 1 <= M <= N."""
    if not 1 <= n_channels <= n_sensors:
        raise ValueError(f"need 1 <= n_channels <= n_sensors, got "
                         f"{n_channels} channels, {n_sensors} sensors")
    return perm(n_sensors, n_channels)


@lru_cache(maxsize=4096, typed=True)
def action_decode(index, n_sensors, n_channels):
    """index -> SchedAction, lexicographic over assignment tuples.

    Memoized: SchedAction is frozen, so callers may share instances.  A
    rejected index raises every time, since exceptions are not cached."""
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
    tau = np.zeros(len(scenario.processes), dtype=np.int64)
    return EnvState(tau=tau, trace=scenario.traces.at(tau),
                    gamma_prev=channel_reset(scenario.channels),
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
    gamma = channel_step(scenario.channels, state.gamma_prev, chan_rngs)
    tau = state.tau + 1
    for sensor, good in zip(assignment, gamma.tolist()):
        if good:
            tau[sensor - 1] = 0
    trace = scenario.traces.at(tau)
    return EnvState(tau=tau, trace=trace, gamma_prev=gamma,
                    step_index=state.step_index + 1), 0.0 - total_trace(trace)


def step_buffer(steps):
    """An uninitialised array of ``steps`` floats: ValueError if steps < 1,
    else NumericalError if numpy refuses it, which means it is too large."""
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    try:
        return np.empty(steps)
    except (MemoryError, ValueError) as exc:
        raise NumericalError(
            f"cannot allocate a run of {steps} steps: {exc}") from exc


def rollout(scenario, policy, steps, seed):
    """Run a policy along one continuous trajectory of ``steps`` steps.

    Returns (costs, trace_sums, overflow_step): the cost of each completed
    step in order, the per-sensor traces summed over those steps, and the
    step at which the run overflowed, or None.  The seed spawns the channel
    streams and the policy's generator, so every policy run from one seed
    sees the same channel sample path.  No resets: long-run behavior is
    what matters for a continuing task.  A non-finite cost stops the run,
    and so does a NumericalError from the policy: a learned policy reads
    the traces, and once those overflow its network cannot evaluate.
    Too few ``steps`` raise ValueError, too many to allocate NumericalError.
    """
    costs = step_buffer(steps)
    ss_chan, ss_policy = np.random.SeedSequence(seed).spawn(2)
    chan_rngs = spawn_channel_rngs(ss_chan, len(scenario.channels))
    policy_rng = np.random.Generator(np.random.Philox(ss_policy))
    state = env_reset(scenario)
    trace_sums = np.zeros(len(scenario.processes))
    # overflow is an anticipated, reported outcome, so the run-up to it
    # should not spray numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            try:
                action = policy(state, policy_rng)
            except NumericalError:
                return costs[:k], trace_sums, k
            state, reward = env_step(scenario, state, action, chan_rngs)
            costs[k] = -reward
            if not isfinite(costs[k]):
                return costs[:k], trace_sums, k
            trace_sums += state.trace
    return costs, trace_sums, None


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
        obs[n:2 * n] /= scenario.traces.at_one
    obs[2 * n:] = state.gamma_prev
    return obs

