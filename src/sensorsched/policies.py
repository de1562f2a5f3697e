"""Baseline scheduling policies.

Each policy maps (EnvState, rng) to a SchedAction; greedy-covariance
scores the traces the state carries.  Selection-based policies break
score ties by lowest sensor index and spread the chosen sensors over the
channels uniformly at random, so no baseline encodes channel preferences.
"""

from __future__ import annotations

import numpy as np

from .environment import SchedAction

POLICY_NAMES = ("random", "roundrobin", "greedy-tau", "greedy-cov", "dqn")


def _assign_randomly(chosen, rng):
    order = rng.permutation(len(chosen))
    return SchedAction(tuple(int(chosen[k]) + 1 for k in order))


def policy_random(state, rng):
    """Uniform over ordered assignments of M distinct sensors."""
    n = len(state.tau)
    m = len(state.gamma_prev)
    picks = rng.permutation(n)[:m]
    return SchedAction(tuple(int(i) + 1 for i in picks))


def policy_round_robin(state, rng):
    """Cycle a window of M consecutive sensor ids, advancing by M each step."""
    n = len(state.tau)
    m = len(state.gamma_prev)
    base = (state.step_index * m) % n
    chosen = [(base + j) % n for j in range(m)]
    return _assign_randomly(chosen, rng)


def _top_by_score(scores, m, rng):
    # descending score; the stable sort keeps ties in sensor order
    order = np.argsort(-scores, kind="stable")
    return _assign_randomly(order[:m], rng)


def policy_greedy_holding(state, rng):
    """Schedule the M sensors with the largest holding times."""
    m = len(state.gamma_prev)
    return _top_by_score(state.tau, m, rng)


def policy_greedy_covariance(state, rng):
    """Schedule the M sensors whose current covariance traces are largest."""
    m = len(state.gamma_prev)
    return _top_by_score(state.trace, m, rng)
