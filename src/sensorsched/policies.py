"""Baseline scheduling policies.

Each policy maps (EnvState, rng) to an action, the integer array of M
distinct sensor ids that ``env_step`` takes; greedy-covariance scores the
traces the state carries.  Selection-based policies break score ties by
lowest sensor index and spread the chosen sensors over the channels
uniformly at random, so no baseline encodes channel preferences.
"""

from __future__ import annotations

import numpy as np

POLICY_NAMES = ("random", "roundrobin", "greedy-tau", "greedy-cov", "dqn")


def policy_random(state, rng):
    """Uniform over ordered assignments of M distinct sensors."""
    n = len(state.tau)
    m = len(state.gamma_prev)
    return rng.permutation(n)[:m] + 1


def policy_round_robin(state, rng):
    """Cycle a window of M consecutive sensor ids, advancing by M each step."""
    n = len(state.tau)
    m = len(state.gamma_prev)
    base = (state.step_index * m) % n
    chosen = (base + np.arange(m)) % n
    return chosen[rng.permutation(m)] + 1


def _top_by_score(scores, m, rng):
    # descending score; the stable sort keeps ties in sensor order
    chosen = np.argsort(-scores, kind="stable")[:m]
    return chosen[rng.permutation(m)] + 1


def policy_greedy_holding(state, rng):
    """Schedule the M sensors with the largest holding times."""
    m = len(state.gamma_prev)
    return _top_by_score(state.tau, m, rng)


def policy_greedy_covariance(state, rng):
    """Schedule the M sensors whose current covariance traces are largest."""
    m = len(state.gamma_prev)
    return _top_by_score(state.trace, m, rng)
