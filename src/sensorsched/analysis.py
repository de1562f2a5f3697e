"""Stability diagnostics for sensor-scheduling scenarios.

The key sufficient condition: if the largest process spectral radius
rho_max and the best channel recovery rate q_max satisfy
rho_max^2 * (1 - q_max) < 1, some scheduling policy keeps the expected
estimation cost bounded.  ``margin`` is 1 - rho_max^2 (1 - q_max), so
positive margin means the condition holds.  A concrete such policy is the
threshold rule simulated by ``threshold_policy_running_cost``: reserve the
most reliable channel for whichever sensor has gone longest without a
delivery, once its holding time passes a threshold.

``success_shortfall_bound`` supports that argument: it bounds the
probability that a window of L uses of a channel with recovery rate
q_star contains fewer than n_sensors successes, and decays geometrically
in L, with per-step decay rate approaching (1 - q_star).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, lgamma, log, log1p

import numpy as np

from .channel import channel_reset, channel_step, spawn_channel_rngs
# env_step is not called here; perfbench/tracing.py patches it by this name
from .environment import env_step, rollout, total_trace  # noqa: F401


def spectral_radius(A):
    """Largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=np.float64)))))


@dataclass(frozen=True)
class StabilityReport:
    rho_max: float   # largest spectral radius over the processes
    q_max: float     # best channel recovery rate
    margin: float    # 1 - rho_max^2 * (1 - q_max); > 0 means stabilizable
    satisfied: bool


def stability_check(scenario):
    """Evaluate the sufficient boundedness condition for a scenario."""
    rho_max = max(spectral_radius(p.A) for p in scenario.processes)
    q_max = max(c.q for c in scenario.channels)
    margin = 1.0 - rho_max ** 2 * (1.0 - q_max)
    return StabilityReport(rho_max=rho_max, q_max=q_max, margin=margin,
                           satisfied=margin > 0.0)


def log_success_shortfall_bound(n_sensors, window, q_star, slack):
    """Natural log of success_shortfall_bound; usable far past float64 range."""
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    if not 0 <= slack < n_sensors:
        raise ValueError(f"slack must lie in [0, {n_sensors}), got {slack}")
    if window <= 2 * n_sensors:
        raise ValueError(f"window must exceed {2 * n_sensors}, got {window}")
    if not 0.0 < q_star <= 1.0:
        raise ValueError(f"q_star must lie in (0, 1], got {q_star}")
    if q_star == 1.0 or n_sensors == 1:
        return -inf
    log_binom = (lgamma(window + 1) - lgamma(n_sensors)
                 - lgamma(window - n_sensors + 2))
    return (log(n_sensors - 1) + log_binom
            + (window - 2 * slack) * log1p(-q_star))


def success_shortfall_bound(n_sensors, window, q_star, slack):
    """Upper bound on P(fewer than n_sensors successes in a window).

    Bound: (N-1) * C(window, N-1) * (1 - q_star)^(window - 2*slack), valid
    for window > 2N and slack < N on a channel whose recovery rate is
    q_star.  Its window-th root tends to 1 - q_star as the window grows.
    """
    return exp(log_success_shortfall_bound(n_sensors, window, q_star, slack))


def threshold_policy_running_cost(scenario, threshold, steps, seed=0):
    """Simulate the stabilizing threshold rule; return running average cost.

    Only the most reliable channel is used.  At each step the sensor with
    the largest holding time (ties to the lowest index) transmits on it,
    but only once that holding time exceeds ``threshold``; otherwise
    nothing is sent.  All loss chains still advance so the sample path
    matches the full environment's channel behavior.
    """
    n = len(scenario.processes)
    q_values = [c.q for c in scenario.channels]
    best = int(np.argmax(q_values))
    rngs = spawn_channel_rngs(seed, len(scenario.channels))
    gamma = channel_reset(scenario.channels)
    tau = np.zeros(n, dtype=np.int64)
    running = np.empty(steps)
    cumulative = 0.0
    for k in range(steps):
        sender = int(np.argmax(tau))
        transmitting = tau[sender] > threshold
        gamma = channel_step(scenario.channels, gamma, rngs)
        tau += 1
        if transmitting and gamma[best] == 1:
            tau[sender] = 0
        cumulative += total_trace(scenario.traces.at(tau))
        running[k] = cumulative / (k + 1)
    return running


@dataclass(frozen=True)
class DiscountComparison:
    delta: float
    discounted: float     # (1 - delta) * sum_k delta^k * cost_k
    time_average: float   # mean of the same costs, as evaluate_policy takes it


def abel_comparison(costs, deltas):
    """Normalized discounted sums next to the time average of one cost path.

    As delta approaches 1 the discounted value approaches the time average
    (make the horizon long enough that delta^T is negligible).  Any
    non-finite cost makes every summary +inf.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1 or costs.size == 0:
        raise ValueError("costs must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(costs)):
        return [DiscountComparison(float(d), inf, inf) for d in deltas]
    average = total_trace(costs) / len(costs)
    rows = []
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        weights = np.power(delta, np.arange(costs.size))
        discounted = float((1.0 - delta) * np.dot(weights, costs))
        rows.append(DiscountComparison(float(delta), discounted, average))
    return rows


def discounted_vs_average(scenario, policy, deltas, horizon, seed=0):
    """Run a policy for ``horizon`` steps and tabulate abel_comparison rows.

    A rollout stopped by overflow gives +inf rows, as an infinite cost
    would.
    """
    costs, _, overflow_step = rollout(scenario, policy, horizon, seed)
    return abel_comparison(costs if overflow_step is None else [inf], deltas)
