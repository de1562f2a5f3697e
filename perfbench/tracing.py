"""Span tracing for the benchmark, installed from outside the package.

Wrappers replace the module attributes through which sensorsched's own
callers reach each public function (``sensorsched.dqn.adam_update``,
``sensorsched.harness.env_step`` and so on), so nothing under ``src/`` is
edited.  Each wrapper records one span in memory: name, start, end and the
enclosing span, nested by a stack.  A span's self time is its duration
minus the time its children cover.  ``SteadyStateCache.trace_at`` gets a
bare call counter instead, because timing a sub-microsecond lookup would
swamp the rollouts that make tens of them per step.  Only the calls that
must extend the table, which multiply matrices, are timed, as
``estimation.trace_at.grow``.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from sensorsched import analysis, dqn, environment, estimation, harness, neural

LAYERS = ("estimation", "channel", "environment", "policies", "neural",
          "dqn", "harness", "analysis")

# (owner, attribute, span name).  One entry per attribute a caller looks
# up at call time; the same public function reached through two modules
# gets one entry per module and one span name.
_SPANS = (
    (dqn, "train", "dqn.train"),
    (dqn, "train_step", "dqn.train_step"),
    (dqn, "act_epsilon_greedy", "dqn.act_epsilon_greedy"),
    (dqn, "compute_targets", "dqn.compute_targets"),
    (dqn.ReplayBuffer, "sample", "dqn.ReplayBuffer.sample"),
    (dqn, "loss_and_gradient", "neural.loss_and_gradient"),
    (dqn, "adam_update", "neural.adam_update"),
    (neural.MlpParams, "copy", "neural.MlpParams.copy"),
    (environment, "env_step", "environment.env_step"),
    (harness, "env_step", "environment.env_step"),
    (analysis, "env_step", "environment.env_step"),
    (environment, "observation_build", "environment.observation_build"),
    (dqn, "observation_build", "environment.observation_build"),
    (dqn, "action_decode", "environment.action_decode"),
    (environment, "channel_step", "channel.channel_step"),
    (analysis, "channel_step", "channel.channel_step"),
    (harness, "steady_state_covariance",
     "estimation.steady_state_covariance"),
    (harness, "policy_random", "policies.random"),
    (harness, "policy_round_robin", "policies.roundrobin"),
    (harness, "policy_greedy_holding", "policies.greedy-tau"),
    (harness, "policy_greedy_covariance", "policies.greedy-cov"),
    (harness, "evaluate_policy", "harness.evaluate_policy"),
    (harness, "scenario_generate", "harness.scenario_generate"),
    (harness, "load_scenario", "harness.load_scenario"),
    (harness, "stability_check", "analysis.stability_check"),
    (analysis, "threshold_policy_running_cost",
     "analysis.threshold_policy_running_cost"),
    (analysis, "discounted_vs_average", "analysis.discounted_vs_average"),
)


class Tracer:
    """In-memory span store; spans are appended in start order."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self.trace_at_calls = [0]
        self.replay_fill = [0]

    def span(self, name, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts = self.name_id, self.parent, self.start
        ends, selfs = self.end, self.self_time
        stack, child = self._stack, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            selfs.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                ends[idx] = t1
                selfs[idx] = dur - child.pop()
                child[-1] += dur
        return traced

    def arrays(self):
        # copies, so the arrays can keep growing afterwards
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "self_time": np.array(self.self_time, dtype=np.float64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def make_patches(tracer):
    """(owner, attribute, replacement) for every traced entry point."""
    out = []
    for owner, attr, name in _SPANS:
        out.append((owner, attr, tracer.span(name, getattr(owner, attr))))

    forward = dqn.mlp_forward
    single = tracer.span("neural.mlp_forward.single", forward)
    batch = tracer.span("neural.mlp_forward.batch", forward)

    def mlp_forward(params, x):
        return single(params, x) if np.ndim(x) == 1 else batch(params, x)
    out.append((dqn, "mlp_forward", mlp_forward))

    make_dqn_policy = harness.scheduling_policy_from

    def scheduling_policy_from(params, scenario):
        return tracer.span("dqn.scheduling_policy",
                           make_dqn_policy(params, scenario))
    out.append((harness, "scheduling_policy_from", scheduling_policy_from))

    add = tracer.span("dqn.ReplayBuffer.add", dqn.ReplayBuffer.add)
    fill = tracer.replay_fill

    def replay_add(self, transition):
        add(self, transition)
        fill[0] = max(fill[0], len(self))
    out.append((dqn.ReplayBuffer, "add", replay_add))

    trace_at = estimation.SteadyStateCache.trace_at
    grow = tracer.span("estimation.trace_at.grow", trace_at)
    calls = tracer.trace_at_calls

    def counted_trace_at(self, n):
        calls[0] += 1
        if n >= len(self.trace_powers):
            return grow(self, n)
        return trace_at(self, n)
    out.append((estimation.SteadyStateCache, "trace_at", counted_trace_at))
    return out


@contextmanager
def installed(patches):
    """Swap the wrappers in for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer, windows):
    """Per-name call statistics plus each layer's share of the timed calls.

    ``windows`` are the (start, end) intervals of the benchmark's timed
    calls in the traced phase; a layer's self_share is its self time inside
    them divided by their total length.
    """
    arr = tracer.arrays()
    ids, starts = arr["name_id"], arr["start"]
    durs = arr["end"] - starts
    selfs = arr["self_time"]
    stats = {}
    for nid, name in enumerate(tracer.names):
        mask = ids == nid
        if not mask.any():
            continue
        d, s = durs[mask], selfs[mask]
        stats[name] = {"calls": int(mask.sum()),
                       "dur_median": float(np.median(d)),
                       "dur_p99": float(np.percentile(d, 99)),
                       "self_median": float(np.median(s)),
                       "self_p99": float(np.percentile(s, 99)),
                       "self_total": float(s.sum())}
    shares = dict.fromkeys(LAYERS, 0.0)
    if windows:
        w = np.array(sorted(windows))
        slot = np.searchsorted(w[:, 0], starts, side="right") - 1
        inside = (slot >= 0) & (starts < w[np.maximum(slot, 0), 1])
        total = float((w[:, 1] - w[:, 0]).sum())
        layer_of = np.array([LAYERS.index(n.split(".")[0])
                             for n in tracer.names], dtype=np.int64)
        per_layer = np.bincount(layer_of[ids[inside]], weights=selfs[inside],
                                minlength=len(LAYERS))
        shares = {layer: float(per_layer[i] / total)
                  for i, layer in enumerate(LAYERS)}
    return stats, shares


def count_nested(tracer, child, parent):
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    if child not in tracer._ids or parent not in tracer._ids:
        return 0
    arr = tracer.arrays()
    ids, parents = arr["name_id"], arr["parent"]
    idx = parents[ids == tracer._ids[child]]
    idx = idx[idx >= 0]
    return int(np.count_nonzero(ids[idx] == tracer._ids[parent]))
