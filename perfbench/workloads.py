"""The benchmark's three closed-loop workloads.

Each workload has a set-up, run several times so its median is steady,
and a round: the operations one caller runs back to back, each waiting
on the last.  Only the calls into sensorsched's public entry points are
timed; loading a fresh scenario and checking outputs happen outside the
timed calls.  Every round of a run uses the same inputs, so each round's
output digests must equal the first round's.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from sensorsched import analysis, dqn, harness, neural

# The desk config: 6 sensors, 3 channels, 128x128 hidden layers,
# minibatch 32, replay 20 000, target sync 100 and 500-step episodes.
DESK = dict(hidden_sizes=(128, 128), minibatch_size=32,
            replay_capacity=20_000, target_sync_period=100)
BASELINES = ("random", "roundrobin", "greedy-tau", "greedy-cov")
DELTAS = (0.9, 0.99, 0.999)
THRESHOLD = 0
REL_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    setup_repeats: int
    train_episodes: int      # per train-desk operation
    episode_length: int
    rollout_steps: int       # per rollout-wide rollout
    infer_steps: int         # per infer-desk evaluation


FULL = Size(setup_repeats=3, train_episodes=2, episode_length=500,
            rollout_steps=1000, infer_steps=1000)
TINY = Size(setup_repeats=2, train_episodes=1, episode_length=40,
            rollout_steps=30, infer_steps=30)


class OutputError(Exception):
    """An operation returned, but its output failed a check."""


def require(ok, message):
    if not ok:
        raise OutputError(message)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Clock:
    """Times the calls into the package and keeps their intervals."""

    def __init__(self):
        self.windows = []

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.windows.append((t0, time.perf_counter()))
        return out

    def busy_since(self, first):
        return sum(end - start for start, end in self.windows[first:])


@dataclass
class Round:
    steps: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # op label -> sha256
    costs: dict = field(default_factory=dict)     # label -> repr(avg cost)
    entry_steps: dict = field(default_factory=dict)
    entries_grown: int = 0
    layer_sizes: tuple = ()
    seconds: float = 0.0

    def attempt(self, label, op):
        """Run one operation; an exception or failed check is a failure."""
        self.attempted += 1
        try:
            op()
        except Exception as exc:  # every failure is counted, none is fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def add_steps(self, entry, steps):
        self.steps += steps
        self.entry_steps[entry] = self.entry_steps.get(entry, 0) + steps


def table_entries(scenario):
    return sum(len(cache.trace_powers) for cache in scenario.caches)


def fresh_scenario(n, m, seed, workdir):
    """Draw, save and reload a scenario, as ``gen-scenario`` then a later
    command would.  Returns the loaded scenario, its path and the set-up
    state every workload starts from."""
    drawn = harness.scenario_generate(n, m, seed=seed)
    path = workdir / f"scenario-{n}x{m}.json"
    harness.save_scenario(drawn, path)
    state = {"generated": [drawn.metadata], "train_calls": 0,
             "digests": {"setup.scenario": sha256(path.read_bytes())}}
    return harness.load_scenario(path), path, state


def check_report(report, steps):
    require(report.overflow_step is None,
            f"cost overflowed at step {report.overflow_step}")
    require(report.steps == steps, f"{report.steps} of {steps} steps")
    avg = report.empirical_avg_cost
    require(math.isfinite(avg), f"average cost {avg!r}")
    total = math.fsum(report.per_sensor_mean_trace)
    require(abs(total - avg) <= REL_TOL * abs(avg),
            f"per-sensor traces sum to {total!r}, average cost {avg!r}")


def report_digest(report):
    return sha256(repr((report.policy, report.steps, report.empirical_avg_cost,
                        report.per_sensor_mean_trace)).encode())


def weights_bytes(weights, workdir):
    """save_weights output, checked to round-trip bit for bit."""
    path = workdir / "weights.bin"
    neural.save_weights(weights, path)
    loaded = neural.load_weights(path)
    require(loaded.layer_sizes == weights.layer_sizes, "layer sizes changed")
    for (w, b), (w2, b2) in zip(weights.layers, loaded.layers):
        require(w.tobytes() == w2.tobytes() and b.tobytes() == b2.tobytes(),
                "weights changed in a save/load round trip")
        require(np.isfinite(w).all() and np.isfinite(b).all(),
                "non-finite weights")
    return path.read_bytes(), loaded


def curve_bytes(curve, episodes, workdir):
    require(len(curve) == episodes, f"{len(curve)} of {episodes} episodes")
    for rec in curve:
        require(math.isfinite(rec.avg_cost),
                f"episode {rec.episode} cost {rec.avg_cost!r}")
    path = workdir / "curve.csv"
    dqn.write_curve_csv(curve, path)
    return path.read_bytes()


def desk_config(episodes, size, seed):
    return dqn.DqnConfig(episodes=episodes, episode_length=size.episode_length,
                         seed=seed, **DESK)


# --- train-desk --------------------------------------------------------

def train_setup(seed, size, workdir):
    scenario, _, state = fresh_scenario(6, 3, seed, workdir)
    state["scenario"] = scenario
    return state


def train_round(state, clock, seed, size, workdir):
    rnd = Round()
    config = desk_config(size.train_episodes, size, seed)
    scenario = state["scenario"]

    def op():
        before = table_entries(scenario)
        weights, curve = clock.call(dqn.train, config, scenario)
        rnd.entries_grown += table_entries(scenario) - before
        curve_raw = curve_bytes(curve, config.episodes, workdir)
        raw, _ = weights_bytes(weights, workdir)
        rnd.add_steps("dqn.train", config.episodes * config.episode_length)
        rnd.layer_sizes = weights.layer_sizes
        rnd.digests["train.weights"] = sha256(raw)
        rnd.digests["train.curve"] = sha256(curve_raw)
        for rec in curve:
            rnd.costs[f"train.episode{rec.episode}"] = repr(rec.avg_cost)
    rnd.attempt("train", op)
    return rnd


# --- rollout-wide ------------------------------------------------------

def rollout_setup(seed, size, workdir):
    _, path, state = fresh_scenario(20, 5, seed, workdir)
    state["path"] = path
    return state


def rollout_round(state, clock, seed, size, workdir):
    """Six rollouts at 20x5, each on a freshly loaded scenario so that its
    trace tables start cold, as in a new ``eval`` process."""
    rnd = Round()
    steps = size.rollout_steps
    avg_costs = {}

    def fresh():
        scenario = harness.load_scenario(state["path"])
        return scenario, table_entries(scenario)

    def baseline(name):
        scenario, before = fresh()
        policy = harness.make_policy(name, scenario)
        report = clock.call(harness.evaluate_policy, scenario, policy, steps,
                            seed=seed, name=name)
        rnd.entries_grown += table_entries(scenario) - before
        check_report(report, steps)
        rnd.add_steps("harness.evaluate_policy", steps)
        rnd.digests[f"eval.{name}"] = report_digest(report)
        rnd.costs[f"eval.{name}"] = repr(report.empirical_avg_cost)
        avg_costs[name] = report.empirical_avg_cost

    def threshold():
        scenario, before = fresh()
        running = clock.call(analysis.threshold_policy_running_cost, scenario,
                             THRESHOLD, steps, seed=seed)
        rnd.entries_grown += table_entries(scenario) - before
        require(len(running) == steps, f"{len(running)} of {steps} entries")
        require(np.isfinite(running).all(), "non-finite running cost")
        rnd.add_steps("analysis.threshold_policy_running_cost", steps)
        rnd.digests["threshold"] = sha256(running.tobytes())
        rnd.costs["threshold"] = repr(float(running[-1]))

    def discounted():
        scenario, before = fresh()
        policy = harness.make_policy("greedy-cov", scenario)
        rows = clock.call(analysis.discounted_vs_average, scenario, policy,
                          DELTAS, steps, seed=seed)
        rnd.entries_grown += table_entries(scenario) - before
        require(len(rows) == len(DELTAS), f"{len(rows)} rows")
        for row in rows:
            require(math.isfinite(row.discounted)
                    and math.isfinite(row.time_average),
                    f"non-finite row {row}")
        # Same seed, horizon and policy as the greedy-cov evaluation, so the
        # two rollout loops must agree on the average cost.
        if "greedy-cov" in avg_costs:
            avg = avg_costs["greedy-cov"]
            require(abs(rows[0].time_average - avg) <= REL_TOL * abs(avg),
                    f"time average {rows[0].time_average!r} differs from "
                    f"greedy-cov evaluation {avg!r}")
        rnd.add_steps("analysis.discounted_vs_average", steps)
        rnd.digests["discounted"] = sha256(repr(rows).encode())
        rnd.costs["discounted"] = repr(rows[0].time_average)

    for name in BASELINES:
        rnd.attempt(f"eval.{name}", lambda: baseline(name))
    rnd.attempt("threshold", threshold)
    rnd.attempt("discounted", discounted)
    return rnd


# --- infer-desk --------------------------------------------------------

def infer_setup(seed, size, workdir):
    """Train briefly from a fixed seed, save and reload the weights, and
    load the scenario afresh for evaluation, as separate ``train`` and
    ``eval`` commands would."""
    scenario, path, state = fresh_scenario(6, 3, seed, workdir)
    config = desk_config(1, size, seed)
    weights, curve = dqn.train(config, scenario)
    state["train_calls"] = 1
    curve_raw = curve_bytes(curve, config.episodes, workdir)
    raw, state["weights"] = weights_bytes(weights, workdir)
    state["digests"]["setup.weights"] = sha256(raw)
    state["digests"]["setup.curve"] = sha256(curve_raw)
    state["scenario"] = harness.load_scenario(path)
    return state


def infer_round(state, clock, seed, size, workdir):
    rnd = Round()
    scenario, steps = state["scenario"], size.infer_steps

    def op():
        before = table_entries(scenario)
        policy = harness.make_policy("dqn", scenario, weights=state["weights"])
        report = clock.call(harness.evaluate_policy, scenario, policy, steps,
                            seed=seed, name="dqn")
        rnd.entries_grown += table_entries(scenario) - before
        check_report(report, steps)
        rnd.add_steps("harness.evaluate_policy", steps)
        rnd.layer_sizes = state["weights"].layer_sizes
        rnd.digests["eval.dqn"] = report_digest(report)
        rnd.costs["eval.dqn"] = repr(report.empirical_avg_cost)
    rnd.attempt("eval.dqn", op)
    return rnd


WORKLOADS = {
    "train-desk": (train_setup, train_round),
    "rollout-wide": (rollout_setup, rollout_round),
    "infer-desk": (infer_setup, infer_round),
}
