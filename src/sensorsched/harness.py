"""Scenario generation, persistence, policy evaluation, and comparison.

A scenario bundles N process models and M loss channels and derives the
per-process steady-state caches.  Generation draws 2-state processes
with scalar measurements: symmetric A matrices through random orthogonal
conjugation of uniform eigenvalues, uniform measurement rows, conjugated
uniform noise spectra, and uniform channel rates, rejecting draws until
the structural checks (and, by default, the boundedness condition) pass.
Everything is reproducible: one seed fixes the scenario, and a saved file
round trips byte for byte.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .analysis import stability_check
from .channel import ChannelModel
from .dqn import scheduling_policy_from, train
# env_step is not called here; perfbench/tracing.py patches it by this name
from .environment import env_step  # noqa: F401
from .environment import action_count, rollout, total_trace
from .errors import (ChecksumError, GenerationError, MalformedFileError,
                     RiccatiConvergenceError,
                     TrainingDivergedError, VersionMismatchError)
from .estimation import ProcessModel, TraceTable, steady_state_covariance
from .policies import (POLICY_NAMES, policy_greedy_covariance,
                       policy_greedy_holding, policy_random,
                       policy_round_robin)

_FORMAT = "sensorsched-scenario"
_VERSION = 1
# scenario_generate's process sizes, draw ranges and attempt budget
_STATE_DIM = 2
_MEAS_DIM = 1
_EIG_RANGE = (0.0, 1.3)
_NOISE_RANGE = (0.2, 1.0)
_MAX_ATTEMPTS = 1000


@dataclass
class Scenario:
    """N processes and 1 <= M <= N channels, checked (ValueError) before
    any solve.  Construction derives one steady-state cache per process (or
    raises RiccatiConvergenceError) and ``traces``, their trace table."""
    processes: list
    channels: list
    seed: int
    metadata: dict = field(default_factory=dict)
    caches: list = field(init=False, repr=False, compare=False)
    traces: TraceTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        action_count(len(self.processes), len(self.channels))
        self.caches = [steady_state_covariance(p) for p in self.processes]
        self.traces = TraceTable(self.caches)


def _random_orthogonal(dim, rng):
    """Haar-distributed orthogonal matrix: QR with sign-corrected diagonal."""
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def _draw_process(rng):
    basis = _random_orthogonal(_STATE_DIM, rng)
    eigs = rng.uniform(*_EIG_RANGE, size=_STATE_DIM)
    A = basis @ np.diag(eigs) @ basis.T
    C = rng.uniform(0.0, 1.0, size=(_MEAS_DIM, _STATE_DIM))
    wq = _random_orthogonal(_STATE_DIM, rng)
    W = wq @ np.diag(rng.uniform(*_NOISE_RANGE, size=_STATE_DIM)) @ wq.T
    vq = _random_orthogonal(_MEAS_DIM, rng)
    V = vq @ np.diag(rng.uniform(*_NOISE_RANGE, size=_MEAS_DIM)) @ vq.T
    return ProcessModel(A, C, W, V)


def scenario_generate(n_sensors, n_channels, seed, require_stable=True):
    """Draw a random scenario, rejecting invalid or (optionally) unstable ones.

    Every process has a 2-dimensional state and a scalar measurement.  Each
    attempt uses its own RNG substream, the seed's child with spawn key
    ``(attempt,)``, so the accepted scenario is a pure function of the seed
    regardless of how many draws were rejected.
    """
    try:
        action_count(n_sensors, n_channels)
    except ValueError as exc:
        raise GenerationError(str(exc)) from exc
    for attempt in range(_MAX_ATTEMPTS):
        child = np.random.SeedSequence(seed, spawn_key=(attempt,))
        rng = np.random.Generator(np.random.Philox(child))
        try:
            processes = [_draw_process(rng) for _ in range(n_sensors)]
        except ValueError:
            continue  # failed a structural check; redraw
        channels = [ChannelModel(p=float(rng.uniform()),
                                 q=float(rng.uniform()))
                    for _ in range(n_channels)]
        metadata = {"attempt": attempt, "require_stable": require_stable,
                    "state_dim": _STATE_DIM, "meas_dim": _MEAS_DIM}
        try:
            scenario = Scenario(processes, channels, int(seed), metadata)
        except RiccatiConvergenceError:
            continue
        if require_stable and not stability_check(scenario).satisfied:
            continue
        return scenario
    raise GenerationError(
        f"no acceptable scenario in {_MAX_ATTEMPTS} attempts (seed={seed}, "
        f"require_stable={require_stable})")


def _scenario_payload(scenario):
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "seed": scenario.seed,
        "metadata": scenario.metadata,
        "processes": [{"A": p.A.tolist(), "C": p.C.tolist(),
                       "W": p.W.tolist(), "V": p.V.tolist()}
                      for p in scenario.processes],
        "channels": [{"p": c.p, "q": c.q} for c in scenario.channels],
    }


def _payload_checksum(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode()) & 0xFFFFFFFF


def save_scenario(scenario, path):
    payload = _scenario_payload(scenario)
    payload["checksum"] = _payload_checksum(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_scenario(path):
    """Parse, verify checksum and version, and rebuild the scenario; what
    ``Scenario`` rejects (counts, a failed solve) is a MalformedFileError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        raise MalformedFileError(f"{path}: not a scenario file")
    version = data.get("version")
    if version != _VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, supported: {_VERSION}")
    stored = data.pop("checksum", None)
    if stored is None:
        raise MalformedFileError(f"{path}: missing checksum")
    if _payload_checksum(data) != stored:
        raise ChecksumError(f"{path}: checksum mismatch")
    try:
        processes = [ProcessModel(p["A"], p["C"], p["W"], p["V"])
                     for p in data["processes"]]
        channels = [ChannelModel(p=float(c["p"]), q=float(c["q"]))
                    for c in data["channels"]]
        seed = int(data["seed"])
        metadata = dict(data["metadata"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{path}: bad field: {exc}") from exc
    try:
        return Scenario(processes, channels, seed, metadata)
    except (RiccatiConvergenceError, ValueError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


@dataclass
class EvalReport:
    policy: str
    steps: int
    empirical_avg_cost: float
    per_sensor_mean_trace: list
    seed: int
    overflow_step: object = None  # step index where cost first overflowed


def make_policy(name, scenario, weights=None):
    """Policy factory: (EnvState, rng) -> SchedAction closures by name."""
    if name == "random":
        return policy_random
    if name == "roundrobin":
        return policy_round_robin
    if name == "greedy-tau":
        return policy_greedy_holding
    if name == "greedy-cov":
        return policy_greedy_covariance
    if name == "dqn":
        if weights is None:
            raise ValueError("the dqn policy needs trained weights")
        return scheduling_policy_from(weights, scenario)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def evaluate_policy(scenario, policy, steps, seed=0, name="policy"):
    """Average per-step cost of a policy over one ``rollout``.

    A cost overflow (unbounded covariance) reports +inf together with the
    step at which it happened.
    """
    costs, trace_sums, overflow_step = rollout(scenario, policy, steps, seed)
    if overflow_step is None:
        avg = total_trace(costs) / len(costs)
        mean_trace = (trace_sums / len(costs)).tolist()
    else:
        avg = float("inf")
        mean_trace = [avg] * len(scenario.processes)
    return EvalReport(policy=name, steps=len(costs), empirical_avg_cost=avg,
                      per_sensor_mean_trace=mean_trace, seed=int(seed),
                      overflow_step=overflow_step)


def write_eval_report(report, path):
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass
class CompareRow:
    policy: str
    avg_cost: float
    steps: int
    seed: int
    note: str = ""


def compare_all(scenario, config, eval_steps=50_000, include_ablation=True,
                timing=False):
    """Rows for the baselines in ``POLICY_NAMES`` order, then the trained
    scheduler and (with ``include_ablation``) its ablation.

    Every variant is trained before any row is evaluated from
    ``config.seed``, so an agent that cannot be allocated fails at once and
    every policy sees the same channel sample path.  A diverged training
    run gives a row with NaN cost and a note.  Returns (rows, artifacts);
    artifacts holds the weights (None if diverged) and curve by name.
    """
    if eval_steps < 1:
        raise ValueError(f"need eval_steps >= 1, got {eval_steps}")
    variants = [("dqn", config)]
    if include_ablation:
        variants.append(("dqn-ablated", config.ablated()))
    entries = [(name, make_policy(name, scenario), "")
               for name in POLICY_NAMES if name != "dqn"]
    artifacts = {}
    for name, cfg in variants:
        try:
            weights, curve = train(cfg, scenario, timing=timing)
        except TrainingDivergedError as exc:
            artifacts[name] = {"weights": None, "curve": exc.curve}
            entries.append((name, None, f"training diverged: {exc}"))
            continue
        artifacts[name] = {"weights": weights, "curve": curve}
        entries.append((name, make_policy("dqn", scenario, weights=weights),
                        ""))
    rows = []
    for name, policy, note in entries:
        if policy is None:
            rows.append(CompareRow(name, float("nan"), 0, config.seed, note))
            continue
        report = evaluate_policy(scenario, policy, eval_steps,
                                 seed=config.seed, name=name)
        rows.append(CompareRow(name, report.empirical_avg_cost, report.steps,
                               config.seed))
    return rows, artifacts


def write_compare_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(CompareRow)])
        writer.writerows(astuple(row) for row in rows)
