"""Benchmark of the sensorsched workbench, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same workload and seed with span wrappers on the
package's module attributes and reports the per-layer metrics instead.
``--workload all`` runs every workload, each in its own fresh process.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give the run
environment, every metric with its unit, the output digests and the
average costs.  BENCHMARK.json at the root lists the metrics; NOTES.md
beside this file says why each workload exists.
"""

import os

# One BLAS thread, set before numpy loads: the baseline is one core, and
# threaded BLAS made train steps/s swing by about 15% from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train-desk", "rollout-wide", "infer-desk")
CHILD_TIMEOUT_S = 600

# Timed spans reported per call: (span, statistic, unit).  "self" is the
# span's duration minus its children's.
TIMINGS = (
    ("neural.mlp_forward.single", "dur", "us"),
    ("neural.mlp_forward.batch", "dur", "us"),
    ("neural.loss_and_gradient", "dur", "us"),
    ("neural.adam_update", "dur", "us"),
    ("dqn.train_step", "self", "us"),
    ("dqn.act_epsilon_greedy", "self", "us"),
    ("dqn.compute_targets", "self", "us"),
    ("dqn.ReplayBuffer.add", "dur", "us"),
    ("dqn.ReplayBuffer.sample", "dur", "us"),
    ("environment.env_step", "self", "us"),
    ("environment.observation_build", "dur", "us"),
    ("environment.action_decode", "dur", "us"),
    ("channel.channel_step", "dur", "us"),
    ("estimation.trace_at.grow", "dur", "us"),
    ("estimation.steady_state_covariance", "dur", "ms"),
    ("policies.random", "dur", "us"),
    ("policies.roundrobin", "dur", "us"),
    ("policies.greedy-tau", "dur", "us"),
    ("policies.greedy-cov", "self", "us"),
    ("harness.scenario_generate", "dur", "s"),
    ("harness.load_scenario", "dur", "ms"),
    ("analysis.stability_check", "dur", "ms"),
)
# Entry points whose self time is reported per environment step.
PER_STEP = ("harness.evaluate_policy", "analysis.threshold_policy_running_cost",
            "analysis.discounted_vs_average")
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def load_package():
    """Import sensorsched from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sensorsched
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import sensorsched from {src}: {exc}")
    if src not in Path(sensorsched.__file__).resolve().parents:
        sys.exit(f"perfbench: sensorsched came from {sensorsched.__file__}, "
                 f"not {src}")


def run_environment(seed, workload, trace):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit}


COMPUTED = ("neural.params", "neural.forward_flops.single",
            "neural.forward_flops.batch", "neural.update_flops",
            "neural.adam_bytes")


def neural_counts(sizes, batch):
    """Computed, not measured: work implied by the layer sizes.

    A dense layer costs 2*fan_in*fan_out flops per sample plus fan_out for
    the bias and fan_out for a hidden ReLU.  One update is a batch forward
    on the target and on the online network, the backward pass (weight and
    bias gradients for every layer, input gradients for all but the first)
    and Adam at 13 flops per parameter.  Adam must read the parameter,
    gradient and both moments and write back the parameter and moments:
    7 float64 values per parameter.
    """
    if not sizes:
        return dict.fromkeys(COMPUTED, 0)
    pairs = list(zip(sizes[:-1], sizes[1:]))
    params = sum(i * o + o for i, o in pairs)
    single = sum(2 * i * o + o for i, o in pairs) + sum(o for _, o in pairs[:-1])
    backward = batch * (sum(2 * i * o + o for i, o in pairs)
                        + sum(2 * i * o + i for i, o in pairs[1:]))
    return {"neural.params": params, "neural.forward_flops.single": single,
            "neural.forward_flops.batch": batch * single,
            "neural.update_flops": 2 * batch * single + backward + 13 * params,
            "neural.adam_bytes": 7 * 8 * params}


def median_rate(rounds):
    rates = [r.steps / r.seconds for r in rounds if not r.failures and r.seconds]
    return statistics.median(rates) if rates else 0.0, rates


def run_round(round_fn, state, clock, args, size, workdir):
    first = len(clock.windows)
    rnd = round_fn(state, clock, args.seed, size, workdir)
    rnd.seconds = clock.busy_since(first)
    return rnd


def layer_metrics(stats, shares, tracer, rounds, traced, generated,
                  overhead, batch):
    from tracing import count_nested
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span, kind, unit in TIMINGS:
        st = stats.get(span)
        prefix = "self_" if kind == "self" else ""
        scale = SCALE[unit]
        put(f"{span}.{prefix}{unit}",
            st[f"{kind}_median"] * scale if st else 0.0, unit)
        put(f"{span}.{prefix}p99_{unit}",
            st[f"{kind}_p99"] * scale if st else 0.0, unit)
        put(f"{span}.calls", st["calls"] if st else 0, "count")
    for entry in PER_STEP:
        steps = sum(r.entry_steps.get(entry, 0) for r in traced)
        st = stats.get(entry)
        put(f"{entry}.self_us_per_step",
            st["self_total"] * 1e6 / steps if st and steps else 0.0, "us")
        put(f"{entry}.calls", st["calls"] if st else 0, "count")

    updates = stats.get("neural.adam_update", {}).get("calls", 0)
    train_steps = stats.get("dqn.train_step", {}).get("calls", 0)
    put("dqn.updates", updates, "count")
    put("dqn.target_syncs",
        count_nested(tracer, "neural.MlpParams.copy", "dqn.train_step"),
        "count")
    put("dqn.replay_fill", tracer.replay_fill[0], "count")
    put("dqn.updates_per_step",
        updates / train_steps if train_steps else 0.0, "ratio")
    put("estimation.trace_at.calls", tracer.trace_at_calls[0], "count")
    put("estimation.trace_entries_grown", rounds[0].entries_grown, "count")
    attempts = sum(meta["attempt"] + 1 for meta in generated)
    put("harness.scenario_generate.accepted_per_attempt",
        len(generated) / attempts if attempts else 0.0, "ratio")
    units = {"neural.params": "count", "neural.adam_bytes": "B"}
    for name, value in neural_counts(rounds[0].layer_sizes, batch).items():
        put(name, value, units.get(name, "flop"))
    for layer, share in shares.items():
        put(f"{layer}.self_share", share, "ratio")
    put("trace_overhead", overhead, "ratio")
    return metrics


def check_digests(rounds):
    """Every round runs the same inputs, so each must reproduce round 0."""
    first, failures = {}, []
    for k, rnd in enumerate(rounds):
        for label, digest in rnd.digests.items():
            if first.setdefault(label, digest) != digest:
                failures.append(f"round {k}: {label} output differs")
    return first, failures


def run_workload(args):
    import workloads
    from tracing import Tracer, installed, make_patches, summarize

    setup_fn, round_fn = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL
    tracer = Tracer() if args.trace else None
    patches = make_patches(tracer) if tracer else []
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, generated, train_calls = [], [], 0
        with installed(patches):
            for k in range(size.setup_repeats):
                t0 = time.perf_counter()
                state = setup_fn(args.seed, size, workdir)
                setup_times.append(time.perf_counter() - t0)
                generated += state["generated"]
                train_calls += state["train_calls"]
                if k == 0:
                    setup_digests = state["digests"]
                elif state["digests"] != setup_digests:
                    raise RuntimeError("set-up outputs differ between repeats")
        # Whole rounds until the time is up.  A traced run alternates
        # untraced and traced rounds, so that drift in the machine's speed
        # cancels out of trace_overhead.
        clock, traced_clock = workloads.Clock(), workloads.Clock()
        rounds, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(run_round(round_fn, state, clock, args, size,
                                    workdir))
            if tracer is not None:
                with installed(patches):
                    traced.append(run_round(round_fn, state, traced_clock,
                                            args, size, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rate, rates = median_rate(rounds)
    digests, mismatches = check_digests(rounds + traced)
    failures = [f for r in rounds + traced for f in r.failures] + mismatches
    attempted = sum(r.attempted for r in rounds + traced) + train_calls
    result = {
        "environment": run_environment(args.seed, args.workload, args.trace),
        "digests": {**setup_digests, **digests},
        "costs": rounds[0].costs,
        "failures": failures,
        "attempted": attempted,
    }
    if tracer is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {
            "steps_per_s": {"value": rate, "unit": "steps/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
        result["detail"] = {"round_rates": rates, "setup_times": setup_times}
    else:
        traced_rate, _ = median_rate(traced)
        stats, shares = summarize(tracer, traced_clock.windows)
        result["metrics"] = layer_metrics(
            stats, shares, tracer, rounds, traced, generated,
            rate / traced_rate if traced_rate else 0.0,
            workloads.DESK["minibatch_size"])
        result["detail"] = {"spans": stats}
        tracer.save(OUT / f"spans-{args.workload}.npz")
    return result


def print_result(result):
    env = result["environment"]
    for key, value in env.items():
        print(f"env.{key:<16} {value}")
    for name, metric in result["metrics"].items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"{name:<56} {metric['value']!r:>24} {metric['unit']}{note}")
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"{'fail_frac':<56} {failed / attempted!r:>24} ratio "
          f"({failed} of {attempted} operations)")
    for failure in result["failures"]:
        print(f"failure {failure}")
    for label, digest in sorted(result["digests"].items()):
        print(f"digest {label} sha256:{digest}")
    for label, cost in sorted(result["costs"].items()):
        print(f"cost {label} {cost}")


def summary_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_all(args):
    """Each workload in its own fresh process; one combined summary."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {child.returncode}")
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        for key, metric in summary["metrics"].items():
            metrics[f"{name}.{key}"] = metric
    print(summary_line(correct, attempted, failed, metrics))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_package()
    if args.workload == "all":
        run_all(args)
        return
    result = run_workload(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    failed = len(result["failures"])
    print(summary_line(failed == 0, result["attempted"], failed,
                       result["metrics"]), flush=True)


if __name__ == "__main__":
    main()
