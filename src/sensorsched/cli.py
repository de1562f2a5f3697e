"""Command-line interface.

Subcommands: gen-scenario, train, eval, compare, check-stability.  The
default RNG seed can be set through the SENSORSCHED_SEED environment
variable; explicit --seed flags win.  Exit codes: 0 success, 2 usage,
3 scenario generation failure, 4 training/numerical failure, 5 file I/O or
persistence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import dqn, harness
from .analysis import stability_check
from .errors import (GenerationError, NumericalError, PersistenceError,
                     TrainingDivergedError)
from .neural import load_weights, save_weights
from .policies import POLICY_NAMES

EXIT_OK = 0
EXIT_GENERATION = 3
EXIT_TRAINING = 4
EXIT_IO = 5

SEED_ENV_VAR = "SENSORSCHED_SEED"


def _default_seed():
    value = os.environ.get(SEED_ENV_VAR)
    if value is None:
        return 0
    try:
        return _seed(value)
    except (ValueError, argparse.ArgumentTypeError):
        raise PersistenceError(f"{SEED_ENV_VAR}={value!r} is not a "
                               f"non-negative integer") from None


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_config(path, seed_override=None):
    config = dqn.DqnConfig(seed=_default_seed())
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise PersistenceError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise PersistenceError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(dqn.DqnConfig)}
        unknown = set(data) - known
        if unknown:
            raise PersistenceError(
                f"{path}: unknown config keys {sorted(unknown)}")
        try:
            config = dqn.DqnConfig(**{"seed": config.seed, **data})
        except (TypeError, ValueError) as exc:
            raise PersistenceError(f"{path}: bad config: {exc}") from exc
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


def _cmd_gen_scenario(args):
    seed = args.seed if args.seed is not None else _default_seed()
    scenario = harness.scenario_generate(
        args.n, args.m, seed=seed,
        require_stable=not args.allow_unstable)
    harness.save_scenario(scenario, args.out)
    report = stability_check(scenario)
    print(f"wrote {args.out} (seed={seed}, attempt="
          f"{scenario.metadata['attempt']}, margin={report.margin:.4f})")
    return EXIT_OK


def _cmd_train(args):
    scenario = harness.load_scenario(args.scenario)
    config = _load_config(args.config, seed_override=args.seed)
    weights, curve = dqn.train(config, scenario, timing=args.timing)
    save_weights(weights, args.weights_out)
    if args.curve_out:
        dqn.write_curve_csv(curve, args.curve_out)
    print(f"trained {config.episodes} episodes; final avg cost "
          f"{curve[-1].avg_cost:.4f}; weights -> {args.weights_out}")
    return EXIT_OK


def _cmd_eval(args):
    scenario = harness.load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else _default_seed()
    weights = None
    if args.policy == "dqn":
        if args.weights is None:
            raise PersistenceError("--policy dqn requires --weights")
        weights = load_weights(args.weights)
    policy = harness.make_policy(args.policy, scenario, weights=weights)
    report = harness.evaluate_policy(scenario, policy, args.steps,
                                     seed=seed, name=args.policy)
    if args.out:
        harness.write_eval_report(report, args.out)
    print(f"policy={report.policy} steps={report.steps} "
          f"avg_cost={report.empirical_avg_cost}")
    if report.overflow_step is not None:
        print(f"cost overflowed at step {report.overflow_step}")
    return EXIT_OK


def _cmd_compare(args):
    scenario = harness.load_scenario(args.scenario)
    config = _load_config(args.config, seed_override=args.seed)
    rows, artifacts = harness.compare_all(
        scenario, config, eval_steps=args.eval_steps, eval_seed=config.seed,
        include_ablation=not args.no_ablation, timing=args.timing)
    harness.write_compare_csv(rows, args.out)
    if args.curve_out and artifacts.get("dqn", {}).get("curve"):
        dqn.write_curve_csv(artifacts["dqn"]["curve"], args.curve_out)
    width = max(len(r.policy) for r in rows)
    for row in rows:
        note = f"  ({row.note})" if row.note else ""
        print(f"{row.policy:<{width}}  {row.avg_cost:.4f}{note}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_check_stability(args):
    scenario = harness.load_scenario(args.scenario)
    report = stability_check(scenario)
    print(f"rho_max: {report.rho_max:.6f}")
    print(f"q_max: {report.q_max:.6f}")
    print(f"margin: {report.margin:.6f}")
    print(f"satisfied: {str(report.satisfied).lower()}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sensorsched",
        description="Sensor-to-channel scheduling for remote state "
                    "estimation: scenario tools, baselines, and deep "
                    "Q-learning.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenario", help="draw and save a random scenario")
    gen.add_argument("--n", type=int, default=6, help="number of sensors")
    gen.add_argument("--m", type=int, default=3, help="number of channels")
    gen.add_argument("--seed", type=_seed, default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--allow-unstable", action="store_true",
                     help="skip the boundedness condition during rejection")
    gen.set_defaults(func=_cmd_gen_scenario)

    tr = sub.add_parser("train", help="train the deep Q-learning scheduler")
    tr.add_argument("--scenario", required=True)
    tr.add_argument("--config", default=None, help="JSON file of config fields")
    tr.add_argument("--weights-out", required=True)
    tr.add_argument("--curve-out", default=None, help="per-episode CSV path")
    tr.add_argument("--seed", type=_seed, default=None)
    tr.add_argument("--timing", action="store_true",
                    help="record wall-clock time per episode in the curve")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="measure a policy's average cost")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--policy", required=True, choices=POLICY_NAMES)
    ev.add_argument("--weights", default=None)
    ev.add_argument("--steps", type=_positive_int, default=50_000)
    ev.add_argument("--seed", type=_seed, default=None)
    ev.add_argument("--out", default=None, help="write the report as JSON")
    ev.set_defaults(func=_cmd_eval)

    cmp_ = sub.add_parser("compare",
                          help="baselines vs trained scheduler, one table")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument("--config", default=None)
    cmp_.add_argument("--out", required=True, help="CSV path for the table")
    cmp_.add_argument("--curve-out", default=None)
    cmp_.add_argument("--eval-steps", type=_positive_int, default=50_000)
    cmp_.add_argument("--seed", type=_seed, default=None)
    cmp_.add_argument("--no-ablation", action="store_true")
    cmp_.add_argument("--timing", action="store_true")
    cmp_.set_defaults(func=_cmd_compare)

    st = sub.add_parser("check-stability",
                        help="evaluate the boundedness condition")
    st.add_argument("--scenario", required=True)
    st.set_defaults(func=_cmd_check_stability)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except (TrainingDivergedError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (PersistenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
