"""Stability diagnostics, combinatorial bound, and long-run cost tools."""

import math

import numpy as np
import pytest

from sensorsched import (ChannelModel, NumericalError, ProcessModel, Scenario,
                         abel_comparison, discounted_vs_average, init_mlp,
                         policy_round_robin, scheduling_policy_from,
                         spectral_radius, stability_check,
                         log_success_shortfall_bound,
                         threshold_policy_running_cost)


def closed_form_radius_2x2(m):
    tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4 * det
    if disc >= 0:
        r = math.sqrt(disc)
        return max(abs((tr + r) / 2), abs((tr - r) / 2))
    return math.sqrt(det)  # complex pair: |lambda| = sqrt(det)


class TestSpectralRadius:
    def test_matches_closed_form_2x2(self, rng):
        for _ in range(50):
            m = rng.normal(size=(2, 2))
            assert spectral_radius(m) == pytest.approx(
                closed_form_radius_2x2(m), rel=1e-12)

    def test_rotation_has_radius_one(self):
        th = 0.83
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, -1.7, 0.9])) == pytest.approx(1.7)


def margin_scenario(rho, q_best):
    """One scalar sensor at radius rho, channels whose best success is q_best."""
    return Scenario(
        [ProcessModel([[rho]], [[1.0]], [[1.0]], [[1.0]])],
        [ChannelModel(0.5, q_best)], seed=0)


class TestStabilityCheck:
    def test_known_margin_satisfied(self):
        rep = stability_check(margin_scenario(1.2, 0.8))
        assert rep.rho_max == pytest.approx(1.2)
        assert rep.q_max == pytest.approx(0.8)
        assert rep.margin == pytest.approx(1 - 1.44 * 0.2, abs=1e-12)
        assert rep.satisfied

    def test_known_margin_violated(self):
        rep = stability_check(margin_scenario(1.2, 0.2))
        assert rep.margin == pytest.approx(1 - 1.44 * 0.8, abs=1e-12)
        assert not rep.satisfied

    def test_zero_margin_not_satisfied(self):
        # rho^2 (1-q) exactly 1: the strict inequality fails
        rep = stability_check(margin_scenario(2.0, 0.75))
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        assert not rep.satisfied

    def test_uses_best_channel_and_worst_sensor(self):
        scn = Scenario(
            [ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]]),
             ProcessModel([[1.3]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(0.5, 0.1), ChannelModel(0.5, 0.9)], seed=0)
        rep = stability_check(scn)
        assert rep.rho_max == pytest.approx(1.3)
        assert rep.q_max == pytest.approx(0.9)

    def test_monotone_in_rho_and_q(self, rng):
        # growing any spectral radius or shrinking the best recovery rate
        # can only reduce the margin
        for _ in range(200):
            rho = rng.uniform(0.3, 1.5)
            q = rng.uniform(0.05, 0.95)
            base = stability_check(margin_scenario(rho, q)).margin
            worse_rho = stability_check(
                margin_scenario(rho + rng.uniform(0, 0.3), q)).margin
            worse_q = stability_check(
                margin_scenario(rho, q - rng.uniform(0, q * 0.9))).margin
            assert worse_rho <= base + 1e-12
            assert worse_q <= base + 1e-12


class TestShortfallBound:
    def test_exact_small_case(self):
        # two sensors, window 5, slack 1, q*=0.5:
        # (N-1) * C(L, N-1) * (1-q*)^(L-2n) = 1 * 5 * 0.5^3 = 0.625
        assert log_success_shortfall_bound(2, 5, 0.5, 1) == pytest.approx(
            math.log(0.625))

    def test_perfect_channel_gives_zero(self):
        assert log_success_shortfall_bound(4, 100, 1.0, 2) == -math.inf

    def test_single_sensor_gives_zero(self):
        assert log_success_shortfall_bound(1, 50, 0.4, 0) == -math.inf

    def test_preconditions(self):
        with pytest.raises(ValueError):  # window must exceed 2N
            log_success_shortfall_bound(3, 6, 0.5, 1)
        with pytest.raises(ValueError):  # slack must stay below N
            log_success_shortfall_bound(3, 20, 0.5, 3)
        with pytest.raises(ValueError):  # q* must be positive
            log_success_shortfall_bound(3, 20, 0.0, 1)
        with pytest.raises(ValueError):
            log_success_shortfall_bound(3, 20, 1.2, 1)
        with pytest.raises(ValueError, match="at least one sensor"):
            log_success_shortfall_bound(0, 20, 0.5, 0)

    def test_window_root_limit(self):
        # for large windows the L-th root of the bound approaches 1 - q*
        q = 0.6
        for n, slack in [(2, 1), (4, 2), (6, 3)]:
            root = math.exp(log_success_shortfall_bound(n, 500, q, slack)
                            / 500)
            assert abs(root - (1 - q)) < 0.05

    def test_huge_window_stays_finite_in_log_domain(self):
        lv = log_success_shortfall_bound(6, 2000, 0.7, 3)
        assert math.isfinite(lv)
        assert lv < -2000  # utterly underflows in linear space


def lyapunov_trace(a, w):
    """Closed-form trace of the fixed point of X -> A X A^T + W."""
    n = a.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - np.kron(a, a), w.reshape(-1))
    return float(np.trace(vec.reshape(n, n)))


class TestThresholdPolicy:
    def test_stable_sensors_never_transmitting_hit_lyapunov_cost(self):
        # threshold too high to ever trigger: holding times run away and
        # each stable sensor's trace converges to its open-loop fixed point
        a1 = np.array([[0.6, 0.1], [0.0, 0.5]])
        a2 = np.array([[0.3]])
        w1 = np.eye(2) * 0.5
        w2 = np.array([[0.8]])
        scn = Scenario(
            [ProcessModel(a1, [[1.0, 0.0]], w1, [[0.4]]),
             ProcessModel(a2, [[1.0]], w2, [[0.4]])],
            [ChannelModel(0.2, 0.8)], seed=0)
        curve = threshold_policy_running_cost(scn, threshold=10**9,
                                              steps=4000, seed=0)
        expected = lyapunov_trace(a1, w1) + lyapunov_trace(a2, w2)
        assert curve[-1] == pytest.approx(expected, rel=0.02)

    def test_periodic_cycle_average(self):
        # two identical sensors, one perfect channel, threshold 2: each
        # sensor transmits once its holding time passes 2, giving a
        # deterministic period-4 cycle in (tau1, tau2)
        proc = ProcessModel([[1.1]], [[1.0]], [[1.0]], [[1.0]])
        scn = Scenario([proc, ProcessModel([[1.1]], [[1.0]], [[1.0]],
                                           [[1.0]])],
                       [ChannelModel(0.0, 1.0)], seed=0)
        curve = threshold_policy_running_cost(scn, threshold=2, steps=20000,
                                              seed=0)
        cache = scn.caches[0]
        # cycle of holding-time pairs after transients: the transmitting
        # sensor resets to 0 while the other climbs to 3, then they swap
        cycle_cost = np.mean([cache.trace_at(t1) + cache.trace_at(t2)
                              for t1, t2 in [(0, 3), (1, 0), (2, 1), (3, 2)]])
        assert curve[-1] == pytest.approx(cycle_cost, rel=0.01)

    def test_bounded_on_margin_scenario(self):
        scn = margin_scenario(1.2, 0.9)
        curve = threshold_policy_running_cost(scn, threshold=0, steps=30000,
                                              seed=3)
        last_half = curve[len(curve) // 2:]
        assert np.max(last_half) < 2 * np.median(last_half)

    def test_returns_running_average_shape(self):
        scn = margin_scenario(0.9, 0.8)
        curve = threshold_policy_running_cost(scn, threshold=1, steps=500,
                                              seed=0)
        assert curve.shape == (500,)
        assert np.all(np.isfinite(curve))

    def test_deterministic_in_seed(self):
        scn = margin_scenario(1.1, 0.7)
        c1 = threshold_policy_running_cost(scn, threshold=1, steps=1000,
                                           seed=5)
        c2 = threshold_policy_running_cost(scn, threshold=1, steps=1000,
                                           seed=5)
        assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match="steps"):
            threshold_policy_running_cost(margin_scenario(0.9, 0.8), 1, steps)

    def test_step_count_too_large_to_allocate_is_a_numerical_error(self):
        # numpy refuses 10**20 entries before it allocates anything
        with pytest.raises(NumericalError, match=str(10**20)):
            threshold_policy_running_cost(margin_scenario(0.9, 0.8), 1,
                                          10**20)


class TestDiscountComparison:
    def test_constant_cost_stream(self):
        costs = np.full(5000, 3.0)
        rows = abel_comparison(costs, [0.9, 0.99])
        for row in rows:
            # (1-d) * sum d^k c = c exactly, up to the truncated tail
            assert row.discounted == pytest.approx(3.0, rel=1e-3)
            assert row.time_average == pytest.approx(3.0)

    def test_gap_shrinks_as_discount_approaches_one(self, six_sensor_scenario):
        rows = discounted_vs_average(six_sensor_scenario,
                                     policy_round_robin,
                                     deltas=[0.9, 0.95, 0.999],
                                     horizon=30000, seed=0)
        gaps = [abs(r.discounted - r.time_average) / r.time_average
                for r in rows]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    def test_nonfinite_costs_reported_as_inf(self):
        costs = np.array([1.0, np.inf, 2.0])
        rows = abel_comparison(costs, [0.9])
        assert rows[0].discounted == math.inf
        assert rows[0].time_average == math.inf

    def test_overflow_inside_network_policy_gives_inf_rows(self, rng):
        # a starved unstable sensor: once the observation overflows the
        # network cannot evaluate, which reads as an unbounded cost
        scn = Scenario(
            [ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])],
            [ChannelModel(1.0, 0.0)], seed=0)
        pol = scheduling_policy_from(init_mlp((3, 4, 1), rng), scn)
        rows = discounted_vs_average(scn, pol, [0.9, 0.99], horizon=3000)
        assert [(r.delta, r.discounted, r.time_average) for r in rows] == [
            (0.9, math.inf, math.inf), (0.99, math.inf, math.inf)]

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            abel_comparison(np.ones(10), [1.0])
        with pytest.raises(ValueError):  # an overflowed path checks too
            abel_comparison([math.inf], [1.0])
        with pytest.raises(ValueError):
            abel_comparison(np.ones(10), [0.0])

    def test_empty_costs_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            abel_comparison([], [0.9])
