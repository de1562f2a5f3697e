"""Estimation-layer tests against independent oracles.

Scalar fixed points come from solving the quadratic by hand, matrix ones
from scipy's algebraic Riccati solver (a different algorithm entirely),
and the holding-time covariances from a Monte-Carlo simulation that never
touches the cached trace table.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from sensorsched import (ChannelModel, ProcessModel,
                         RiccatiConvergenceError, Scenario, SteadyStateCache,
                         TraceTable, is_controllable, is_observable,
                         remote_error_by_holding, steady_state_covariance)
from sensorsched import estimation
from conftest import open_loop_step

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REFERENCE_CAP = 6000


def open_loop_reference(A, W, pbar, steps):
    """Traces 0..steps of a plain open_loop_step loop from pbar.

    Returns (traces, freeze): from the first non-finite trace on every
    entry is +inf, the cache's overflow convention; ``freeze`` is the
    first holding time whose successor has the same bits, or whose trace
    overflowed, or None.
    """
    cov, traces, freeze = pbar, [float(np.trace(pbar))], None
    with np.errstate(over="ignore", invalid="ignore"):
        while len(traces) <= steps:
            nxt = open_loop_step(A, W, cov)
            tr = float(np.trace(nxt))
            if not np.isfinite(tr):
                freeze = len(traces) if freeze is None else freeze
                traces += [np.inf] * (steps + 1 - len(traces))
                break
            if freeze is None and nxt.tobytes() == cov.tobytes():
                freeze = len(traces) - 1
            cov = nxt
            traces.append(tr)
    return traces, freeze


@st.composite
def open_loop_models(draw):
    """Random 1x1 or 2x2 (A, W, pbar), open-loop stable or unstable."""
    dim = draw(st.sampled_from([1, 2]))
    unit = st.floats(-1.0, 1.0)
    eigs = draw(st.lists(st.floats(-1.6, 1.6), min_size=dim, max_size=dim))
    angle = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])[:dim, :dim]
    A = rot @ np.diag(eigs) @ rot.T
    shear = np.array(draw(st.lists(unit, min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
    W = shear @ shear.T + np.eye(dim) * draw(st.floats(0.05, 1.0))
    root = np.array(draw(st.lists(unit, min_size=dim * dim,
                                  max_size=dim * dim))).reshape(dim, dim)
    return A, W, root @ root.T


class TestRiccatiFixedPoint:
    def test_scalar_unit_system_reaches_golden_ratio(self, golden_cache):
        assert abs(golden_cache.pbar[0, 0] - GOLDEN) <= 1e-9

    def test_scalar_unit_system_gain_is_golden_ratio(self, golden_cache):
        # K = (p+1)/(p+2) and the fixed point satisfies p^2 + p - 1 = 0,
        # so the gain equals the fixed point itself
        assert golden_cache.kalman_gain[0, 0] == pytest.approx(GOLDEN, abs=1e-9)

    def test_memoryless_process_keeps_product_form(self):
        # A = 0: posterior = WV/(W+V), here 0.5
        model = ProcessModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        cache = steady_state_covariance(model)
        assert cache.pbar[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_near_perfect_measurements_drive_pbar_to_zero(self):
        # V = 1e-12 fails ProcessModel's definiteness check, so the solver
        # gets a stand-in holding the fields it reads
        model = SimpleNamespace(A=np.array([[1.0]]), C=np.array([[1.0]]),
                                W=np.array([[1.0]]), V=np.array([[1e-12]]),
                                n_x=1)
        cache = steady_state_covariance(model)
        assert 0.0 <= cache.pbar[0, 0] < 1e-6

    def test_matrix_case_matches_scipy_are(self):
        A = np.array([[1.1, 0.3], [0.0, 0.8]])
        C = np.array([[1.0, 0.4]])
        W = np.array([[0.6, 0.1], [0.1, 0.9]])
        V = np.array([[0.5]])
        model = ProcessModel(A, C, W, V)
        cache = steady_state_covariance(model)
        prior = solve_discrete_are(A.T, C.T, W, V)
        s = C @ prior @ C.T + V
        posterior = prior - prior @ C.T @ np.linalg.solve(s, C @ prior)
        assert np.allclose(cache.pbar, posterior, atol=1e-8)

    def test_fixed_point_is_invariant_under_the_update(self, golden_model,
                                                       golden_cache):
        A, C, W, V = (golden_model.A, golden_model.C, golden_model.W,
                      golden_model.V)
        P = golden_cache.pbar
        prior = A @ P @ A.T + W
        K = prior @ C.T @ np.linalg.inv(C @ prior @ C.T + V)
        updated = (np.eye(1) - K @ C) @ prior
        assert np.max(np.abs(updated - P)) < 1e-9

    def test_divergence_budget_raises(self, golden_model, monkeypatch):
        monkeypatch.setattr(estimation, "_RICCATI_MAX_ITERS", 3)
        with pytest.raises(RiccatiConvergenceError):
            steady_state_covariance(golden_model)

    def test_fixed_point_reached_on_the_last_allowed_update(
            self, golden_model, monkeypatch):
        # the golden model's 13th update is its first step below the
        # tolerance: a budget of 13 returns, with the gain at that point
        monkeypatch.setattr(estimation, "_RICCATI_MAX_ITERS", 13)
        cache = steady_state_covariance(golden_model)
        assert cache.pbar[0, 0].hex() == "0x1.3c6ef37308518p-1"
        assert cache.kalman_gain[0, 0].hex() == "0x1.3c6ef3730000ap-1"
        monkeypatch.setattr(estimation, "_RICCATI_MAX_ITERS", 12)
        with pytest.raises(RiccatiConvergenceError, match="within 12"):
            steady_state_covariance(golden_model)


class TestModelValidation:
    def test_rejects_unobservable_pair(self):
        with pytest.raises(ValueError, match="observable"):
            ProcessModel([[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0]],
                         np.eye(2), [[1.0]])

    def test_rejects_uncontrollable_noise(self):
        # W = 0 gives no process noise at all
        with pytest.raises(ValueError, match="controllable"):
            ProcessModel([[0.9, 0.0], [0.0, 0.5]], [[1.0, 1.0]],
                         np.zeros((2, 2)), [[1.0]])

    def test_rejects_indefinite_w(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ProcessModel([[1.0]], [[1.0]], [[-0.1]], [[1.0]])

    def test_rejects_singular_v(self):
        with pytest.raises(ValueError, match="definite"):
            ProcessModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])

    def test_rejects_asymmetric_w(self):
        with pytest.raises(ValueError, match="symmetric"):
            ProcessModel(np.eye(2), [[1.0, 0.3]],
                         [[1.0, 0.5], [0.0, 1.0]], [[1.0]])

    # (M + M') / 2 overflows for entries near the float64 limit
    @pytest.mark.parametrize("name", ["W", "V"])
    def test_rejects_noise_that_overflows_when_symmetrized(self, name):
        mats = {"W": np.eye(2), "V": np.eye(2), name: np.diag([1.7e308, 1.0])}
        with pytest.raises(ValueError, match=f"{name} overflows"):
            ProcessModel(np.eye(2), np.eye(2), mats["W"], mats["V"])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ProcessModel(np.eye(2), [[1.0, 0.0]], np.eye(3), [[1.0]])
        with pytest.raises(ValueError, match="C has 3 columns"):
            ProcessModel(np.eye(2), [[1.0, 0.0, 0.0]], np.eye(2), [[1.0]])

    def test_rejects_asymmetric_v(self):
        with pytest.raises(ValueError, match="V must be symmetric"):
            ProcessModel(np.eye(2), np.eye(2), np.eye(2),
                         [[1.0, 0.5], [0.0, 1.0]])

    def test_structural_predicates(self):
        A = np.array([[0.9, 0.2], [0.0, 0.7]])
        assert is_observable(A, np.array([[1.0, 0.0]]))
        assert not is_observable(np.diag([1.0, 2.0]), np.array([[1.0, 0.0]]))
        assert is_controllable(A, np.eye(2))
        assert not is_controllable(np.diag([1.0, 2.0]),
                                   np.array([[1.0], [0.0]]))


class TestCovariancePropagation:
    def test_identity_dynamics_add_noise_traces(self, golden_cache):
        # A = 1, W = 1: each composition adds exactly 1 to the trace
        for tau in range(6):
            assert golden_cache.trace_at(tau) == pytest.approx(
                golden_cache.trace_at(0) + tau, abs=1e-9)

    def test_two_fold_composition_value(self, golden_cache):
        assert golden_cache.trace_at(2) == pytest.approx(GOLDEN + 2.0,
                                                         abs=1e-9)

    def test_traces_match_matrix_route(self, golden_model):
        cache = steady_state_covariance(golden_model)
        mat = cache.pbar.copy()
        for tau in range(12):
            assert cache.trace_at(tau) == pytest.approx(float(np.trace(mat)),
                                                        rel=1e-12)
            mat = open_loop_step(golden_model.A, golden_model.W, mat)

    def test_traces_nondecreasing_in_holding_time(self):
        # open-loop propagation is operator-monotone and the prior dominates
        # the posterior, so traces never shrink as tau grows
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = rng.uniform(0.1, 1.25)
            model = ProcessModel([[rho]], [[1.0]],
                                 [[rng.uniform(0.2, 1.0)]],
                                 [[rng.uniform(0.2, 1.0)]])
            cache = steady_state_covariance(model)
            traces = [cache.trace_at(t) for t in range(40)]
            assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))

    def test_lazy_growth_past_initial_table(self, golden_model):
        # the table starts 257 entries long
        cache = steady_state_covariance(golden_model)
        assert cache.trace_at(300) == pytest.approx(GOLDEN + 300.0, rel=1e-9)
        assert len(cache.trace_powers) == 301

    def test_overflow_freezes_to_infinity(self):
        model = ProcessModel([[2.0]], [[1.0]], [[1.0]], [[1.0]])
        cache = steady_state_covariance(model)
        assert not np.isfinite(cache.trace_at(600))
        assert cache.trace_at(601) == np.inf
        # the finite prefix is untouched
        assert np.isfinite(cache.trace_at(100))
        # P -> 4P + 1 first overflows at holding time 512; the table ends
        # there and later lookups append nothing
        assert cache.trace_at(200_000) == np.inf
        assert len(cache.trace_powers) == 513
        assert cache.trace_powers[512] == np.inf
        assert np.all(np.isfinite(cache.trace_powers[:512]))

    def test_fixed_point_freezes_the_table(self):
        model = ProcessModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        cache = steady_state_covariance(model)
        far = cache.trace_at(100_000)
        frozen = len(cache.trace_powers)
        assert frozen < 100
        assert far == cache.trace_powers[-1] == 4.0 / 3.0
        assert len(cache.trace_powers) == frozen

    def test_negative_holding_time_rejected(self, golden_cache):
        with pytest.raises(ValueError):
            golden_cache.trace_at(-1)


class TestTableFreezing:
    @settings(deadline=None, max_examples=40)
    @given(model=open_loop_models(), data=st.data())
    def test_lookups_equal_plain_propagation_bit_for_bit(self, model, data):
        A, W, pbar = model
        # some drawn pairs fail ProcessModel's checks, so the cache gets a
        # stand-in holding the two fields its table reads.  The one-row
        # table made at the first lookup computes 257 entries up front; a
        # freeze below that happens then, one above it during later lookups
        cache = SteadyStateCache(SimpleNamespace(A=A, W=W), pbar,
                                 np.zeros((len(A), 1)))
        traces, freeze = open_loop_reference(A, W, cache.pbar, REFERENCE_CAP)
        edge = REFERENCE_CAP if freeze is None else max(freeze, 1)
        top = min(2 * edge, REFERENCE_CAP)
        order = list(range(top + 1))
        data.draw(st.randoms(use_true_random=False)).shuffle(order)
        for n in order:
            assert (np.float64(cache.trace_at(n)).tobytes()
                    == np.float64(traces[n]).tobytes()), n
        if freeze is not None:  # nothing appended past the freeze
            assert len(cache.trace_powers) == freeze + 1


def mixed_caches():
    """Stable (freezing at a fixed point), marginal (never freezing within
    a few thousand steps) and unstable (overflowing) scalar processes."""
    return [steady_state_covariance(
                ProcessModel([[rho]], [[1.0]], [[w]], [[0.5]]))
            for rho, w in [(0.3, 0.4), (0.9, 1.0), (1.01, 0.5), (1.4, 0.9),
                           (2.0, 0.7)]]


class TestTraceTable:
    def test_gather_equals_per_cache_lookups(self):
        caches = mixed_caches()
        table = TraceTable(caches)
        reference = mixed_caches()
        sampler = np.random.default_rng(4)
        for hi in (3, 40, 300, 3000, 3000, 20_000):
            tau = sampler.integers(0, hi, size=len(caches))
            want = [c.trace_at(int(t)) for c, t in zip(reference, tau)]
            assert table.at(tau).tobytes() == np.array(want).tobytes()
        for cache, twin in zip(caches, reference):
            assert len(cache.trace_powers) <= len(twin.trace_powers)

    def test_cache_grown_on_its_own_is_read_right(self):
        caches = mixed_caches()
        table = TraceTable(caches)
        table.at(np.full(len(caches), 700))  # widens the table
        # a cache that grows past the table's width through its own
        # trace_at grows its row of the table, which then reads it
        marginal = caches[2]
        want = mixed_caches()[2].trace_at(5000)
        marginal.trace_at(5000)
        assert table.at(np.full(len(caches), 5000))[2] == want

    def test_caches_do_not_keep_the_table_alive(self):
        # each cache points at its table, but the table points at no
        # cache, so there is no reference cycle: a dropped scenario's table
        # and caches are freed at once, not whenever the cycle collector
        # next runs
        scn = Scenario([c.model for c in mixed_caches()],
                       [ChannelModel(0.2, 0.8)], seed=0)
        scn.traces.at(np.full(len(scn.caches), 700))
        dropped = [weakref.ref(obj) for obj in [scn.traces, *scn.caches]]
        gc.disable()
        try:
            del scn
            assert [ref() for ref in dropped] == [None] * len(dropped)
        finally:
            gc.enable()

    def test_cache_shared_by_two_tables(self):
        caches = mixed_caches()
        first, second = TraceTable(caches), TraceTable(caches[::-1])
        reference = mixed_caches()
        sampler = np.random.default_rng(8)
        # the second table takes over the caches' handles, and holding
        # times creep up, so both tables grow rows of the same caches
        for k in range(0, 900, 3):
            tau = k + sampler.integers(0, 6, size=len(caches))
            want = np.array([c.trace_at(int(t))
                             for c, t in zip(reference, tau)])
            assert first.at(tau).tobytes() == want.tobytes()
            assert second.at(tau[::-1]).tobytes() == want[::-1].tobytes()


class TestFilterSimulation:
    def test_remote_error_matches_holding_time_covariances(self):
        # Monte-Carlo strata vs the cached traces: the acceptance-scale
        # version of this check lives in the acceptance suite
        A = np.array([[1.05, 0.1], [0.0, 0.8]])
        C = np.array([[1.0, 0.5]])
        W = np.array([[0.5, 0.1], [0.1, 0.7]])
        V = np.array([[0.4]])
        model = ProcessModel(A, C, W, V)
        cache = steady_state_covariance(model)
        rng = np.random.default_rng(11)
        counts, mean = remote_error_by_holding(
            model, cache, receive_prob=0.5, collect_steps=120,
            replicas=3000, rng=rng, burn_in=60, tau_max=3)
        for tau in range(4):
            assert counts[tau] > 5_000
            assert mean[tau] == pytest.approx(cache.trace_at(tau), rel=0.08)
