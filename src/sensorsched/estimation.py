"""Linear process models, local Kalman filters, and covariance bookkeeping.

Each monitored process is a discrete-time linear Gaussian system

    x[k+1] = A x[k] + w[k],    w ~ N(0, W)
    y[k]   = C x[k] + v[k],    v ~ N(0, V)

whose sensor runs a Kalman filter that has reached steady state, so the
posterior covariance is the fixed point ``pbar`` of the Riccati recursion
and the filter gain is constant.  When the smart sensor's estimate reaches
the remote estimator its error covariance is ``pbar``; after ``tau``
consecutive steps without a delivery it is the tau-fold composition of the
open-loop propagation ``P -> A P A' + W`` applied to ``pbar``.  Schedulers
only ever need traces of those compositions; one ``TraceTable`` stores
and grows them, a row per process.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import RiccatiConvergenceError

# Relative singular-value cutoff for rank tests, absolute eigenvalue slack
# for definiteness tests.
_RANK_TOL = 1e-8
_EIG_TOL = 1e-10
# Riccati iteration: converged below this sup-norm step, budget of steps.
_RICCATI_TOL = 1e-10
_RICCATI_MAX_ITERS = 100_000


def _symmetrize(mat):
    return (mat + mat.T) * 0.5


def _as_matrix(value, name):
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    return arr


def _rank(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > _RANK_TOL * sv[0]))


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def is_observable(A, C):
    """Rank test on the stacked observability matrix [C; CA; ...; CA^(n-1)]."""
    n = A.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return _rank(np.vstack(blocks)) == n


def is_controllable(A, B):
    """Duality: (A, B) is controllable exactly when (A', B') is observable."""
    return is_observable(A.T, B.T)


class ProcessModel:
    """Validated (A, C, W, V) quadruple for one monitored process.

    W must be symmetric PSD, V symmetric PD, (A, C) observable and
    (A, W^(1/2)) controllable so the filter Riccati recursion has a unique
    stabilizing fixed point.
    """

    def __init__(self, A, C, W, V):
        A = _as_matrix(A, "A")
        C = _as_matrix(C, "C")
        W = _as_matrix(W, "W")
        V = _as_matrix(V, "V")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        ny = C.shape[0]
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        if V.shape != (ny, ny):
            raise ValueError(f"V must be {ny}x{ny}, got {V.shape}")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(C)) \
                or not np.all(np.isfinite(W)) or not np.all(np.isfinite(V)):
            raise ValueError("model matrices must be finite")
        if not np.allclose(W, W.T, atol=_EIG_TOL):
            raise ValueError("W must be symmetric")
        if not np.allclose(V, V.T, atol=_EIG_TOL):
            raise ValueError("V must be symmetric")
        with np.errstate(over="ignore"):
            W = _symmetrize(W)
            V = _symmetrize(V)
        for name, mat in (("W", W), ("V", V)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} overflows when symmetrized")
        if np.linalg.eigvalsh(W).min() < -_EIG_TOL:
            raise ValueError("W must be positive semidefinite")
        if np.linalg.eigvalsh(V).min() <= _EIG_TOL:
            raise ValueError("V must be positive definite")
        if not is_observable(A, C):
            raise ValueError("(A, C) must be observable")
        if not is_controllable(A, _psd_sqrt(W)):
            raise ValueError("(A, W^(1/2)) must be controllable")
        self.A = A
        self.C = C
        self.W = W
        self.V = V

    @property
    def n_x(self):
        return self.A.shape[0]

    @property
    def n_y(self):
        return self.C.shape[0]

    def __repr__(self):
        return f"ProcessModel(n_x={self.n_x}, n_y={self.n_y})"


# Entries every row computes up front; later ones are grown on demand.
_N_MAX = 256
# Lookup limit of a frozen row: every holding time is in its padding.
_UNLIMITED = np.iinfo(np.int64).max


class SteadyStateCache:
    """Steady-state filter quantities of one process and a handle on its
    ``TraceTable`` row of trace powers; a cache in no table makes a one-row
    table of its own on first use."""

    def __init__(self, model, pbar, kalman_gain):
        self.model = model
        self.pbar = _symmetrize(np.array(pbar, dtype=np.float64))
        self.kalman_gain = np.array(kalman_gain, dtype=np.float64)
        self._table = self._row = None  # set by the table holding the row

    def _table_row(self):
        if self._table is None:
            TraceTable([self])
        return self._table, self._row

    @property
    def trace_powers(self):
        """The computed entries (a view; a frozen row ends at its last)."""
        table, i = self._table_row()
        return table._data[i, :table._len[i]]

    def trace_at(self, n):
        """tr of the covariance after holding time n (n = 0 gives tr pbar)."""
        if n < 0:
            raise ValueError(f"holding time must be >= 0, got {n}")
        table, i = self._table_row()
        if n >= table._limit[i]:
            table._grow(i, n)
        return float(table._data[i, min(n, table._last)])


class TraceTable:
    """Trace powers of N caches, stored and grown as rows of one (N, L) array.

    Column n of row i is tr of the n-fold propagation ``A P A' + W`` of
    cache i's ``pbar``: 257 entries up front, later ones on demand, keeping
    only the covariance at the last.  A row freezes at a float64 fixed point
    (one more step returns the same bits) or once its trace overflows to
    +inf (an unbounded covariance, not an error); it then repeats its last
    entry to column L - 1, which later holding times read.  L doubles when
    a row runs out of room, each row's new columns copying its last one.
    ``at`` reads all N traces in one lookup; ``at_one`` holds them at
    holding time 1.  Each cache points at its row; the table keeps no
    reference to a cache.
    """

    def __init__(self, caches):
        self._index = np.arange(len(caches))
        self._data = np.empty((len(caches), _N_MAX + 1))
        self._last = _N_MAX
        self._limit = np.ones(len(caches), dtype=np.int64)
        self._len = [1] * len(caches)
        self._step = [(c.model.A, c.model.W) for c in caches]
        self._tail = [c.pbar for c in caches]  # covariance at the last entry
        for i, cache in enumerate(caches):
            cache._table, cache._row = self, i
            self._data[i, 0] = np.trace(cache.pbar)
            self._grow(i, _N_MAX)
        self.at_one = self.at(np.ones(len(caches), dtype=np.int64))
        self.at_one.setflags(write=False)

    def _grow(self, i, n):
        """Extend row i through holding time n, or until it freezes."""
        A, W = self._step[i]
        tail, length, frozen = self._tail[i], self._len[i], False
        with np.errstate(over="ignore", invalid="ignore"):
            while length <= n and not frozen:
                nxt = _symmetrize(A @ tail @ A.T + W)
                frozen = nxt.tobytes() == tail.tobytes()
                if frozen:
                    break
                if length > self._last:
                    self._data = np.pad(self._data, ((0, 0), (0, length)),
                                        mode="edge")
                    self._last = 2 * length - 1
                tr = float(np.trace(nxt))
                frozen = not isfinite(tr)
                self._data[i, length] = np.inf if frozen else tr
                length += 1
                tail = nxt
        self._tail[i], self._len[i] = tail, length
        if frozen:
            self._data[i, length:] = self._data[i, length - 1]
        self._limit[i] = _UNLIMITED if frozen else length

    def at(self, tau):
        """Trace of row i at holding time tau[i] (>= 0), for every row."""
        if np.count_nonzero(tau >= self._limit):
            for i in np.flatnonzero(tau >= self._limit):
                self._grow(i, int(tau[i]))
        return self._data[self._index, np.minimum(tau, self._last)]


def steady_state_covariance(model):
    """Fixed point of the posterior Riccati recursion, with its gain.

    Iterates the measurement-updated covariance map (Joseph form) from
    P = W, each pass first taking the gain at its P, until the sup-norm
    step falls below ``_RICCATI_TOL``.  Raises RiccatiConvergenceError if
    ``_RICCATI_MAX_ITERS`` updates do not converge, or at once on a
    non-finite iterate, which can never converge."""
    A, C, W, V = model.A, model.C, model.W, model.V
    eye = np.eye(model.n_x)
    P, step = W.copy(), np.inf
    # overflow ends in the non-finite check below; it is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_RICCATI_MAX_ITERS + 1):
            prior = A @ P @ A.T + W
            S = C @ prior @ C.T + V
            K = np.linalg.solve(S, C @ prior).T
            if step < _RICCATI_TOL:
                break
            if it == _RICCATI_MAX_ITERS:
                raise RiccatiConvergenceError(
                    f"no fixed point within {_RICCATI_MAX_ITERS} iterations "
                    f"(tol={_RICCATI_TOL}) for model with A={A.tolist()}")
            IKC = eye - K @ C
            P_next = _symmetrize(IKC @ prior @ IKC.T + K @ V @ K.T)
            step = np.max(np.abs(P_next - P))
            P = P_next
            if not isfinite(step):
                raise RiccatiConvergenceError(
                    f"non-finite iterate after {it + 1} iterations for "
                    f"model with A={A.tolist()}")
    return SteadyStateCache(model, P, K)


def remote_error_by_holding(model, cache, receive_prob, collect_steps,
                            replicas, rng, burn_in=100, tau_max=3):
    """Monte-Carlo squared remote-estimation error, stratified by holding time.

    Simulates ``replicas`` independent copies of the process, each with a
    steady-state local filter and i.i.d. Bernoulli(receive_prob) deliveries,
    and accumulates ||x - xhat_remote||^2 per observed holding time.  The
    local error starts at N(0, pbar) so the filter is stationary from step
    one; ``burn_in`` steps let the holding-time distribution mix before
    collection.  Returns (counts, mean_sq_error) arrays of length tau_max+1.

    Deliberately recomputes nothing from the cached trace table: this is an
    independent check of ``SteadyStateCache.trace_at``, not a consumer of it.
    """
    A, C = model.A, model.C
    K = cache.kalman_gain
    n, ny = model.n_x, model.n_y
    sq_w, sq_v = _psd_sqrt(model.W), _psd_sqrt(model.V)
    sq_p = _psd_sqrt(cache.pbar)

    xhat = np.zeros((replicas, n))
    x = xhat + rng.standard_normal((replicas, n)) @ sq_p.T
    remote = xhat.copy()
    tau = np.zeros(replicas, dtype=np.int64)
    sums = np.zeros(tau_max + 1)
    counts = np.zeros(tau_max + 1, dtype=np.int64)

    for step in range(burn_in + collect_steps):
        x = x @ A.T + rng.standard_normal((replicas, n)) @ sq_w.T
        y = x @ C.T + rng.standard_normal((replicas, ny)) @ sq_v.T
        pred = xhat @ A.T
        xhat = pred + (y - pred @ C.T) @ K.T
        received = rng.random(replicas) < receive_prob
        remote = np.where(received[:, None], xhat, remote @ A.T)
        tau = np.where(received, 0, tau + 1)
        if step < burn_in:
            continue
        err2 = ((x - remote) ** 2).sum(axis=1)
        mask = tau <= tau_max
        idx = tau[mask]
        sums += np.bincount(idx, weights=err2[mask], minlength=tau_max + 1)
        counts += np.bincount(idx, minlength=tau_max + 1)
    mean = np.divide(sums, counts, out=np.full(tau_max + 1, np.nan),
                     where=counts > 0)
    return counts, mean
