"""Network, gradient, optimizer, and weight-file tests.

The backprop oracle is central finite differences on the exact same loss;
the Adam oracle is its constant-gradient asymptote (step size -> learning
rate); file-format failures are crafted byte by byte.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensorsched import (AdamState, ChecksumError, MalformedFileError,
                         MlpParams, NumericalError, PersistenceError,
                         VersionMismatchError, Workspace, adam_update,
                         init_adam, init_mlp, load_weights,
                         loss_and_gradient, mlp_forward, save_weights)

layer_sizes = st.lists(st.integers(1, 6), min_size=2, max_size=4)
# one temporary file is rewritten by every example of a file test
file_settings = settings(
    deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def fit(params, inputs, actions, targets):
    """loss_and_gradient through a workspace of its own, so the gradient
    it returns is not overwritten by a later call."""
    work = Workspace(params.layer_sizes, len(inputs))
    return loss_and_gradient(params, inputs, actions, targets, work)


def numerical_gradient(params, inputs, actions, targets, h=1e-6):
    grads = []
    for li, (w, b) in enumerate(params.layers):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for tensor, grad in ((w, gw), (b, gb)):
            flat = tensor.ravel()
            gflat = grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                hi, _ = fit(params, inputs, actions, targets)
                flat[i] = keep - h
                lo, _ = fit(params, inputs, actions, targets)
                flat[i] = keep
                gflat[i] = (hi - lo) / (2 * h)
        grads.append((gw, gb))
    return grads


def relative_error(a, b):
    num = np.linalg.norm(a - b)
    den = np.linalg.norm(a) + np.linalg.norm(b) + 1e-12
    return num / den


class TestForward:
    def test_single_and_batch_agree(self, rng):
        params = init_mlp((4, 8, 3), rng)
        x = rng.standard_normal((5, 4))
        batch = Workspace(params.layer_sizes, 5).forward(params, x)
        for i in range(5):
            assert np.allclose(mlp_forward(params, x[i]), batch[i],
                               rtol=1e-12)

    def test_linear_network_is_affine(self, rng):
        params = init_mlp((3, 2), rng)
        w, b = params.layers[0]
        x = rng.standard_normal(3)
        assert np.allclose(mlp_forward(params, x), x @ w + b, rtol=1e-12)

    def test_relu_hidden_layers(self):
        # one hidden unit, hand-run: relu(w x) * w2
        params = MlpParams((1, 1, 1), np.array([2.0, 0.0, 3.0, 1.0]))
        assert mlp_forward(params, np.array([2.0]))[0] == 13.0
        assert mlp_forward(params, np.array([-2.0]))[0] == 1.0  # relu clamps

    def test_width_mismatch_rejected(self, rng):
        params = init_mlp((4, 3), rng)
        with pytest.raises(ValueError, match="width"):
            mlp_forward(params, np.zeros(5))

    def test_nonfinite_output_raises(self, rng):
        params = init_mlp((2, 2), rng)
        with pytest.raises(NumericalError):
            mlp_forward(params, np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("shape", [(), (1, 4), (5, 4), (1, 1, 4)])
    def test_only_one_observation_accepted(self, rng, shape):
        # batches go through Workspace.forward
        params = init_mlp((4, 3), rng)
        with pytest.raises(ValueError, match="1-D"):
            mlp_forward(params, np.zeros(shape))


class TestInit:
    def test_glorot_bounds_and_zero_biases(self, rng):
        params = init_mlp((30, 20, 10), rng)
        for w, b in params.layers:
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= bound)
            assert np.std(w) > 0.1 * bound  # actually spread out
            assert np.all(b == 0.0)

    def test_deterministic_by_seed(self):
        a = init_mlp((5, 4, 3), np.random.default_rng(8))
        b = init_mlp((5, 4, 3), np.random.default_rng(8))
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_layer_sizes_roundtrip(self, rng):
        params = init_mlp((7, 5, 3, 2), rng)
        assert params.layer_sizes == (7, 5, 3, 2)
        assert params.n_outputs == 2

    def test_too_few_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            init_mlp((4,), rng)


class TestGradients:
    @pytest.mark.parametrize("sizes", [(3, 2), (4, 6, 3), (5, 10, 10, 4)])
    def test_backprop_matches_central_differences(self, sizes, rng):
        params = init_mlp(sizes, rng)
        batch = 7
        inputs = rng.standard_normal((batch, sizes[0]))
        actions = rng.integers(sizes[-1], size=batch)
        targets = rng.standard_normal(batch)
        _, analytic = fit(params, inputs, actions, targets)
        numeric = numerical_gradient(params, inputs, actions, targets)
        for (aw, ab), (nw, nb) in zip(analytic.layers, numeric):
            assert relative_error(aw, nw) < 1e-7
            assert relative_error(ab, nb) < 1e-7

    def test_loss_value_is_mean_squared_error(self, rng):
        params = init_mlp((3, 4, 2), rng)
        inputs = rng.standard_normal((5, 3))
        actions = rng.integers(2, size=5)
        targets = rng.standard_normal(5)
        work = Workspace(params.layer_sizes, 5)
        loss, _ = loss_and_gradient(params, inputs, actions, targets, work)
        out = work.forward(params, inputs)
        picked = out[np.arange(5), actions]
        assert loss == pytest.approx(np.mean((picked - targets) ** 2),
                                     rel=1e-12)

    def test_duplicated_sample_leaves_gradient_unchanged(self, rng):
        params = init_mlp((3, 5, 2), rng)
        x = rng.standard_normal((1, 3))
        a = np.array([1])
        t = np.array([0.7])
        _, single = fit(params, x, a, t)
        _, stacked = fit(params, np.repeat(x, 6, axis=0), np.repeat(a, 6),
                         np.repeat(t, 6))
        for (sw, sb), (kw, kb) in zip(single.layers, stacked.layers):
            assert np.allclose(sw, kw, atol=1e-12)
            assert np.allclose(sb, kb, atol=1e-12)

    def test_gradient_only_through_selected_outputs(self, rng):
        params = init_mlp((3, 4, 5), rng)
        inputs = rng.standard_normal((2, 3))
        actions = np.array([1, 3])
        targets = np.array([0.0, 0.0])
        _, grads = fit(params, inputs, actions, targets)
        gw_out, gb_out = grads.layers[-1]
        untouched = [0, 2, 4]
        assert np.all(gw_out[:, untouched] == 0.0)
        assert np.all(gb_out[untouched] == 0.0)

    def test_nonfinite_targets_rejected(self, rng):
        params = init_mlp((3, 2), rng)
        with pytest.raises(NumericalError):
            fit(params, np.zeros((1, 3)), np.array([0]), np.array([np.nan]))

    def test_batch_shape_validation(self, rng):
        params = init_mlp((3, 2), rng)
        with pytest.raises(ValueError):
            fit(params, np.zeros(3), np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError):
            fit(params, np.zeros((2, 3)), np.array([0]), np.array([0.0, 0.0]))


def reference_adam_step(layers, grads, moments, rate, t):
    """Adam with beta1 0.9, beta2 0.999 and eps 1e-8, applied one layer
    tensor at a time: an independent reference for the flat update."""
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    for theta, g, (m, v) in zip(layers, grads, moments):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * np.square(g)
        theta -= rate * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestAdam:
    @settings(deadline=None, max_examples=50)
    @given(sizes=layer_sizes, seed=st.integers(0, 2**32 - 1),
           steps=st.integers(1, 5))
    def test_flat_update_matches_per_layer_reference(self, sizes, seed,
                                                     steps):
        rng = np.random.default_rng(seed)
        params = init_mlp(sizes, rng)
        reference = [t.copy() for pair in params.layers for t in pair]
        moments = [(np.zeros_like(t), np.zeros_like(t)) for t in reference]
        opt = init_adam(params)
        for t in range(1, steps + 1):
            grads = MlpParams(sizes, rng.standard_normal(params.flat.size))
            rate = 1e-2 / t
            adam_update(params, grads, opt, rate)
            reference_adam_step(reference, [g for pair in grads.layers
                                            for g in pair], moments, rate, t)
        got = [t for pair in params.layers for t in pair]
        for a, b in zip(got, reference):
            assert np.array_equal(a, b)

    def test_constant_gradient_step_approaches_rate(self, rng):
        params = MlpParams((2, 2))
        opt = init_adam(params)
        grads = MlpParams((2, 2))
        grads.layers[0][0][...] = 0.37
        grads.layers[0][1][...] = -1.4
        for _ in range(400):
            before_w = params.layers[0][0].copy()
            adam_update(params, grads, opt, 1e-3)
        step = np.abs(params.layers[0][0] - before_w)
        assert np.allclose(step, 1e-3, rtol=1e-3)
        # sign: parameters move against the gradient
        assert np.all(params.layers[0][0] < 0.0)
        assert np.all(params.layers[0][1] > 0.0)

    def test_first_step_uses_alpha0(self):
        params = MlpParams((1, 1))
        opt = init_adam(params)
        adam_update(params, MlpParams((1, 1), np.array([2.0, 0.0])), opt,
                    1e-4)
        # bias-corrected first step is -rate * g/|g| up to eps
        assert params.layers[0][0][0, 0] == pytest.approx(-1e-4, rel=1e-6)
        assert opt.timestep == 1

    def test_state_shapes_follow_params(self, rng):
        params = init_mlp((3, 4, 2), rng)
        opt = init_adam(params)
        assert isinstance(opt, AdamState)
        assert opt.m.shape == params.flat.shape
        assert opt.v.shape == params.flat.shape


# The allocating kernel the workspace replaced, kept verbatim as the
# oracle for its bytes.
def reference_forward_cached(params, x):
    acts = [x]
    last = len(params.layers) - 1
    for l, (w, b) in enumerate(params.layers):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if l < last else z)
    return acts


def reference_loss_and_gradient(params, inputs, actions, targets):
    batch = inputs.shape[0]
    acts = reference_forward_cached(params, inputs)
    out = acts[-1]
    rows = np.arange(batch)
    picked = out[rows, actions]
    diff = picked - targets
    loss = float(np.mean(diff ** 2))
    d_z = np.zeros_like(out)
    d_z[rows, actions] = 2.0 * diff / batch
    grads = MlpParams(params.layer_sizes)
    for l in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[l]
        gw, gb = grads.layers[l]
        np.matmul(acts[l].T, d_z, out=gw)
        d_z.sum(axis=0, out=gb)
        if l > 0:
            d_z = (d_z @ w.T) * (acts[l] > 0.0)
    return loss, grads


def reference_adam_update(params, grads, m, v, t, rate):
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    g = grads.flat
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * np.square(g)
    params.flat -= rate * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestWorkspaceKernel:
    """One workspace reused across steps gives the bytes of the allocating
    reference: outputs, loss, gradients, weights and both moments."""

    @settings(deadline=None, max_examples=40)
    @given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           batch=st.sampled_from([1, 2, 3, 7, 32]),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_allocating_reference(self, sizes, batch, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp(sizes, rng)
        ref = params.copy()
        opt = init_adam(params)
        m, v = np.zeros_like(ref.flat), np.zeros_like(ref.flat)
        work = Workspace(sizes, batch)
        for t in range(1, 51):
            inputs = rng.standard_normal((batch, sizes[0]))
            actions = rng.integers(sizes[-1], size=batch)
            targets = rng.standard_normal(batch)
            out = work.forward(params, inputs)
            assert out.tobytes() == \
                reference_forward_cached(ref, inputs)[-1].tobytes()
            loss, grads = loss_and_gradient(params, inputs, actions, targets,
                                            work)
            ref_loss, ref_grads = reference_loss_and_gradient(
                ref, inputs, actions, targets)
            assert repr(loss) == repr(ref_loss)
            assert grads.flat.tobytes() == ref_grads.flat.tobytes()
            rate = 1e-2 / (1.0 + 0.1 * t)
            adam_update(params, grads, opt, rate)
            reference_adam_update(ref, ref_grads, m, v, t, rate)
            assert params.flat.tobytes() == ref.flat.tobytes()
            assert opt.m.tobytes() == m.tobytes()
            assert opt.v.tobytes() == v.tobytes()
        # targets this far off overflow the output gradient to inf, which
        # must reach dead hidden units as inf * 0 = NaN, as in the reference
        far = np.where(targets < 0.0, 1.7e308, -1.7e308)
        with np.errstate(over="ignore", invalid="ignore"):
            _, grads = loss_and_gradient(params, inputs, actions, far, work)
            _, ref_grads = reference_loss_and_gradient(ref, inputs, actions,
                                                       far)
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()

    def test_overflowing_gradient_at_a_dead_unit(self):
        # The hidden unit is off and the output gradient overflows to inf:
        # the ReLU mask multiplies, so inf * 0 gives NaN in the first
        # layer's gradient, where a select would give 0.
        params = MlpParams((1, 1, 1), np.array([-1.0, 0.0, 2.0, 0.0]))
        args = (np.ones((1, 1)), np.array([0]), np.array([-1.7e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            _, grads = fit(params, *args)
            _, ref_grads = reference_loss_and_gradient(params, *args)
        assert np.isnan(grads.layers[0][1][0])
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()

    def test_mlp_forward_matches_workspace_forward(self, rng):
        params = init_mlp((4, 6, 3), rng)
        x = rng.standard_normal(4)
        work = Workspace(params.layer_sizes, 1)
        assert mlp_forward(params, x).tobytes() == \
            work.forward(params, x[None, :])[0].tobytes()

    def test_batch_of_another_size_rejected(self, rng):
        params = init_mlp((4, 6, 3), rng)
        with pytest.raises(ValueError):
            Workspace(params.layer_sizes, 5).forward(params, np.zeros((4, 4)))


class TestPersistence:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        params = init_mlp((15, 128, 128, 120), rng)
        path = tmp_path / "weights.bin"
        save_weights(params, path)
        loaded = load_weights(path)
        assert loaded.layer_sizes == params.layer_sizes
        for (wa, ba), (wb, bb) in zip(params.layers, loaded.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_save_load_save_identical_bytes(self, rng, tmp_path):
        params = init_mlp((4, 8, 3), rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(params, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checksum_detects_corruption(self, rng, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(init_mlp((3, 2), rng), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedFileError):
            load_weights(path)

    @pytest.mark.parametrize("sizes, values, message", [
        ((3, 2), 7, "payload"),   # (3, 2) needs 3*2 + 2 = 8 values
        ((3, 2), 9, "payload"),
        ((3,), 0, "two layer sizes"),
    ])
    def test_header_and_payload_must_agree(self, tmp_path, sizes, values,
                                           message):
        # the checksum matches, so only the size check can catch these
        body = struct.pack("<II4sI", 1, 4, b"relu", len(sizes))
        body += struct.pack(f"<{len(sizes)}I", *sizes)
        body += np.zeros(values).tobytes()
        path = tmp_path / "w.bin"
        path.write_bytes(b"QNET" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(MalformedFileError, match=message):
            load_weights(path)

    def test_truncation_rejected(self, rng, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(init_mlp((3, 2), rng), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(MalformedFileError):
            load_weights(path)

    @file_settings
    @given(sizes=layer_sizes, seed=st.integers(0, 2**32 - 1))
    def test_file_layout_is_header_then_w_then_b(self, sizes, seed,
                                                 tmp_path):
        rng = np.random.default_rng(seed)
        pairs = [(rng.standard_normal((fan_in, fan_out)),
                  rng.standard_normal(fan_out))
                 for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
        params = MlpParams(sizes)
        for (w, b), (w_hand, b_hand) in zip(params.layers, pairs):
            w[...] = w_hand
            b[...] = b_hand
        body = struct.pack("<II4sI", 1, 4, b"relu", len(sizes))
        body += struct.pack(f"<{len(sizes)}I", *sizes)
        for w_hand, b_hand in pairs:
            body += w_hand.astype("<f8").tobytes()
            body += b_hand.astype("<f8").tobytes()
        path = tmp_path / "w.bin"
        save_weights(params, path)
        assert path.read_bytes() == (b"QNET" + body
                                     + struct.pack("<I", zlib.crc32(body)))
        for (w, b), (w_hand, b_hand) in zip(load_weights(path).layers, pairs):
            assert np.array_equal(w, w_hand) and np.array_equal(b, b_hand)

    @file_settings
    @given(sizes=layer_sizes, data=st.data())
    def test_corruption_raises_only_persistence_errors(self, sizes, data,
                                                       tmp_path):
        path = tmp_path / "w.bin"
        save_weights(init_mlp(sizes, np.random.default_rng(0)), path)
        body = path.read_bytes()[4:-4]
        header = 16 + 4 * len(sizes)
        start = data.draw(st.one_of(st.integers(0, header - 1),
                                    st.integers(0, len(body))))
        stop = data.draw(st.integers(start, min(start + 8, len(body))))
        body = body[:start] + data.draw(st.binary(max_size=8)) + body[stop:]
        path.write_bytes(b"QNET" + body
                         + struct.pack("<I", zlib.crc32(body)))
        try:
            load_weights(path)
        except PersistenceError:
            pass

    def test_future_version_rejected(self, rng, tmp_path):
        import zlib
        path = tmp_path / "w.bin"
        save_weights(init_mlp((3, 2), rng), path)
        raw = path.read_bytes()
        body = bytearray(raw[4:-4])
        struct.pack_into("<I", body, 0, 99)  # bump the version field
        fixed = bytes(body)
        path.write_bytes(raw[:4] + fixed
                         + struct.pack("<I", zlib.crc32(fixed) & 0xFFFFFFFF))
        with pytest.raises(VersionMismatchError):
            load_weights(path)
