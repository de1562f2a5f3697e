"""Multilayer perceptron, squared-error gradients, and Adam, all in numpy.

Hidden layers use ReLU, the output layer is affine.  The loss used for
Q-learning is the mean squared error between scalar targets and the output
units selected by a per-sample action index, so gradients flow only through
each sample's chosen output.  Everything is float64.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ChecksumError, MalformedFileError, NumericalError, \
    VersionMismatchError

_MAGIC = b"QNET"
_VERSION = 1
_ACTIVATION = "relu"
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class MlpParams:
    """All weights and biases in one float64 vector ``flat``, W then b per
    layer, row-major; ``layers[l] = (W, b)`` are views, W (fan_in, fan_out)."""

    def __init__(self, layer_sizes, flat=None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        total = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.flat = np.zeros(total) if flat is None else flat
        if self.flat.shape != (total,):
            raise ValueError(f"flat shape {self.flat.shape}, need ({total},)")
        self.layers = []
        off = 0
        for fan_in, fan_out in shapes:
            end = off + fan_in * fan_out
            self.layers.append((self.flat[off:end].reshape(fan_in, fan_out),
                                self.flat[end:end + fan_out]))
            off = end + fan_out

    @property
    def n_outputs(self):
        return self.layer_sizes[-1]

    def copy(self):
        return MlpParams(self.layer_sizes, self.flat.copy())


def init_mlp(layer_sizes, rng):
    """Glorot-uniform weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    params = MlpParams(layer_sizes)
    for w, _ in params.layers:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


class Workspace:
    """Buffers for one network at one batch size, allocated once so that
    ``forward``, ``loss_and_gradient`` and the bootstrap targets write into
    them instead of allocating: per layer the output (ReLU applied on hidden
    layers) and the loss gradient with respect to the pre-activation, per
    hidden layer a boolean ReLU mask, plus the gradient ``MlpParams`` and a
    ``targets`` vector.  Each use overwrites what the last one left."""

    def __init__(self, layer_sizes, batch):
        shapes = [(batch, n) for n in layer_sizes[1:]]
        self.acts = [np.empty(shape) for shape in shapes]
        self.d_z = [np.empty(shape) for shape in shapes]
        self.masks = [np.empty(shape, dtype=bool) for shape in shapes[:-1]]
        self.grads = MlpParams(layer_sizes)
        self.targets = np.empty(batch)
        self.rows = np.arange(batch)

    def forward(self, params, x):
        """``mlp_forward`` of a batch into these buffers."""
        return _forward(params, x, self.acts)


def _forward(params, x, acts):
    """Forward pass of a (B, d) batch with layer l's output written to
    ``acts[l]``; returns the output layer."""
    if x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[1]}, network expects {params.layer_sizes[0]}")
    last = len(params.layers) - 1
    a = x
    for l, (w, b) in enumerate(params.layers):
        z = acts[l]
        np.matmul(a, w, out=z)
        z += b
        if l < last:
            np.maximum(z, 0.0, out=z)
        a = z
    if not np.isfinite(a).all():
        raise NumericalError("network produced non-finite outputs")
    return a


def mlp_forward(params, x):
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    acts = [np.empty((x.shape[0], n)) for n in params.layer_sizes[1:]]
    out = _forward(params, x, acts)
    return out[0] if single else out


def loss_and_gradient(params, inputs, actions, targets, work=None):
    """Mean squared error on the selected outputs, with full backprop.

    inputs: (B, d); actions: (B,) int indices; targets: (B,) floats.
    Returns (loss, grads) with grads an MlpParams shaped like params: the
    workspace's, overwritten by its next use, or a fresh one without one.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a batch, shape (B, d)")
    batch = inputs.shape[0]
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise ValueError("actions and targets must both have shape (B,)")
    if not np.isfinite(targets).all():
        raise NumericalError("non-finite targets")
    if work is None:
        work = Workspace(params.layer_sizes, batch)

    out = work.forward(params, inputs)
    rows = work.rows
    diff = out[rows, actions] - targets
    loss = float(np.add.reduce(np.square(diff))) / batch  # np.mean, inlined

    last = len(params.layers) - 1
    d_z = work.d_z[last]
    d_z.fill(0.0)
    d_z[rows, actions] = 2.0 * diff / batch
    grads = work.grads
    for l in range(last, -1, -1):
        w, _ = params.layers[l]
        gw, gb = grads.layers[l]
        a_in = work.acts[l - 1] if l > 0 else inputs
        np.matmul(a_in.T, d_z, out=gw)
        np.add.reduce(d_z, axis=0, out=gb)
        if l > 0:
            # relu(z) > 0 exactly where z > 0, NaN failing both; multiplying
            # by the mask, not selecting, turns an inf upstream into NaN
            d_prev, mask = work.d_z[l - 1], work.masks[l - 1]
            np.matmul(d_z, w.T, out=d_prev)
            np.greater(a_in, 0.0, out=mask)
            d_prev *= mask
            d_z = d_prev
    return loss, grads


@dataclass
class AdamState:
    """Adam's moments, step count and two scratch vectors of the same
    length, so that an update allocates nothing."""
    m: np.ndarray
    v: np.ndarray
    timestep: int = 0
    _s: np.ndarray = field(init=False, repr=False)
    _u: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._s = np.empty_like(self.m)
        self._u = np.empty_like(self.m)


def init_adam(params):
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(params, grads, opt, rate):
    """One Adam step of size ``rate`` in place.

    Computes rate * (m / c1) / (sqrt(v / c2) + eps) one operation at a
    time into the scratch vectors, in that order, so the bits are those of
    the expression."""
    t = opt.timestep + 1
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    g, m, v, s, u = grads.flat, opt.m, opt.v, opt._s, opt._u
    m *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=s)
    m += s
    v *= _BETA2
    np.square(g, out=s)
    s *= 1.0 - _BETA2
    v += s
    np.divide(m, c1, out=s)
    s *= rate
    np.divide(v, c2, out=u)
    np.sqrt(u, out=u)
    u += _EPS
    s /= u
    params.flat -= s
    opt.timestep = t
    return params, opt


def save_weights(params, path):
    """Binary dump: magic, format version, activation name, layer sizes,
    row-major float64 weights then biases per layer, and a trailing CRC32
    over everything after the magic."""
    sizes = params.layer_sizes
    body = struct.pack("<I", _VERSION)
    name = _ACTIVATION.encode()
    body += struct.pack("<I", len(name)) + name
    body += struct.pack("<I", len(sizes))
    body += struct.pack(f"<{len(sizes)}I", *sizes)
    body += params.flat.tobytes()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(_MAGIC + body + struct.pack("<I", crc))


def load_weights(path):
    """Inverse of save_weights; round trips are bit-exact."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + 8 or raw[:len(_MAGIC)] != _MAGIC:
        raise MalformedFileError(f"{path}: not a weight file")
    body, (crc,) = raw[len(_MAGIC):-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ChecksumError(f"{path}: checksum mismatch")
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(body):
            raise MalformedFileError(f"{path}: truncated")
        vals = struct.unpack_from(fmt, body, off)
        off += size
        return vals

    (version,) = take("<I")
    if version != _VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, supported: {_VERSION}")
    (name_len,) = take("<I")
    (name,) = take(f"<{name_len}s")
    if name != _ACTIVATION.encode():
        raise MalformedFileError(f"{path}: unknown activation "
                                 f"{name.decode(errors='replace')!r}")
    (n_sizes,) = take("<I")
    if n_sizes < 2:
        raise MalformedFileError(f"{path}: needs at least two layer sizes")
    sizes = take(f"<{n_sizes}I")
    try:
        flat = np.frombuffer(body, dtype=np.float64, offset=off).copy()
        return MlpParams(sizes, flat)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: bad weight payload: {exc}") from exc
