"""Multilayer perceptron, squared-error gradients, and Adam, all in numpy.

Hidden layers use ReLU, the output layer is affine.  The loss used for
Q-learning is the mean squared error between scalar targets and the output
units selected by a per-sample action index, so gradients flow only through
each sample's chosen output.  Everything is float64.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

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


def _forward_cached(params, x):
    """Returns the activations per layer, input first and output last."""
    acts = [x]
    last = len(params.layers) - 1
    for l, (w, b) in enumerate(params.layers):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if l < last else z)
    return acts


def mlp_forward(params, x):
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[1]}, network expects {params.layer_sizes[0]}")
    out = _forward_cached(params, x)[-1]
    if not np.all(np.isfinite(out)):
        raise NumericalError("network produced non-finite outputs")
    return out[0] if single else out


def loss_and_gradient(params, inputs, actions, targets):
    """Mean squared error on the selected outputs, with full backprop.

    inputs: (B, d); actions: (B,) int indices; targets: (B,) floats.
    Returns (loss, grads) with grads an MlpParams shaped like params.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a batch, shape (B, d)")
    batch = inputs.shape[0]
    if actions.shape != (batch,) or targets.shape != (batch,):
        raise ValueError("actions and targets must both have shape (B,)")
    if not np.all(np.isfinite(targets)):
        raise NumericalError("non-finite targets")

    acts = _forward_cached(params, inputs)
    out = acts[-1]
    if not np.all(np.isfinite(out)):
        raise NumericalError("network produced non-finite outputs")
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
            # relu(z) > 0 exactly where z > 0, NaN failing both
            d_z = (d_z @ w.T) * (acts[l] > 0.0)
    return loss, grads


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    timestep: int = 0


def init_adam(params):
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(params, grads, opt, rate):
    """One Adam step of size ``rate`` in place."""
    t = opt.timestep + 1
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    g = grads.flat
    opt.m *= _BETA1
    opt.m += (1.0 - _BETA1) * g
    opt.v *= _BETA2
    opt.v += (1.0 - _BETA2) * np.square(g)
    params.flat -= rate * (opt.m / c1) / (np.sqrt(opt.v / c2) + _EPS)
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
