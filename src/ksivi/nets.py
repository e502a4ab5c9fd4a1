"""Small dense rectifier networks with exact reverse-mode parameter gradients.

The forward map is a fixed-architecture MLP: rectifier on hidden layers,
identity on the output layer.  Everything is float64 and batch-first: a
single sample is a batch of one.  Gradients with respect to the weights and
biases are computed by hand-written backpropagation, which is all the
training loop ever needs (vector-Jacobian products, never full Jacobians).

Parameters live in one flat float64 vector; the weight matrices and biases
are views of it.  ``layer_views`` is the one place that knows the layout:
layers in order, each weight matrix row-major before its bias, and anything
after the network's entries (the family's log-scales) as a tail.  The
optimizer steps that vector in place, checkpoints store it as is, and the
backward pass writes its gradient into a vector of the same layout through
the same views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetArch:
    """Layer widths ``[d_in, h_1, ..., d_out]``."""

    widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least an input and an output width")
        if any(w < 1 for w in widths):
            raise ValueError(f"all layer widths must be >= 1, got {widths}")
        object.__setattr__(self, "widths", widths)

    @property
    def d_in(self) -> int:
        return self.widths[0]

    @property
    def d_out(self) -> int:
        return self.widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.widths[:-1], self.widths[1:]))


@dataclass
class NetParams:
    """Weights ``(out, in)`` and biases ``(out,)`` per layer, float64.

    Built by ``layer_views``, so every array is a view of one flat vector.
    """

    arch: NetArch
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def layer_views(arch: NetArch, flat: np.ndarray) -> tuple[NetParams, np.ndarray]:
    """The flat parameter layout: ``flat`` viewed as layers plus a tail.

    Layers come in order, each weight matrix row-major before its bias; the
    entries after the network's ``arch.n_params`` are returned as the tail.
    ``flat`` is 1-D, so every slice and reshape of it is a view: a write
    through any view lands in ``flat``, and an in-place update of ``flat``
    shows in every view.
    """
    weights, biases, pos = [], [], 0
    for i, o in zip(arch.widths[:-1], arch.widths[1:]):
        weights.append(flat[pos : pos + o * i].reshape(o, i))
        pos += o * i
        biases.append(flat[pos : pos + o])
        pos += o
    return NetParams(arch, weights, biases), flat[pos:]


def net_init(arch: NetArch, seed: int, out: np.ndarray | None = None) -> NetParams:
    """Rectifier-scaled Gaussian init: W ~ N(0, 2/fan_in), biases zero.

    Written through the layer views of ``out`` (a fresh vector by default),
    which are returned; a tail of ``out`` is left alone.
    """
    rng = np.random.default_rng(seed)
    params, _ = layer_views(arch, np.empty(arch.n_params) if out is None else out)
    for w, b in zip(params.weights, params.biases):
        np.multiply(rng.standard_normal(w.shape), np.sqrt(2.0 / w.shape[1]), out=w)
        b[:] = 0.0
    return params


@dataclass
class ForwardTape:
    """Cached forward state: inputs to every layer plus hidden rectifier masks."""

    arch: NetArch
    inputs: list[np.ndarray]  # a_0 .. a_{L-1}, each (n, width)
    masks: list[np.ndarray]  # rectifier masks for hidden layers, (n, width), bool

    @property
    def n(self) -> int:
        return self.inputs[0].shape[0]


def net_forward_batch(params: NetParams, z: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Evaluate the network on a batch ``z`` of shape (n, d_in).

    Each layer's product is its only array: the bias is added and the
    rectifier applied in place, once the mask is taken.  The rectifier is
    ``np.fmax(pre, 0.0)`` then ``+= 0.0``, which has the bits of
    ``np.where(pre > 0, pre, 0.0)`` without its branch: ``fmax`` maps NaN to
    +0.0 but may keep -0.0 (numpy 2.4 did at the first element past its
    vector loop, at some block sizes), and -0.0 + 0.0 is +0.0 while every
    other value is left as it is.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.arch.d_in:
        raise ValueError(f"batch input shape {z.shape} incompatible with input width {params.arch.d_in}")
    a = z
    inputs = [a]
    masks = []
    n_layers = params.arch.n_layers
    for layer in range(n_layers):
        a = a @ params.weights[layer].T
        a += params.biases[layer]
        if layer < n_layers - 1:
            masks.append(a > 0.0)  # subgradient at exactly 0 is taken as 0
            np.fmax(a, 0.0, out=a)
            a += 0.0  # -0.0 to +0.0, which fmax may leave
            inputs.append(a)
    return a, ForwardTape(params.arch, inputs, masks)


def _check_tape(params: NetParams, tape: ForwardTape) -> None:
    if tape.arch != params.arch:
        raise ValueError("tape was produced by a network with a different architecture")


def net_vjp_batch_sum(
    params: NetParams, tape: ForwardTape, upstream: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Sum over the batch of per-sample vector-Jacobian products.

    ``upstream`` has shape (n, d_out); the result is the flat gradient of
    ``sum_i <upstream_i, net(z_i)>`` with respect to all weights and biases.
    It is written through the layer views of ``out`` (a fresh vector of
    ``arch.n_params`` by default), which is returned; a tail of ``out`` is
    left alone.
    """
    _check_tape(params, tape)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (tape.n, params.arch.d_out):
        raise ValueError(f"upstream shape {upstream.shape} != ({tape.n}, {params.arch.d_out})")
    if out is None:
        out = np.empty(params.arch.n_params)
    grads, _ = layer_views(params.arch, out)
    delta = upstream
    for layer in range(params.arch.n_layers - 1, -1, -1):
        np.matmul(delta.T, tape.inputs[layer], out=grads.weights[layer])
        delta.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer]
            delta *= tape.masks[layer - 1]
    return out


def net_jacobian_frobenius(params: NetParams, z: np.ndarray) -> np.ndarray:
    """Frobenius norms of the full parameter Jacobian at each row of a batch ``z``.

    All d_out unit upstream vectors of every sample are backpropagated at once
    (``delta`` has shape (n, d_out, width)).  Since they share one forward
    pass, the squared norm of each layer's weight block factorizes as
    ||delta||_F^2 * ||a||^2, with the bias block contributing ||delta||_F^2.
    """
    _, tape = net_forward_batch(params, z)
    n_layers, d_out = params.arch.n_layers, params.arch.d_out
    delta = np.broadcast_to(np.eye(d_out), (len(tape.inputs[0]), d_out, d_out))
    total = np.zeros(len(delta))
    for layer in range(n_layers - 1, -1, -1):
        a = tape.inputs[layer]
        total += (delta**2).sum(axis=(1, 2)) * ((a**2).sum(axis=1) + 1.0)
        if layer > 0:
            delta = (delta @ params.weights[layer]) * tape.masks[layer - 1][:, None, :]
    return np.sqrt(total)
