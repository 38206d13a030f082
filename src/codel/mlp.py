"""Multilayer perceptron on a flat parameter vector.

All layers use the logistic sigmoid. Weights and biases live in a single
1-D array so that population-based optimizers can treat a network as a
point in R^n: per layer, the incoming weights of each destination neuron
in order, then that layer's biases.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "MlpTopology",
    "CandidateSolution",
    "Dataset",
    "decode",
    "encode",
    "forward",
    "predict",
    "classification_error",
    "mse_loss",
    "mse_loss_and_gradient",
]


@dataclass(frozen=True)
class MlpTopology:
    """Layer widths from input to output, e.g. (13, 10, 1)."""

    layer_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 3:
            raise ParameterError(
                "topology needs input, at least one hidden, and output layer"
            )
        if any(s < 1 for s in sizes):
            raise ParameterError(f"layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    @cached_property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(
            sizes[l] * sizes[l + 1] + sizes[l + 1] for l in range(len(sizes) - 1)
        )


@dataclass(frozen=True)
class CandidateSolution:
    """A flat parameter vector with its cached objective value."""

    params: np.ndarray
    fitness: float | None = None

    def __post_init__(self):
        params = np.array(self.params, dtype=float)
        if params.ndim != 1:
            raise ShapeError("candidate parameters must be a flat vector")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class Dataset:
    """Feature rows with binary labels."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        labels = np.asarray(self.labels)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ShapeError("rows must be a nonempty 2-D array")
        if labels.shape != (rows.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} does not match {rows.shape[0]} rows"
            )
        if not np.all(np.isfinite(rows)):
            raise ParameterError("rows contain non-finite values")
        if not np.all(np.isin(labels, (0, 1))):
            raise ParameterError("labels must be 0 or 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels.astype(int))

    def __len__(self):
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.rows[idx], self.labels[idx])


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """The logistic function, written over the float array z."""
    # exp(-|z|) never overflows. Per sign this is the same arithmetic as
    # 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) for z < 0:
    # exp(-|z|) <= 1, so max(z >= 0, exp(-|z|)) is 1 for z >= 0 and
    # exp(z) below, and NaN stays NaN.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=z)
    np.maximum(z, e, out=z)
    e += 1.0
    z /= e
    return z


def _sigmoid(z):
    return _sigmoid_in_place(np.array(z, dtype=float))


def _layer(a, w, b) -> np.ndarray:
    """sigmoid(a @ w.T + b), computed inside the product's own buffer.

    Every temporary array costs an allocation that outweighs its
    arithmetic at these sizes, so the bias add and the sigmoid reuse it.
    """
    z = a @ w.T
    z += b
    return _sigmoid_in_place(z)


def decode(params, topology: MlpTopology):
    """Split a flat vector into per-layer (weights, biases) pairs.

    Weight matrices have one row per destination neuron, so row j of
    layer l holds the incoming weights of neuron j.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (topology.param_count,):
        raise ShapeError(
            f"expected {topology.param_count} parameters for layers "
            f"{topology.layer_sizes}, got {params.shape}"
        )
    layers = []
    offset = 0
    sizes = topology.layer_sizes
    for n_src, n_dst in zip(sizes[:-1], sizes[1:]):
        w = params[offset: offset + n_src * n_dst].reshape(n_dst, n_src)
        offset += n_src * n_dst
        b = params[offset: offset + n_dst]
        offset += n_dst
        layers.append((w, b))
    return layers


def encode(layers, topology: MlpTopology) -> np.ndarray:
    """Flatten per-layer (weights, biases) pairs back into one vector."""
    sizes = topology.layer_sizes
    if len(layers) != len(sizes) - 1:
        raise ShapeError(f"expected {len(sizes) - 1} layers, got {len(layers)}")
    parts = []
    for (w, b), n_src, n_dst in zip(layers, sizes[:-1], sizes[1:]):
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        if w.shape != (n_dst, n_src) or b.shape != (n_dst,):
            raise ShapeError(
                f"layer shapes {w.shape}/{b.shape} do not match ({n_dst}, {n_src})"
            )
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def _forward_activations(params, topology: MlpTopology, inputs):
    """Activations of every layer for a batch, input batch first."""
    activations = [inputs]
    a = inputs
    for w, b in decode(params, topology):
        a = _layer(a, w, b)
        activations.append(a)
    return activations


def forward(params, topology: MlpTopology, inputs) -> np.ndarray:
    """Output activations for one input vector or a batch of them."""
    inputs = np.asarray(inputs, dtype=float)
    single = inputs.ndim == 1
    batch = inputs[None, :] if single else inputs
    if batch.ndim != 2 or batch.shape[1] != topology.n_in:
        raise ShapeError(
            f"input dimension {inputs.shape} does not match n_in={topology.n_in}"
        )
    out = _forward_activations(params, topology, batch)[-1]
    return out[0] if single else out


# A chunk of the stacked forward pass holds as many members as keep its
# first hidden layer near this many doubles (8 members at 400 rows x 10
# units), so the chunk's activations stay in cache.
_CHUNK_DOUBLES = 32_768


def _output_preactivations(vectors, topology: MlpTopology, rows) -> np.ndarray:
    """The output neuron's pre-activation of each member on each row, (k, n).

    Row i of `vectors` holds member i's flat parameters. Members go through
    in chunks. Per hidden layer, one stacked matmul writes a chunk's
    products into a (rows, members, units) buffer through its (members,
    rows, units) view, so the bias add and the sigmoid run once over
    contiguous memory. Every member's product is the same BLAS call on the
    same shapes as its own `a @ w.T`, so each row of the result equals the
    member's unstacked pass bit for bit.
    """
    if vectors.ndim != 2 or vectors.shape[1] != topology.param_count:
        raise ShapeError(
            f"expected (k, {topology.param_count}) parameters for layers "
            f"{topology.layer_sizes}, got {vectors.shape}"
        )
    sizes = topology.layer_sizes
    n = rows.shape[0]
    chunk = max(1, _CHUNK_DOUBLES // (n * sizes[1] or 1))
    out = np.empty((len(vectors), n))
    for start in range(0, len(vectors), chunk):
        v = vectors[start: start + chunk]
        k = len(v)
        a = rows
        offset = 0
        for n_src, n_dst in zip(sizes[:-2], sizes[1:-1]):
            w = v[:, offset: offset + n_src * n_dst].reshape(k, n_dst, n_src)
            offset += n_src * n_dst
            z = np.empty((n, k, n_dst))
            np.matmul(a, w.transpose(0, 2, 1), out=z.transpose(1, 0, 2))
            z += v[:, offset: offset + n_dst]
            offset += n_dst
            a = _sigmoid_in_place(z).transpose(1, 0, 2)
        n_src, n_dst = sizes[-2:]
        w = v[:, offset: offset + n_src * n_dst].reshape(k, n_dst, n_src)
        z = np.matmul(a, w.transpose(0, 2, 1))
        bias = v[:, offset + n_src * n_dst, None]
        np.add(z[:, :, 0], bias, out=out[start: start + k])
    return out


def _classify(z: np.ndarray) -> np.ndarray:
    """The rule sigmoid(z) >= 0.5, decided by the sign of z.

    The sigmoid rounds to exactly 0.5 for z a little below zero (down to
    about -4.5e-17 in IEEE doubles), so `z >= 0` alone differs there;
    inside |z| < 1e-15 the sigmoid itself decides.
    """
    out = z >= 0.0
    near = np.abs(z) < 1e-15
    if near.any():
        out[near] = _sigmoid(z[near]) >= 0.5
    return out


def predict(params, topology: MlpTopology, inputs) -> np.ndarray:
    """Binary labels from the single output neuron; 0.5 classifies as 1."""
    rows = np.atleast_2d(np.asarray(inputs, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != topology.n_in:
        raise ShapeError(
            f"input dimension {rows.shape} does not match n_in={topology.n_in}"
        )
    params = np.asarray(params, dtype=float)[None]
    return _classify(_output_preactivations(params, topology, rows)[0]).astype(int)


def classification_error(params, topology: MlpTopology, data: Dataset):
    """Percentage of misclassified samples.

    params is one flat vector (D,), giving a float, or a stack of them
    (k, D), giving one percentage per row as a (k,) array.
    """
    params = np.asarray(params, dtype=float)
    decisions = _classify(_output_preactivations(np.atleast_2d(params), topology, data.rows))
    errors = 100.0 * np.count_nonzero(decisions != data.labels, axis=1) / len(data)
    return float(errors[0]) if params.ndim == 1 else errors


def mse_loss(params, topology: MlpTopology, data: Dataset) -> float:
    out = forward(params, topology, data.rows)
    targets = data.labels[:, None].astype(float)
    return float(np.mean((out - targets) ** 2))


def mse_loss_and_gradient(params, topology: MlpTopology, data: Dataset):
    """Mean squared error against the labels, its gradient, and the
    classification error, all from one forward pass.

    The gradient is accumulated layer by layer in reverse, using the
    sigmoid derivative a(1-a), and is returned flat in the same layout
    as the parameters. The error decides class 1 where the output
    neuron's sigmoid is >= 0.5, the rule `_classify` implements, so it
    equals classification_error(params, topology, data) bit for bit.

    Returns:
        (loss, gradient, error) with gradient.shape == (param_count,).
    """
    if len(data) == 0:
        raise ParameterError("loss needs a nonempty dataset")
    params = np.asarray(params, dtype=float)
    layers = decode(params, topology)
    activations = _forward_activations(params, topology, data.rows)
    out = activations[-1]
    targets = data.labels[:, None].astype(float)

    n_terms = out.size
    loss = float(np.sum((out - targets) ** 2) / n_terms)
    error = 100.0 * np.count_nonzero((out[:, 0] >= 0.5) != data.labels) / len(data)

    # delta holds dLoss/dz for the current layer, batch rows first.
    delta = 2.0 * (out - targets) / n_terms * out * (1.0 - out)
    grads = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        a_prev = activations[l]
        grad_w = delta.T @ a_prev
        grad_b = np.sum(delta, axis=0)
        grads[l] = (grad_w, grad_b)
        if l > 0:
            w, _ = layers[l]
            delta = (delta @ w) * a_prev * (1.0 - a_prev)
    return loss, encode(grads, topology), error
