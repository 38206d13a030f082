"""Multilayer perceptron on a flat parameter vector.

All layers use the logistic sigmoid. Weights and biases live in a single
1-D array so that population-based optimizers can treat a network as a
point in R^n: per layer, the incoming weights of each destination neuron
in order, then that layer's biases. `decode` is the one place that knows
this layout; the forward pass reads its layers through its views, and
the gradient is written through the views of a fresh vector.

Every activation is stored units-major: (members, units, rows), with the
rows as the contiguous last axis, and the input as the transposed rows,
(n_features, rows). A layer is W @ a, so the bias add, the sigmoid and
the backward pass's row sums all run along contiguous rows.

`predict` and `mse_loss_and_gradient` run one forward pass,
`_forward_activations`, and decide classes by one rule on the output
sigmoid, `_class_one`. `classification_error`, the search objective,
gives the same errors as that pass by a certificate, the filter-then-
exact scheme of Shewchuk (1997): on a net with one hidden layer, a
faster pass computes the output pre-activation together with a proven
bound on its distance from the forward pass's (rounding bounds after
Higham 2002), and a member whose every row clears that bound takes its
classes from the sign. Every other member, and every deeper net, goes
through the forward pass.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "MlpTopology",
    "Dataset",
    "DatasetStack",
    "decode",
    "predict",
    "classification_error",
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

    @cached_property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(
            sizes[l] * sizes[l + 1] + sizes[l + 1] for l in range(len(sizes) - 1)
        )


@dataclass(frozen=True)
class Dataset:
    """Feature rows with binary labels, held as private read-only copies,
    so that the arrays cached from them stay in step with them."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
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
        labels = labels.astype(int)
        rows.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """The rows transposed, (n_features, rows), C-contiguous: the input
        of the units-major forward pass. Read-only, because the backward
        pass writes over every later activation in place."""
        columns = np.ascontiguousarray(self.rows.T)
        columns.flags.writeable = False
        return columns

    @cached_property
    def columns_with_ones(self) -> np.ndarray:
        """`columns` with a last row of ones, (n_features + 1, rows), so
        that `[W | b] @ columns_with_ones` is W x + b per row."""
        return np.vstack([self.columns, np.ones(len(self))])

    @cached_property
    def positives(self) -> np.ndarray:
        """The labels as read-only booleans, True for class 1: what
        `_percent_wrong` compares the class-1 flags with, with no cast."""
        positives = self.labels.astype(bool)
        positives.flags.writeable = False
        return positives

    @cached_property
    def max_abs(self) -> float:
        """The largest magnitude of any feature value."""
        return float(np.max(np.abs(self.rows)))


class DatasetStack(NamedTuple):
    """Per-member training sets of one row count, stacked for one
    `mse_loss_and_gradient` pass: columns (k, n_features, rows), labels
    and positives (k, rows), member i's from the i-th set."""

    columns: np.ndarray
    labels: np.ndarray
    positives: np.ndarray

    @classmethod
    def of(cls, datasets):
        return cls(np.stack([d.columns for d in datasets]),
                   np.stack([d.labels for d in datasets]),
                   np.stack([d.positives for d in datasets]))

    @property
    def n_features(self) -> int:
        return self.columns.shape[1]


def _check_width(data, topology: MlpTopology) -> None:
    """Refuse a set whose feature count is not the net's input width."""
    if data.n_features != topology.n_in:
        raise ShapeError(f"{data.n_features} features do not match n_in={topology.n_in}")


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


def decode(params, topology: MlpTopology):
    """Per-layer (weights, biases) views of a flat vector or a stack of them.

    params is one vector (D,) or a stack (k, D), one vector per row. Per
    layer, weights come back as (..., n_dst, n_src) and biases as
    (..., n_dst), both views into params, so writing through them fills
    params. Row j of a weight matrix holds the incoming weights of
    destination neuron j.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != topology.param_count:
        raise ShapeError(
            f"expected (D,) or (k, D) parameters with D = {topology.param_count} "
            f"for layers {topology.layer_sizes}, got {params.shape}"
        )
    lead = params.shape[:-1]
    layers = []
    offset = 0
    sizes = topology.layer_sizes
    for n_src, n_dst in zip(sizes[:-1], sizes[1:]):
        w = params[..., offset: offset + n_src * n_dst].reshape(*lead, n_dst, n_src)
        offset += n_src * n_dst
        b = params[..., offset: offset + n_dst]
        offset += n_dst
        layers.append((w, b))
    return layers


def _forward_activations(layers, columns):
    """Activations of every layer for a batch, the input first, through
    the (weights, biases) of one decoded vector or of a decoded stack.

    columns is the batch transposed, (n_features, rows), as the
    C-contiguous `Dataset.columns`, or a stack of them, (k,
    n_features, rows), one per member. Each later layer is units-major:
    (units, rows) for one vector, (k, units, rows) for a stack.

    Each layer is sigmoid(w @ a + b), computed inside the product's own
    buffer: every temporary array costs an allocation that outweighs its
    arithmetic at these sizes, so the bias add and the sigmoid reuse it.
    """
    activations = [columns]
    for w, b in layers:
        z = w @ activations[-1]
        z += b[..., None]
        activations.append(_sigmoid_in_place(z))
    return activations


# classification_error runs a stack in chunks of as many members as keep
# the first hidden layer near this many doubles (4 members at 400 rows x
# 10 units), so a chunk's activations stay in cache. Chunks twice this
# size held the fast pass's time and raised a default `train`'s peak
# RSS by 0.3 MB.
_CHUNK_DOUBLES = 16_384


def _class_one(out) -> np.ndarray:
    """Class 1 where the output neuron's sigmoid, out[..., 0, :] of the
    units-major output, is at least 0.5."""
    return out[..., 0, :] >= 0.5


def _percent_wrong(ones, positives) -> np.ndarray:
    """Per member, the percentage of rows whose class-1 flag in `ones`
    disagrees with the label: positives is one set's (rows,) or a stack's
    (k, rows) `positives`. Two boolean arrays compare with no cast, and
    the sum of the booleans is the count of the disagreeing rows."""
    return 100.0 * np.add.reduce(ones != positives, axis=-1) / positives.shape[-1]


def predict(params, topology: MlpTopology, inputs) -> np.ndarray:
    """0/1 labels of the input rows; an output sigmoid of 0.5 gives 1.

    params is one flat vector (D,), giving a (rows,) array, or a stack of
    them (k, D), giving one row of labels per member as a (k, rows)
    array. The forward pass runs units-major, (k, units, rows), on the
    transposed rows, and each member's products are the same BLAS calls
    as its own unstacked pass, so every row equals the member's own call
    bit for bit.
    """
    rows = np.atleast_2d(np.asarray(inputs, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != topology.n_in:
        raise ShapeError(
            f"input dimension {rows.shape} does not match n_in={topology.n_in}"
        )
    params = np.asarray(params, dtype=float)
    labels = _class_one(_forward_activations(decode(np.atleast_2d(params), topology),
                                             np.ascontiguousarray(rows.T))[-1]).astype(int)
    return labels[0] if params.ndim == 1 else labels


def _exact_errors(layers, data: Dataset) -> np.ndarray:
    """Per member of a decoded stack, its error from the exact forward
    pass, run units-major, (members, units, rows), on `data.columns`: the
    stack goes through in chunks of members, and each member's products
    are the same BLAS calls as its own unstacked pass, so the chunking
    changes no bit."""
    k, hidden = layers[0][1].shape
    chunk = max(1, _CHUNK_DOUBLES // (len(data) * hidden))
    errors = np.empty(k)
    for start in range(0, k, chunk):
        part = slice(start, start + chunk)
        out = _forward_activations([(w[part], b[part]) for w, b in layers], data.columns)[-1]
        errors[part] = _percent_wrong(_class_one(out), data.positives)
    return errors


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: a sum of n rounded
    terms, products included, in any order and with or without fused
    multiply-adds, is off by at most gamma_n times the sum of the terms'
    magnitudes (Higham 2002, section 3.1)."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def _fast_output(layers, data: Dataset):
    """Output unit 0's pre-activation z, (k, rows), of a decoded
    one-hidden-layer stack, and per member a bound on |z - the exact
    pass's z|, widened so that a row with |z| > bound gets the exact
    pass's decision from the sign of z.

    One flat gemm of -[W1 | b1], every member's hidden units stacked,
    with the rows' columns and a row of ones gives every member's -z1,
    three in-place passes (exp, + 1, reciprocal) turn it into the hidden
    sigmoid, and one small product per member gives z. The chunks hold
    at most `_CHUNK_DOUBLES` hidden values. The bound holds the rounding
    of both passes: the gamma terms of the hidden and output sums, 2^-43
    per hidden unit for the two passes' sigmoids (hundreds of ulps), a
    factor 2 for the bound's own rounding, and 2^-40 for the exact
    rule's band below zero, where the output sigmoid rounds to 0.5 and
    gives class 1. Where a scale reaches 2^1000 the bound is inf, so no
    sum of either pass can overflow on a row that decides.

    The hidden sums' scale s1, per member the largest over its hidden
    units of max_abs * sum |w| + |b|, comes from one gemv of |[W1 | b1]|
    against (max_abs, ..., max_abs, 1), taken in place over the gemm's
    block once the chunks are done, so that the call never holds a
    second block (see `optimizer._generation`). BLAS may add those
    n_in + 1 nonnegative terms in any order and with fused
    multiply-adds, so the computed s1 is within a relative
    gamma_(n_in + 1) of the exact one, like every other sum in the
    bound: the factor 2 covers it.
    """
    (w1, b1), (w2, b2) = layers
    k, hidden, n_in = w1.shape
    w_out, b_out = w2[:, 0], b2[:, 0]
    scale, n = data.max_abs, len(data)
    chunk = max(1, _CHUNK_DOUBLES // (n * hidden))
    with np.errstate(over="ignore", invalid="ignore"):
        neg = np.concatenate([w1, b1[..., None]], axis=2).reshape(k * hidden, n_in + 1)
        np.negative(neg, out=neg)
        z = np.empty((k, 1, n))
        for start in range(0, k, chunk):
            part = slice(start, start + chunk)
            a = neg[start * hidden:(start + chunk) * hidden] @ data.columns_with_ones
            np.exp(a, out=a)
            a += 1.0
            np.reciprocal(a, out=a)
            np.matmul(w_out[part, None, :], a.reshape(-1, hidden, n), out=z[part])
            del a  # so that two chunks' blocks are never held at once
        scales = np.full(n_in + 1, scale)
        scales[-1] = 1.0
        # |-[W1 | b1]| = |[W1 | b1]|; neg is not read again.
        s1 = (np.abs(neg, out=neg) @ scales).reshape(k, hidden).max(axis=1)
        w2_norm = np.abs(w_out).sum(axis=1)
        s2 = w2_norm + np.abs(b_out)
        bound = 2.0 * (2.0 * _gamma(hidden + 1) * s2
                       + w2_norm * (_gamma(n_in + 1) * s1 / 2.0 + 2.0**-43)) + 2.0**-40
        bound[~(np.maximum(np.maximum(s1, s2), scale) < 2.0**1000)] = np.inf
        z = z[:, 0]
        z += b_out[:, None]
    return z, bound


def classification_error(params, topology: MlpTopology, data: Dataset):
    """Percentage of misclassified samples.

    params is one flat vector (D,), giving a float, or a stack of them
    (k, D), giving one percentage per row as a (k,) array. Every member
    gets the exact pass's error, `_exact_errors`, bit for bit. A net
    with one hidden layer goes first through `_fast_output`: a member
    whose every row clears its rounding bound takes its decisions from
    the sign of the fast z, and only the other members go through the
    exact pass. A NaN z clears no bound. Deeper nets take the exact pass
    alone.
    """
    _check_width(data, topology)
    params = np.asarray(params, dtype=float)
    stack = np.atleast_2d(params)
    layers = decode(stack, topology)
    if len(layers) == 2:
        z, bound = _fast_output(layers, data)
        errors = _percent_wrong(z > 0.0, data.positives)
        # min propagates NaN, so a member with a NaN z stays undecided.
        np.abs(z, out=z)
        undecided = np.flatnonzero(~(z.min(axis=1) > bound))
        if undecided.size:
            errors[undecided] = _exact_errors([(w[undecided], b[undecided])
                                               for w, b in layers], data)
    else:
        errors = _exact_errors(layers, data)
    return float(errors[0]) if params.ndim == 1 else errors


def mse_loss_and_gradient(params, topology: MlpTopology, data: "Dataset | DatasetStack"):
    """Mean squared error against the labels, its gradient, and the
    classification error, all from one forward pass.

    params is one flat vector (D,), giving (loss, gradient (D,), error)
    as floats and a vector, or a stack (k, D), giving a (k,) loss, a
    (k, D) gradient and a (k,) error, one row per member. Each member's
    products are the same BLAS calls on the same shapes as its own
    unstacked pass, and its sums run in the same order, so every row
    equals the member's own call bit for bit.

    data is one `Dataset`, shared by every member, or a `DatasetStack`
    with one set per member of a (k, D) stack: member i's products then
    read the i-th columns, the same BLAS calls on the same shapes, so
    its row equals its own call on its own set bit for bit.

    The forward pass and the backward pass's deltas are units-major,
    (members, units, rows). The gradient is accumulated layer by layer
    in reverse, using the sigmoid derivative a(1-a): per layer, the
    weights' part is delta @ a_prev^T and the biases' part a row sum
    along the contiguous rows, and the delta passes back as W^T @ delta.
    The gradient is returned flat in the same layout as the parameters.
    The error applies `_class_one` to the same output activations as the
    exact pass of classification_error(params, topology, data), which
    returns that pass's error for every member, by its certificate where
    its fast pass decides, so the two are equal bit for bit.
    """
    _check_width(data, topology)
    params = np.asarray(params, dtype=float)
    stack = np.atleast_2d(params)
    if data.columns.ndim == 3 and len(data.columns) != len(stack):
        raise ShapeError(f"{len(data.columns)} stacked sets for {len(stack)} members")
    layers = decode(stack, topology)
    activations = _forward_activations(layers, data.columns)
    out = activations[-1]

    n_terms = out[0].size
    error = _percent_wrong(_class_one(out), data.positives)
    delta = out - data.labels[..., None, :]
    loss = np.sum(np.square(delta), axis=(1, 2)) / n_terms

    # delta holds dLoss/dz for the current layer, (members, units, rows):
    # 2 (out - labels) / n_terms * out * (1 - out), with 1 - out written
    # over out, and each later 1 - a_prev over a_prev, once it is read.
    delta *= 2.0
    delta /= n_terms
    delta *= out
    delta *= np.subtract(1.0, out, out=out)
    gradient = np.empty(stack.shape)
    grads = decode(gradient, topology)
    for l in range(len(layers) - 1, -1, -1):
        a_prev = activations[l]
        grad_w, grad_b = grads[l]
        np.matmul(delta, np.swapaxes(a_prev, -1, -2), out=grad_w)
        np.sum(delta, axis=-1, out=grad_b)
        if l > 0:
            delta = np.swapaxes(layers[l][0], -1, -2) @ delta
            delta *= a_prev
            delta *= np.subtract(1.0, a_prev, out=a_prev)
    if params.ndim == 1:
        return float(loss[0]), gradient[0], float(error[0])
    return loss, gradient, error
