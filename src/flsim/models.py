"""Flat-parameter models with hand-derived gradients.

Three model kinds share a single flat float64 parameter vector: a
softmax linear classifier and a one-hidden-layer MLP, stacks of one and
two dense layers that share one forward and one backward loop, and a
quadratic probe (loss 0.5*||theta - target||^2) whose optimizer steps
have closed-form values, used by tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, NumericalOverflowError, UnsupportedOperationError,
                     check_field_types)

MODEL_KINDS = ("linear", "mlp", "quadratic_probe")
ACTIVATIONS = ("relu", "tanh")


@dataclass
class ParamVector:
    """Flat float64 parameters in ``.values``, the type of ``ServerState.global_params``
    only; everything else in the package passes the plain vector."""

    values: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int = 0
    num_classes: int = 0
    hidden_dim: int = 0
    activation: str = "relu"
    probe_target: tuple = ()

    def validate(self):
        check_field_types(self)
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind '{self.kind}'")
        if self.kind == "quadratic_probe":
            if len(self.probe_target) == 0:
                raise ConfigError("quadratic_probe requires a non-empty probe_target")
            return
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.kind == "mlp":
            if self.hidden_dim < 1:
                raise ConfigError("hidden_dim must be positive for mlp")
            if self.activation not in ACTIVATIONS:
                raise ConfigError(f"unknown activation '{self.activation}'")

    @cached_property
    def slices(self) -> dict:
        """Block name -> (slice of the flat vector, shape), blocks back to back.

        ``linear`` and ``mlp`` are stacks of dense layers, each a weight ``W``
        (fan-in x fan-out) then a bias ``b``; with more than one layer the names
        carry the layer number (``W1``, ``b1``, ``W2``, ...). The layout is a
        pure function of the spec, computed once per spec.
        """
        self.validate()
        if self.kind == "quadratic_probe":
            shapes = {"theta": (len(self.probe_target),)}
        else:
            hidden = [self.hidden_dim] if self.kind == "mlp" else []
            widths = [self.input_dim, *hidden, self.num_classes]
            shapes = {}
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                tag = str(i + 1) if len(widths) > 2 else ""
                shapes["W" + tag] = (fan_in, fan_out)
                shapes["b" + tag] = (fan_out,)
        layout, off = {}, 0
        for name, shape in shapes.items():
            layout[name] = (slice(off, off + math.prod(shape)), shape)
            off = layout[name][0].stop
        return layout


def param_count(spec: ModelSpec) -> int:
    return next(reversed(spec.slices.values()))[0].stop  # blocks are back to back


def row_keys(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dense int64 rank of each row in lexicographic (features..., label) order.

    Equal rows share a rank (``-0.0`` equals ``0.0``). Each pass ranks the next
    column and re-ranks the (rank so far, column rank) pairs, both by ``np.unique``;
    once every rank is distinct the remaining columns cannot change the order,
    so the loop stops there.
    """
    columns = list(np.asarray(features, dtype=np.float64).T)
    columns.append(np.asarray(labels, dtype=np.int64))
    keys = np.zeros(len(columns[-1]), dtype=np.int64)
    for col in columns:
        values, rank = np.unique(col, return_inverse=True)
        distinct, keys = np.unique(keys * len(values) + rank, return_inverse=True)
        if len(distinct) == len(keys):
            break
    return keys


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Weights uniform in +-1/sqrt(fan_in) per block, biases zero.

    The quadratic probe starts at the zero vector.
    """
    values = np.zeros(param_count(spec))
    for sl, shape in spec.slices.values():
        if len(shape) == 2:  # a weight, fan-in x fan-out
            bound = 1.0 / np.sqrt(shape[0])
            values[sl] = rng.uniform(-bound, bound, size=sl.stop - sl.start)
    return values


def canonical_rows(keys: np.ndarray, cuts):
    """(sel, counts, starts): each batch's rows in ``row_keys`` order, equal rows merged.

    ``keys``: batch after batch, a row's batch index times the dataset's size
    plus its rank, so batch j's keys lie in ``[cuts[j], cuts[j + 1])``. Each run
    of equal keys is its first row in batch order (``np.unique``'s first
    occurrence), weighted by the run's size; batch j's runs are
    ``sel[starts[j]:starts[j + 1]]``. Makes loss/grad exactly
    invariant to row permutation and to duplicating every row (count scaling
    by a power of two is exact).
    """
    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return first, counts.astype(np.float64), np.searchsorted(uniq, cuts)


class Step(NamedTuple):
    """One local step's batch, as the kernel reads it (``batch_steps``)."""

    X: np.ndarray  # the batch's canonical rows (``canonical_rows``)
    counts: np.ndarray  # their weights
    n: float  # the batch's row count
    at: np.ndarray | None  # flat (row, label) indices of a (rows, classes) array
    onehot: np.ndarray | None  # the labels, one-hot
    w: np.ndarray | None  # counts / n in every column; the probe has no label constants


def batch_steps(spec: ModelSpec, X, y, counts, starts, sizes) -> list:
    """The ``Step`` of each batch whose canonical rows are gathered back to back.

    Batch j is rows ``starts[j]:starts[j + 1]`` of ``X``, ``y`` and ``counts``,
    drawn from ``sizes[j]`` rows. Its label constants depend on the batch, not
    on the parameters, so they are computed here once, for every batch at once,
    and each step holds slices of them.
    """
    cuts = list(zip(zip(starts, starts[1:]), sizes))
    if spec.kind == "quadratic_probe":  # reads no rows and needs no constants
        return [Step(X[a:b], counts[a:b], float(n), None, None, None) for (a, b), n in cuts]
    classes, lens = spec.num_classes, np.diff(starts)
    flat = np.arange(len(y)) * classes + y
    onehot = np.zeros((len(y), classes))
    onehot.ravel()[flat] = 1.0
    at = flat - np.repeat(np.asarray(starts[:-1]) * classes, lens)  # from its batch's first row
    w = (counts / np.repeat(sizes, lens)).repeat(classes).reshape(-1, classes)  # no broadcast
    return [
        Step(X[a:b], counts[a:b], float(n), at[a:b], onehot[a:b], w[a:b]) for (a, b), n in cuts
    ]


def layer_views(spec: ModelSpec, vec: np.ndarray) -> list:
    """(W, b) views of a flat vector's blocks, one pair per dense layer."""
    blocks = iter(spec.slices.values())  # the probe's one block makes no layer
    return [(vec[w].reshape(shape), vec[b]) for (w, shape), (b, _) in zip(blocks, blocks)]


def _forward_logits(spec: ModelSpec, layers: list, X: np.ndarray):
    """Logits and each layer's input: ``X``, then each hidden layer's output."""
    inputs, Z = [], X
    for W, b in layers:
        if inputs:
            Z = np.maximum(Z, 0.0) if spec.activation == "relu" else np.tanh(Z)
        inputs.append(Z)
        # np.dot: @'s bytes without its dispatch, but for a one-term sum that underflows
        # (np.dot -0.0, @ +0.0); the bias, never -0.0, then gives +0.0 on both
        Z = np.dot(Z, W)
        Z += b  # in place: the product is a new array
    return Z, inputs


def loss_and_grad(spec: ModelSpec, theta: np.ndarray, step: Step, layers: list):
    """Mean cross-entropy (natural log) and its exact analytic gradient vector.

    ``step``: one batch from ``batch_steps``, its rows checked by the caller to
    fit ``spec``. ``layers``: ``layer_views(spec, theta)``, which a caller that
    evaluates one buffer many times builds once. The quadratic probe uses
    0.5*||theta - target||^2 and ignores the rows. Overflow raises ``NumericalOverflowError``
    naming the block, under the NumPy error state ``engine.run_round`` holds; the kernel sets none.
    """
    X, counts, n, at, onehot, w = step
    if spec.kind == "quadratic_probe":
        grad = theta - np.asarray(spec.probe_target, dtype=np.float64)
        loss = 0.5 * float(grad @ grad)
    else:
        logp, inputs = _forward_logits(spec, layers, X)
        # log-softmax in place: logits - max, then - log(sum(exp))
        logp -= np.maximum.reduce(logp, axis=1, keepdims=True)
        logp -= np.log(np.add.reduce(np.exp(logp), axis=1, keepdims=True))
        # 0.0 - keeps a zero loss +0.0, as the sum of the negated terms gives it
        loss = 0.0 - float(counts.dot(logp.ravel()[at])) / n
        G = np.exp(logp, out=logp)
        G -= onehot
        G *= w  # per-unique-row weights, full rows; sum to 1
        blocks = []  # in layout order, built last layer first
        for i in reversed(range(len(layers))):
            A = inputs[i]
            dW = np.dot(A.T, G) if len(G) > 1 else A.T @ G  # one row: a one-term sum
            blocks[:0] = dW.ravel(), np.add.reduce(G, axis=0)
            if i:  # back through the activation whose output is A
                dact = A > 0.0 if spec.activation == "relu" else 1.0 - A**2
                G = np.dot(G, layers[i][0].T) * dact  # over the classes: 2 or more terms
        grad = np.concatenate(blocks)
    total = grad.dot(grad)
    if not math.isfinite(loss):
        raise NumericalOverflowError("loss")
    if not math.isfinite(total):  # a finite sum of squares proves every entry finite
        for name, (sl, _) in spec.slices.items():
            if not np.isfinite(grad[sl]).all():
                raise NumericalOverflowError(name)
    return loss, grad


def top1_accuracy(spec: ModelSpec, theta: np.ndarray, X, y) -> float:
    """Fraction of rows of ``X`` whose argmax logit equals the label in ``y``.

    The rows are checked by the caller to fit ``spec``. Ties break toward
    the lowest class index (np.argmax semantics).
    """
    if spec.kind == "quadratic_probe":
        raise UnsupportedOperationError("top1_accuracy undefined for quadratic_probe")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge model still gets a score
        logits, _ = _forward_logits(spec, layer_views(spec, theta), X)
    return float(np.mean(np.argmax(logits, axis=1) == y))
