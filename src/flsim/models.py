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

import numpy as np

from .errors import ConfigError, NumericalOverflowError, UnsupportedOperationError

MODEL_KINDS = ("linear", "mlp", "quadratic_probe")
ACTIVATIONS = ("relu", "tanh")


@dataclass
class ParamVector:
    """Flat float64 parameters plus the layout of their blocks (``layout_for``)."""

    values: np.ndarray
    layout: dict

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        total = next(reversed(self.layout.values()))[0].stop  # blocks are back to back
        if self.values.shape != (total,):
            raise ConfigError(
                f"values length {self.values.shape} does not match layout size {total}"
            )

    def block(self, name: str) -> np.ndarray:
        sl, shape = self.layout[name]
        return self.values[sl].reshape(shape)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int = 0
    num_classes: int = 0
    hidden_dim: int = 0
    activation: str = "relu"
    probe_target: tuple = ()

    def validate(self):
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
        """``layout_for(self)``, computed once per spec."""
        return layout_for(self)


def layout_for(spec: ModelSpec) -> dict:
    """Block name -> (slice of the flat vector, shape), blocks back to back.

    ``linear`` and ``mlp`` are stacks of dense layers, each a weight ``W``
    (fan-in x fan-out) then a bias ``b``; with more than one layer the names
    carry the layer number (``W1``, ``b1``, ``W2``, ...). The layout is a
    pure function of the spec.
    """
    spec.validate()
    if spec.kind == "quadratic_probe":
        shapes = {"theta": (len(spec.probe_target),)}
    else:
        hidden = [spec.hidden_dim] if spec.kind == "mlp" else []
        widths = [spec.input_dim, *hidden, spec.num_classes]
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

    Equal rows share a rank (``-0.0`` equals ``0.0``). Each pass sorts by
    (rank so far, next column) and re-ranks; once every rank is distinct the
    remaining columns cannot change the order, so the loop stops there.
    """
    columns = list(np.asarray(features, dtype=np.float64).T)
    columns.append(np.asarray(labels, dtype=np.int64))
    keys = np.zeros(len(columns[-1]), dtype=np.int64)
    for col in columns:
        order = np.lexsort((col, keys))
        k, c = keys[order], col[order]
        is_new = np.empty(len(order), dtype=bool)
        is_new[:1] = True
        is_new[1:] = (k[1:] != k[:-1]) | (c[1:] != c[:-1])
        keys[order] = np.cumsum(is_new) - 1
        if is_new.all():
            break
    return keys


@dataclass
class Batch:
    """Rows to train on; ``batch_loss_and_grad`` ranks them with ``row_keys``."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ConfigError("batch features must be a 2-d matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("feature row count must equal label count")
        if self.features.shape[0] == 0:
            raise ConfigError("batch must be non-empty")


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
    """Weights uniform in +-1/sqrt(fan_in) per block, biases zero.

    The quadratic probe starts at the zero vector.
    """
    values = np.zeros(param_count(spec))
    for sl, shape in spec.slices.values():
        if len(shape) == 2:  # a weight, fan-in x fan-out
            bound = 1.0 / np.sqrt(shape[0])
            values[sl] = rng.uniform(-bound, bound, size=sl.stop - sl.start)
    return ParamVector(values, spec.slices)


def canonical_rows(keys: np.ndarray):
    """(sel, counts): a batch's rows in ``row_keys`` order, equal rows merged.

    Each run of equal keys is its first row in batch order, weighted by the
    run's size. Makes loss/grad exactly invariant to row permutation and to
    duplicating every row (count scaling by a power of two is exact).
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    edge = np.empty(n + 1, dtype=bool)  # where a run of equal keys starts or ends
    edge[0] = edge[n] = True
    edge[1:n] = srt[1:] != srt[:-1]
    bounds = edge.nonzero()[0]
    return order[bounds[:-1]], (bounds[1:] - bounds[:-1]).astype(np.float64)


def _check_spec_batch(spec: ModelSpec, batch: Batch):
    if batch.features.shape[1] != spec.input_dim:
        raise ConfigError(
            f"batch feature dim {batch.features.shape[1]} != input_dim {spec.input_dim}"
        )
    if batch.labels.min() < 0 or batch.labels.max() >= spec.num_classes:
        raise ConfigError("labels out of range for num_classes")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _layers(spec: ModelSpec, vec: np.ndarray) -> list:
    """(W, b) views of a flat vector's blocks, one pair per dense layer."""
    views = iter([vec[sl].reshape(shape) for sl, shape in spec.slices.values()])
    return list(zip(views, views))


def _forward_logits(spec: ModelSpec, layers: list, X: np.ndarray):
    """Logits and each layer's input: ``X``, then each hidden layer's output."""
    (W, b), *above = layers
    inputs, Z = [X], X @ W + b
    for W, b in above:
        inputs.append(np.maximum(Z, 0.0) if spec.activation == "relu" else np.tanh(Z))
        Z = inputs[-1] @ W + b
    return Z, inputs


def loss_and_grad(spec: ModelSpec, theta: np.ndarray, X, y, counts, n: float):
    """Mean cross-entropy (natural log) and its exact analytic gradient vector.

    ``X``, ``y``, ``counts``: a batch's ``canonical_rows``, checked by the
    caller to fit ``spec``; ``n``: its row count. The quadratic probe uses
    0.5*||theta - target||^2 and ignores the rows.
    """
    # overflow surfaces as a typed error, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "quadratic_probe":
            grad = theta - np.asarray(spec.probe_target, dtype=np.float64)
            loss = 0.5 * float(grad @ grad)
        else:
            layers = _layers(spec, theta)
            logits, inputs = _forward_logits(spec, layers, X)
            logp = _log_softmax(logits)
            rows = np.arange(len(y))
            loss = float(counts @ (-logp[rows, y]) / n)
            G = np.exp(logp)
            G[rows, y] -= 1.0
            G *= (counts / n)[:, None]  # per-unique-row weights; sum to 1
            blocks = []  # gradient blocks in layout order
            for i in reversed(range(len(layers))):
                A = inputs[i]
                blocks[:0] = [(A.T @ G).ravel(), G.sum(axis=0)]  # W, then b
                if i:  # back through the activation whose output is A
                    dact = A > 0.0 if spec.activation == "relu" else 1.0 - A**2
                    G = (G @ layers[i][0].T) * dact
            grad = np.concatenate(blocks)
    if not math.isfinite(loss):
        raise NumericalOverflowError("loss")
    if not np.isfinite(grad).all():
        for name, (sl, _) in spec.slices.items():
            if not np.isfinite(grad[sl]).all():
                raise NumericalOverflowError(name)
    return loss, grad


def batch_loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch):
    """``loss_and_grad`` on a ParamVector and a Batch, its inputs checked.

    The batch is canonicalised by its own ``row_keys``. Returns (loss,
    gradient as a ParamVector).
    """
    if params.layout != spec.slices:
        raise ConfigError("params layout does not match the model spec")
    if spec.kind != "quadratic_probe":
        _check_spec_batch(spec, batch)
    sel, counts = canonical_rows(row_keys(batch.features, batch.labels))
    X, y = batch.features[sel], batch.labels[sel]
    loss, grad = loss_and_grad(spec, params.values, X, y, counts, float(len(batch.labels)))
    return loss, ParamVector(grad, params.layout)


def top1_accuracy(spec: ModelSpec, params: ParamVector, data: Batch) -> float:
    """Fraction of rows whose argmax logit equals the label.

    Ties break toward the lowest class index (np.argmax semantics).
    """
    if spec.kind == "quadratic_probe":
        raise UnsupportedOperationError("top1_accuracy undefined for quadratic_probe")
    _check_spec_batch(spec, data)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge model still gets a score
        logits, _ = _forward_logits(spec, _layers(spec, params.values), data.features)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def finite_diff_grad(
    spec: ModelSpec, params: ParamVector, batch: Batch, epsilon: float
) -> ParamVector:
    """Central-difference gradient estimate, coordinate by coordinate."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    est = np.zeros_like(params.values)
    for i in range(len(params.values)):
        bumped = ParamVector(params.values.copy(), params.layout)
        bumped.values[i] += epsilon
        lo_plus, _ = batch_loss_and_grad(spec, bumped, batch)
        bumped.values[i] = params.values[i] - epsilon
        lo_minus, _ = batch_loss_and_grad(spec, bumped, batch)
        est[i] = (lo_plus - lo_minus) / (2.0 * epsilon)
    return ParamVector(est, params.layout)
