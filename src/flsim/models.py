"""Flat-parameter models with hand-derived gradients.

Three model kinds share a single flat float64 parameter vector:
a softmax linear classifier, a one-hidden-layer MLP, and a quadratic
probe (loss 0.5*||theta - target||^2) whose optimizer steps have
closed-form values, used by tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalOverflowError, UnsupportedOperationError

MODEL_KINDS = ("linear", "mlp", "quadratic_probe")
ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Block:
    """One named tensor inside the flat vector."""

    name: str
    shape: tuple
    offset: int
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", math.prod(self.shape))


@dataclass
class ParamVector:
    """Flat float64 parameters plus the shape descriptor of their blocks."""

    values: np.ndarray
    layout: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        last = self.layout[-1]  # layout_for packs the blocks back to back
        total = last.offset + last.size
        if self.values.shape != (total,):
            raise ConfigError(
                f"values length {self.values.shape} does not match layout size {total}"
            )

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.values), self.layout)

    def block(self, name: str) -> np.ndarray:
        for b in self.layout:
            if b.name == name:
                return self.values[b.offset : b.offset + b.size].reshape(b.shape)
        raise KeyError(name)


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


def layout_for(spec: ModelSpec) -> tuple:
    """Block layout is a pure function of the spec."""
    spec.validate()
    blocks = []
    off = 0

    def add(name, shape):
        nonlocal off
        b = Block(name, tuple(shape), off)
        blocks.append(b)
        off += b.size

    if spec.kind == "linear":
        add("W", (spec.input_dim, spec.num_classes))
        add("b", (spec.num_classes,))
    elif spec.kind == "mlp":
        add("W1", (spec.input_dim, spec.hidden_dim))
        add("b1", (spec.hidden_dim,))
        add("W2", (spec.hidden_dim, spec.num_classes))
        add("b2", (spec.num_classes,))
    else:  # quadratic_probe
        add("theta", (len(spec.probe_target),))
    return tuple(blocks)


def param_count(spec: ModelSpec) -> int:
    return sum(b.size for b in layout_for(spec))


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
    """Rows to train on, with their optional ``row_keys`` ranks.

    The ranks may come from any dataset that holds the rows: restricted to
    a subset, they order it as ranking the subset itself would. Without
    them, the batch ranks its own rows.
    """

    features: np.ndarray
    labels: np.ndarray
    keys: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ConfigError("batch features must be a 2-d matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("feature row count must equal label count")
        if self.features.shape[0] == 0:
            raise ConfigError("batch must be non-empty")
        if self.keys is None:
            return
        self.keys = np.asarray(self.keys)
        if self.keys.dtype.kind not in "iu" or self.keys.shape != (len(self.labels),):
            raise ConfigError("batch keys must be an integer array with one entry per row")

    def __len__(self) -> int:
        return self.features.shape[0]


_FAN_IN = {"W": "input_dim", "W1": "input_dim", "W2": "hidden_dim"}


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
    """Weights uniform in +-1/sqrt(fan_in) per block, biases zero.

    The quadratic probe starts at the zero vector.
    """
    layout = layout_for(spec)
    values = np.zeros(sum(b.size for b in layout))
    pv = ParamVector(values, layout)
    for b in layout:
        if b.name in _FAN_IN:
            bound = 1.0 / np.sqrt(getattr(spec, _FAN_IN[b.name]))
            pv.values[b.offset : b.offset + b.size] = rng.uniform(
                -bound, bound, size=b.size
            )
    return pv


def _canonical_rows(batch: Batch):
    """Sort rows into a canonical order and merge duplicates into counts.

    The order is ``row_keys`` order, ties kept in batch order, so each run
    of equal rows is represented by its first row. Makes loss/grad exactly
    invariant to row permutation and to duplicating every row (count
    scaling by a power of two is exact).
    """
    keys = batch.keys
    if keys is None:
        keys = row_keys(batch.features, batch.labels)
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    edge = np.empty(n + 1, dtype=bool)  # where a run of equal keys starts or ends
    edge[0] = edge[n] = True
    edge[1:n] = srt[1:] != srt[:-1]
    bounds = edge.nonzero()[0]
    counts = (bounds[1:] - bounds[:-1]).astype(np.float64)
    rows = order[bounds[:-1]]
    return batch.features[rows], batch.labels[rows], counts, float(n)


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


def _forward_logits(spec: ModelSpec, params: ParamVector, X: np.ndarray):
    if spec.kind == "linear":
        return X @ params.block("W") + params.block("b"), None
    # mlp
    pre = X @ params.block("W1") + params.block("b1")
    if spec.activation == "relu":
        H = np.maximum(pre, 0.0)
    else:
        H = np.tanh(pre)
    return H @ params.block("W2") + params.block("b2"), (pre, H)


def _check_finite_grad(grad: ParamVector):
    if np.isfinite(grad.values).all():
        return
    for b in grad.layout:
        if not np.isfinite(grad.values[b.offset : b.offset + b.size]).all():
            raise NumericalOverflowError(b.name)


def loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch):
    """Mean cross-entropy (natural log) and its exact analytic gradient.

    The quadratic probe uses 0.5*||theta - target||^2 and ignores the batch.
    """
    spec.validate()
    if spec.kind == "quadratic_probe":
        target = np.asarray(spec.probe_target, dtype=np.float64)
        diff = params.values - target
        loss = 0.5 * float(diff @ diff)
        grad = ParamVector(diff.copy(), params.layout)
        if not np.isfinite(loss):
            raise NumericalOverflowError("loss")
        _check_finite_grad(grad)
        return loss, grad

    _check_spec_batch(spec, batch)
    X, y, counts, n = _canonical_rows(batch)
    w = counts / n  # per-unique-row weights; sum to 1

    # overflow surfaces as a typed error, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        logits, hidden = _forward_logits(spec, params, X)
        logp = _log_softmax(logits)
        loss = float(counts @ (-logp[np.arange(len(y)), y]) / n)
        if not np.isfinite(loss):
            raise NumericalOverflowError("loss")

        G = np.exp(logp)
        G[np.arange(len(y)), y] -= 1.0
        G *= w[:, None]

        grad = ParamVector(np.zeros_like(params.values), params.layout)
        if spec.kind == "linear":
            grad.block("W")[:] = X.T @ G
            grad.block("b")[:] = G.sum(axis=0)
        else:
            pre, H = hidden
            grad.block("W2")[:] = H.T @ G
            grad.block("b2")[:] = G.sum(axis=0)
            dH = G @ params.block("W2").T
            if spec.activation == "relu":
                dpre = dH * (pre > 0.0)
            else:
                dpre = dH * (1.0 - np.tanh(pre) ** 2)
            grad.block("W1")[:] = X.T @ dpre
            grad.block("b1")[:] = dpre.sum(axis=0)
    _check_finite_grad(grad)
    return loss, grad


def top1_accuracy(spec: ModelSpec, params: ParamVector, data: Batch) -> float:
    """Fraction of rows whose argmax logit equals the label.

    Ties break toward the lowest class index (np.argmax semantics).
    """
    if spec.kind == "quadratic_probe":
        raise UnsupportedOperationError("top1_accuracy undefined for quadratic_probe")
    _check_spec_batch(spec, data)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge model still gets a score
        logits, _ = _forward_logits(spec, params, data.features)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


def finite_diff_grad(
    spec: ModelSpec, params: ParamVector, batch: Batch, epsilon: float
) -> ParamVector:
    """Central-difference gradient estimate, coordinate by coordinate."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    est = np.zeros_like(params.values)
    for i in range(len(params.values)):
        bumped = params.copy()
        bumped.values[i] += epsilon
        lo_plus, _ = loss_and_grad(spec, bumped, batch)
        bumped.values[i] = params.values[i] - epsilon
        lo_minus, _ = loss_and_grad(spec, bumped, batch)
        est[i] = (lo_plus - lo_minus) / (2.0 * epsilon)
    return ParamVector(est, params.layout)
