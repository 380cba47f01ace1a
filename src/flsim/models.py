"""Flat-parameter models with hand-derived gradients.

Three model kinds share a single flat float64 parameter vector:
a softmax linear classifier, a one-hidden-layer MLP, and a quadratic
probe (loss 0.5*||theta - target||^2) whose optimizer steps have
closed-form values, used by tests.
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

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.values), self.layout)

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

    The layout is a pure function of the spec.
    """
    spec.validate()
    if spec.kind == "linear":
        shapes = {"W": (spec.input_dim, spec.num_classes), "b": (spec.num_classes,)}
    elif spec.kind == "mlp":
        shapes = {
            "W1": (spec.input_dim, spec.hidden_dim),
            "b1": (spec.hidden_dim,),
            "W2": (spec.hidden_dim, spec.num_classes),
            "b2": (spec.num_classes,),
        }
    else:  # quadratic_probe
        shapes = {"theta": (len(spec.probe_target),)}
    layout, off = {}, 0
    for name, shape in shapes.items():
        layout[name] = (slice(off, off + math.prod(shape)), shape)
        off = layout[name][0].stop
    return layout


def param_count(spec: ModelSpec) -> int:
    return sum(math.prod(shape) for _, shape in layout_for(spec).values())


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


_FAN_IN = {"W": "input_dim", "W1": "input_dim", "W2": "hidden_dim"}


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
    """Weights uniform in +-1/sqrt(fan_in) per block, biases zero.

    The quadratic probe starts at the zero vector.
    """
    values = np.zeros(param_count(spec))
    for name, (sl, _) in spec.slices.items():
        if name in _FAN_IN:
            bound = 1.0 / np.sqrt(getattr(spec, _FAN_IN[name]))
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


def _views(spec: ModelSpec, vec: np.ndarray) -> list:
    """The blocks of a flat vector as shaped views, in layout order."""
    return [vec[sl].reshape(shape) for sl, shape in spec.slices.values()]


def _forward_logits(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    if spec.kind == "linear":
        W, b = _views(spec, theta)
        return X @ W + b, None
    # mlp
    W1, b1, W2, b2 = _views(spec, theta)
    pre = X @ W1 + b1
    if spec.activation == "relu":
        H = np.maximum(pre, 0.0)
    else:
        H = np.tanh(pre)
    return H @ W2 + b2, (pre, H)


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
            logits, hidden = _forward_logits(spec, theta, X)
            logp = _log_softmax(logits)
            rows = np.arange(len(y))
            loss = float(counts @ (-logp[rows, y]) / n)
            G = np.exp(logp)
            G[rows, y] -= 1.0
            G *= (counts / n)[:, None]  # per-unique-row weights; sum to 1
            grad = np.empty_like(theta)
            if spec.kind == "linear":
                gW, gb = _views(spec, grad)
                gW[:] = X.T @ G
                gb[:] = G.sum(axis=0)
            else:
                pre, H = hidden
                gW1, gb1, gW2, gb2 = _views(spec, grad)
                gW2[:] = H.T @ G
                gb2[:] = G.sum(axis=0)
                dH = G @ _views(spec, theta)[2].T  # G @ W2.T
                if spec.activation == "relu":
                    dpre = dH * (pre > 0.0)
                else:
                    dpre = dH * (1.0 - np.tanh(pre) ** 2)
                gW1[:] = X.T @ dpre
                gb1[:] = dpre.sum(axis=0)
    if not math.isfinite(loss):
        raise NumericalOverflowError("loss")
    if not np.isfinite(grad).all():
        for name, (sl, _) in spec.slices.items():
            if not np.isfinite(grad[sl]).all():
                raise NumericalOverflowError(name)
    return loss, grad


def batch_loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch):
    """``loss_and_grad`` on a ParamVector and a Batch, its inputs checked.

    The batch is canonicalised by its keys, or its own ``row_keys`` if it has
    none. Returns (loss, gradient as a ParamVector).
    """
    if params.layout != layout_for(spec):
        raise ConfigError("params layout does not match the model spec")
    if spec.kind != "quadratic_probe":
        _check_spec_batch(spec, batch)
    keys = batch.keys if batch.keys is not None else row_keys(batch.features, batch.labels)
    sel, counts = canonical_rows(keys)
    X, y = batch.features[sel], batch.labels[sel]
    loss, grad = loss_and_grad(spec, params.values, X, y, counts, float(len(keys)))
    return loss, ParamVector(grad, params.layout)


def top1_accuracy(spec: ModelSpec, params: ParamVector, data: Batch) -> float:
    """Fraction of rows whose argmax logit equals the label.

    Ties break toward the lowest class index (np.argmax semantics).
    """
    if spec.kind == "quadratic_probe":
        raise UnsupportedOperationError("top1_accuracy undefined for quadratic_probe")
    _check_spec_batch(spec, data)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge model still gets a score
        logits, _ = _forward_logits(spec, params.values, data.features)
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
