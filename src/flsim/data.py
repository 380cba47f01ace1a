"""Synthetic datasets, train/test splitting, and client partitioning."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .models import row_keys

IID = "iid"
# the largest gen_blobs spread: NumPy's ziggurat sampler cannot return a standard
# normal of magnitude 13 or more, so spread * draw + center (norm 4) stays finite
MAX_SPREAD = 1e300
# the most feature values (per_class x num_classes x input_dim) a run generates: 1 GiB
MAX_DATA_VALUES = 2**27


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # a nan label casts to garbage; checked below
            self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise ConfigError("features must be a 2-d matrix")
        if not np.array_equal(self.labels, labels):
            raise ConfigError("labels must be integers")
        if not np.isfinite(self.features).all():
            raise ConfigError("features must be finite")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("feature/label count mismatch")
        if len(self.labels) == 0:
            raise ConfigError("dataset is empty")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError("label out of range")
        present = np.bincount(self.labels, minlength=self.num_classes)
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise ConfigError(f"class {missing} has no samples")

    def __len__(self) -> int:
        return self.features.shape[0]

    @cached_property
    def ranks(self) -> np.ndarray:
        """``row_keys`` of every row, computed on first use."""
        return row_keys(self.features, self.labels)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass
class PartitionPlan:
    assignments: list  # client id -> np.ndarray of sample indices

    def validate(self, total: int):
        for cid, a in enumerate(self.assignments):
            if len(a) == 0:
                raise ConfigError(f"client {cid} has an empty shard")
        seen = np.concatenate(self.assignments)
        # every index in [0, total) exactly once; bincount needs them in range
        in_range = seen.dtype.kind in "iu" and ((seen >= 0) & (seen < total)).all()
        if len(seen) != total or not in_range or (np.bincount(seen, minlength=total) != 1).any():
            raise ConfigError("assignments do not partition the index set")


def _class_center(k: int, dim: int) -> np.ndarray:
    """Deterministic unit-norm direction for class k, scaled by 4.0."""
    v = np.random.default_rng(7919 * (k + 1)).standard_normal(dim)
    return 4.0 * v / np.linalg.norm(v)


def _check_blobs(num_classes: int, per_class: int, spread: float):
    if num_classes < 2 or per_class < 1 or not 0 <= spread <= MAX_SPREAD:
        need = f"num_classes>=2, per_class>=1, 0<=spread<={MAX_SPREAD:g}"
        raise ConfigError(f"gen_blobs: need {need}")


def _draw_class(k: int, spread: float, rng: np.random.Generator, out: np.ndarray):
    """Class k's rows into ``out``: standard normals times ``spread``, plus its center."""
    rng.standard_normal(out=out)
    out *= spread  # in place: no second block-sized array
    out += _class_center(k, out.shape[1])


def _class_split(k: int, n: int, test_fraction: float, rng: np.random.Generator):
    """Class k's n rows split: sorted (train, test) positions, floor(frac*n) test rows, min 1."""
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test_fraction must be in (0, 1)")
    n_test = max(1, int(np.floor(test_fraction * n)))
    if n - n_test < 1:
        raise ConfigError(f"class {k} too small to split ({n} samples)")
    perm = rng.permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def gen_blobs(num_classes: int, dim: int, per_class: int, spread: float, rng) -> LabeledDataset:
    """Gaussian blobs: class k centered at a fixed direction of norm 4."""
    _check_blobs(num_classes, per_class, spread)
    feats = np.empty((num_classes * per_class, dim))
    for k in range(num_classes):
        _draw_class(k, spread, rng, feats[k * per_class:(k + 1) * per_class])
    return LabeledDataset(feats, np.repeat(np.arange(num_classes), per_class), num_classes)


def split_train_test(data: LabeledDataset, test_fraction: float, rng: np.random.Generator):
    """Stratified split; each class contributes floor(frac*count) test samples, min 1."""
    train_idx, test_idx = [], []
    for k in range(data.num_classes):
        idx = np.flatnonzero(data.labels == k)
        train, test = _class_split(k, len(idx), test_fraction, rng)
        train_idx.append(idx[train])
        test_idx.append(idx[test])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return data.subset(train_idx), data.subset(test_idx)


def split_blobs(num_classes, dim, per_class, spread, test_fraction, rng, split_rng):
    """``split_train_test(gen_blobs(..., rng), test_fraction, split_rng)``, the same
    bytes, built a class at a time: each class is drawn into one block and its rows
    copied straight to the train and test matrices, so the full matrix never exists."""
    _check_blobs(num_classes, per_class, spread)
    # the split reads only the class sizes, so it comes first; every class splits alike
    splits = [_class_split(k, per_class, test_fraction, split_rng) for k in range(num_classes)]
    parts = [np.empty((num_classes * len(rows), dim)) for rows in splits[0]]  # train, test
    block = np.empty((per_class, dim))
    for k, rows in enumerate(splits):
        _draw_class(k, spread, rng, block)
        for part, r in zip(parts, rows):  # mode="clip" (r is in range): take copies unbuffered
            np.take(block, r, axis=0, out=part[k * len(r):(k + 1) * len(r)], mode="clip")
    del splits, block  # before the checks' temporaries
    return tuple(LabeledDataset(p, np.repeat(np.arange(num_classes), len(p) // num_classes),
                                num_classes) for p in parts)


def _client_count(n_clients, total: int) -> int:
    """``n_clients`` as an int, if ``operator.index`` takes it and it is in [1, total]."""
    try:
        if 1 <= (n := operator.index(n_clients)) <= total:
            return n
    except TypeError:
        pass
    raise ConfigError(f"need an integer 1 <= n_clients <= {total} samples")


def partition_iid(data: LabeledDataset, n_clients: int, rng: np.random.Generator) -> PartitionPlan:
    """Global shuffle, contiguous equal chunks; remainder spread from client 0."""
    total = len(data)
    n_clients = _client_count(n_clients, total)
    plan = PartitionPlan(np.array_split(rng.permutation(total), n_clients))
    plan.validate(total)
    return plan


def _repair_empty_clients(assignments):
    """Give each empty client one sample stolen from the currently largest (>= 2 rows)."""
    sizes = np.array([len(a) for a in assignments])
    for cid in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        assignments[cid] = assignments[donor][-1:]
        assignments[donor] = assignments[donor][:-1]
        sizes[cid], sizes[donor] = 1, sizes[donor] - 1


def partition_dirichlet(
    data: LabeledDataset, n_clients: int, alpha: float, rng: np.random.Generator
) -> PartitionPlan:
    """Label-skew split: per class, proportions drawn from Dirichlet(alpha).

    alpha=0 is the degenerate single-class-per-client limit: clients cycle
    through classes (client i serves class i mod num_classes) and each
    class's samples are divided among its assigned clients. A shard lists its
    rows class by class, each class in its shuffled order.
    """
    if not 0 <= alpha < np.inf:  # nan fails too
        raise ConfigError("alpha must be finite and non-negative")
    total = len(data)
    n_clients = _client_count(n_clients, total)
    if alpha == 0 and n_clients < data.num_classes:
        raise ConfigError("alpha=0 requires n_clients >= num_classes")
    rows, owners = [], []  # per class: shuffled indices, and the client of each
    for k in range(data.num_classes):
        idx = np.flatnonzero(data.labels == k)
        idx = idx[rng.permutation(len(idx))]
        if alpha == 0:
            mine = np.arange(k, n_clients, data.num_classes)
            owner = np.repeat(mine, [len(c) for c in np.array_split(idx, len(mine))])
        else:
            p = rng.dirichlet(np.full(n_clients, alpha))
            if not p.sum() > 0:  # alpha near the float maximum: the gamma draws' sum overflows
                raise ConfigError(f"alpha={alpha:g} is too large: its Dirichlet draw overflows")
            cuts = np.floor(np.cumsum(p) * len(idx)).astype(np.int64)
            # client c owns positions [cuts[c-1], cuts[c]); the last also owns the rounding tail
            owner = np.minimum(np.searchsorted(cuts, np.arange(len(idx)), "right"), n_clients - 1)
        rows.append(idx)
        owners.append(owner)
    owners = np.concatenate(owners)
    bounds = np.cumsum(np.bincount(owners, minlength=n_clients))[:-1]
    assignments = np.split(np.concatenate(rows)[np.argsort(owners, kind="stable")], bounds)
    _repair_empty_clients(assignments)
    plan = PartitionPlan(assignments)
    plan.validate(total)
    return plan
