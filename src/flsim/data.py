"""Synthetic datasets, train/test splitting, and client partitioning."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

IID = "iid"


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
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

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass
class PartitionPlan:
    assignments: list  # client id -> np.ndarray of sample indices

    def validate(self, total: int):
        seen = np.concatenate([np.asarray(a) for a in self.assignments])
        if len(seen) != total or len(np.unique(seen)) != total:
            raise ConfigError("assignments do not partition the index set")
        for cid, a in enumerate(self.assignments):
            if len(a) == 0:
                raise ConfigError(f"client {cid} has an empty shard")


def _class_center(k: int, dim: int) -> np.ndarray:
    """Deterministic unit-norm direction for class k, scaled by 4.0."""
    v = np.random.default_rng(7919 * (k + 1)).standard_normal(dim)
    return 4.0 * v / np.linalg.norm(v)


def gen_blobs(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    rng: np.random.Generator,
) -> LabeledDataset:
    """Gaussian blobs: class k centered at a fixed direction of norm 4."""
    if num_classes < 2 or per_class < 1 or spread < 0:
        raise ConfigError("gen_blobs: need num_classes>=2, per_class>=1, spread>=0")
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for k in range(num_classes):
        lo = k * per_class
        feats[lo : lo + per_class] = _class_center(k, dim) + spread * rng.standard_normal(
            (per_class, dim)
        )
        labels[lo : lo + per_class] = k
    return LabeledDataset(feats, labels, num_classes)


def split_train_test(data: LabeledDataset, test_fraction: float, rng: np.random.Generator):
    """Stratified split; each class contributes floor(frac*count) test samples, min 1."""
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test_fraction must be in (0, 1)")
    train_idx, test_idx = [], []
    for k in range(data.num_classes):
        idx = np.flatnonzero(data.labels == k)
        n_test = max(1, int(np.floor(test_fraction * len(idx))))
        if len(idx) - n_test < 1:
            raise ConfigError(f"class {k} too small to split ({len(idx)} samples)")
        perm = rng.permutation(len(idx))
        test_idx.append(idx[perm[:n_test]])
        train_idx.append(idx[perm[n_test:]])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return data.subset(train_idx), data.subset(test_idx)


def partition_iid(data: LabeledDataset, n_clients: int, rng: np.random.Generator) -> PartitionPlan:
    """Global shuffle, contiguous equal chunks; remainder spread from client 0."""
    total = len(data)
    if n_clients > total:
        raise ConfigError("more clients than samples")
    perm = rng.permutation(total)
    base, rem = divmod(total, n_clients)
    assignments, pos = [], 0
    for cid in range(n_clients):
        size = base + (1 if cid < rem else 0)
        assignments.append(perm[pos : pos + size].copy())
        pos += size
    plan = PartitionPlan(assignments)
    plan.validate(total)
    return plan


def _repair_empty_clients(assignments):
    """Give each empty client one sample stolen from the currently largest."""
    for cid in range(len(assignments)):
        if len(assignments[cid]) > 0:
            continue
        donor = int(np.argmax([len(a) for a in assignments]))
        assignments[cid] = assignments[donor][-1:]
        assignments[donor] = assignments[donor][:-1]


def partition_dirichlet(
    data: LabeledDataset, n_clients: int, alpha: float, rng: np.random.Generator
) -> PartitionPlan:
    """Label-skew split: per class, proportions drawn from Dirichlet(alpha).

    alpha=0 is the degenerate single-class-per-client limit: clients cycle
    through classes (client i serves class i mod num_classes) and each
    class's samples are divided among its assigned clients.
    """
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    total = len(data)
    if n_clients > total:
        raise ConfigError("more clients than samples")
    assignments = [np.empty(0, dtype=np.int64) for _ in range(n_clients)]

    if alpha == 0:
        if n_clients < data.num_classes:
            raise ConfigError("alpha=0 requires n_clients >= num_classes")
        for k in range(data.num_classes):
            idx = np.flatnonzero(data.labels == k)
            idx = idx[rng.permutation(len(idx))]
            owners = [c for c in range(n_clients) if c % data.num_classes == k]
            for i, chunk in enumerate(np.array_split(idx, len(owners))):
                assignments[owners[i]] = np.concatenate([assignments[owners[i]], chunk])
    else:
        for k in range(data.num_classes):
            idx = np.flatnonzero(data.labels == k)
            idx = idx[rng.permutation(len(idx))]
            p = rng.dirichlet(np.full(n_clients, alpha))
            cuts = np.floor(np.cumsum(p) * len(idx)).astype(np.int64)
            prev = 0
            for cid in range(n_clients):
                assignments[cid] = np.concatenate([assignments[cid], idx[prev : cuts[cid]]])
                prev = cuts[cid]
            # cumulative rounding can leave a tail; it belongs to the last client
            if prev < len(idx):
                assignments[-1] = np.concatenate([assignments[-1], idx[prev:]])

    _repair_empty_clients(assignments)
    plan = PartitionPlan(assignments)
    plan.validate(total)
    return plan

