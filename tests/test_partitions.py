"""Pinned client partitions: ``partition_iid`` and ``partition_dirichlet``.

Each case hashes (sha256) a plan's assignments in client order: per client,
the dtype, the shard length and the index bytes. Any change to which client
gets which row, to the order of a shard's rows, or to the RNG draws changes a
hash. Cases cover alpha in {0, 0.1, 0.3, 1, 1e6}, shuffled labels with unequal
class counts, ``n_clients == rows``, alpha = 0 with ``n_clients`` not a
multiple of the class count, and the benchmark workloads' shapes. At seed 1
the ``cross_device`` shape (2,000 clients, alpha 0.1) leaves 126 clients empty
before the repair step, so the repair order is pinned too.

Regenerate (only for an intended behaviour change) with:
    PYTHONPATH=src python tests/test_partitions.py --write
"""
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from flsim.data import LabeledDataset, partition_dirichlet, partition_iid
from flsim.engine import PARTITION_ROUND, SERVER_CHANNEL, derive_stream

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "partitions.json")


def sorted_labels(num_classes, per_class):
    """A training set's labels as ``make_dataset`` leaves them: class blocks."""
    return np.repeat(np.arange(num_classes), per_class)


def mixed_labels():
    """Five classes of unequal size, shuffled."""
    labels = np.repeat(np.arange(5), [13, 40, 7, 25, 31])
    return np.random.default_rng(3).permutation(labels)


# the training split keeps per_class - floor(per_class / 6) rows of each class
TRAIN_ROWS = {240: 200, 2400: 2000}

# name -> (labels, n_clients, alpha or None for iid, seed)
CASES = {
    "iid/mixed": (mixed_labels(), 12, None, 1),
    "iid/remainder": (sorted_labels(3, 34), 10, None, 2),
    "iid/rows_eq_clients": (mixed_labels(), 116, None, 3),
    "iid/cross_device": (sorted_labels(10, TRAIN_ROWS[2400]), 2000, None, 1),
    **{
        f"dirichlet:{a}/mixed": (mixed_labels(), 12, a, 1)
        for a in (0.0, 0.1, 0.3, 1.0, 1e6)
    },
    **{
        f"dirichlet:{a}/rows_eq_clients": (sorted_labels(3, 10), 30, a, 4)
        for a in (0.0, 0.1, 0.3, 1.0, 1e6)
    },
    "dirichlet:0.0/clients_not_multiple": (sorted_labels(10, 12), 23, 0.0, 5),
    "dirichlet:0.0/sweep_c7": (sorted_labels(10, TRAIN_ROWS[2400]), 100, 0.0, 1),
    "dirichlet:0.3/mlp_fedsmoo_skew": (sorted_labels(10, TRAIN_ROWS[240]), 100, 0.3, 1),
    "dirichlet:0.1/cross_device": (sorted_labels(10, TRAIN_ROWS[2400]), 2000, 0.1, 1),
}


def case_hash(name: str) -> str:
    labels, n_clients, alpha, seed = CASES[name]
    data = LabeledDataset(np.zeros((len(labels), 1)), labels, int(labels.max()) + 1)
    rng = derive_stream(seed, PARTITION_ROUND, SERVER_CHANNEL)
    if alpha is None:
        plan = partition_iid(data, n_clients, rng)
    else:
        plan = partition_dirichlet(data, n_clients, alpha, rng)
    assert len(plan.assignments) == n_clients
    h = hashlib.sha256()
    for shard in plan.assignments:
        h.update(shard.dtype.str.encode())
        h.update(len(shard).to_bytes(8, "little"))
        h.update(shard.tobytes())
    return h.hexdigest()


def load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(load_fixture()["hashes"]) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_partition_hash(name):
    assert case_hash(name) == load_fixture()["hashes"][name], f"{name}: assignments changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_partitions.py --write")
    out = {
        "comment": "sha256 per case over each client's shard dtype, length and index "
        "bytes, in client order; see tests/test_partitions.py.",
        "hashes": {name: case_hash(name) for name in CASES},
    }
    with open(FIXTURE, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} hashes to {FIXTURE}")
