import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsim.data import (
    LabeledDataset,
    gen_blobs,
    partition_dirichlet,
    partition_iid,
    split_train_test,
)
from flsim.engine import derive_stream
from flsim.errors import ConfigError


def rng(seed=0):
    return np.random.default_rng(seed)


def blobs(num_classes=10, dim=8, per_class=50, spread=0.5, seed=0):
    return gen_blobs(num_classes, dim, per_class, spread, rng(seed))


def label_counts(data, plan):
    return [np.bincount(data.labels[a], minlength=data.num_classes) for a in plan.assignments]


def mean_label_entropy(data, plan):
    ents = []
    for counts in label_counts(data, plan):
        p = counts[counts > 0] / counts.sum()
        ents.append(-np.sum(p * np.log(p)))
    return float(np.mean(ents))


class TestGenBlobs:
    def test_counts_and_label_order(self):
        data = blobs(num_classes=3, per_class=5)
        assert len(data) == 15
        assert np.array_equal(data.labels, np.repeat(np.arange(3), 5))

    def test_zero_spread_collapses_to_centers(self):
        data = blobs(spread=0.0)
        for k in range(data.num_classes):
            rows = data.features[data.labels == k]
            assert np.all(rows == rows[0])
            assert np.linalg.norm(rows[0]) == pytest.approx(4.0)

    def test_centers_deterministic_across_streams(self):
        a = blobs(spread=0.0, seed=1)
        b = blobs(spread=0.0, seed=2)
        assert np.array_equal(a.features, b.features)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            gen_blobs(1, 4, 5, 0.1, rng())
        with pytest.raises(ConfigError):
            gen_blobs(3, 4, 0, 0.1, rng())
        with pytest.raises(ConfigError):
            gen_blobs(3, 4, 5, -0.1, rng())


class TestSplit:
    def test_fraction_per_class(self):
        data = blobs(num_classes=5, per_class=100)
        train, test = split_train_test(data, 0.2, rng())
        assert np.all(np.bincount(test.labels, minlength=5) == 20)
        assert np.all(np.bincount(train.labels, minlength=5) == 80)

    def test_min_one_test_sample(self):
        data = blobs(num_classes=3, per_class=2)
        train, test = split_train_test(data, 0.5, rng())
        assert np.all(np.bincount(test.labels, minlength=3) == 1)
        assert np.all(np.bincount(train.labels, minlength=3) == 1)

    def test_class_too_small(self):
        data = blobs(num_classes=3, per_class=1)
        with pytest.raises(ConfigError):
            split_train_test(data, 0.2, rng())

    def test_bad_fraction(self):
        data = blobs()
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                split_train_test(data, frac, rng())

    def test_disjoint_union(self):
        data = blobs(num_classes=4, per_class=30)
        train, test = split_train_test(data, 0.25, rng(3))
        assert len(train) + len(test) == len(data)
        # every original row appears in exactly one split
        allrows = np.concatenate([train.features, test.features])
        assert sorted(map(tuple, allrows)) == sorted(map(tuple, data.features))


class TestIID:
    def test_equal_chunks(self):
        data = blobs(per_class=10)  # 100 samples
        plan = partition_iid(data, 10, rng())
        assert all(len(a) == 10 for a in plan.assignments)

    def test_remainder_from_client_zero(self):
        data = LabeledDataset(np.zeros((101, 2)), np.r_[np.zeros(50, int), np.ones(51, int)], 2)
        plan = partition_iid(data, 10, rng())
        sizes = [len(a) for a in plan.assignments]
        assert sizes == [11] + [10] * 9

    def test_too_many_clients(self):
        data = blobs(num_classes=2, per_class=2)
        with pytest.raises(ConfigError):
            partition_iid(data, 5, rng())

    def test_class_histograms_near_hypergeometric(self):
        # mean per-client class count over 20 seeds vs the
        # sampling-without-replacement expectation m*K/T
        data = blobs(num_classes=5, per_class=100, seed=7)
        total, m, n_clients = len(data), len(data) // 10, 10
        acc = np.zeros((n_clients, 5))
        n_seeds = 20
        for s in range(n_seeds):
            plan = partition_iid(data, n_clients, rng(100 + s))
            acc += np.array(label_counts(data, plan))
        mean_counts = acc / n_seeds
        for k in range(5):
            K = 100
            expect = m * K / total
            var = m * (K / total) * (1 - K / total) * (total - m) / (total - 1)
            tol = 3 * np.sqrt(var / n_seeds)
            assert np.all(np.abs(mean_counts[:, k] - expect) <= tol)


class TestDirichlet:
    def test_alpha_zero_single_class_per_client(self):
        data = blobs(num_classes=10, per_class=100)
        plan = partition_dirichlet(data, 100, 0.0, rng())
        for counts in label_counts(data, plan):
            assert np.count_nonzero(counts) == 1

    def test_alpha_zero_needs_enough_clients(self):
        data = blobs(num_classes=10, per_class=10)
        with pytest.raises(ConfigError):
            partition_dirichlet(data, 5, 0.0, rng())

    def test_negative_alpha(self):
        with pytest.raises(ConfigError):
            partition_dirichlet(blobs(), 10, -1.0, rng())

    def test_large_alpha_concentrates(self):
        data = blobs(num_classes=10, per_class=200, seed=5)
        global_p = np.full(10, 0.1)
        ok = 0
        for s in range(20):
            plan = partition_dirichlet(data, 10, 1e6, rng(s))
            good = True
            for counts in label_counts(data, plan):
                p = counts / counts.sum()
                if np.abs(p - global_p).sum() > 0.1:
                    good = False
            ok += good
        assert ok >= 19

    def test_entropy_monotone_in_alpha(self):
        data = blobs(num_classes=10, per_class=100)
        for s in range(10):
            ents = [
                mean_label_entropy(data, partition_dirichlet(data, 20, a, rng(s)))
                for a in (0.0, 0.3, 1e6)
            ]
            assert ents[0] <= ents[1] <= ents[2]

    def test_deterministic(self):
        data = blobs()
        for alpha in (0.0, 0.5):
            p1 = partition_dirichlet(data, 20, alpha, derive_stream(9, -2, -1))
            p2 = partition_dirichlet(data, 20, alpha, derive_stream(9, -2, -1))
            for a, b in zip(p1.assignments, p2.assignments):
                assert np.array_equal(a, b)



@settings(max_examples=200, deadline=None)
@given(
    dirichlet=st.booleans(),
    alpha=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    num_classes=st.integers(2, 6),
    per_class=st.integers(1, 8),
    n_clients=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
@example(dirichlet=True, alpha=0.0, num_classes=10, per_class=40, n_clients=20, seed=11)
@example(dirichlet=True, alpha=0.3, num_classes=10, per_class=40, n_clients=20, seed=11)
@example(dirichlet=True, alpha=1.0, num_classes=10, per_class=40, n_clients=20, seed=11)
@example(dirichlet=True, alpha=1e6, num_classes=10, per_class=40, n_clients=20, seed=11)
def test_partition_properties(dirichlet, alpha, num_classes, per_class, n_clients, seed):
    """A true partition with no empty shard, or ConfigError where a precondition fails."""
    data = blobs(num_classes=num_classes, per_class=per_class)

    def make():
        if dirichlet:
            return partition_dirichlet(data, n_clients, alpha, rng(seed))
        return partition_iid(data, n_clients, rng(seed))

    # partition_iid: n_clients <= samples; dirichlet also: alpha = 0 needs a client per class
    possible = n_clients <= len(data) and (not dirichlet or alpha > 0 or n_clients >= num_classes)
    if not possible:
        with pytest.raises(ConfigError):
            make()
        return
    plan = make()
    assert len(plan.assignments) == n_clients
    seen = np.sort(np.concatenate(plan.assignments))
    assert np.array_equal(seen, np.arange(len(data)))
    assert all(len(a) >= 1 for a in plan.assignments)
