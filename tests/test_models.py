import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SCALES, SPECS, gathered_batches, scaled_params
from flsim.engine import derive_stream
from flsim.errors import ConfigError, NumericalOverflowError, UnsupportedOperationError
from flsim.models import (
    ModelSpec,
    canonical_rows,
    init_params,
    layer_views,
    loss_and_grad,
    param_count,
    row_keys,
    top1_accuracy,
)
from oracle import (
    batch_loss_and_grad,
    block,
    finite_diff_grad,
    one_step,
    reference_loss_and_grad,
    reference_top1,
    round_errstate,
)

LINEAR = ModelSpec("linear", input_dim=4, num_classes=3)
MLP = ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dim=4, activation="relu")
MLP_TANH = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dim=6, activation="tanh")
PROBE3 = ModelSpec("quadratic_probe", probe_target=(0.0, 0.0, 0.0))


def random_batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, spec.input_dim)),
        rng.integers(0, spec.num_classes, n),
    )


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8))


def test_param_counts():
    assert param_count(LINEAR) == 4 * 3 + 3
    assert param_count(MLP) == 5 * 4 + 4 + 4 * 3 + 3
    assert param_count(PROBE3) == 3
    # one dense layer (W, b) per pair of widths, blocks back to back in that order
    shapes = {
        LINEAR: [("W", (4, 3)), ("b", (3,))],
        MLP: [("W1", (5, 4)), ("b1", (4,)), ("W2", (4, 3)), ("b2", (3,))],
        PROBE3: [("theta", (3,))],
    }
    for spec, expected in shapes.items():
        layout = spec.slices
        assert [(name, shape) for name, (_, shape) in layout.items()] == expected
        stops = np.cumsum([np.prod(shape, dtype=int) for _, shape in expected])
        assert [(sl.start, sl.stop) for sl, _ in layout.values()] == list(
            zip([0, *stops[:-1]], stops)
        )


def test_probe_zero_init():
    theta = init_params(PROBE3, derive_stream(0, -1, -1))
    assert np.array_equal(theta, np.zeros(3))


def test_init_deterministic():
    a = init_params(MLP, derive_stream(42, -1, -1))
    b = init_params(MLP, derive_stream(42, -1, -1))
    assert np.array_equal(a, b)
    c = init_params(MLP, derive_stream(43, -1, -1))
    assert not np.array_equal(a, c)


def test_init_bounds_and_zero_biases():
    theta = init_params(MLP, derive_stream(7, -1, -1))
    assert np.abs(block(MLP, theta, "W1")).max() <= 1 / np.sqrt(5)
    assert np.abs(block(MLP, theta, "W2")).max() <= 1 / np.sqrt(4)
    assert np.all(block(MLP, theta, "b1") == 0) and np.all(block(MLP, theta, "b2") == 0)
    theta = init_params(LINEAR, derive_stream(7, -1, -1))
    assert np.abs(block(LINEAR, theta, "W")).max() <= 1 / np.sqrt(4)
    assert np.all(block(LINEAR, theta, "b") == 0)
    # fan-in is a weight's row count; here a hidden layer's columns are far fewer
    wide = ModelSpec("mlp", input_dim=64, num_classes=3, hidden_dim=4)
    theta = init_params(wide, derive_stream(7, -1, -1))
    assert np.abs(block(wide, theta, "W1")).max() <= 1 / np.sqrt(64)


def test_invalid_spec():
    with pytest.raises(ConfigError):
        ModelSpec("linear", input_dim=0, num_classes=3).validate()
    with pytest.raises(ConfigError):
        ModelSpec("linear", input_dim=4, num_classes=1).validate()
    with pytest.raises(ConfigError):
        ModelSpec("nope", input_dim=4, num_classes=3).validate()


def test_zero_params_loss_is_log_c():
    spec = ModelSpec("linear", input_dim=6, num_classes=10)
    theta = np.zeros(param_count(spec))
    loss, _ = batch_loss_and_grad(spec, theta, *random_batch(spec, 20, 0))
    assert loss == pytest.approx(np.log(10), abs=1e-12)


def test_probe_loss_and_grad():
    spec = ModelSpec("quadratic_probe", probe_target=(0.0, 0.0))
    theta = np.array([1.0, 2.0])
    loss, grad = batch_loss_and_grad(spec, theta, *random_batch(LINEAR, 2, 0))
    assert loss == 2.5
    assert np.array_equal(grad, np.array([1.0, 2.0]))


def test_finite_diff_probe_linear_exact():
    spec = ModelSpec("quadratic_probe", probe_target=(1.0,))
    theta = np.array([3.0])
    fd = finite_diff_grad(spec, theta, *random_batch(LINEAR, 1, 0), 1e-4)
    assert fd[0] == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize(
    "spec",
    [
        LINEAR,
        MLP,
        MLP_TANH,
        PROBE3,
    ],
)
def test_gradient_matches_finite_differences(spec):
    for trial in range(10):
        theta = init_params(spec, derive_stream(trial, -1, -1))
        if spec.kind == "quadratic_probe":
            theta += np.random.default_rng(trial).standard_normal(len(theta))
            batch = random_batch(LINEAR, 2, trial)
        else:
            batch = random_batch(spec, 12, trial)
        _, grad = batch_loss_and_grad(spec, theta, *batch)
        fd = finite_diff_grad(spec, theta, *batch, 1e-5)
        assert rel_err(fd, grad) < 1e-5


def test_loss_non_negative():
    for trial in range(5):
        theta = init_params(MLP, derive_stream(trial, -1, -1))
        loss, _ = batch_loss_and_grad(MLP, theta, *random_batch(MLP, 16, trial))
        assert loss >= 0.0


def test_permutation_invariance_exact():
    theta = init_params(LINEAR, derive_stream(5, -1, -1))
    X, y = random_batch(LINEAR, 16, 5)
    perm = np.random.default_rng(0).permutation(16)
    l1, g1 = batch_loss_and_grad(LINEAR, theta, X, y)
    l2, g2 = batch_loss_and_grad(LINEAR, theta, X[perm], y[perm])
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_duplication_invariance_exact():
    theta = init_params(MLP, derive_stream(9, -1, -1))
    X, y = random_batch(MLP, 10, 9)
    l1, g1 = batch_loss_and_grad(MLP, theta, X, y)
    l2, g2 = batch_loss_and_grad(MLP, theta, np.concatenate([X, X]), np.concatenate([y, y]))
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_accuracy_zero_params_ties_to_class_zero():
    spec = ModelSpec("linear", input_dim=4, num_classes=3)
    theta = np.zeros(param_count(spec))
    X, y = random_batch(spec, 50, 3)
    acc = top1_accuracy(spec, theta, X, y)
    assert acc == np.mean(y == 0)


def test_accuracy_single_sample():
    theta = init_params(LINEAR, derive_stream(2, -1, -1))
    x = np.random.default_rng(0).standard_normal((1, 4))
    logits = x @ block(LINEAR, theta, "W") + block(LINEAR, theta, "b")
    assert top1_accuracy(LINEAR, theta, x, np.array([int(np.argmax(logits))])) == 1.0


def test_accuracy_huge_model_no_warning():
    # finite parameters whose logits overflow still get a score, silently
    theta = np.full(param_count(MLP), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc = top1_accuracy(MLP, theta, *random_batch(MLP, 8, 0))
    assert 0.0 <= acc <= 1.0


def test_accuracy_probe_unsupported():
    theta = init_params(PROBE3, derive_stream(0, -1, -1))
    with pytest.raises(UnsupportedOperationError):
        top1_accuracy(PROBE3, theta, *random_batch(LINEAR, 2, 0))


@settings(max_examples=100, deadline=None)
@given(
    spec=SPECS,
    rows=st.integers(1, 4096),
    seed=st.integers(0, 2**16),
    scales=st.lists(SCALES, min_size=5, max_size=5),
    tied=st.booleans(),
)
# 4,096 rows at the benchmark's widths: products large enough for OpenBLAS to thread
@example(spec=ModelSpec("linear", 32, 10), rows=4096, seed=0, scales=[1.0] * 5, tied=False)
@example(spec=ModelSpec("mlp", 32, 10, 16, "relu"), rows=4096, seed=1, scales=[1.0] * 5, tied=False)
@example(spec=ModelSpec("mlp", 32, 10, 16, "tanh"), rows=4096, seed=2, scales=[1.0] * 5, tied=False)
@example(spec=ModelSpec("mlp", 32, 10, 16, "relu"), rows=4096, seed=3, scales=[1.0] * 5, tied=True)
def test_top1_accuracy_matches_reference(spec, rows, seed, scales, tied):
    # the kernel's forward pass, through np.dot, against the reference's @,
    # exactly: relu and tanh, 1 to 4,096 rows, scaled blocks and rows whose
    # logits may overflow, and zero parameters, where every logit ties
    theta = np.zeros(param_count(spec)) if tied else scaled_params(spec, seed, scales)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, spec.input_dim)) * min(scales[-1], 1e300)
    y = rng.integers(0, spec.num_classes, rows)
    assert top1_accuracy(spec, theta, X, y) == reference_top1(spec, theta, X, y)


def test_oracle_trained_model_separable_blobs():
    # full-batch gradient descent on well-separated blobs reaches 100%
    from flsim.data import gen_blobs

    data = gen_blobs(10, 8, 20, 0.1, derive_stream(0, -3, -1))
    spec = ModelSpec("linear", input_dim=8, num_classes=10)
    theta = init_params(spec, derive_stream(0, -1, -1))
    for _ in range(200):
        _, grad = batch_loss_and_grad(spec, theta, data.features, data.labels)
        theta -= 0.5 * grad
    assert top1_accuracy(spec, theta, data.features, data.labels) == 1.0


def test_finite_diff_duplicated_sample_identical():
    x = np.random.default_rng(1).standard_normal((1, 4))
    theta = init_params(LINEAR, derive_stream(4, -1, -1))
    _, g1 = batch_loss_and_grad(LINEAR, theta, x, [1])
    _, g2 = batch_loss_and_grad(LINEAR, theta, np.repeat(x, 3, axis=0), [1, 1, 1])
    assert np.array_equal(g1, g2)


def test_finite_diff_rejects_bad_epsilon():
    theta = init_params(LINEAR, derive_stream(0, -1, -1))
    with pytest.raises(ConfigError):
        finite_diff_grad(LINEAR, theta, *random_batch(LINEAR, 4, 0), 0.0)


# few distinct values, so duplicate rows, ties in leading columns and
# -0.0/0.0 pairs all occur
SMALL_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def rows_and_subset(draw, input_dim, num_classes):
    n = draw(st.integers(1, 24))
    X = draw(hnp.arrays(np.float64, (n, input_dim), elements=SMALL_VALUES))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1)))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return X, y, np.array(idx)


def _outcome(fn):
    """(loss bytes, gradient bytes) of ``fn()`` in a round's error state, or its
    overflow error's text."""
    try:
        with round_errstate():
            loss, grad = fn()
    except NumericalOverflowError as exc:
        return str(exc)
    return np.float64(loss).tobytes(), np.asarray(grad).tobytes()


@pytest.mark.parametrize(
    "spec", [LINEAR, MLP, MLP_TANH, PROBE3], ids=["linear", "mlp", "mlp_tanh", "probe"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16), scale=st.sampled_from([1.0, 1e160, 1e308]))
def test_row_keys_order_and_loss_bit_identical(spec, data, seed, scale):
    probe = spec.kind == "quadratic_probe"  # reads no rows; draw some anyway
    dims = (4, 3) if probe else (spec.input_dim, spec.num_classes)
    X, y, idx = data.draw(rows_and_subset(*dims))
    keys = row_keys(X, y)[idx]
    keyed = np.column_stack([X[idx], y[idx].astype(np.float64)])
    order = np.lexsort(keyed.T[::-1])
    # ranks restricted to the subset sort it as a stable lexsort of its columns
    assert np.array_equal(np.argsort(keys, kind="stable"), order)
    # and two rows share a rank exactly when they compare equal
    same_rank = keys[:, None] == keys[None, :]
    same_row = (keyed[:, None, :] == keyed[None, :, :]).all(axis=2)
    assert np.array_equal(same_rank, same_row)

    # canonical rows: each run of equal rows is its first row in batch order,
    # sign of zero included, as a stable lexsort of the batch gives it
    starts = np.flatnonzero(np.r_[True, (np.diff(keyed[order], axis=0) != 0).any(axis=1)])
    sel, counts, _ = canonical_rows(keys, [0])
    assert X[idx][sel].tobytes() == X[idx][order[starts]].tobytes()
    assert np.array_equal(y[idx][sel], y[idx][order[starts]])
    assert np.array_equal(counts, np.diff(starts, append=len(idx)))

    # the kernel on the rows the dataset's ranks select, as client_opt calls
    # it, against the oracle ranking the batch itself: the same bytes, or the
    # same overflow error naming the same block
    theta = init_params(spec, derive_stream(seed, -1, -1))
    if probe:
        theta += 1.0  # the probe starts at zero
    theta *= scale
    rows = idx[sel]
    step = one_step(spec, X[rows], y[rows], counts, len(idx))
    direct = _outcome(lambda: loss_and_grad(spec, theta, step, layer_views(spec, theta)))
    adapted = _outcome(lambda: batch_loss_and_grad(spec, theta, X[idx], y[idx]))
    assert direct == adapted


def reference_row_keys(X, y):
    """Dense rank of each row among the sorted distinct (features..., label)
    tuples, in plain Python: -0.0 == 0.0 in a tuple, a set and a dict."""
    rows = [(*map(float, x), int(label)) for x, label in zip(X, y)]
    rank = {row: r for r, row in enumerate(sorted(set(rows)))}
    return [rank[row] for row in rows]


@st.composite
def labeled_rows(draw):
    """(X, y): up to 24 rows of 1-4 features, small values (ties, signed zeros,
    equal rows) mixed with any finite float."""
    n, dim = draw(st.integers(0, 24)), draw(st.integers(1, 4))
    values = SMALL_VALUES | st.floats(allow_nan=False, allow_infinity=False)
    X = draw(hnp.arrays(np.float64, (n, dim), elements=values))
    return X, draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(rows=labeled_rows())
@example(rows=(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)))  # no rows
@example(rows=(np.array([[0.5, -1.0, 2.0]]), np.array([1])))  # one row
@example(rows=(np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5]] * 3), np.full(6, 2)))  # all equal
def test_row_keys_is_the_dense_rank_of_sorted_rows(rows):
    X, y = rows
    keys = row_keys(X, y)
    assert keys.dtype == np.int64
    assert keys.tobytes() == np.array(reference_row_keys(X, y), dtype=np.int64).tobytes()


@st.composite
def batched_ranks(draw):
    """(size, batches): per batch, the ranks of its rows in [0, size), duplicates
    within and across batches and empty batches included."""
    size = draw(st.integers(1, 8))
    ranks = st.lists(st.integers(0, size - 1), max_size=12)
    return size, draw(st.lists(ranks, max_size=5))


def reference_canonical_rows(batches):
    """(sel, counts, starts) in plain Python: per batch, its distinct ranks in
    sorted order, each one's first index in batch order (counted from the first
    batch's first row) and its count, and where each batch's runs start."""
    sel, counts, starts, offset = [], [], [0], 0
    for batch in batches:
        for rank in sorted(set(batch)):
            sel.append(offset + batch.index(rank))
            counts.append(batch.count(rank))
        starts.append(len(sel))
        offset += len(batch)
    return sel, counts, starts


@settings(max_examples=300, deadline=None)
@given(case=batched_ranks())
@example(case=(3, []))  # no batch, no row
@example(case=(3, [[], []]))  # batches with no rows
@example(case=(3, [[2, 0, 2, 1, 0], [], [2, 2], [0, 1, 2, 0]]))  # duplicates within and across
def test_canonical_rows_over_several_batches(case):
    size, batches = case
    # as engine.round_schedule builds them: batch j's keys offset by j * size
    keys = np.array([j * size + r for j, b in enumerate(batches) for r in b], dtype=np.int64)
    sel, counts, starts = canonical_rows(keys, np.arange(len(batches) + 1) * size)
    want_sel, want_counts, want_starts = reference_canonical_rows(batches)
    for got, want, dtype in [
        (sel, want_sel, np.intp),
        (counts, want_counts, np.float64),
        (starts, want_starts, np.intp),
    ]:
        assert got.dtype == dtype
        assert got.tobytes() == np.array(want, dtype=dtype).tobytes()


def test_overflow_names_block_on_both_paths():
    # zero rows give zero hidden units and uniform softmax, so the loss is
    # finite (log 4) while dH = G @ W2.T overflows and W1's gradient is nan
    theta = np.zeros(param_count(MLP_TANH))
    block(MLP_TANH, theta, "W2")[:] = [1.5e308, 1.5e308, 1.5e308, -1.5e308]
    X, y = np.zeros((2, 3)), np.array([3, 3])
    with pytest.raises(NumericalOverflowError, match="'W1'"):
        batch_loss_and_grad(MLP_TANH, theta, X, y)
    sel, counts, _ = canonical_rows(row_keys(X, y), [0])
    step = one_step(MLP_TANH, X[sel], y[sel], counts, 2)
    with pytest.raises(NumericalOverflowError, match="'W1'"), round_errstate():
        loss_and_grad(MLP_TANH, theta, step, layer_views(MLP_TANH, theta))


@settings(max_examples=300, deadline=None)
@given(
    spec=SPECS,
    rows=st.integers(1, 63),
    seed=st.integers(0, 2**16),
    scales=st.lists(SCALES, min_size=5, max_size=5),
    batches=st.integers(1, 4),
)
@example(  # a finite loss, and the hidden layer's gradient overflows in W1 and b1
    spec=ModelSpec("mlp", 1, 3, 1, "tanh"), rows=1, seed=35, scales=[1e-300, 1, 1e308, 1, 1],
    batches=1,
)
@example(  # the label's logit dominates: a zero loss, whose sign bit must be +0.0
    spec=ModelSpec("linear", 1, 2), rows=1, seed=1, scales=[1e3, 1, 1, 1, 1], batches=1
)
def test_kernel_bit_identical_to_reference(spec, rows, seed, scales, batches):
    # the kernel on steps from the engine's builder against its earlier
    # formulation on each batch alone: the same loss and gradient bytes, or
    # the same overflow error naming the same block. Each block and the rows
    # get their own scale, so a loss can stay finite while gradients overflow
    # in several blocks. Each step is evaluated on views built once, as
    # client_opt builds them for its buffer.
    theta = scaled_params(spec, seed, scales)
    layers = layer_views(spec, theta)
    batches, steps = gathered_batches(spec, rows, seed, scales[-1], batches)
    assert len(steps) == len(batches)
    for step, (X, y, counts, n) in zip(steps, batches):
        want = _outcome(lambda: reference_loss_and_grad(spec, theta, X, y, counts, float(n)))
        assert _outcome(lambda: loss_and_grad(spec, theta, step, layers)) == want


@pytest.mark.parametrize("spec", [MLP_TANH, ModelSpec("mlp", 1, 2, 3, "relu")])
def test_one_row_weight_gradient_keeps_the_reference_zero_signs(spec):
    # one canonical row makes the weight gradient a one-term sum per entry; with
    # W2 and the rows at 1e-300 the hidden layer's terms underflow, and np.dot
    # would give -0.0 where the reference's @ gives +0.0
    scales = [1.0, 1.0, 1e-300, 1.0, 1e-300]
    theta = scaled_params(spec, 0, scales)
    (batch,), (step,) = gathered_batches(spec, 1, 0, scales[-1], 1)
    want = _outcome(lambda: reference_loss_and_grad(spec, theta, *batch[:3], float(batch[3])))
    assert _outcome(lambda: loss_and_grad(spec, theta, step, layer_views(spec, theta))) == want


@settings(max_examples=200, deadline=None)
@given(
    spec=SPECS,
    rows=st.integers(1, 63),
    seed=st.integers(0, 2**16),
    exponents=st.lists(st.integers(-300, 308), min_size=5, max_size=5),
)
@example(  # a finite loss, and the hidden layer's gradient overflows in W1 and b1
    spec=ModelSpec("mlp", 1, 3, 1, "tanh"), rows=1, seed=35, exponents=[-300, 0, 308, 0, 0]
)
def test_finiteness_check_never_passes_non_finite(spec, rows, seed, exponents):
    # the kernel checks the gradient's sum, and scans the blocks only when the
    # sum is not finite: whatever it returns is finite everywhere, and what it
    # rejects the reference's full scan rejects with the same block
    scales = [10.0**e for e in exponents]
    theta = scaled_params(spec, seed, scales)
    (batch,), (step,) = gathered_batches(spec, rows, seed, scales[-1], 1)
    try:
        with round_errstate():
            loss, grad = loss_and_grad(spec, theta, step, layer_views(spec, theta))
    except NumericalOverflowError as exc:
        with pytest.raises(NumericalOverflowError) as ref:
            reference_loss_and_grad(spec, theta, *batch[:3], float(batch[3]))
        assert str(exc) == str(ref.value)
    else:
        assert math.isfinite(loss) and np.isfinite(grad).all()


def test_finite_gradient_whose_sum_overflows_returns():
    # every entry is finite, but W1's four entries of 1e308 sum past the float
    # maximum: the scan after the sum finds no block, so the kernel returns
    spec = ModelSpec("mlp", input_dim=2, num_classes=2, hidden_dim=2)
    theta = np.zeros(param_count(spec))
    block(spec, theta, "W1")[:] = 0.1
    block(spec, theta, "W2")[:] = [[-1.0, 1.0], [-1.0, 1.0]]
    X, y = np.full((1, 2), 5e307), np.array([0])
    loss, grad = batch_loss_and_grad(spec, theta, X, y)
    with np.errstate(over="ignore"):
        assert np.isfinite(grad).all() and not math.isfinite(np.add.reduce(grad))
    want = reference_loss_and_grad(spec, theta, X, y, np.ones(1), 1.0)
    assert _outcome(lambda: (loss, grad)) == _outcome(lambda: want)


def test_layer_views_are_the_layout_blocks():
    # one (W, b) pair per dense layer, in layout order: each a view of the
    # vector, in its block's shape, holding that block's values
    for spec in (LINEAR, MLP, MLP_TANH):
        theta = np.arange(param_count(spec), dtype=np.float64)
        names = list(spec.slices)
        views = [view for pair in layer_views(spec, theta) for view in pair]
        assert len(views) == len(names)
        for name, view in zip(names, views):
            assert view.base is theta and view.shape == spec.slices[name][1]
            assert np.array_equal(view, block(spec, theta, name))
    assert layer_views(PROBE3, np.zeros(3)) == []
