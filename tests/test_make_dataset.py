"""``harness.make_dataset`` builds a run's dataset class by class: the same
bytes as ``split_train_test(gen_blobs(...))``, without the full matrix."""
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsim.data import MAX_SPREAD, gen_blobs, split_train_test
from flsim.engine import DATA_ROUND, SERVER_CHANNEL, SPLIT_ROUND, RunConfig, derive_stream
from flsim.errors import ConfigError
from flsim.harness import DataParams, ExperimentConfig, make_dataset
from flsim.models import ModelSpec


def experiment(num_classes, dim, per_class, spread, test_fraction, seed):
    """An unvalidated run: make_dataset must reject what the parse would."""
    model = ModelSpec("linear", input_dim=dim, num_classes=num_classes)
    run = RunConfig("fedavg", model, seed=seed)
    return ExperimentConfig(run, DataParams(per_class, spread, test_fraction))


def two_step(exp):
    """The dataset as generated whole, then split."""
    model, data, seed = exp.run.model, exp.data, exp.run.seed
    full = gen_blobs(model.num_classes, model.input_dim, data.per_class, data.spread,
                     derive_stream(seed, DATA_ROUND, SERVER_CHANNEL))
    return split_train_test(full, data.test_fraction,
                            derive_stream(seed, SPLIT_ROUND, SERVER_CHANNEL))


def built_or_error(build, exp):
    try:
        return build(exp)
    except ConfigError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    num_classes=st.integers(2, 12),
    dim=st.integers(1, 40),
    per_class=st.integers(2, 300),
    spread=st.one_of(
        st.floats(0, 10),
        st.sampled_from([0.0, -0.0, MAX_SPREAD, math.nextafter(MAX_SPREAD, math.inf), -1.0,
                         math.nan]),
    ),
    test_fraction=st.one_of(
        st.floats(0, 1),
        st.sampled_from([5e-324, 1e-9, 0.5, 1 - 2**-53, 1 - 1e-9, 1.0, -0.1]),
    ),
    seed=st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-1, 2**63 - 1, -(2**63)])),
)
@example(num_classes=10, dim=32, per_class=240, spread=0.6, test_fraction=1 / 6, seed=1)
@example(num_classes=2, dim=1, per_class=2, spread=0.0, test_fraction=1 - 2**-53, seed=-1)
@example(num_classes=3, dim=2, per_class=1, spread=0.6, test_fraction=0.5, seed=0)  # class 0 too small
def test_same_bytes_as_generating_whole_then_splitting(
    num_classes, dim, per_class, spread, test_fraction, seed
):
    exp = experiment(num_classes, dim, per_class, spread, test_fraction, seed)
    ours, theirs = built_or_error(make_dataset, exp), built_or_error(two_step, exp)
    if isinstance(ours, str) or isinstance(theirs, str):
        assert ours == theirs  # the same ConfigError, or both built
        return
    for a, b in zip(ours, theirs):
        assert a.features.shape == b.features.shape
        assert np.array_equal(a.features.view(np.int64), b.features.view(np.int64))
        assert np.array_equal(a.labels, b.labels)
        assert a.num_classes == b.num_classes


def test_build_never_holds_the_full_matrix():
    # sweep_c7's dataset: the peak is what is kept, plus one class block, plus
    # the bool temporary of the train set's finite check, plus a little for
    # index arrays; generating the whole matrix and then splitting it (about
    # 2x what is kept) fails this
    exp = experiment(10, 32, 2400, 0.6, 1 / 6, 1)
    make_dataset(exp)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        train, test = make_dataset(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(d.features.nbytes + d.labels.nbytes for d in (train, test))
    block = exp.data.per_class * exp.run.model.input_dim * 8
    finite_check = train.features.size  # one byte a value
    assert peak <= kept + block + finite_check + 2**16, (peak, kept)
