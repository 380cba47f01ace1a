import numpy as np
import pytest
from hypothesis import strategies as st

from flsim.data import gen_blobs, split_train_test
from flsim.engine import (
    RunConfig,
    build_partition,
    derive_stream,
    init_client_states,
    init_server_state,
    plan_round,
    run_round,
)
from flsim.models import ModelSpec, batch_steps, canonical_rows, init_params, row_keys

MLP_SPEC = ModelSpec("mlp", input_dim=8, num_classes=5, hidden_dim=6, activation="relu")
PROBE_SPEC = ModelSpec("quadratic_probe", probe_target=(0.0,))


def small_task(seed=0, num_classes=5, dim=8, per_class=40, spread=0.5):
    full = gen_blobs(num_classes, dim, per_class, spread, derive_stream(seed, -3, -1))
    return split_train_test(full, 0.2, derive_stream(seed, -4, -1))


def probe_shard(n=4):
    """Dummy single-class dataset; the quadratic probe ignores its batches."""
    from flsim.data import LabeledDataset

    return LabeledDataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 1)


def mlp_config(method="fedavg", **kw):
    defaults = dict(
        method=method,
        model=MLP_SPEC,
        n_clients=10,
        sample_size=4,
        rounds=20,
        local_epochs=1,
        batch_size=16,
        client_lr=0.05,
        partition="iid",
        seed=3,
        eval_every=5,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def trajectory(cfg, train):
    """Per-round global parameter vectors for a full run."""
    theta0 = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
    plan = build_partition(cfg, train)
    server = init_server_state(cfg, theta0)
    states = init_client_states(cfg, theta0)
    out = []
    for r in range(cfg.rounds):
        server, states, _m = run_round(server, states, plan_round(plan, train, cfg, r), cfg)
        out.append(server.global_params.values.copy())
    return out


def probe_config(method="fedavg", target=(0.0,), **kw):
    defaults = dict(
        method=method,
        model=ModelSpec("quadratic_probe", probe_target=tuple(target)),
        n_clients=1,
        sample_size=1,
        rounds=1,
        local_epochs=1,
        batch_size=100,
        client_lr=0.1,
        partition="iid",
        seed=0,
        eval_every=1,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


SCALES = st.sampled_from([1.0, 1e-300, 1e3, 1e160, 1e308])
SPECS = st.builds(
    lambda kind, activation, dims: ModelSpec(
        kind, dims[0], dims[1], dims[2] if kind == "mlp" else 0, activation
    ),
    st.sampled_from(["linear", "mlp"]),
    st.sampled_from(["relu", "tanh"]),
    st.tuples(st.integers(1, 12), st.integers(2, 8), st.integers(1, 10)),
)


def gathered_batches(spec, rows, seed, row_scale, batches):
    """Batches drawn with duplicate rows and canonicalised, each as (X, y,
    counts, n), and their ``Step``s built as ``round_schedule`` builds them:
    from the batches' rows gathered back to back, constants for all at once."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((max(1, rows // 2), spec.input_dim)) * min(row_scale, 1e300)
    out = []
    for n in [rows, *rng.integers(1, 64, batches - 1)]:
        X, y = pool[rng.integers(0, len(pool), n)], rng.integers(0, spec.num_classes, n)
        sel, counts, _ = canonical_rows(row_keys(X, y), [0])
        out.append((X[sel], y[sel], counts, int(n)))
    X, y, counts, n = zip(*out)
    starts = np.cumsum([0, *map(len, y)]).tolist()
    steps = batch_steps(spec, *map(np.concatenate, (X, y, counts)), starts, n)
    return out, steps


def scaled_params(spec, seed, scales):
    theta = init_params(spec, derive_stream(seed, -1, -1))
    for (sl, _), scale in zip(spec.slices.values(), scales):
        theta[sl] *= scale
    return theta
