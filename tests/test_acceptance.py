"""Acceptance suite: one test per criterion, one PASS line each.

Run with: pytest tests/test_acceptance.py -v -s
"""
import json
import os
import time

import numpy as np
import pytest

from conftest import mlp_config, small_task, trajectory
from flsim.data import gen_blobs, partition_dirichlet, split_train_test
from flsim.engine import (
    RunConfig,
    build_partition,
    derive_stream,
    init_client_states,
    init_server_state,
    plan_round,
    run_round,
    run_training,
)
from flsim.harness import parse_config, run_experiment, run_sweep
from flsim.methods import METHODS
from flsim.models import ModelSpec, init_params
from oracle import batch_loss_and_grad, finite_diff_grad

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

with open(os.path.join(FIXTURES, "pilot.json")) as fh:
    PILOT = json.load(fh)


def report(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


# --- criterion 1: gradient oracle ------------------------------------------

def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    kinds = [
        ModelSpec("linear", input_dim=6, num_classes=4),
        ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dim=4, activation="relu"),
        ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dim=5, activation="tanh"),
        ModelSpec("quadratic_probe", probe_target=(0.5, -1.0, 2.0)),
    ]
    for spec in kinds:
        for trial in range(10):
            params = init_params(spec, derive_stream(trial, -1, -1))
            rng = np.random.default_rng(1000 + trial)
            if spec.kind == "quadratic_probe":
                params += rng.standard_normal(len(params))
                batch = (np.zeros((1, 1)), [0])
            else:
                batch = (
                    rng.standard_normal((12, spec.input_dim)),
                    rng.integers(0, spec.num_classes, 12),
                )
            _, grad = batch_loss_and_grad(spec, params, *batch)
            fd = finite_diff_grad(spec, params, *batch, 1e-5)
            rel = np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-8))
            assert rel < 1e-5, f"{spec.kind} trial {trial}: rel err {rel}"
    assert time.perf_counter() - t0 < 10.0
    report(1, "gradient oracle")


# --- criterion 2: reduction identities --------------------------------------

IDENTITY_CASES = [
    ("fedprox", {"lambda": 0.0}, False),
    ("fedsam", {"rho": 0.0}, False),
    ("fedcm", {"mu": 1.0}, False),
    ("feddyn", {"beta": 0.0}, False),
    ("fedspeed", {"gamma": 0.0, "rho": 0.0}, False),
    ("fedsmoo", {"rho": 0.0, "beta": 0.0}, False),
    ("fedgamma", {"rho": 0.0}, True),  # single-client identity
]


def test_criterion_2_reduction_identities():
    t0 = time.perf_counter()
    train, _ = small_task(seed=2)
    base = dict(rounds=20, local_epochs=2, batch_size=16)
    ref = {
        False: trajectory(mlp_config("fedavg", **base), train),
        True: trajectory(
            mlp_config("fedavg", n_clients=1, sample_size=1, **base), train
        ),
    }
    for method, hp, single in IDENTITY_CASES:
        kw = dict(base, client_hparams=hp)
        if single:
            kw.update(n_clients=1, sample_size=1)
        traj = trajectory(mlp_config(method, **kw), train)
        for r, (a, b) in enumerate(zip(traj, ref[single])):
            diff = np.max(np.abs(a - b))
            assert diff <= 1e-9, f"{method} round {r}: max diff {diff}"
    assert time.perf_counter() - t0 < 120.0
    report(2, "reduction identities")


# --- criterion 3: centralized equivalence ------------------------------------

def test_criterion_3_centralized_equivalence():
    train, _ = small_task(seed=4)
    cfg = mlp_config("fedavg", n_clients=1, sample_size=1, rounds=50, local_epochs=2)
    traj = trajectory(cfg, train)

    # independent sequential-SGD oracle with the same shuffles
    theta = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
    plan = build_partition(cfg, train)
    shard = train.subset(plan.assignments[0])
    for r in range(cfg.rounds):
        rng = derive_stream(cfg.seed, r, 0)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(len(shard))
            for s in range(0, len(shard), cfg.batch_size):
                idx = order[s : s + cfg.batch_size]
                _, g = batch_loss_and_grad(
                    cfg.model, theta, shard.features[idx], shard.labels[idx]
                )
                theta = theta - cfg.client_lr * g
        assert np.array_equal(traj[r], theta), f"round {r} differs"
    report(3, "centralized equivalence")


# --- criterion 4: partition properties ---------------------------------------

def test_criterion_4_partition_properties():
    data = gen_blobs(10, 8, 100, 0.5, derive_stream(0, -3, -1))

    # paper-shaped alpha=0: one class per client at N=100
    plan0 = partition_dirichlet(data, 100, 0.0, derive_stream(0, -2, -1))
    for a in plan0.assignments:
        assert len(np.unique(data.labels[a])) == 1

    # disjoint covers for every (alpha, seed)
    for alpha in (0.0, 0.3, 1e6):
        for seed in range(5):
            plan = partition_dirichlet(data, 20, alpha, derive_stream(seed, -2, -1))
            seen = np.sort(np.concatenate(plan.assignments))
            assert np.array_equal(seen, np.arange(len(data)))

    # entropy monotone in alpha over >=10 seeds
    def mean_entropy(plan):
        ents = []
        for a in plan.assignments:
            c = np.bincount(data.labels[a], minlength=10)
            p = c[c > 0] / c.sum()
            ents.append(-np.sum(p * np.log(p)))
        return float(np.mean(ents))

    for seed in range(10):
        ents = [
            mean_entropy(partition_dirichlet(data, 20, a, derive_stream(seed, -2, -1)))
            for a in (0.0, 0.3, 1e6)
        ]
        assert ents[0] <= ents[1] <= ents[2], f"seed {seed}: {ents}"
    report(4, "partition properties")


# --- criterion 5: determinism ---------------------------------------------

def canonical_metrics(path):
    out = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            rec.pop("dt")
            out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out)


def test_criterion_5_determinism(tmp_path):
    common = (
        "rounds = 6\nn_clients = 20\nsample_size = 8\ndata.per_class = 60\n"
        "eval_every = 2\nmodel.kind = mlp\n"
    )
    exp = parse_config("method = fedgamma\nrho = 0.01\nseed = 9\n" + common)
    paths = [run_experiment(exp, tmp_path / f"run{i}")[0] for i in range(2)]
    ref = canonical_metrics(paths[0])
    assert ref  # non-empty
    assert canonical_metrics(paths[1]) == ref

    # the same config (default partition dirichlet:0) as a sweep's one cell
    sweep = parse_config(
        "methods = fedgamma\ngrid.fedgamma.rho = 0.01\npartitions = dirichlet:0\n"
        "seeds = 9\n" + common
    )
    run_sweep(sweep, tmp_path / "sweep")
    cells = list((tmp_path / "sweep" / "runs").glob("*/metrics.jsonl"))
    assert len(cells) == 1
    assert canonical_metrics(cells[0]) == ref
    config = (cells[0].parent / "config.txt").read_text()
    assert config == (tmp_path / "run0" / "config.txt").read_text()
    report(5, "determinism across reruns and between a sweep cell and its run")


# --- criterion 6: Table-1 style server-state audit ---------------------------

def test_criterion_6_server_state_audit():
    train, _ = small_task(seed=6)
    cases = {
        "fedavg": {},
        "fedprox": {"lambda": 0.01},
        "feddyn": {"beta": 0.1},
        "fedsam": {"rho": 0.01},
        "fedspeed": {"rho": 0.01},
        "fedcm": {"mu": 0.5},
        "fedgamma": {"rho": 0.01},
        "fedsmoo": {"rho": 0.01, "beta": 0.1},
    }
    mutated = {}
    for method, hp in cases.items():
        cfg = mlp_config(method, rounds=3, client_hparams=hp)
        theta0 = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
        plan = build_partition(cfg, train)
        server = init_server_state(cfg, theta0)
        states = init_client_states(cfg, theta0)
        for r in range(cfg.rounds):
            rplan = plan_round(plan, train, cfg, r)
            server, states, _m = run_round(server, states, rplan, cfg)
        touched = []
        for name in ("momentum", "global_control", "global_perturb"):
            v = server.state.get(name)
            if v is not None and np.any(v != 0):
                touched.append(name)
        mutated[method] = touched
        assert set(server.state) == set(METHODS[method].server_state)
    assert mutated == {
        "fedavg": [],
        "fedprox": [],
        "feddyn": [],
        "fedsam": [],
        "fedspeed": [],
        "fedcm": ["momentum"],
        "fedgamma": ["global_control"],
        "fedsmoo": ["global_perturb"],
    }
    report(6, "server-state conformance audit")


# --- criteria 7 and 8: desk-scale trend benchmark ----------------------------

BENCH_SWEEP = """
methods = fedavg,fedprox,fedsam,fedcm
grid.fedprox.lambda = 0.1,0.001
grid.fedsam.rho = 0.1,0.01
grid.fedcm.mu = 0.1,0.01,0.001
partitions = dirichlet:0
seeds = 1,2,3
rounds = 100
n_clients = 100
sample_size = 10
local_epochs = 2
batch_size = 32
client_lr = 0.05
eval_every = 10
data.per_class = 2400
data.spread = 0.6
data.test_fraction = 0.16666666666666666
"""


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    t0 = time.perf_counter()
    sweep_rows, run_rows = run_sweep(parse_config(BENCH_SWEEP), out)
    elapsed = time.perf_counter() - t0
    return sweep_rows, run_rows, elapsed


def cell(rows, method, hparams):
    found = [r for r in rows if r.method == method and r.hparams == hparams]
    assert len(found) == 1, f"missing cell {method}/{hparams}"
    return found[0]


def per_seed(run_rows, method, hparams):
    return {r.seed: r for r in run_rows if r.method == method and r.hparams == hparams}


def test_criterion_7_trend_reproduction(bench):
    sweep_rows, run_rows, elapsed = bench
    assert elapsed < 1800.0  # runtime target

    # (a) fedavg within the pilot-calibrated margin of the best cell
    margin = PILOT["trend_margin_points"] / 100.0
    fedavg = cell(sweep_rows, "fedavg", "-")
    best = max(r.best_top1 for r in sweep_rows if r.status == "completed")
    assert fedavg.best_top1 >= best - margin

    # (b) fedprox lambda=0.1 <= lambda=0.001 in >=2 of 3 seeds
    lo = per_seed(run_rows, "fedprox", "lambda=0.1")
    hi = per_seed(run_rows, "fedprox", "lambda=0.001")
    assert sum(lo[s].best_top1 <= hi[s].best_top1 for s in (1, 2, 3)) >= 2

    # (c) fedsam rho=0.1 <= rho=0.01 in >=2 of 3 seeds
    lo = per_seed(run_rows, "fedsam", "rho=0.1")
    hi = per_seed(run_rows, "fedsam", "rho=0.01")
    assert sum(lo[s].best_top1 <= hi[s].best_top1 for s in (1, 2, 3)) >= 2

    # (d) fedcm mu=0.001 is the worst fedcm cell or diverges
    worst = cell(sweep_rows, "fedcm", "mu=0.001")
    others = [
        r for r in sweep_rows if r.method == "fedcm" and r.hparams != "mu=0.001"
    ]
    assert worst.status == "diverged" or all(
        worst.best_top1 <= o.best_top1 for o in others
    )
    report(7, "qualitative trend reproduction")


def test_criterion_8_cost_ordering(bench):
    sweep_rows, _, _ = bench
    fedavg_evals = cell(sweep_rows, "fedavg", "-").grad_evals_per_round
    for hparams in ("rho=0.1", "rho=0.01"):
        assert cell(sweep_rows, "fedsam", hparams).grad_evals_per_round == (
            2 * fedavg_evals
        )

    # remaining SAM-family members, checked on a small task
    train, test = small_task(seed=8)
    base = mlp_config("fedavg", rounds=4)
    ref = run_training(base, train, test)
    ref_evals = [m.grad_evals for m in ref]
    for method, hp in (
        ("fedgamma", {"rho": 0.01}),
        ("fedspeed", {"rho": 0.01}),
        ("fedsmoo", {"rho": 0.01, "beta": 0.1}),
    ):
        recs = run_training(mlp_config(method, rounds=4, client_hparams=hp), train, test)
        assert [m.grad_evals for m in recs] == [2 * e for e in ref_evals]
    report(8, "gradient-evaluation cost ordering")
