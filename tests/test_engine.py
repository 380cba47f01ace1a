import copy
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flsim
from conftest import MLP_SPEC, mlp_config, probe_config, small_task, trajectory
from flsim import engine, methods
from flsim.data import LabeledDataset, PartitionPlan
from flsim.engine import (
    RunConfig,
    build_partition,
    derive_stream,
    init_client_states,
    init_server_state,
    plan_round,
    round_schedule,
    run_round,
    run_training,
    sample_clients,
)
from flsim.errors import ConfigError, DivergenceError
from flsim.models import ModelSpec, init_params
from oracle import batch_loss_and_grad, canonical_batch, one_step, per_batch_schedule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
METHOD_HPARAMS = [
    ("fedavg", {}),
    ("fedprox", {"lambda": 0.1}),
    ("feddyn", {"beta": 0.1}),
    ("fedcm", {"mu": 0.5}),
    ("fedsam", {"rho": 0.1}),
    ("fedgamma", {"rho": 0.1}),
    ("fedspeed", {"rho": 0.1}),
    ("fedsmoo", {"rho": 0.1, "beta": 0.1}),
]


class TestDeriveStream:
    def test_same_triple_same_prefix(self):
        a = derive_stream(7, 3, 2).integers(0, 2**63, 8)
        b = derive_stream(7, 3, 2).integers(0, 2**63, 8)
        assert np.array_equal(a, b)

    def test_distinct_triples_differ(self):
        a = derive_stream(7, 0, 1).integers(0, 2**63, 4)
        b = derive_stream(7, 1, 0).integers(0, 2**63, 4)
        assert not np.array_equal(a, b)

    def test_collision_smoke(self):
        seen = set()
        for r in range(100):
            for c in range(100):
                prefix = tuple(derive_stream(11, r, c).integers(0, 2**63, 4))
                assert prefix not in seen
                seen.add(prefix)

    def test_server_channel_distinct_from_clients(self):
        srv = tuple(derive_stream(5, 0, -1).integers(0, 2**63, 4))
        for c in range(32):
            assert tuple(derive_stream(5, 0, c).integers(0, 2**63, 4)) != srv


@pytest.mark.parametrize(
    "partition,alpha,batch_size,drawing",
    [("iid", 0.0, 16, "none"), ("iid", 0.0, 15, "all"), ("dirichlet", 0.3, 16, "some")],
    ids=["none-draw", "all-draw", "some-draw"],
)
def test_plan_round_streams_are_derive_stream(monkeypatch, partition, alpha, batch_size, drawing):
    # each client of more than one batch steps on derive_stream(seed, round, client),
    # in sampled order; a client of one batch draws no stream
    train, _ = small_task()  # 160 rows: 16 a client under iid
    cfg = mlp_config(partition=partition, alpha=alpha, batch_size=batch_size)
    plan = build_partition(cfg, train)
    seen = []
    real_schedule = engine.round_schedule

    def schedule(shards, streams, train, cfg):
        seen.append([stream.bit_generator.state for stream in streams])  # before any draw
        return real_schedule(shards, streams, train, cfg)

    monkeypatch.setattr(engine, "round_schedule", schedule)
    kinds = set()
    for r in range(4):
        sampled, shards, _ = plan_round(plan, train, cfg, r)
        ids = [cid for cid, shard in zip(sampled, shards) if len(shard) > batch_size]
        kinds.add("none" if not ids else "all" if len(ids) == len(sampled) else "some")
        assert len(seen[r]) == len(ids)
        assert seen[r] == [derive_stream(cfg.seed, r, cid).bit_generator.state for cid in ids]
    assert drawing in kinds


def test_import_leaves_numpy_random_unloaded():
    # derive_stream reaches numpy.random on first use: importing flsim stays cheap
    assert "numpy.random" not in modules_loaded_by("import flsim")


def modules_loaded_by(statement):
    """The modules a fresh interpreter has loaded after ``statement``."""
    code = f"import sys; {statement}; print(*sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(flsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_bare_import_loads_the_modules_a_run_loads():
    # the API is the modules, reached from a bare import; and that import costs
    # what `flsim run` pays before it reads its config, which perfbench times
    names = "flsim.harness.run_sweep, flsim.engine.run_training, flsim.models.loss_and_grad"
    bare = modules_loaded_by(f"import flsim; {names}, flsim.__version__")
    cli = modules_loaded_by("import flsim.cli") - {"flsim.cli"}
    assert {m for m in bare if m.startswith("flsim.")} == {m for m in cli if m.startswith("flsim.")}


class TestSampleClients:
    def test_exhaustive(self):
        assert sample_clients(10, 10, derive_stream(0, 0, -1)) == list(range(10))

    def test_subset_shape(self):
        ids = sample_clients(100, 10, derive_stream(1, 0, -1))
        assert len(ids) == 10 == len(set(ids))
        assert all(0 <= i < 100 for i in ids)
        assert ids == sorted(ids)

    def test_deterministic(self):
        a = sample_clients(50, 7, derive_stream(2, 4, -1))
        b = sample_clients(50, 7, derive_stream(2, 4, -1))
        assert a == b

    def test_m_exceeds_n(self):
        with pytest.raises(ConfigError):
            sample_clients(5, 6, derive_stream(0, 0, -1))


def setup_run(cfg, train):
    theta0 = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
    plan = build_partition(cfg, train)
    return init_server_state(cfg, theta0), init_client_states(cfg, theta0), plan


class TestRunRound:
    @pytest.mark.parametrize("method,hp", METHOD_HPARAMS)
    def test_zero_lr_fixed_point(self, method, hp):
        train, _ = small_task()
        cfg = mlp_config(method, client_lr=0.0, client_hparams=hp)
        server, states, plan = setup_run(cfg, train)
        new_server, _, _ = run_round(server, states, plan_round(plan, train, cfg, 0), cfg)
        assert np.array_equal(new_server.global_params.values, server.global_params.values)

    def test_state_isolation(self):
        train, _ = small_task()
        cfg = mlp_config("feddyn", client_hparams={"beta": 0.1})
        server, states, plan = setup_run(cfg, train)
        before = copy.deepcopy(states)
        _, after, metrics = run_round(server, states, plan_round(plan, train, cfg, 0), cfg)
        sampled = set(metrics.sampled_clients)
        for cid in range(cfg.n_clients):
            if cid not in sampled:
                for k in before[cid]:
                    assert np.array_equal(after[cid][k], before[cid][k])

    def test_round_monotonicity_and_participation(self):
        train, _ = small_task()
        cfg = mlp_config("fedavg", rounds=5)
        server, states, plan = setup_run(cfg, train)
        for r in range(cfg.rounds):
            assert server.round == r
            rplan = plan_round(plan, train, cfg, r)
            server, states, metrics = run_round(server, states, rplan, cfg)
            assert len(metrics.sampled_clients) == cfg.sample_size
            assert len(set(metrics.sampled_clients)) == cfg.sample_size

    @pytest.mark.parametrize("weighted_avg", [False, True], ids=["uniform", "weighted"])
    def test_identical_shards_degeneracy(self, weighted_avg):
        # four clients holding byte-identical shards under fedavg: the
        # aggregate equals the single-client trajectory, weighted or not
        # (equal weights of 8 rows scale the fold by powers of two only)
        rows = np.random.default_rng(0).standard_normal((8, 8))
        labels = np.tile(np.arange(4), 2)
        feats = np.tile(rows, (4, 1))
        data = LabeledDataset(feats, np.tile(labels, 4), 4)
        plan = PartitionPlan([np.arange(i * 8, (i + 1) * 8) for i in range(4)])
        cfg = mlp_config("fedavg", n_clients=4, sample_size=4, batch_size=8, local_epochs=1,
                         weighted_avg=weighted_avg)
        theta0 = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
        server = init_server_state(cfg, theta0)
        states = init_client_states(cfg, theta0)
        new_server, _, _ = run_round(server, states, plan_round(plan, data, cfg, 0), cfg)
        # replicate one client's single full-batch step
        _, g = batch_loss_and_grad(cfg.model, theta0, rows, labels)
        expected = theta0 - cfg.client_lr * g
        assert np.array_equal(new_server.global_params.values, expected)

    def test_weighted_avg_folds_client_results_by_shard_size(self):
        # an unequal-shard dirichlet round: the new global parameters are the
        # shard-size-weighted mean of the same clients' results, byte for byte,
        # and not the uniform mean
        train, _ = small_task()
        cfg = mlp_config(partition="dirichlet", alpha=0.3, weighted_avg=True)
        server, states, plan = setup_run(cfg, train)
        rplan = plan_round(plan, train, cfg, 0)
        sampled, shards, schedule = rplan
        assert len({len(shard) for shard in shards}) > 1
        new_server, _, _ = run_round(server, states, rplan, cfg)
        hp = methods.hyperparams(cfg.method, cfg.client_hparams)
        results = [methods.client_opt(cid, server, steps, len(shard), states[cid], hp, cfg)[0]
                   for cid, shard, steps in zip(sampled, shards, schedule)]
        weighted = methods.mean_params(results, weighted=True)
        assert new_server.global_params.values.tobytes() == weighted.tobytes()
        uniform, _, _ = run_round(server, states, rplan, replace(cfg, weighted_avg=False))
        assert not np.array_equal(uniform.global_params.values, weighted)

    def test_mean_loss_fold_that_overflows_warns_of_nothing(self):
        # two one-row clients whose finite losses of 1.5e308 sum past the float
        # maximum: the round's mean loss is inf, and no NumPy warning escapes
        # the round (pyproject makes one an error)
        data = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        plan = PartitionPlan([np.array([0]), np.array([1])])
        model = ModelSpec("linear", input_dim=1, num_classes=2)
        cfg = RunConfig("fedavg", model, n_clients=2, sample_size=2, local_epochs=1, client_lr=0.0)
        theta = np.array([-7e307, 8e307, 0.0, 0.0])
        server, states = init_server_state(cfg, theta), init_client_states(cfg, theta)
        new_server, _, metrics = run_round(server, states, plan_round(plan, data, cfg, 0), cfg)
        assert metrics.mean_train_loss == math.inf and metrics.update_norm == 0.0
        assert np.array_equal(new_server.global_params.values, theta)

    def test_divergence_raises_typed_error(self):
        train, _ = small_task()
        cfg = mlp_config("fedavg", client_lr=1e150, rounds=5)
        with pytest.raises(DivergenceError) as exc_info:
            run_training(cfg, train, small_task()[1])
        assert exc_info.value.method == "fedavg"
        assert isinstance(exc_info.value.metrics, list)


class TestRunConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", np.nan),
            ("alpha", np.inf),
            ("client_lr", np.nan),
            ("client_lr", np.inf),
            ("seed", 2**64),
            ("seed", 2**63),
            ("seed", -(2**63) - 1),
        ],
    )
    def test_rejects_non_finite_and_aliasing_seed(self, field, value):
        # derive_stream keeps the low 64 bits, so seeds 0 and 2**64 would share a stream
        cfg = mlp_config(**{"partition": "dirichlet", "alpha": 0.5, field: value})
        with pytest.raises(ConfigError, match="finite" if field != "seed" else "seed"):
            cfg.validate()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("sample_size", 11, "sample_size <= n_clients"),
            ("sample_size", 0, "1 <= sample_size"),
            ("rounds", 0, "rounds and local_epochs"),
            ("local_epochs", 0, "rounds and local_epochs"),
            ("client_lr", -0.01, "client_lr must be non-negative"),
            ("batch_size", 0, "batch_size and eval_every"),
            ("eval_every", 0, "batch_size and eval_every"),
            ("alpha", -0.5, "alpha must be non-negative"),
        ],
    )
    def test_rejects_out_of_range(self, field, value, match):
        base = {"n_clients": 10, "partition": "dirichlet", "alpha": 0.5}
        cfg = mlp_config(**{**base, field: value})
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    def test_seed_range_ends_accepted(self):
        for seed in (-(2**63), 2**63 - 1):
            mlp_config(seed=seed).validate()

    NUMBER_FIELDS = ["n_clients", "sample_size", "rounds", "local_epochs", "batch_size",
                     "client_lr", "alpha", "seed", "eval_every"]

    @pytest.mark.parametrize("value", ["3", "0.1", None, [1], 1j])
    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_wrong_type_is_a_config_error_naming_the_field(self, field, value):
        # a string or None once failed the range comparisons with a TypeError
        cfg = mlp_config(**{"partition": "dirichlet", "alpha": 0.5, field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be a number"):
            cfg.validate()

    @pytest.mark.parametrize("field", [f for f in NUMBER_FIELDS if f not in ("client_lr", "alpha")])
    def test_float_in_an_int_field_is_a_config_error(self, field):
        # validate once passed rounds=3.0, and training then failed on range(3.0)
        cfg = mlp_config()
        with pytest.raises(ConfigError, match=f"^{field} must be a number of type int"):
            replace(cfg, **{field: float(getattr(cfg, field))}).validate()

    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_number_types_accepted(self, field):
        # NumPy scalars are numbers too, and an int or a bool is a float value
        cfg = mlp_config(partition="dirichlet", alpha=0.5)
        value = getattr(cfg, field)
        for kind in (np.int64,) if isinstance(value, int) else (np.float64, math.ceil, bool):
            replace(cfg, **{field: kind(value)}).validate()

    @pytest.mark.parametrize(
        "field,model",
        [
            ("input_dim", ModelSpec("linear", input_dim="3", num_classes=10)),
            ("hidden_dim", ModelSpec("mlp", input_dim=3, num_classes=10, hidden_dim=None)),
            ("probe_target", ModelSpec("quadratic_probe", probe_target=5)),
            ("num_classes", ModelSpec("linear", input_dim=3, num_classes=2.5)),
            ("input_dim", ModelSpec("linear", input_dim=3.0, num_classes=10)),
        ],
    )
    def test_wrong_model_field_type_is_a_config_error_naming_the_field(self, field, model):
        # the first three once failed validate with a TypeError; the floats passed
        # it, and training then failed on np.zeros with a TypeError
        for check in (model.validate, mlp_config(model=model).validate):
            with pytest.raises(ConfigError, match=f"^{field} must be a"):
                check()
        with pytest.raises(ConfigError, match=f"^{field} must be a"):
            run_training(mlp_config(model=model, rounds=1), *small_task())

    def test_model_number_types_accepted(self):
        spec = ModelSpec("mlp", input_dim=np.int64(3), num_classes=np.int64(10), hidden_dim=True)
        spec.validate()
        mlp_config(model=ModelSpec("linear", input_dim=True, num_classes=np.int32(2))).validate()

    @pytest.mark.parametrize("value", [None, [], (), "lambda", 0.1])
    def test_client_hparams_not_a_dict_is_a_config_error(self, value):
        # None once raised a TypeError and [] an AttributeError from methods.hyperparams
        with pytest.raises(ConfigError, match="^client_hparams must be a dict"):
            mlp_config("fedprox", client_hparams=value).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", []), ("method", None), ("partition", None), ("partition", 0),
            ("weighted_avg", "no"), ("weighted_avg", 1), ("weighted_avg", None),
            ("model", "linear"), ("model", None), ("kind", 3), ("activation", None),
        ],
    )
    def test_wrong_str_bool_or_model_is_a_config_error_naming_the_field(self, field, value):
        # method=[] once failed validate with a TypeError and model="linear" with
        # an AttributeError; weighted_avg="no", a truthy string, trained weighted
        cfg = mlp_config(rounds=1)
        if field in ("kind", "activation"):
            cfg = replace(cfg, model=replace(cfg.model, **{field: value}))
        else:
            cfg = replace(cfg, **{field: value})
        for check in (cfg.validate, lambda: run_training(cfg, *small_task())):
            with pytest.raises(ConfigError, match=f"^{field} must be a"):
                check()

    def test_numpy_str_and_bool_accepted(self):
        model = replace(MLP_SPEC, kind=np.str_("mlp"), activation=np.str_("tanh"))
        for flag in (np.True_, np.False_, True):
            mlp_config(np.str_("fedavg"), model=model, weighted_avg=flag).validate()


class TestRunTraining:
    @pytest.mark.parametrize(
        "model", [ModelSpec("linear", input_dim=8, num_classes=5), MLP_SPEC], ids=["linear", "mlp"]
    )
    @pytest.mark.parametrize("method,hp", METHOD_HPARAMS)
    def test_single_round_equals_run_round(self, method, hp, model):
        # the loop adds only evaluation and the plan's time share to each round
        train, test = small_task()
        cfg = mlp_config(method, model=model, rounds=4, client_hparams=hp)
        servers = []
        records = run_training(cfg, train, test, on_round=lambda s, *_: servers.append(s))
        assert len(records) == cfg.rounds
        server, states, plan = setup_run(cfg, train)
        for r, record in enumerate(records):
            rplan = plan_round(plan, train, cfg, r)
            server, states, metrics = run_round(server, states, rplan, cfg)
            assert record.round == metrics.round == r
            assert record.sampled_clients == metrics.sampled_clients
            assert record.mean_train_loss == metrics.mean_train_loss
            assert record.update_norm == metrics.update_norm
            assert record.grad_evals == metrics.grad_evals
        final = servers[-1].global_params.values
        assert final.tobytes() == server.global_params.values.tobytes()

    def test_rerun_identical(self):
        train, test = small_task()
        cfg = mlp_config("fedavg", rounds=8)
        a = run_training(cfg, train, test)
        b = run_training(cfg, train, test)
        for ra, rb in zip(a, b):
            assert ra.sampled_clients == rb.sampled_clients
            assert ra.mean_train_loss == rb.mean_train_loss
            assert ra.update_norm == rb.update_norm
            assert ra.test_top1 == rb.test_top1

    @pytest.mark.parametrize("which", [0, 1], ids=["train", "test"])
    @pytest.mark.parametrize("dim,classes", [(7, 5), (8, 6)], ids=["dim", "classes"])
    def test_data_must_fit_model(self, which, dim, classes, monkeypatch):
        # checked once, before round 0; the gradient kernel checks no batch
        data = list(small_task())
        data[which] = small_task(num_classes=classes, dim=dim)[which]
        rounds = []
        monkeypatch.setattr(engine, "run_round", lambda *a: rounds.append(a))
        with pytest.raises(ConfigError, match=["train", "test"][which]):
            run_training(mlp_config("fedavg"), *data)
        assert rounds == []

    def test_probe_run_rejected_before_round_0(self, monkeypatch):
        # no dataset fits the probe, and top1_accuracy cannot evaluate it
        rounds = []
        monkeypatch.setattr(engine, "run_round", lambda *a: rounds.append(a))
        with pytest.raises(ConfigError, match="train set"):
            run_training(probe_config(), *small_task())
        assert rounds == []

    def test_empty_shard_rejected_before_any_client_trains(self, monkeypatch):
        # a built partition has no empty shard (PartitionPlan.validate); a
        # hand-built one fails in the round's plan, before client 0 trains
        train, test = small_task()
        plan = PartitionPlan([np.arange(len(train)), np.arange(0)])
        monkeypatch.setattr(engine, "build_partition", lambda cfg, train: plan)
        calls, real = [], methods.client_opt
        monkeypatch.setattr(methods, "client_opt", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ConfigError, match="client 1 has an empty shard"):
            run_training(mlp_config("fedavg", n_clients=2, sample_size=2), train, test)
        assert calls == []

    def test_eval_schedule(self):
        train, test = small_task()
        cfg = mlp_config("fedavg", rounds=7, eval_every=3)
        records = run_training(cfg, train, test)
        evaluated = [m.round for m in records if m.test_top1 is not None]
        assert evaluated == [0, 3, 6]

    def test_centralized_equivalence_short(self):
        # N=M=1 fedavg is sequential minibatch SGD with the same shuffles
        train, _ = small_task()
        cfg = mlp_config("fedavg", n_clients=1, sample_size=1, rounds=10, local_epochs=2)
        traj = trajectory(cfg, train)

        theta = init_params(cfg.model, derive_stream(cfg.seed, -1, -1)).copy()
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
            assert np.array_equal(traj[r], theta)

    def test_pilot_floor(self):
        # desk-scale fedavg benchmark must reach its recorded accuracy floor
        with open(os.path.join(FIXTURES, "pilot.json")) as fh:
            pilot = json.load(fh)
        from flsim.data import gen_blobs, split_train_test
        from flsim.models import ModelSpec

        full = gen_blobs(10, 32, 200, 0.6, derive_stream(0, -3, -1))
        train, test = split_train_test(full, 0.2, derive_stream(0, -4, -1))
        cfg = mlp_config(
            "fedavg",
            model=ModelSpec("linear", input_dim=32, num_classes=10),
            n_clients=100,
            sample_size=10,
            rounds=100,
            local_epochs=2,
            batch_size=32,
            client_lr=0.05,
            partition="iid",
            seed=0,
            eval_every=10,
        )
        records = run_training(cfg, train, test)
        assert records[-1].test_top1 >= pilot["fedavg_iid_final_top1_floor"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 400),
    distinct=st.integers(1, 400),
    shard_sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    batch_size=st.integers(1, 63),
    local_epochs=st.integers(1, 3),
)
@example(seed=0, n_rows=6, distinct=2, shard_sizes=[4, 9, 1, 5], batch_size=4, local_epochs=3)
def test_round_schedule_matches_per_batch_loop(
    seed, n_rows, distinct, shard_sizes, batch_size, local_epochs
):
    # few distinct rows repeat within a step and across steps; shards drawn
    # with replacement repeat row indices too. A shard of one batch takes no
    # stream; every other shard takes the next one.
    rng = np.random.default_rng(seed)
    values = rng.integers(0, min(distinct, n_rows), (n_rows, 1)).astype(np.float64)
    labels = np.unique(rng.integers(0, 3, n_rows), return_inverse=True)[1]  # no class missing
    train = LabeledDataset(values, labels, int(labels.max()) + 1)
    shards = [rng.choice(n_rows, size) for size in shard_sizes]
    model = ModelSpec("linear", input_dim=1, num_classes=3)
    cfg = probe_config(model=model, local_epochs=local_epochs, batch_size=batch_size)
    drawn = [cid for cid, shard in enumerate(shards) if len(shard) > batch_size]

    def streams():
        return [derive_stream(seed, 3, cid) for cid in drawn]

    scheduled, looped = streams(), streams()
    rows, clients = round_schedule(shards, scheduled, train, cfg)
    want = per_batch_schedule(shards, looped, train.ranks, local_epochs, batch_size)
    assert [len(steps) for steps in clients] == [len(steps) for steps in want]
    at, seen = 0, set()  # where the step's rows start in ``rows``; the steps so far
    for shard, steps, want_steps in zip(shards, clients, want):
        if len(shard) <= batch_size:  # one step, taken every epoch, listed once in rows
            assert all(step is steps[0] for step in steps)
            steps, want_steps = steps[:1], want_steps[:1]
        for step, (want_rows, want_counts, want_n) in zip(steps, want_steps):
            assert id(step) not in seen  # no step is shared between clients
            seen.add(id(step))
            assert np.array_equal(rows[at : at + len(step.X)], want_rows)
            assert step.X.tobytes() == train.features[want_rows].tobytes()
            assert np.array_equal(step.counts, want_counts) and step.n == want_n
            # the batch constants, one row per canonical row
            y = train.labels[want_rows]
            assert np.array_equal(step.onehot, np.eye(3)[y])
            assert np.array_equal(step.at, np.arange(len(y)) * 3 + y)
            # full rows: each canonical row's weight in each of the 3 classes
            assert step.w.tobytes() == np.repeat((want_counts / want_n)[:, None], 3, 1).tobytes()
            at += len(step.X)
    assert at == len(rows)
    # each drawn stream is left where local_epochs permutations leave it
    for after_schedule, after_loop in zip(scheduled, looped):
        assert after_schedule.integers(0, 2**63) == after_loop.integers(0, 2**63)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    n_rows=st.integers(1, 40),
    size=st.integers(1, 40),
    local_epochs=st.integers(1, 4),
    signed_zeros=st.booleans(),
)
@example(seed=0, dim=1, n_rows=4, size=8, local_epochs=2, signed_zeros=True)
def test_one_batch_step_equals_drawn_path(seed, dim, n_rows, size, local_epochs, signed_zeros):
    # a one-batch shard's step, built from the shard in its own order, against
    # the step each epoch built from a permutation drawn from the client's
    # stream (the schedule before one-batch shards skipped their streams). The
    # rows come from a few values, so a batch repeats rows; with signed zeros,
    # rows can compare equal and differ in bytes.
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, 1.0, -2.5] + [-0.0] * signed_zeros)
    values = pool[rng.integers(0, len(pool), (n_rows, dim))]
    labels = np.unique(rng.integers(0, 2, n_rows), return_inverse=True)[1]  # no class missing
    train = LabeledDataset(values, labels, int(labels.max()) + 1)
    shard = rng.choice(n_rows, size)
    cfg = probe_config(
        model=ModelSpec("linear", input_dim=dim, num_classes=2),
        local_epochs=local_epochs,
        batch_size=size + int(rng.integers(0, 3)),
    )
    _, (steps,) = round_schedule([shard], [], train, cfg)
    assert len(steps) == local_epochs
    # rows of one rank differ in bytes only by the sign of a zero
    ranks = train.ranks[shard]
    rows_by_bytes = {(r, train.features[i].tobytes()) for r, i in zip(ranks, shard)}
    exact = len(set(ranks)) == len(rows_by_bytes)
    assert exact or signed_zeros
    stream = derive_stream(seed, 5, 7)
    for step in steps:
        rows, counts, n = canonical_batch(shard[stream.permutation(size)], train.ranks)
        want = one_step(cfg.model, train.features[rows], train.labels[rows], counts, n)
        assert np.array_equal(step.X, want.X)  # as values: -0.0 == 0.0
        if exact:
            assert step.X.tobytes() == want.X.tobytes()
        for got, ref in zip(step[1:], want[1:]):  # counts, n, at, onehot, w
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
