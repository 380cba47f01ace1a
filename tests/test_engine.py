import copy
import json
import os

import numpy as np
import pytest

from conftest import mlp_config, probe_config, small_task, trajectory
from flsim.data import LabeledDataset, PartitionPlan
from flsim.engine import (
    build_partition,
    derive_stream,
    init_client_states,
    init_server_state,
    run_round,
    run_training,
    sample_clients,
)
from flsim.errors import ConfigError, DivergenceError
from flsim.models import Batch, init_params, loss_and_grad

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
    @pytest.mark.parametrize(
        "method,hp",
        [
            ("fedavg", {}),
            ("fedprox", {"lambda": 0.1}),
            ("feddyn", {"beta": 0.1}),
            ("fedcm", {"mu": 0.5}),
            ("fedsam", {"rho": 0.1}),
            ("fedgamma", {"rho": 0.1}),
            ("fedspeed", {"rho": 0.1}),
            ("fedsmoo", {"rho": 0.1, "beta": 0.1}),
        ],
    )
    def test_zero_lr_fixed_point(self, method, hp):
        train, _ = small_task()
        cfg = mlp_config(method, client_lr=0.0, client_hparams=hp)
        server, states, plan = setup_run(cfg, train)
        new_server, _, _ = run_round(server, states, plan, train, cfg)
        assert np.array_equal(new_server.global_params.values, server.global_params.values)

    def test_state_isolation(self):
        train, _ = small_task()
        cfg = mlp_config("feddyn", client_hparams={"beta": 0.1})
        server, states, plan = setup_run(cfg, train)
        before = copy.deepcopy(states)
        _, after, metrics = run_round(server, states, plan, train, cfg)
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
            server, states, metrics = run_round(server, states, plan, train, cfg)
            assert len(metrics.sampled_clients) == cfg.sample_size
            assert len(set(metrics.sampled_clients)) == cfg.sample_size

    def test_identical_shards_degeneracy(self):
        # four clients holding byte-identical shards under fedavg: the
        # aggregate equals the single-client trajectory
        rows = np.random.default_rng(0).standard_normal((8, 8))
        labels = np.tile(np.arange(4), 2)
        feats = np.tile(rows, (4, 1))
        data = LabeledDataset(feats, np.tile(labels, 4), 4)
        plan = PartitionPlan([np.arange(i * 8, (i + 1) * 8) for i in range(4)])
        cfg = mlp_config("fedavg", n_clients=4, sample_size=4, batch_size=8, local_epochs=1)
        theta0 = init_params(cfg.model, derive_stream(cfg.seed, -1, -1))
        server = init_server_state(cfg, theta0)
        states = init_client_states(cfg, theta0)
        new_server, _, _ = run_round(server, states, plan, data, cfg)
        # replicate one client's single full-batch step
        batch = Batch(rows, labels)
        _, g = loss_and_grad(cfg.model, theta0, batch)
        expected = theta0.values - cfg.client_lr * g.values
        assert np.array_equal(new_server.global_params.values, expected)

    def test_divergence_raises_typed_error(self):
        train, _ = small_task()
        cfg = mlp_config("fedavg", client_lr=1e150, rounds=5)
        with pytest.raises(DivergenceError) as exc_info:
            run_training(cfg, train, small_task()[1])
        assert exc_info.value.method == "fedavg"
        assert isinstance(exc_info.value.metrics, list)


class TestRunTraining:
    def test_single_round_equals_run_round(self):
        train, test = small_task()
        cfg = mlp_config("fedavg", rounds=1)
        records = run_training(cfg, train, test)
        assert len(records) == 1
        server, states, plan = setup_run(cfg, train)
        _, _, metrics = run_round(server, states, plan, train, cfg)
        assert records[0].sampled_clients == metrics.sampled_clients
        assert records[0].mean_train_loss == metrics.mean_train_loss
        assert records[0].update_norm == metrics.update_norm

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

        theta = init_params(cfg.model, derive_stream(cfg.seed, -1, -1)).values.copy()
        plan = build_partition(cfg, train)
        shard = train.subset(plan.assignments[0])
        for r in range(cfg.rounds):
            rng = derive_stream(cfg.seed, r, 0)
            for _ in range(cfg.local_epochs):
                order = rng.permutation(len(shard))
                for s in range(0, len(shard), cfg.batch_size):
                    idx = order[s : s + cfg.batch_size]
                    pv = init_params(cfg.model, derive_stream(0, 0, 0))
                    pv.values = theta
                    _, g = loss_and_grad(
                        cfg.model, pv, Batch(shard.features[idx], shard.labels[idx])
                    )
                    theta = theta - cfg.client_lr * g.values
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
