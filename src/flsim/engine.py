"""Round engine: broadcast, client sampling, local updates, aggregation.

Client updates within a round are pure functions of the broadcast model,
the client's own state, and a stream keyed by (seed, round, client), and
aggregation is a deterministic fold in ascending client id, so a run is a
pure function of its config.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import methods as _m
from .data import IID, LabeledDataset, PartitionPlan, partition_dirichlet, partition_iid
from .errors import ConfigError, DivergenceError, NumericalOverflowError
from .models import Batch, ModelSpec, ParamVector, init_params, top1_accuracy

# reserved stream channels (client_id slot for server-side draws,
# round slot for pre-training setup draws)
SERVER_CHANNEL = -1
INIT_ROUND = -1
PARTITION_ROUND = -2
DATA_ROUND = -3
SPLIT_ROUND = -4

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLD) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_stream(seed: int, round_idx: int, client_id: int) -> np.random.Generator:
    """Independent stream per (seed, round, client); keyed, order-free."""
    h = seed & _MASK
    for v in (round_idx, client_id):
        h = _splitmix64(h ^ ((v & _MASK) * _GOLD & _MASK))
    return np.random.Generator(np.random.PCG64(h))


@dataclass
class RunConfig:
    method: str
    model: ModelSpec
    n_clients: int = 100
    sample_size: int = 10
    rounds: int = 100
    local_epochs: int = 2
    batch_size: int = 32
    client_lr: float = 0.05
    client_hparams: dict = field(default_factory=dict)
    partition: str = IID  # "iid" or "dirichlet"
    alpha: float = 0.0  # dirichlet concentration (used when partition=dirichlet)
    seed: int = 0
    eval_every: int = 10
    weighted_avg: bool = False

    def hyperparams(self) -> _m.HyperParams:
        return _m.HyperParams.for_method(self.method, self.client_hparams)

    def validate(self):
        if self.method not in _m.METHOD_NAMES:
            raise ConfigError(f"unknown method '{self.method}'")
        if not (1 <= self.sample_size <= self.n_clients):
            raise ConfigError("need 1 <= sample_size <= n_clients")
        if self.rounds < 1 or self.local_epochs < 1:
            raise ConfigError("rounds and local_epochs must be >= 1")
        if self.client_lr < 0:
            raise ConfigError("client_lr must be non-negative")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ConfigError("batch_size and eval_every must be >= 1")
        if self.partition not in (IID, "dirichlet"):
            raise ConfigError(f"unknown partition '{self.partition}'")
        if self.partition == "dirichlet" and self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        self.model.validate()
        self.hyperparams()


@dataclass
class ServerState:
    round: int
    global_params: ParamVector
    # the vectors a method may name as its server_field
    momentum: ParamVector | None = None
    global_control: ParamVector | None = None
    global_perturb: ParamVector | None = None


def init_server_state(cfg: RunConfig, theta0: ParamVector) -> ServerState:
    state = ServerState(round=0, global_params=theta0)
    field_name = _m.METHODS[cfg.method].server_field
    if field_name is not None:
        state = replace(state, **{field_name: theta0.zeros_like()})
    return state


def init_client_states(cfg: RunConfig, theta0: ParamVector) -> list:
    """Per client id, its method's client-state vectors by name, all zero."""
    keys = _m.METHODS[cfg.method].client_state
    return [{k: np.zeros_like(theta0.values) for k in keys} for _ in range(cfg.n_clients)]


@dataclass
class RoundMetrics:
    round: int
    sampled_clients: list
    mean_train_loss: float
    update_norm: float
    grad_evals: int
    wall_time_seconds: float
    test_top1: float | None = None


def sample_clients(n_clients: int, sample_size: int, rng: np.random.Generator) -> list:
    """Uniform sample without replacement, returned in ascending id order."""
    if not (1 <= sample_size <= n_clients):
        raise ConfigError("need 1 <= sample_size <= n_clients")
    ids = rng.choice(n_clients, size=sample_size, replace=False)
    return sorted(int(i) for i in ids)


def build_partition(cfg: RunConfig, train: LabeledDataset) -> PartitionPlan:
    rng = derive_stream(cfg.seed, PARTITION_ROUND, SERVER_CHANNEL)
    if cfg.partition == IID:
        return partition_iid(train, cfg.n_clients, rng)
    return partition_dirichlet(train, cfg.n_clients, cfg.alpha, rng)


def run_round(
    server: ServerState,
    states: list,
    plan: PartitionPlan,
    train: LabeledDataset,
    cfg: RunConfig,
):
    """One communication round; returns (server', states', RoundMetrics)."""
    t0 = time.perf_counter()
    hp = cfg.hyperparams()
    rng = derive_stream(cfg.seed, server.round, SERVER_CHANNEL)
    sampled = sample_clients(cfg.n_clients, cfg.sample_size, rng)

    results = []
    new_states = list(states)
    for cid in sampled:  # ascending id
        shard = plan.assignments[cid]
        if len(shard) == 0:
            raise ConfigError(f"client {cid} has an empty shard")
        crng = derive_stream(cfg.seed, server.round, cid)
        try:
            result, new_states[cid] = _m.client_opt(
                cid, server, train, shard, states[cid], hp, cfg, crng
            )
        except NumericalOverflowError as exc:
            raise DivergenceError(cfg.method, server.round) from exc
        results.append(result)

    new_server = _m.server_opt(server, results, hp, cfg)
    # non-finite parameters, and finite ones too far apart, give a non-finite norm
    with np.errstate(over="ignore", invalid="ignore"):
        update_norm = float(
            np.linalg.norm(new_server.global_params.values - server.global_params.values)
        )
    if not np.isfinite(update_norm):
        raise DivergenceError(cfg.method, server.round)

    metrics = RoundMetrics(
        round=server.round,
        sampled_clients=sampled,
        mean_train_loss=float(np.mean([r.mean_loss for r in results])),
        update_norm=update_norm,
        grad_evals=int(sum(r.grad_evals for r in results)),
        wall_time_seconds=time.perf_counter() - t0,
    )
    return new_server, new_states, metrics


def run_training(
    cfg: RunConfig,
    train: LabeledDataset,
    test: LabeledDataset,
    on_round=None,
) -> list:
    """Full training loop; returns the list of RoundMetrics.

    Evaluates test accuracy every ``eval_every`` rounds and at the final
    round. On divergence, raises DivergenceError with the completed
    metrics prefix attached.
    """
    cfg.validate()
    theta0 = init_params(cfg.model, derive_stream(cfg.seed, INIT_ROUND, SERVER_CHANNEL))
    plan = build_partition(cfg, train)
    server = init_server_state(cfg, theta0)
    states = init_client_states(cfg, theta0)
    test_batch = Batch(test.features, test.labels)

    records = []
    for r in range(cfg.rounds):
        try:
            server, states, metrics = run_round(server, states, plan, train, cfg)
        except DivergenceError as exc:
            exc.metrics = records
            raise
        if r % cfg.eval_every == 0 or r == cfg.rounds - 1:
            metrics.test_top1 = top1_accuracy(cfg.model, server.global_params, test_batch)
        records.append(metrics)
        if on_round is not None:
            on_round(server, states, metrics)
    return records
