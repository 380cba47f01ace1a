"""Round engine: broadcast, client sampling, local updates, aggregation.

Client updates within a round are pure functions of the broadcast model,
the client's own state, and a stream keyed by (seed, round, client), and
aggregation is a deterministic fold in ascending client id, so a run is a
pure function of its config.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import methods as _m
from .data import IID, LabeledDataset, PartitionPlan, partition_dirichlet, partition_iid
from .errors import ConfigError, DivergenceError, NumericalOverflowError, check_field_types
from .models import ModelSpec, ParamVector, batch_steps, canonical_rows, init_params, top1_accuracy

# reserved stream channels (client_id slot for server-side draws,
# round slot for pre-training setup draws)
SERVER_CHANNEL = -1
INIT_ROUND = -1
PARTITION_ROUND = -2
DATA_ROUND = -3
SPLIT_ROUND = -4

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _stream_key(seed: int, *words: int) -> int:
    """splitmix64 over seed, then each word: the round, then the client."""
    x = seed & _MASK
    for v in words:
        x = ((x ^ ((v & _MASK) * _GOLD & _MASK)) + _GOLD) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        x = x ^ (x >> 31)
    return x


def derive_stream(seed: int, round_idx: int, client_id: int) -> np.random.Generator:
    """Independent stream per (seed, round, client); keyed, order-free."""
    return np.random.Generator(np.random.PCG64(_stream_key(seed, round_idx, client_id)))


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

    def validate(self):
        check_field_types(self)  # before the checks below compare the values
        if not isinstance(self.model, ModelSpec):
            raise ConfigError("model must be a ModelSpec")
        _m.hyperparams(self.method, self.client_hparams)  # the method, then its hyperparameters
        if not (1 <= self.sample_size <= self.n_clients):
            raise ConfigError("need 1 <= sample_size <= n_clients")
        if self.rounds < 1 or self.local_epochs < 1:
            raise ConfigError("rounds and local_epochs must be >= 1")
        if not np.isfinite((self.client_lr, self.alpha)).all():
            raise ConfigError("client_lr and alpha must be finite")
        if self.client_lr < 0:
            raise ConfigError("client_lr must be non-negative")
        if not -(2**63) <= self.seed < 2**63:  # derive_stream keeps the low 64 bits
            raise ConfigError("seed must be in [-2**63, 2**63)")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ConfigError("batch_size and eval_every must be >= 1")
        if self.partition not in (IID, "dirichlet"):
            raise ConfigError(f"unknown partition '{self.partition}'")
        if self.partition == "dirichlet" and self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.partition == "dirichlet" and self.alpha == 0:
            if self.n_clients < self.model.num_classes:
                raise ConfigError("alpha=0 requires n_clients >= num_classes")
        self.model.validate()


@dataclass
class ServerState:
    round: int
    global_params: ParamVector
    state: dict  # the method's server-state vectors by name


def init_server_state(cfg: RunConfig, theta0: np.ndarray) -> ServerState:
    """Round 0: ``theta0`` and the method's server-state vectors, all zero."""
    keys = _m.METHODS[cfg.method].server_state
    return ServerState(0, ParamVector(theta0), {k: np.zeros_like(theta0) for k in keys})


def init_client_states(cfg: RunConfig, theta0: np.ndarray) -> list:
    """Per client id, its method's client-state vectors by name, all zero."""
    keys = _m.METHODS[cfg.method].client_state
    return [{k: np.zeros_like(theta0) for k in keys} for _ in range(cfg.n_clients)]


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


def round_schedule(shards, streams, train: LabeledDataset, cfg: RunConfig):
    """Every sampled client's local steps, canonicalised in one sort.

    A shard of more than one batch takes the next of ``streams``, draws
    ``cfg.local_epochs`` permutations from it and cuts each into batches of
    ``cfg.batch_size``. A shard of one batch is that batch in shard order, its
    step taken every epoch: canonical rows do not depend on order. Returns
    (rows, clients): ``clients[i]`` lists client i's steps, each a ``models.Step``
    of a batch's canonical rows of ``train``; ``rows`` index each distinct step's ``X``.
    """
    streams, epochs = iter(streams), cfg.local_epochs
    drawn, sizes, ends = [], [], [0]  # sizes: per step; ends: steps after each client
    for shard in shards:
        if len(shard) <= cfg.batch_size:  # one batch: the only kind of client with one step
            drawn.append(shard)
            sizes.append(len(shard))
        else:
            full, rest = divmod(len(shard), cfg.batch_size)
            rng = next(streams)
            drawn += [shard[rng.permutation(len(shard))] for _ in range(epochs)]
            sizes += ([cfg.batch_size] * full + [rest] * (rest > 0)) * epochs
        ends.append(len(sizes))
    drawn, size = np.concatenate(drawn), len(train)
    # A key is below len(sizes) * size <= len(drawn) * size. MAX_DATA_VALUES
    # keeps size <= 2**27, so an int64 key would need over 2**36 drawn rows, an
    # index array of 512 GiB that np.concatenate above fails to allocate first.
    keys = np.repeat(np.arange(len(sizes)) * size, sizes) + train.ranks[drawn]
    sel, counts, starts = canonical_rows(keys, np.arange(len(sizes) + 1) * size)
    rows = drawn[sel]
    X, y = train.features[rows], train.labels[rows]
    steps = batch_steps(cfg.model, X, y, counts, starts.tolist(), sizes)
    return rows, [steps[a:b] * (epochs if b - a == 1 else 1) for a, b in zip(ends, ends[1:])]


def plan_key(cfg: RunConfig) -> tuple:
    """All a round plan reads of a run's config: runs with one key share plans."""
    return (cfg.seed, cfg.partition, cfg.alpha, cfg.n_clients, cfg.sample_size,
            cfg.local_epochs, cfg.batch_size, cfg.model)


def plan_round(plan: PartitionPlan, train: LabeledDataset, cfg: RunConfig, round_idx: int):
    """Round ``round_idx``'s plan, the same for every run with one ``plan_key``: (sampled
    client ids in ascending order, their shards, their steps); an empty shard is a ConfigError."""
    rng = derive_stream(cfg.seed, round_idx, SERVER_CHANNEL)
    sampled = sample_clients(cfg.n_clients, cfg.sample_size, rng)
    shards = [plan.assignments[cid] for cid in sampled]
    if empty := [cid for cid, shard in zip(sampled, shards) if len(shard) == 0]:
        raise ConfigError(f"client {empty[0]} has an empty shard")  # before any client trains
    drawing = [cid for cid, shard in zip(sampled, shards) if len(shard) > cfg.batch_size]
    streams = [derive_stream(cfg.seed, round_idx, cid) for cid in drawing]
    return sampled, shards, round_schedule(shards, streams, train, cfg)[1]


def run_round(server: ServerState, states: list, rplan: tuple, cfg: RunConfig):
    """One communication round on ``rplan``, this round's ``plan_round``;
    returns (server', states', RoundMetrics). The one place a round sets NumPy's error
    state: it ignores overflow and invalid values around every client, kernel and fold."""
    t0 = time.perf_counter()
    hp = _m.hyperparams(cfg.method, cfg.client_hparams)
    sampled, shards, schedule = rplan

    results = []
    new_states = list(states)
    # overflow in a client's steps or the folds warns of nothing: the kernel raises on the
    # non-finite parameters it leaves, or the norm below is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for cid, shard, steps in zip(sampled, shards, schedule):  # ascending id
            try:
                result, new_states[cid] = _m.client_opt(
                    cid, server, steps, len(shard), states[cid], hp, cfg
                )
            except NumericalOverflowError as exc:
                raise DivergenceError(cfg.method, server.round) from exc
            results.append(result)

        new_server = _m.server_opt(server, results, hp, cfg)
        # non-finite parameters, and finite ones too far apart, give a non-finite norm
        update_norm = float(
            np.linalg.norm(new_server.global_params.values - server.global_params.values)
        )
        mean_loss = float(np.add.reduce([r.mean_loss for r in results]) / len(results))
    if not np.isfinite(update_norm):
        raise DivergenceError(cfg.method, server.round)

    metrics = RoundMetrics(
        round=server.round,
        sampled_clients=sampled,
        mean_train_loss=mean_loss,
        update_norm=update_norm,
        grad_evals=int(sum(r.grad_evals for r in results)),
        wall_time_seconds=time.perf_counter() - t0,
    )
    return new_server, new_states, metrics


def train_lockstep(cfgs: list, train: LabeledDataset, test: LabeledDataset, on_round=None) -> list:
    """Train runs that share one ``plan_key`` side by side, round by round.

    Checks once that ``train`` and ``test`` fit the runs' model. Each round's
    plan is built once and given to every live run's ``run_round``; a run's
    ``wall_time_seconds`` is its own ``run_round`` plus an equal share of the
    plan's build time. Evaluates test accuracy every ``eval_every`` rounds and
    at the final round, and calls ``on_round`` after each run's round. Returns,
    per run, its RoundMetrics list, or the DivergenceError that stopped it
    with the completed metrics prefix attached; a diverged run leaves the group.
    """
    if len({plan_key(cfg) for cfg in cfgs}) != 1:
        raise ConfigError("runs in lockstep must share one round plan key")
    for cfg in cfgs:
        cfg.validate()
    model = cfgs[0].model  # one plan key, one model
    for name, data in (("train", train), ("test", test)):
        dim, classes = data.features.shape[1], data.num_classes
        if dim != model.input_dim or classes > model.num_classes:
            raise ConfigError(f"{name} set: {dim} features, {classes} classes don't fit the model")
    runs = []
    for cfg in cfgs:
        theta0 = init_params(model, derive_stream(cfg.seed, INIT_ROUND, SERVER_CHANNEL))
        runs.append(SimpleNamespace(  # held by the run alone, so a round frees its old states
            cfg=cfg, server=init_server_state(cfg, theta0), states=init_client_states(cfg, theta0),
            records=[], error=None,
        ))
    plan = build_partition(cfgs[0], train)

    for r in range(max(cfg.rounds for cfg in cfgs)):
        live = [run for run in runs if run.error is None and r < run.cfg.rounds]
        if not live:
            break
        t0 = time.perf_counter()
        rplan = plan_round(plan, train, live[0].cfg, r)  # the only plan alive
        share = (time.perf_counter() - t0) / len(live)
        for run in live:
            cfg = run.cfg
            try:
                run.server, run.states, metrics = run_round(run.server, run.states, rplan, cfg)
            except DivergenceError as exc:
                exc.metrics, run.error = run.records, exc
                continue
            metrics.wall_time_seconds += share
            if r % cfg.eval_every == 0 or r == cfg.rounds - 1:
                theta = run.server.global_params.values
                metrics.test_top1 = top1_accuracy(cfg.model, theta, test.features, test.labels)
            run.records.append(metrics)
            if on_round is not None:
                on_round(run.server, run.states, metrics)
        rplan = None  # freed before the next round's is built
    return [run.records if run.error is None else run.error for run in runs]


def run_training(
    cfg: RunConfig,
    train: LabeledDataset,
    test: LabeledDataset,
    on_round=None,
) -> list:
    """Full training loop, ``train_lockstep`` of one run; returns its RoundMetrics.

    On divergence, raises DivergenceError with the completed metrics prefix
    attached.
    """
    (out,) = train_lockstep([cfg], train, test, on_round)
    if isinstance(out, DivergenceError):
        raise out
    return out
