"""Experiment harness: config parsing, runs, sweeps, and reporting.

Config files are flat ``key = value`` text with dotted sections
(``model.kind``, ``data.spread``, ``grid.fedprox.lambda``). A document
containing ``methods``/``seeds``/``grid.*``/``partitions`` keys describes
a sweep; otherwise a single run.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import IID, gen_blobs, split_train_test
from .engine import (
    DATA_ROUND,
    SERVER_CHANNEL,
    SPLIT_ROUND,
    RunConfig,
    derive_stream,
    run_training,
)
from .errors import ConfigError, DivergenceError, ParseError
from .methods import METHOD_NAMES, METHODS
from .models import ModelSpec

METRICS_FIELDS = ("round", "sampled", "loss", "top1", "dt", "grad_evals", "upd_norm")
RUNS_HEADER = (
    "method,hparams,partition,seed,best_top1,best_round,"
    "time_per_round,grad_evals_per_round,status"
)
SWEEP_HEADER = (
    "method,hparams,partition,best_top1,best_round,"
    "time_per_round,grad_evals_per_round,status"
)

REQUIRED_RUN_KEYS = ("method", "rounds", "seed")
REQUIRED_SWEEP_KEYS = ("methods", "rounds", "seeds")

_INT_KEYS = {
    "n_clients",
    "sample_size",
    "rounds",
    "local_epochs",
    "batch_size",
    "seed",
    "eval_every",
    "model.input_dim",
    "model.num_classes",
    "model.hidden_dim",
    "data.per_class",
}
_HPARAM_KEYS = frozenset().union(*(m.hparams for m in METHODS.values()))
_FLOAT_KEYS = {"client_lr", "alpha", "data.spread", "data.test_fraction"} | _HPARAM_KEYS
_STR_KEYS = {"method", "partition", "model.kind", "model.activation"}
_BOOL_KEYS = {"weighted_avg"}
_SWEEP_KEYS = {"methods", "partitions", "seeds"}


@dataclass
class DataParams:
    """Synthetic blob generation knobs; class count and dim follow the model."""

    per_class: int = 240
    spread: float = 0.6
    test_fraction: float = 1.0 / 6.0


@dataclass
class ExperimentConfig:
    run: RunConfig
    data: DataParams = field(default_factory=DataParams)


@dataclass
class SweepSpec:
    base: ExperimentConfig
    methods: list
    grid: dict  # method -> {hparam key -> [values]}
    partitions: list  # list of (partition, alpha)
    seeds: list


@dataclass
class SummaryRow:
    method: str
    hparams: str
    partition: str
    best_top1: float
    best_round: int
    mean_time_per_round: float
    mean_grad_evals_per_round: float
    status: str
    seed: int | None = None


def _split_pairs(text: str):
    pairs = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in pairs:
            raise ParseError("duplicate key", key=key, line=lineno)
        pairs[key] = val
        lines[key] = lineno
    return pairs, lines


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _no_repeats(labels, key: str, lineno: int):
    """Reject a sweep list that names one value twice.

    Labels are compared as they appear in run directory names and hparams
    labels, so two values that print alike would also collide there.
    """
    seen = set()
    for label in labels:
        if label in seen:
            raise ParseError(f"duplicate value '{label}'", key=key, line=lineno)
        seen.add(label)


def _coerce(key: str, val: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(val)
        if key in _FLOAT_KEYS:
            return _finite(val)
        if key in _BOOL_KEYS:
            if val.lower() in ("true", "1", "yes"):
                return True
            if val.lower() in ("false", "0", "no"):
                return False
            raise ValueError(val)
        return val
    except ValueError:
        raise ParseError(f"bad value '{val}'", key=key, line=lineno) from None


def _parse_partition_token(token: str, key: str, lineno: int):
    if token == IID:
        return (IID, 0.0)
    if token.startswith("dirichlet"):
        alpha = 0.0
        if ":" in token:
            try:
                alpha = _finite(token.split(":", 1)[1])
            except ValueError:
                raise ParseError(f"bad alpha in '{token}'", key=key, line=lineno) from None
        return ("dirichlet", alpha)
    raise ParseError(f"unknown partition '{token}'", key=key, line=lineno)


def _build_run(pairs, lines, method_key="method"):
    method = pairs.get(method_key)
    model = ModelSpec(
        kind=pairs.get("model.kind", "linear"),
        input_dim=pairs.get("model.input_dim", 32),
        num_classes=pairs.get("model.num_classes", 10),
        hidden_dim=pairs.get("model.hidden_dim", 16),
        activation=pairs.get("model.activation", "relu"),
    )
    hparams = {k: pairs[k] for k in _HPARAM_KEYS if k in pairs}
    cfg = RunConfig(
        method=method,
        model=model,
        n_clients=pairs.get("n_clients", 100),
        sample_size=pairs.get("sample_size", 10),
        rounds=pairs.get("rounds", 100),
        local_epochs=pairs.get("local_epochs", 2),
        batch_size=pairs.get("batch_size", 32),
        client_lr=pairs.get("client_lr", 0.05),
        client_hparams=hparams,
        partition=pairs.get("partition", "dirichlet"),
        alpha=pairs.get("alpha", 0.0),
        seed=pairs.get("seed", 0),
        eval_every=pairs.get("eval_every", 10),
        weighted_avg=pairs.get("weighted_avg", False),
    )
    data = DataParams(
        per_class=pairs.get("data.per_class", 240),
        spread=pairs.get("data.spread", 0.6),
        test_fraction=pairs.get("data.test_fraction", 1.0 / 6.0),
    )
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ParseError(str(exc), key=method_key, line=lines.get(method_key)) from exc
    return ExperimentConfig(cfg, data)


def parse_config(text: str):
    """Parse a run or sweep document; unknown keys are rejected."""
    raw_pairs, lines = _split_pairs(text)
    is_sweep = any(
        k in _SWEEP_KEYS or k.startswith("grid.") for k in raw_pairs
    )
    required = REQUIRED_SWEEP_KEYS if is_sweep else REQUIRED_RUN_KEYS
    missing = [k for k in required if k not in raw_pairs]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")

    known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOOL_KEYS
    pairs = {}
    for key, val in raw_pairs.items():
        if key in _SWEEP_KEYS or key.startswith("grid."):
            if not is_sweep:
                raise ParseError("sweep key in run config", key=key, line=lines[key])
            pairs[key] = val
        elif key in known:
            pairs[key] = _coerce(key, val, lines[key])
        else:
            raise ParseError("unknown key", key=key, line=lines[key])

    if not is_sweep:
        return _build_run(pairs, lines)

    methods = [m.strip() for m in pairs["methods"].split(",") if m.strip()]
    for m in methods:
        if m not in METHOD_NAMES:
            raise ParseError(f"unknown method '{m}'", key="methods", line=lines["methods"])
    _no_repeats(methods, "methods", lines["methods"])
    try:
        seeds = [int(s) for s in pairs["seeds"].split(",") if s.strip()]
    except ValueError:
        raise ParseError("bad seed list", key="seeds", line=lines["seeds"]) from None
    _no_repeats(seeds, "seeds", lines["seeds"])
    partitions = [
        _parse_partition_token(t.strip(), "partitions", lines.get("partitions"))
        for t in pairs.get("partitions", "iid").split(",")
        if t.strip()
    ]
    _no_repeats(
        (IID if p == IID else f"dirichlet:{a:g}" for p, a in partitions),
        "partitions",
        lines.get("partitions"),
    )
    grid = {}
    for key, val in pairs.items():
        if not key.startswith("grid."):
            continue
        parts = key.split(".")
        if len(parts) != 3:
            raise ParseError("expected grid.<method>.<hparam>", key=key, line=lines[key])
        _, gm, gk = parts
        if gm not in methods:
            raise ParseError(f"grid method '{gm}' not in methods", key=key, line=lines[key])
        if gk not in METHODS[gm].hparams:
            raise ParseError(f"hyperparameter '{gk}' illegal for {gm}", key=key, line=lines[key])
        try:
            values = [_finite(v) for v in val.split(",") if v.strip()]
        except ValueError:
            raise ParseError("bad grid values", key=key, line=lines[key]) from None
        _no_repeats((f"{v:g}" for v in values), key, lines[key])
        grid.setdefault(gm, {})[gk] = values

    base_pairs = dict(pairs)
    for k in list(base_pairs):
        if k in _SWEEP_KEYS or k.startswith("grid."):
            del base_pairs[k]
    base_pairs.setdefault("method", methods[0])
    base_pairs.setdefault("seed", seeds[0])
    base = _build_run(base_pairs, lines)
    return SweepSpec(base=base, methods=methods, grid=grid, partitions=partitions, seeds=seeds)


def _hparams_label(cfg: RunConfig) -> str:
    hp = cfg.client_hparams
    if not hp:
        return "-"
    return ";".join(f"{k}={hp[k]:g}" for k in sorted(hp))


def _partition_label(cfg: RunConfig) -> str:
    if cfg.partition == IID:
        return IID
    return f"dirichlet({cfg.alpha:g})"


def make_dataset(exp: ExperimentConfig):
    """Synthesize and split the blob dataset for this experiment's seed."""
    model = exp.run.model
    full = gen_blobs(
        model.num_classes,
        model.input_dim,
        exp.data.per_class,
        exp.data.spread,
        derive_stream(exp.run.seed, DATA_ROUND, SERVER_CHANNEL),
    )
    return split_train_test(
        full, exp.data.test_fraction, derive_stream(exp.run.seed, SPLIT_ROUND, SERVER_CHANNEL)
    )


def _metrics_record(m) -> dict:
    """One RoundMetrics as a metrics.jsonl record."""
    return {
        "round": m.round,
        "sampled": m.sampled_clients,
        "loss": m.mean_train_loss,
        "top1": m.test_top1,
        "dt": m.wall_time_seconds,
        "grad_evals": m.grad_evals,
        "upd_norm": m.update_norm,
    }


def serialize_config(exp: ExperimentConfig) -> str:
    cfg = exp.run
    out = {
        "method": cfg.method,
        "n_clients": cfg.n_clients,
        "sample_size": cfg.sample_size,
        "rounds": cfg.rounds,
        "local_epochs": cfg.local_epochs,
        "batch_size": cfg.batch_size,
        "client_lr": cfg.client_lr,
        "partition": cfg.partition,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
        "weighted_avg": cfg.weighted_avg,
        "model.kind": cfg.model.kind,
        "model.input_dim": cfg.model.input_dim,
        "model.num_classes": cfg.model.num_classes,
        "model.hidden_dim": cfg.model.hidden_dim,
        "model.activation": cfg.model.activation,
        "data.per_class": exp.data.per_class,
        "data.spread": exp.data.spread,
        "data.test_fraction": exp.data.test_fraction,
    }
    out.update(cfg.client_hparams)
    return "".join(f"{k} = {v}\n" for k, v in sorted(out.items()))


def _best_of(records):
    """(best_top1, first round attaining it) over evaluated rounds."""
    evaluated = [(r["round"], r["top1"]) for r in records if r["top1"] is not None]
    if not evaluated:
        raise ConfigError("metrics contain no evaluated rounds")
    best = max(t for _, t in evaluated)
    best_round = min(r for r, t in evaluated if t == best)
    return best, best_round


def _mean(records, key) -> float:
    return float(np.mean([r[key] for r in records])) if records else math.nan


def _summary_row(cfg: RunConfig | None, records, status: str) -> SummaryRow:
    """One runs.csv row from metrics.jsonl records; ``cfg`` is None if unknown.

    A diverged run reports the best accuracy of its completed prefix (nan if
    none was evaluated) and, as its round, the round that failed.
    """
    try:
        best, best_round = _best_of(records)
    except ConfigError:
        if status != "diverged":
            raise
        best = math.nan
    if status == "diverged":
        best_round = len(records)  # metrics stop just before the failed round
    return SummaryRow(
        method=cfg.method if cfg else "unknown",
        hparams=_hparams_label(cfg) if cfg else "-",
        partition=_partition_label(cfg) if cfg else "-",
        best_top1=best,
        best_round=best_round,
        mean_time_per_round=_mean(records, "dt"),
        mean_grad_evals_per_round=_mean(records, "grad_evals"),
        status=status,
        seed=cfg.seed if cfg else None,
    )


def run_experiment(exp: ExperimentConfig, out_dir):
    """Run one experiment; write metrics.jsonl, config.txt, summary.csv.

    Divergence is recorded in the summary row, not raised.
    """
    os.makedirs(out_dir, exist_ok=True)
    train, test = make_dataset(exp)
    status = "completed"
    try:
        rounds = run_training(exp.run, train, test)
    except DivergenceError as exc:
        rounds = exc.metrics
        status = "diverged"
    records = [_metrics_record(m) for m in rounds]

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(exp))

    row = _summary_row(exp.run, records, status)
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(RUNS_HEADER + "\n")
        fh.write(_row_csv(row, with_seed=True) + "\n")
    return metrics_path, row


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6g}"
    return str(x)


def _row_csv(row: SummaryRow, with_seed: bool) -> str:
    fields = [row.method, row.hparams, row.partition]
    if with_seed:
        fields.append(str(row.seed))
    fields += [
        _fmt(row.best_top1),
        str(row.best_round),
        _fmt(row.mean_time_per_round),
        _fmt(row.mean_grad_evals_per_round),
        row.status,
    ]
    return ",".join(fields)


def expand_cells(spec: SweepSpec):
    """Cross product of methods x grid values x partitions."""
    cells = []
    for method in spec.methods:
        grid = spec.grid.get(method, {})
        combos = [{}]
        for key in sorted(grid):
            combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
        for combo in combos:
            for part, alpha in spec.partitions:
                cells.append((method, combo, part, alpha))
    return cells


def _cell_dir(method, combo, part, alpha, seed) -> str:
    tag = method
    for k in sorted(combo):
        tag += f"_{k}{combo[k]:g}"
    tag += f"_{part}" + (f"{alpha:g}" if part != IID else "")
    return f"{tag}_s{seed}"


def _cell_cfg(spec: SweepSpec, method, combo, part, alpha, seed) -> ExperimentConfig:
    cfg = replace(
        spec.base.run,
        method=method,
        client_hparams=dict(combo),
        partition=part,
        alpha=alpha,
        seed=seed,
    )
    cfg.validate()
    return ExperimentConfig(cfg, spec.base.data)


_METHOD_ORDER = {m: i for i, m in enumerate(METHOD_NAMES)}


def _cell_sort_key(cell):
    method, combo, part, alpha = cell
    values = tuple(-combo[k] for k in sorted(combo))  # descending, Table-2 style
    return (_METHOD_ORDER[method], values, 0 if part == IID else 1, alpha)


def run_sweep(spec: SweepSpec, out_dir):
    """Execute the full cross product and write runs.csv + sweep.csv."""
    os.makedirs(out_dir, exist_ok=True)
    cells = sorted(expand_cells(spec), key=_cell_sort_key)
    runs = len(cells) * len(spec.seeds)
    print(f"sweep: {len(cells)} cells x {len(spec.seeds)} seeds = {runs} runs")

    by_tag = {}
    for method, combo, part, alpha in cells:
        for seed in spec.seeds:
            tag = _cell_dir(method, combo, part, alpha, seed)
            exp = _cell_cfg(spec, method, combo, part, alpha, seed)
            _, by_tag[tag] = run_experiment(exp, os.path.join(out_dir, "runs", tag))

    def cell_rows(cell):
        method, combo, part, alpha = cell
        return [by_tag[_cell_dir(method, combo, part, alpha, s)] for s in spec.seeds]

    run_rows = [row for cell in cells for row in cell_rows(cell)]
    with open(os.path.join(out_dir, "runs.csv"), "w") as fh:
        fh.write(RUNS_HEADER + "\n")
        for row in run_rows:
            fh.write(_row_csv(row, with_seed=True) + "\n")

    sweep_rows = []
    for cell in cells:
        rows = cell_rows(cell)
        completed = [r for r in rows if r.status == "completed"]
        status = "completed" if len(completed) == len(rows) else "diverged"
        agg = SummaryRow(
            method=rows[0].method,
            hparams=rows[0].hparams,
            partition=rows[0].partition,
            best_top1=float(np.mean([r.best_top1 for r in completed]))
            if completed
            else math.nan,
            best_round=int(round(np.mean([r.best_round for r in completed])))
            if completed
            else -1,
            mean_time_per_round=float(np.mean([r.mean_time_per_round for r in rows])),
            mean_grad_evals_per_round=float(
                np.mean([r.mean_grad_evals_per_round for r in rows])
            ),
            status=status,
        )
        sweep_rows.append(agg)
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in sweep_rows:
            fh.write(_row_csv(row, with_seed=False) + "\n")
    return sweep_rows, run_rows


def _read_sidecar(metrics_path):
    cfg_path = os.path.join(os.path.dirname(metrics_path), "config.txt")
    if not os.path.exists(cfg_path):
        return None
    with open(cfg_path) as fh:
        return parse_config(fh.read())


def read_metrics(path):
    """Load one metrics.jsonl file into a list of record dicts."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: bad metrics line") from exc
            if any(k not in rec for k in METRICS_FIELDS):
                raise ConfigError(f"{path}:{lineno}: missing metrics fields")
            records.append(rec)
    return records


def summarize(metrics_files, errors: list | None = None):
    """Best accuracy and first round attaining it, per metrics file.

    The status comes from the run directory: with a ``config.txt`` sidecar a
    run is diverged when its metrics hold fewer records than ``rounds``
    (metrics are written only after training ends); without one it is
    ``unknown``. Malformed files are skipped; their errors are appended to
    ``errors``.
    """
    rows = []
    for path in metrics_files:
        try:
            records = read_metrics(path)
            exp = _read_sidecar(path)
            cfg = exp.run if exp is not None else None
            if cfg is None:
                status = "unknown"
            elif len(records) < cfg.rounds:
                status = "diverged"
            else:
                status = "completed"
            rows.append(_summary_row(cfg, records, status))
        except (ConfigError, OSError) as exc:
            if errors is None:
                raise
            errors.append((path, exc))
    return rows


def export_curves(metrics_files, out_path, last: int | None = None):
    """Long-format (run_id, round, top1) table for plotting tools."""
    if not metrics_files:
        raise ConfigError("need at least one metrics file")
    rows = []
    for path in metrics_files:
        records = read_metrics(path)
        run_id = os.path.basename(os.path.dirname(path)) or os.path.basename(path)
        pts = [(r["round"], r["top1"]) for r in records if r["top1"] is not None]
        if last is not None:
            max_round = max(r["round"] for r in records)
            pts = [(rd, t) for rd, t in pts if rd > max_round - last]
        rows.extend((run_id, rd, t) for rd, t in pts)
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(out_path, "w") as fh:
        fh.write("run_id,round,top1\n")
        for run_id, rd, t in rows:
            fh.write(f"{run_id},{rd},{_fmt(float(t))}\n")
    return rows
