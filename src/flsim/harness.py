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
from dataclasses import dataclass

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
from .methods import METHOD_NAMES, METHODS, HyperParams
from .models import ModelSpec

# metrics.jsonl key -> RoundMetrics attribute, in file order
METRICS_FIELDS = {
    "round": "round",
    "sampled": "sampled_clients",
    "loss": "mean_train_loss",
    "top1": "test_top1",
    "dt": "wall_time_seconds",
    "grad_evals": "grad_evals",
    "upd_norm": "update_norm",
}
RUNS_HEADER = (
    "method,hparams,partition,seed,best_top1,best_round,"
    "time_per_round,grad_evals_per_round,status"
)
SWEEP_HEADER = RUNS_HEADER.replace("seed,", "")  # per-cell means over the seeds

REQUIRED_SWEEP_KEYS = ("methods", "rounds", "seeds")

# Config key -> (type, value when absent; None if a run requires it).
# "model.*" keys fill ModelSpec, "data.*" keys fill DataParams and bare keys
# fill RunConfig. These defaults are the config file's; the RunConfig and
# ModelSpec API defaults differ.
_KEYS = {
    "method": (str, None),
    "n_clients": (int, 100),
    "sample_size": (int, 10),
    "rounds": (int, None),
    "local_epochs": (int, 2),
    "batch_size": (int, 32),
    "client_lr": (float, 0.05),
    "partition": (str, "dirichlet"),
    "alpha": (float, 0.0),
    "seed": (int, None),
    "eval_every": (int, 10),
    "weighted_avg": (bool, False),
    "model.kind": (str, "linear"),
    "model.input_dim": (int, 32),
    "model.num_classes": (int, 10),
    "model.hidden_dim": (int, 16),
    "model.activation": (str, "relu"),
    "data.per_class": (int, 240),
    "data.spread": (float, 0.6),
    "data.test_fraction": (float, 1.0 / 6.0),
}
REQUIRED_RUN_KEYS = tuple(k for k, (_, default) in _KEYS.items() if default is None)
# method hyperparameters: floats; absent ones take their HyperParams default
_HPARAM_KEYS = frozenset().union(*(m.hparams for m in METHODS.values()))
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_SWEEP_KEYS = {"methods", "partitions", "seeds"}
# run keys a sweep sets per run -> the sweep key that sets them
_PER_RUN_KEYS = {
    "method": "methods",
    "seed": "seeds",
    "partition": "partitions",
    "alpha": "partitions = dirichlet:<alpha>",
}
_METHOD_ORDER = {m: i for i, m in enumerate(METHOD_NAMES)}


@dataclass
class DataParams:
    """Synthetic blob generation knobs; class count and dim follow the model."""

    per_class: int
    spread: float
    test_fraction: float


@dataclass
class ExperimentConfig:
    run: RunConfig
    data: DataParams


@dataclass
class SweepSpec:
    """A sweep's validated runs: per cell, in table order, one config per seed."""

    cells: list  # list of [ExperimentConfig for each seed]

    @property
    def base(self) -> ExperimentConfig:
        """The first run: the first cell under the first listed seed."""
        return self.cells[0][0]


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


def _sweep_list(text: str, key: str, lineno: int) -> list:
    """The items of a comma-separated sweep list; an empty item is an error."""
    items = [t.strip() for t in text.split(",")]
    if not all(items):
        raise ParseError("empty list or list item", key=key, line=lineno)
    return items


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
    kind = _KEYS[key][0] if key in _KEYS else float
    try:
        if kind is bool:
            return _BOOLS[val.lower()]
        return _finite(val) if kind is float else kind(val)
    except (KeyError, ValueError):
        raise ParseError(f"bad value '{val}'", key=key, line=lineno) from None


def _parse_partition_token(token: str, key: str, lineno: int):
    if token in (IID, "dirichlet"):
        return (token, 0.0)
    name, _, alpha = token.partition(":")
    if name != "dirichlet":
        raise ParseError(
            f"unknown partition '{token}'; use iid, dirichlet or dirichlet:<alpha>",
            key=key,
            line=lineno,
        )
    try:
        return (name, _finite(alpha))
    except ValueError:
        raise ParseError(f"bad alpha in '{token}'", key=key, line=lineno) from None


def _build_run(pairs, lines, blame="method"):
    """One validated run from coerced pairs; absent keys take their defaults.

    A config the run rejects is a ParseError at the ``blame`` key's line.
    """
    fields = {"": {}, "model": {}, "data": {}}
    for key, (_, default) in _KEYS.items():
        section, _, name = key.rpartition(".")
        fields[section][name] = pairs.get(key, default)
    cfg = RunConfig(
        model=ModelSpec(**fields["model"]),
        client_hparams={k: pairs[k] for k in _HPARAM_KEYS if k in pairs},
        **fields[""],
    )
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ParseError(str(exc), key=blame, line=lines.get(blame)) from exc
    return ExperimentConfig(cfg, DataParams(**fields["data"]))


def _cell_order(cell):
    """Method table order, hparam values descending (Table-2 style), iid first."""
    cfg = cell[0].run
    hp = cfg.client_hparams
    values = tuple(-hp[k] for k in sorted(hp))
    return (_METHOD_ORDER[cfg.method], values, cfg.partition != IID, cfg.alpha)


def parse_config(text: str):
    """Parse a run or sweep document; unknown keys are rejected.

    A sweep is returned as the validated config of every run it names.
    """
    raw_pairs, lines = _split_pairs(text)
    is_sweep = any(
        k in _SWEEP_KEYS or k.startswith("grid.") for k in raw_pairs
    )
    required = REQUIRED_SWEEP_KEYS if is_sweep else REQUIRED_RUN_KEYS
    missing = [k for k in required if k not in raw_pairs]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")

    pairs = {}
    for key, val in raw_pairs.items():
        if key in _SWEEP_KEYS or key.startswith("grid."):
            if not is_sweep:
                raise ParseError("sweep key in run config", key=key, line=lines[key])
        elif is_sweep and (key in _PER_RUN_KEYS or key in _HPARAM_KEYS):
            use = _PER_RUN_KEYS.get(key, f"grid.<method>.{key}")
            raise ParseError(f"set per run in a sweep; use {use}", key=key, line=lines[key])
        elif key in _KEYS or key in _HPARAM_KEYS:
            pairs[key] = _coerce(key, val, lines[key])
        else:
            raise ParseError("unknown key", key=key, line=lines[key])

    if not is_sweep:
        return _build_run(pairs, lines)

    methods = _sweep_list(raw_pairs["methods"], "methods", lines["methods"])
    for m in methods:
        if m not in METHOD_NAMES:
            raise ParseError(f"unknown method '{m}'", key="methods", line=lines["methods"])
    _no_repeats(methods, "methods", lines["methods"])
    try:
        seeds = [int(s) for s in _sweep_list(raw_pairs["seeds"], "seeds", lines["seeds"])]
    except ValueError:
        raise ParseError("bad seed list", key="seeds", line=lines["seeds"]) from None
    _no_repeats(seeds, "seeds", lines["seeds"])
    part_line = lines.get("partitions")
    partitions = [
        _parse_partition_token(t, "partitions", part_line)
        for t in _sweep_list(raw_pairs.get("partitions", IID), "partitions", part_line)
    ]
    _no_repeats(
        (IID if p == IID else f"dirichlet:{a:g}" for p, a in partitions),
        "partitions",
        part_line,
    )
    combos = {m: [{}] for m in methods}  # method -> grid points, one dict each
    for key, val in raw_pairs.items():
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
        items = _sweep_list(val, key, lines[key])
        try:
            values = [_finite(v) for v in items]
            for v in values:
                HyperParams.for_method(gm, {gk: v})
        except ValueError:
            raise ParseError("bad grid values", key=key, line=lines[key]) from None
        except ConfigError as exc:
            raise ParseError(str(exc), key=key, line=lines[key]) from exc
        _no_repeats((f"{v:g}" for v in values), key, lines[key])
        combos[gm] = [dict(c, **{gk: v}) for c in combos[gm] for v in values]

    cells = []
    for method in methods:
        for combo in combos[method]:
            for part, alpha in partitions:
                cell = dict(pairs, **combo, method=method, partition=part, alpha=alpha)
                cells.append([_build_run(dict(cell, seed=s), lines, "methods") for s in seeds])
    return SweepSpec(sorted(cells, key=_cell_order))


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


def serialize_config(exp: ExperimentConfig) -> str:
    """Every config key with its value, one ``key = value`` line each, sorted."""
    sections = {"": exp.run, "model": exp.run.model, "data": exp.data}
    out = dict(exp.run.client_hparams)
    for key in _KEYS:
        section, _, name = key.rpartition(".")
        out[key] = getattr(sections[section], name)
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
    records = [{key: getattr(m, attr) for key, attr in METRICS_FIELDS.items()} for m in rounds]

    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(exp))

    row = _summary_row(exp.run, records, status)
    _write_rows(os.path.join(out_dir, "summary.csv"), RUNS_HEADER, [row], with_seed=True)
    return metrics_path, row


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6g}"
    return str(x)


def _row_csv(row: SummaryRow, with_seed: bool) -> str:
    fields = [row.method, row.hparams, row.partition]
    if with_seed:
        fields.append("-" if row.seed is None else str(row.seed))
    fields += [
        _fmt(row.best_top1),
        str(row.best_round),
        _fmt(row.mean_time_per_round),
        _fmt(row.mean_grad_evals_per_round),
        row.status,
    ]
    return ",".join(fields)


def _run_dir(cfg: RunConfig) -> str:
    hp = cfg.client_hparams
    tag = cfg.method + "".join(f"_{k}{hp[k]:g}" for k in sorted(hp))
    tag += f"_{cfg.partition}" + (f"{cfg.alpha:g}" if cfg.partition != IID else "")
    return f"{tag}_s{cfg.seed}"


def _cell_row(rows) -> SummaryRow:
    """A sweep.csv row: the means over one cell's seeds."""
    completed = [r for r in rows if r.status == "completed"]
    return SummaryRow(
        method=rows[0].method,
        hparams=rows[0].hparams,
        partition=rows[0].partition,
        best_top1=float(np.mean([r.best_top1 for r in completed])) if completed else math.nan,
        best_round=int(round(np.mean([r.best_round for r in completed])))
        if completed
        else -1,
        mean_time_per_round=float(np.mean([r.mean_time_per_round for r in rows])),
        mean_grad_evals_per_round=float(np.mean([r.mean_grad_evals_per_round for r in rows])),
        status="completed" if len(completed) == len(rows) else "diverged",
    )


def _write_rows(path, header, rows, with_seed):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(_row_csv(row, with_seed) + "\n")


def run_sweep(spec: SweepSpec, out_dir):
    """Run every (cell, seed) of the sweep and write runs.csv + sweep.csv."""
    os.makedirs(out_dir, exist_ok=True)
    seeds = len(spec.cells[0])
    print(f"sweep: {len(spec.cells)} cells x {seeds} seeds = {len(spec.cells) * seeds} runs")
    cell_rows = [
        [run_experiment(exp, os.path.join(out_dir, "runs", _run_dir(exp.run)))[1] for exp in cell]
        for cell in spec.cells
    ]
    run_rows = [row for rows in cell_rows for row in rows]
    sweep_rows = [_cell_row(rows) for rows in cell_rows]
    _write_rows(os.path.join(out_dir, "runs.csv"), RUNS_HEADER, run_rows, with_seed=True)
    _write_rows(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER, sweep_rows, with_seed=False)
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
