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
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import IID, MAX_DATA_VALUES, MAX_SPREAD, gen_blobs, split_train_test
from .engine import (
    DATA_ROUND,
    SERVER_CHANNEL,
    SPLIT_ROUND,
    RunConfig,
    derive_stream,
    plan_key,
    train_lockstep,
)
from .errors import ConfigError, DivergenceError, ParseError
from .methods import HPARAMS, METHOD_NAMES
from .models import ModelSpec


def _is_number(v, finite=False) -> bool:
    """A JSON number a float64 holds; a JSON true/false loads as bool, not int."""
    if type(v) is int:
        return abs(v) <= sys.float_info.max
    return type(v) is float and (not finite or math.isfinite(v))


def _is_nonneg_int(v) -> bool:
    return type(v) is int and _is_number(v) and v >= 0


# metrics.jsonl key -> (RoundMetrics attribute, check read_metrics applies to
# the value), in file order. loss and upd_norm may be non-finite: files
# written before overflowing update norms became divergences hold Infinity.
METRICS_FIELDS = {
    "round": ("round", _is_nonneg_int),
    "sampled": ("sampled_clients", lambda v: type(v) is list and all(map(_is_nonneg_int, v))),
    "loss": ("mean_train_loss", _is_number),
    "top1": ("test_top1", lambda v: v is None or (_is_number(v, finite=True) and 0 <= v <= 1)),
    "dt": ("wall_time_seconds", lambda v: _is_number(v, finite=True) and v >= 0),
    "grad_evals": ("grad_evals", _is_nonneg_int),
    "upd_norm": ("update_norm", _is_number),
}
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
# method hyperparameters: floats; absent ones take their methods.HPARAMS default
_HPARAM_KEYS = frozenset(HPARAMS)
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# sweep list key -> the run key its items set, in the order the lists are read;
# a grid key grid.<method>.<hparam> is the axis for <hparam>, in <method>'s cells
_AXES = {"methods": "method", "seeds": "seed", "partitions": "partition"}
# run keys a sweep sets per run -> the sweep key that sets them
_PER_RUN_KEYS = {run_key: key for key, run_key in _AXES.items()}
_PER_RUN_KEYS["alpha"] = "partitions = dirichlet:<alpha>"
_METHOD_ORDER = {m: i for i, m in enumerate(METHOD_NAMES)}


@dataclass
class DataParams:
    """Synthetic blob generation knobs; class count and dim follow the model."""

    per_class: int
    spread: float
    test_fraction: float

    def validate(self, model: ModelSpec):
        """Reject what make_dataset would, or a dataset past MAX_DATA_VALUES
        feature values; one row of a class leaves it none to train on."""
        spread_ok = 0 <= self.spread <= MAX_SPREAD
        size_ok = self.per_class * model.num_classes * model.input_dim <= MAX_DATA_VALUES
        if self.per_class < 2 or not spread_ok or not size_ok or not 0 < self.test_fraction < 1:
            bounds = f"data.per_class >= 2, 0 <= spread <= {MAX_SPREAD:g}, 0 < test_fraction < 1"
            size = f"data.per_class x model.num_classes x model.input_dim <= {MAX_DATA_VALUES}"
            raise ConfigError(f"need {bounds}, {size}")


@dataclass
class ExperimentConfig:
    run: RunConfig
    data: DataParams


@dataclass
class SweepSpec:
    """A sweep's runs, checked when built; cells in table order, runs in listed-seed order.
    A cell is a sweep.csv row's (method, hparams, partition): one config, distinct seeds."""

    runs: list  # of ExperimentConfig

    def __post_init__(self):
        if not self.runs or not all(isinstance(exp, ExperimentConfig) for exp in self.runs):
            raise ConfigError("a sweep needs at least one run, and every run an ExperimentConfig")
        names, cells = set(), {}
        for exp in self.runs:
            _check_readback(exp)
            name = _run_dir(exp.run)
            if name in names:  # values that print alike share a run directory
                raise ParseError(f"duplicate value: two runs would write runs/{name}")
            names.add(name)
            first = cells.setdefault(_labels(exp.run)[:3], exp)
            if replace(exp, run=replace(exp.run, seed=first.run.seed)) != first:
                pair = f"runs/{_run_dir(first.run)} and runs/{name}"
                raise ConfigError(f"{pair} share a cell but differ in more than the seed")

    @property
    def base(self) -> ExperimentConfig:
        """The first run: the first cell under the first listed seed."""
        return self.runs[0]


class SummaryRow(NamedTuple):
    """A runs.csv or summary.csv row, its fields the columns; sweep.csv has no seed."""

    method: str
    hparams: str
    partition: str
    seed: int | None
    best_top1: float
    best_round: int
    time_per_round: float
    grad_evals_per_round: float
    status: str


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


def _coerce(run_key: str, val: str, key: str, lineno: int):
    """``val`` read as a value of ``run_key``; a bad one is blamed on ``key``."""
    kind = _KEYS[run_key][0] if run_key in _KEYS else float
    try:
        if kind is bool:
            return _BOOLS[val.lower()]
        return _finite(val) if kind is float else kind(val)
    except (KeyError, ValueError):
        raise ParseError(f"bad value '{val}'", key=key, line=lineno) from None


def _axis(key: str, text: str, lineno: int, run_key: str) -> list:
    """The items of sweep list ``key``, each as the dict of run keys it sets."""
    items = [t.strip() for t in text.split(",")]
    if not all(items):
        raise ParseError("empty list or list item", key=key, line=lineno)
    if run_key != "partition":
        return [{run_key: _coerce(run_key, item, key, lineno)} for item in items]
    parts = []
    for item in items:
        name, colon, alpha = item.partition(":")
        if item != IID and name != "dirichlet":
            use = "use iid, dirichlet or dirichlet:<alpha>"
            raise ParseError(f"unknown partition '{item}'; {use}", key=key, line=lineno)
        try:
            parts.append({"partition": name, "alpha": _finite(alpha) if colon else 0.0})
        except ValueError:
            raise ParseError(f"bad alpha in '{item}'", key=key, line=lineno) from None
    return parts


def _build_run(pairs):
    """One validated run from coerced pairs; absent keys take their defaults.

    A run that fails validation is a ParseError naming its run directory.
    """
    fields = {"": {}, "model": {}, "data": {}}
    for key, (_, default) in _KEYS.items():
        section, _, name = key.rpartition(".")
        fields[section][name] = pairs.get(key, default)
    cfg = RunConfig(
        model=ModelSpec(**fields["model"]),
        client_hparams={k: v for k, v in pairs.items() if k in _HPARAM_KEYS},  # in document order
        **fields[""],
    )
    exp = ExperimentConfig(cfg, DataParams(**fields["data"]))
    try:
        cfg.validate()
        exp.data.validate(cfg.model)
    except ConfigError as exc:
        raise ParseError(f"{exc} (run {_run_dir(cfg)})") from exc
    return exp


def _cell_order(exp):
    """Method table order, hparam values descending (Table-2 style), iid first."""
    cfg = exp.run
    hp = cfg.client_hparams
    values = tuple(-hp[k] for k in sorted(hp))
    return (_METHOD_ORDER[cfg.method], values, cfg.partition != IID, cfg.alpha)


def parse_config(text: str):
    """Parse a run or sweep document; unknown keys are rejected.

    A sweep is returned as the validated config of every run it names.
    """
    raw_pairs, lines = _split_pairs(text)
    is_sweep = any(k in _AXES or k.startswith("grid.") for k in raw_pairs)
    required = REQUIRED_SWEEP_KEYS if is_sweep else REQUIRED_RUN_KEYS
    missing = [k for k in required if k not in raw_pairs]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")

    pairs = {}
    for key, val in raw_pairs.items():
        if is_sweep and (key in _PER_RUN_KEYS or key in _HPARAM_KEYS):
            use = _PER_RUN_KEYS.get(key, f"grid.<method>.{key}")
            raise ParseError(f"set per run in a sweep; use {use}", key=key, line=lines[key])
        elif key in _KEYS or key in _HPARAM_KEYS:
            pairs[key] = _coerce(key, val, key, lines[key])
        elif not (key in _AXES or key.startswith("grid.")):  # sweep lists are read below
            raise ParseError("unknown key", key=key, line=lines[key])

    if not is_sweep:
        return _build_run(pairs)

    # methods and seeds are required; partitions defaults to iid
    axes = {k: _axis(k, raw_pairs.get(k, IID), lines.get(k), rk) for k, rk in _AXES.items()}
    grid = {m["method"]: [{}] for m in axes["methods"]}  # method -> grid points, one dict each
    for key, val in raw_pairs.items():
        if not key.startswith("grid."):
            continue
        parts = key.split(".")
        if len(parts) != 3:
            raise ParseError("expected grid.<method>.<hparam>", key=key, line=lines[key])
        _, gm, gk = parts
        if gm not in grid:
            raise ParseError(f"grid method '{gm}' not in methods", key=key, line=lines[key])
        if gk not in _HPARAM_KEYS:  # one its method does not take fails as a run
            raise ParseError(f"unknown hyperparameter '{gk}'", key=key, line=lines[key])
        values = _axis(key, val, lines[key], gk)
        grid[gm] = [{**point, **value} for point in grid[gm] for value in values]

    runs = [_build_run({**pairs, **method, **point, **part, **seed})
            for method in axes["methods"] for point in grid[method["method"]]
            for part in axes["partitions"] for seed in axes["seeds"]]
    return SweepSpec(sorted(runs, key=_cell_order))  # stable: seeds keep their listed order


def _labels(cfg: RunConfig | None) -> tuple:
    """A run's method, hparams, partition and seed columns; None: no config.txt."""
    if cfg is None:
        return "unknown", "-", "-", None
    hp = cfg.client_hparams
    hparams = ";".join(f"{k}={hp[k]:g}" for k in sorted(hp)) or "-"
    partition = IID if cfg.partition == IID else f"dirichlet({cfg.alpha:g})"
    return cfg.method, hparams, partition, cfg.seed


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


def _config_pairs(exp: ExperimentConfig) -> dict:
    """Every config key of ``exp`` with its value."""
    sections = {"": exp.run, "model": exp.run.model, "data": exp.data}
    out = dict(exp.run.client_hparams)
    for key in _KEYS:
        section, _, name = key.rpartition(".")
        out[key] = getattr(sections[section], name)
    return out


def serialize_config(exp: ExperimentConfig) -> str:
    """Every config key with its value, one ``key = value`` line each, sorted."""
    return "".join(f"{k} = {v}\n" for k, v in sorted(_config_pairs(exp).items()))


def _check_readback(exp: ExperimentConfig):
    """Raise ConfigError, naming the key, unless config.txt would parse back as ``exp``."""
    try:
        back = parse_config(serialize_config(exp))
    except ParseError as exc:
        raise ConfigError(f"config.txt would not read back: {exc}") from exc
    if back != exp:  # such as the string "0.1" for 0.1
        ours, read = _config_pairs(exp), _config_pairs(back)
        bad = [k for k in sorted(ours | read) if ours.get(k) != read.get(k)]
        what = f"key: {bad[0]}" if bad else "a field with no config key"
        raise ConfigError(f"config.txt would not read back the config ({what})")


def _write_run(exp: ExperimentConfig, out_dir, rounds):
    """Write a run's metrics.jsonl, config.txt and summary.csv; ``rounds`` are
    its RoundMetrics, a diverged run's completed prefix. Returns the metrics
    path and the row ``summarize`` reads back from the run directory."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    with open(metrics_path, "w") as fh:
        for m in rounds:
            rec = {key: getattr(m, attr) for key, (attr, _) in METRICS_FIELDS.items()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(exp))
    (row,) = summarize([metrics_path])
    _write_rows(os.path.join(out_dir, "summary.csv"), [row])
    return metrics_path, row


def _run(exps, out_dirs):
    """Train every run, then ``_write_run`` each to its directory in ``out_dirs``.

    A seed's runs share one dataset (sweep cells differ only in method,
    hparams and partition), and those with one ``engine.plan_key`` train in
    lockstep on one plan a round; seeds go one after another, so one dataset
    is alive at a time. Nothing is written before every run has trained.
    """
    rounds = [None] * len(exps)
    for seed in dict.fromkeys(exp.run.seed for exp in exps):
        runs = [i for i, exp in enumerate(exps) if exp.run.seed == seed]
        data, groups = make_dataset(exps[runs[0]]), {}
        for i in runs:
            groups.setdefault(plan_key(exps[i].run), []).append(i)
        for group in groups.values():
            for i, out in zip(group, train_lockstep([exps[i].run for i in group], *data)):
                rounds[i] = out.metrics if isinstance(out, DivergenceError) else out
        del data  # before the next seed's dataset is made
    return [_write_run(*args) for args in zip(exps, out_dirs, rounds)]


def run_experiment(exp: ExperimentConfig, out_dir):
    """Run one experiment; write metrics.jsonl, config.txt, summary.csv.

    Returns the metrics path and the row ``summarize`` reads back from the
    run directory; divergence is recorded in that row, not raised. Nothing is
    written before the run has trained, so no ConfigError leaves a directory.
    """
    _check_readback(exp)
    return _run([exp], [out_dir])[0]


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.6g}"  # nan, -nan and np.float64 nan all print nan
    return str(x)


def format_rows(rows, with_seed=True) -> str:
    """The header, then one CSV line per row; sweep.csv's cell means have no seed."""
    names = [name for name in SummaryRow._fields if with_seed or name != "seed"]
    lines = [names] + [[_fmt(getattr(row, name)) for name in names] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _write_rows(path, rows, with_seed=True):
    with open(path, "w") as fh:
        fh.write(format_rows(rows, with_seed))


def _run_dir(cfg: RunConfig) -> str:
    hp = cfg.client_hparams
    tag = cfg.method + "".join(f"_{k}{hp[k]:g}" for k in sorted(hp))
    tag += f"_{cfg.partition}" + (f"{cfg.alpha:g}" if cfg.partition != IID else "")
    return f"{tag}_s{cfg.seed}"


def cell_means(run_rows) -> list:
    """sweep.csv: a row per (method, hparams, partition) cell of ``run_rows``,
    cells in the order they first appear, each with the means over its runs."""
    cells = {}
    for row in run_rows:
        cells.setdefault(row[:3], []).append(row)  # (method, hparams, partition)
    out = []
    for key, rows in cells.items():
        done = [r for r in rows if r.status == "completed"]
        out.append(SummaryRow(
            *key, seed=None,
            best_top1=float(np.mean([r.best_top1 for r in done])) if done else math.nan,
            best_round=int(round(np.mean([r.best_round for r in done]))) if done else -1,
            time_per_round=float(np.mean([r.time_per_round for r in rows])),
            grad_evals_per_round=float(np.mean([r.grad_evals_per_round for r in rows])),
            status="completed" if len(done) == len(rows) else "diverged",
        ))
    return out


def run_sweep(spec: SweepSpec, out_dir):
    """Run every run of the sweep and write runs.csv + sweep.csv.

    The runs were checked when ``spec`` was built, and they train and write
    as ``run_experiment``'s do: nothing is written before every run has
    trained, so no ConfigError leaves a directory.
    """
    counts = Counter(_labels(exp.run)[:3] for exp in spec.runs).values()  # runs per cell
    lo, hi = min(counts), max(counts)
    seeds = lo if lo == hi else f"{lo}-{hi}"  # a SweepSpec built in Python may differ
    print(f"sweep: {len(counts)} cells x {seeds} seeds = {len(spec.runs)} runs")
    run_dirs = [os.path.join(out_dir, "runs", _run_dir(exp.run)) for exp in spec.runs]
    run_rows = [row for _, row in _run(spec.runs, run_dirs)]
    sweep_rows = cell_means(run_rows)
    _write_rows(os.path.join(out_dir, "runs.csv"), run_rows)
    _write_rows(os.path.join(out_dir, "sweep.csv"), sweep_rows, with_seed=False)
    return sweep_rows, run_rows


def _read_sidecar(metrics_path):
    """The RunConfig in the ``config.txt`` beside a metrics file, or None."""
    cfg_path = os.path.join(os.path.dirname(metrics_path), "config.txt")
    if not os.path.exists(cfg_path):
        return None
    with open(cfg_path, errors="replace") as fh:  # a bad byte fails parsing
        try:
            exp = parse_config(fh.read())
        except ConfigError as exc:
            raise ConfigError(f"{cfg_path}: {exc}") from exc
    if not isinstance(exp, ExperimentConfig):
        raise ConfigError(f"{cfg_path}: describes a sweep, not a single run")
    return exp.run


def read_metrics(path):
    """Load one metrics.jsonl file into a list of record dicts, each checked."""
    records = []
    with open(path, errors="replace") as fh:  # a bad byte fails its line
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: bad metrics line") from exc
            if type(rec) is not dict:
                raise ConfigError(f"{path}:{lineno}: metrics line is not a JSON object")
            for key, (_, ok) in METRICS_FIELDS.items():
                if key not in rec or not ok(rec[key]):
                    raise ConfigError(f"{path}:{lineno}: missing or bad metrics field '{key}'")
            records.append(rec)
    return records


def _mean(records, key) -> float:
    return float(np.mean([r[key] for r in records])) if records else math.nan


def summarize(metrics_files, errors: list | None = None):
    """One runs.csv row per metrics file, read back from its run directory.

    The row holds the best top-1, the first round attaining it, and the means
    per round. The status comes from the run directory: with a ``config.txt``
    sidecar a run is diverged when its metrics hold fewer records than
    ``rounds`` (metrics are written only after training ends); without one
    it is ``unknown``. A diverged run reports the best top-1 of its
    completed prefix (nan if none was evaluated) and, as its round, the
    round that failed. Malformed files are skipped; their errors, each
    naming the file at fault, are appended to ``errors``.
    """
    rows = []
    for path in metrics_files:
        try:
            records = read_metrics(path)
            cfg = _read_sidecar(path)
            evaluated = [(r["round"], r["top1"]) for r in records if r["top1"] is not None]
            best = max((t for _, t in evaluated), default=math.nan)
            best_round = min((r for r, t in evaluated if t == best), default=-1)
            if cfg is not None and len(records) < cfg.rounds:
                status, best_round = "diverged", len(records)
            elif not evaluated:
                raise ConfigError(f"{path}: metrics contain no evaluated rounds")
            else:
                status = "unknown" if cfg is None else "completed"
            means = _mean(records, "dt"), _mean(records, "grad_evals")
            rows.append(SummaryRow(*_labels(cfg), best, best_round, *means, status))
        except (ConfigError, OSError) as exc:
            if errors is None:
                raise
            errors.append((path, exc))
    return rows


def export_curves(metrics_files, out_path, last: int | None = None):
    """Long-format (run_id, round, top1) table for plotting tools."""
    if not metrics_files:
        raise ConfigError("need at least one metrics file")
    if last is not None and last < 1:
        raise ConfigError(f"last must be at least 1, not {last}")
    rows, seen = [], {}  # seen: run id -> the metrics file it came from
    for path in metrics_files:
        run_id = os.path.basename(os.path.dirname(path)) or os.path.basename(path)
        if run_id in seen:
            raise ConfigError(f"{seen[run_id]} and {path} both have run id '{run_id}'")
        seen[run_id] = path
        records = read_metrics(path)
        pts = [(r["round"], r["top1"]) for r in records if r["top1"] is not None]
        if last is not None and records:  # a run that diverged in round 0 has none
            max_round = max(r["round"] for r in records)
            pts = [(rd, t) for rd, t in pts if rd > max_round - last]
        rows.extend((run_id, rd, t) for rd, t in pts)
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(out_path, "w") as fh:
        fh.write("run_id,round,top1\n")
        for run_id, rd, t in rows:
            fh.write(f"{run_id},{rd},{_fmt(float(t))}\n")
    return rows
