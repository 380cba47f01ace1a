"""Span recorder that wraps flsim's entry points from outside the package.

Each target below names the callables through which flsim's layers call each
other. While a ``Recorder`` is installed, every module-level alias of a target
inside ``flsim`` (``from .models import loss_and_grad`` makes one in
``flsim.methods``) points at one timing wrapper, so calls between layers are
recorded without touching flsim's source. A target that no longer exists is
listed in ``Recorder.absent`` and its metrics are left out, never reported as 0.

Spans stay in memory; ``write_spans`` saves them when the benchmark ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

# span name -> dotted paths ("module.attr" or "module.Class.attr") it wraps
TARGETS = {
    "models.loss_and_grad": ("flsim.models.loss_and_grad",),
    "models.top1_accuracy": ("flsim.models.top1_accuracy",),
    "models.init_params": ("flsim.models.init_params",),
    "data.gen_blobs": ("flsim.data.gen_blobs",),
    "data.split_train_test": ("flsim.data.split_train_test",),
    "data.partition": ("flsim.data.partition_dirichlet", "flsim.data.partition_iid"),
    "data.subset": ("flsim.data.LabeledDataset.subset",),
    "methods.client_opt": ("flsim.methods.client_opt",),
    "methods.server_opt": ("flsim.methods.server_opt",),
    "engine.run_training": ("flsim.engine.run_training",),
    "engine.run_round": ("flsim.engine.run_round",),
    "engine.build_partition": ("flsim.engine.build_partition",),
    "engine.derive_stream": ("flsim.engine.derive_stream",),
    "engine.sample_clients": ("flsim.engine.sample_clients",),
    "harness.parse_config": ("flsim.harness.parse_config",),
    "harness.make_dataset": ("flsim.harness.make_dataset",),
    "harness.run_experiment": ("flsim.harness.run_experiment",),
    "harness.run_sweep": ("flsim.harness.run_sweep",),
}

# each round opens a new round id; spans below it inherit the id
ROUND_SPAN = "engine.run_round"

# If the program ran training in another process, every span but the config
# parse saw only part of the work (or, for run_sweep, counts the waiting as
# self time), so their metrics are withheld.
OUT_OF_PROCESS_ABSENT = frozenset(TARGETS) - {"harness.parse_config"}

# derived metrics that also need a second span
DEPENDS_ON = {
    "methods.client_opt.self_us_per_eval": "models.loss_and_grad",
    "harness.run_sweep.idle_share": "harness.run_experiment",
}


class Span:
    __slots__ = ("id", "name", "parent", "round", "thread", "start", "end", "child_s")

    def __init__(self, sid, name, parent, round_id, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.round = round_id
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0  # time covered by direct children on the same thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or (None, attr) if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        return owner, parts[-1]
    return None, parts[-1]


class Recorder:
    """Context manager: wraps the targets on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._rounds = itertools.count()
        self._local = threading.local()  # per-thread stack of open spans
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        clock = time.perf_counter
        opens_round = name == ROUND_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if opens_round:
                round_id = next(self._rounds)
            else:
                round_id = parent.round if parent is not None else -1
            span = Span(
                next(self._ids),
                name,
                parent.id if parent is not None else -1,
                round_id,
                threading.get_ident(),
            )
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        flsim_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "flsim" or n.startswith("flsim."))
        ]
        for name, paths in TARGETS.items():
            found = False
            for path in paths:
                owner, attr = _resolve(path)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                found = True
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in flsim_modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)
            if not found:
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def by_name(self) -> dict:
        """span name -> list of its finished spans."""
        out = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
        return out


def write_spans(path, recorders):
    """One JSON line per span; times in seconds from the first span of its unit."""
    with open(path, "w") as fh:
        for unit, rec in enumerate(recorders):
            t0 = min((s.start for s in rec.spans), default=0.0)
            for s in sorted(rec.spans, key=lambda s: s.id):
                fh.write(
                    json.dumps(
                        {
                            "unit": unit,
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "round": s.round,
                            "thread": s.thread,
                            "start": s.start - t0,
                            "end": s.end - t0,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def quantile(values, q):
    """q-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# per-layer metric -> (the end-to-end metric it should move, on which workloads);
# names and units are declared in BENCHMARK.json
MOVES = {
    "models.loss_and_grad.calls": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "models.loss_and_grad.busy_s": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "models.loss_and_grad.us_p50": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "models.loss_and_grad.us_p90": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "models.top1_accuracy.calls": ("round_ms.p50", ("cross_device",)),
    "models.top1_accuracy.busy_s": ("round_ms.p50", ("cross_device",)),
    "models.init_params.busy_s": ("setup_s", ("cross_device",)),
    "data.gen_blobs.busy_s": ("setup_s", ("cross_device",)),
    "data.split_train_test.busy_s": ("setup_s", ("cross_device",)),
    "data.partition.busy_s": ("setup_s", ("cross_device",)),
    "data.subset.calls": ("rounds_per_s", ("cross_device",)),
    "data.subset.busy_s": ("rounds_per_s", ("cross_device",)),
    "methods.client_opt.calls": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "methods.client_opt.self_s": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "methods.client_opt.self_us_per_eval": ("grad_evals_per_s", ("sweep_c7", "mlp_fedsmoo_skew")),
    "methods.server_opt.busy_s": ("rounds_per_s", ("mlp_fedsmoo_skew", "cross_device")),
    "engine.run_round.calls": ("rounds_per_s", ("cross_device",)),
    "engine.run_round.self_s": ("rounds_per_s", ("cross_device",)),
    "engine.run_round.ms_p50": ("round_ms.p50", ("cross_device",)),
    "engine.run_round.ms_p90": ("round_ms.p90", ("cross_device",)),
    "engine.derive_stream.calls": ("rounds_per_s", ("cross_device",)),
    "engine.derive_stream.busy_s": ("rounds_per_s", ("cross_device",)),
    "engine.sample_clients.busy_s": ("rounds_per_s", ("cross_device",)),
    "engine.run_training.self_s": ("rounds_per_s", ("cross_device",)),
    "harness.parse_config.busy_s": ("wall_s", ("sweep_c7",)),
    "harness.make_dataset.busy_s": ("wall_s", ("sweep_c7",)),
    "harness.run_experiment.self_s": ("wall_s", ("sweep_c7",)),
    "harness.run_sweep.self_s": ("wall_s", ("sweep_c7",)),
    "harness.run_sweep.idle_share": ("wall_s", ("sweep_c7",)),
    "trace.overhead_pct": ("none: cost of the tracing itself", ()),
}


def _unit_stats(rec: Recorder, nproc: int) -> dict:
    """Metric name -> value for one traced unit (before taking medians)."""
    spans = rec.by_name()

    def calls(name):
        return len(spans.get(name, ()))

    def busy(name):
        return sum((s.duration for s in spans.get(name, ())), 0.0)

    def self_time(name):
        return sum((s.self_s for s in spans.get(name, ())), 0.0)

    stats = {}
    for metric in MOVES:
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            stats[metric] = calls(name)
        elif stat == "busy_s":
            stats[metric] = busy(name)
        elif stat == "self_s":
            stats[metric] = self_time(name)
    evals = calls("models.loss_and_grad")
    if evals:
        stats["methods.client_opt.self_us_per_eval"] = (
            1e6 * self_time("methods.client_opt") / evals
        )
    sweep_s = busy("harness.run_sweep")
    # 0 when the workload runs no sweep: no scheduling could idle
    stats["harness.run_sweep.idle_share"] = (
        1.0 - busy("harness.run_experiment") / (sweep_s * nproc) if sweep_s > 0 else 0.0
    )
    return stats


def per_layer_metrics(recorders, units: dict, nproc: int, out_of_process: bool,
                      overhead_pct: float) -> dict:
    """Per-layer metrics (name -> unit in ``units``) over the traced units:
    counts from one unit (they repeat exactly), times as the median over
    units, percentiles pooled."""
    per_unit = [_unit_stats(r, nproc) for r in recorders]
    absent = set()
    for r in recorders:
        absent.update(r.absent)
    if out_of_process:
        absent |= OUT_OF_PROCESS_ABSENT

    pooled = {}
    for r in recorders:
        for name, spans in r.by_name().items():
            pooled.setdefault(name, []).extend(s.duration for s in spans)

    metrics = {}
    for metric, unit in units.items():
        name, _, stat = metric.rpartition(".")
        if name in absent or DEPENDS_ON.get(metric) in absent:
            continue
        if metric == "trace.overhead_pct":
            value = overhead_pct
        elif stat in ("us_p50", "us_p90", "ms_p50", "ms_p90"):
            durations = pooled.get(name)
            if not durations:
                continue
            scale = 1e6 if stat.startswith("us") else 1e3
            value = scale * quantile(durations, float(stat[-2:]))
        elif metric not in per_unit[0]:
            continue
        elif stat == "calls":
            value = per_unit[-1][metric]
        else:
            value = statistics.median(u[metric] for u in per_unit)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
