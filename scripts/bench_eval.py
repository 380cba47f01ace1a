"""Microseconds per call of the layers below a round, and per gradient evaluation.

Each line of ``LINES`` names one timed call: its builder, in this file, says
what it times, on what inputs, how many calls a timing makes (timeit, best of
``--repeat``) and what unit the line reports. Both modes time every line of
``LINES`` and nothing else.

    python3 scripts/bench_eval.py [--src DIR] [--seed N] [--repeat K] [--json]
    python3 scripts/bench_eval.py [--src DIR] --against DIR [--pairs N] [--repeat K] [--json]

``--src`` names the ``src`` directory to import flsim from (default: this
checkout's), so the same script measures both sides of a change; it calls
only the engine's public plan, round and training entry points.

Alone, the script prints each line's µs per unit and the line's note; then
three things that are not timeit calls: the plans one ``sweep_c7`` sweep
builds (its ``engine.round_schedule`` calls), the per-sweep scheduling
overhead; wall time over reported gradient evaluations for each run of the
``sweep_c7`` benchmark sweep, run in this process on one shared dataset
(``run_training`` only, best of ``--repeat``), and their mean; and
``memory``: glibc's heap in use (``mallinfo2``, read through ``ctypes``:
bytes in use in the arenas plus mmapped chunks) after each round of the first
``sweep_c7`` run, while that round's plan is still alive, as its first,
median, last and largest sample (``--json``: every sample), or
``unavailable`` without glibc's ``mallinfo2``; and ``dataset``: for each
benchmark workload's first run, the tracemalloc peak of one ``make_dataset``
call (after one untraced call) and the bytes of the train and test sets it
keeps (``--json``: ``"dataset_bytes": {workload: {"peak": ..., "kept": ...}}``).
``--json`` prints ``"us": {line: µs}`` and ``"note": {line: note}`` beside those.

``--against DIR`` times the lines of ``--src`` over ``DIR``. It copies both
``flsim`` packages into a temporary directory under two package names
(flsim's imports are relative) and imports both into this one process. Then,
for ``--pairs`` rounds (default 10), it times each line of both sides, one
side after the other, the side that goes first alternating, so the machine's
drift moves both sides of a pair alike. Each side's call is built afresh
before it is timed, in the pair's order, so neither side keeps the arrays it
was given first for every pair. It prints each pair's ratio (below 1 is
faster) and, per line, the median ratio, the lower and upper quartiles of the
ratios (the pairs' spread: a median inside the quartiles of an A/A run shows
nothing) and the number of pairs in which ``--src`` was faster; ``--json``
prints ``"ratio": {line: [ratio per pair]}``. This script times both sides,
so ``DIR`` must have ``models.layer_views``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import timeit
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.workloads import WORKLOADS  # after ROOT is on the path

BATCH = 32
PLAN_ROUNDS = 10  # rounds a lone run's plan line averages over
SPECS = {
    "linear": dict(kind="linear", input_dim=32, num_classes=10),
    "mlp": dict(kind="mlp", input_dim=32, num_classes=10, hidden_dim=16),
}


def best_us(fn, repeat, number) -> float:
    """µs per call of ``fn``: timeit, best of ``repeat`` runs of ``number`` calls."""
    return 1e6 * min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def first_run(flsim, name, seed):
    """The first run of the benchmark workload ``name`` for ``seed``: a lone
    run, or the first cell of a sweep under its first seed."""
    spec = flsim.harness.parse_config(WORKLOADS[name].config_text(seed))
    return getattr(spec, "base", spec)


def kernel_line(name, flsim, seed):
    """One ``models.loss_and_grad`` call for the spec ``name`` at batch 32, on
    canonical random rows, a step built once by ``models.batch_steps``, as a
    round builds it, and layer views built once, as ``client_opt`` builds them."""
    m = flsim.models
    spec = m.ModelSpec(**SPECS[name])
    theta = m.init_params(spec, flsim.engine.derive_stream(0, -1, -1))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((BATCH, spec.input_dim))
    y = rng.integers(0, spec.num_classes, BATCH)
    counts = np.ones(BATCH)  # distinct float rows: each its own run
    (step,) = m.batch_steps(spec, X, y, counts, [0, BATCH], [BATCH])
    layers = m.layer_views(spec, theta)
    return ((lambda: m.loss_and_grad(spec, theta, step, layers)),
            2000, 1, f"per loss_and_grad call at batch {BATCH}")


def plan_line(name, flsim, seed):
    """``engine.plan_round``, the sampling, client streams and step schedule: of
    round 0 of the first ``sweep_c7`` run, or rounds 0 to ``PLAN_ROUNDS - 1`` of
    a lone-run workload's run, per round plan. The note gives the mean number of
    client streams a plan draws (one per sampled client whose shard is more than
    one batch) and the share of sampled clients whose shard fits one batch."""
    exp = first_run(flsim, name, seed)
    rounds = 1 if name == "sweep_c7" else PLAN_ROUNDS
    eng, cfg = flsim.engine, exp.run
    train, _ = flsim.harness.make_dataset(exp)
    plan = eng.build_partition(cfg, train)

    def build():
        return [eng.plan_round(plan, train, cfg, r) for r in range(rounds)]

    shards = [shard for _, round_shards, _ in build() for shard in round_shards]  # also ranks rows
    drawing = sum(len(shard) > cfg.batch_size for shard in shards)  # each draws one stream
    span = "round 0" if rounds == 1 else f"rounds 0-{rounds - 1}"
    note = (f"per round plan over {span}, {drawing / rounds:.2f} client streams a plan, "
            f"{100 * (1 - drawing / len(shards)):.1f}% of sampled clients fit one batch")
    return build, max(1, 50 // rounds), rounds, note


def ranks_line(flsim, seed):
    """``models.row_keys`` on the ``sweep_c7`` train set. A dataset caches its
    ranks, so no other line times them."""
    train, _ = flsim.harness.make_dataset(first_run(flsim, "sweep_c7", seed))
    return ((lambda: flsim.models.row_keys(train.features, train.labels)),
            20, 1, f"per row_keys call over {len(train)} train rows")


def eval_line(flsim, seed):
    """``models.top1_accuracy`` of the ``cross_device`` run's initial parameters
    on its test set: the per-round eval, which that workload pays every round."""
    exp = first_run(flsim, "cross_device", seed)
    eng, spec = flsim.engine, exp.run.model
    _, test = flsim.harness.make_dataset(exp)
    theta = flsim.models.init_params(spec, eng.derive_stream(exp.run.seed, eng.INIT_ROUND,
                                                            eng.SERVER_CHANNEL))
    return ((lambda: flsim.models.top1_accuracy(spec, theta, test.features, test.labels)),
            200, 1, f"per top1_accuracy call over {len(test)} test rows")


def round_line(flsim, seed):
    """What the engine pays per evaluation, everything included: round 0 of the
    first ``sweep_c7`` run, its plan and the round itself (``engine.plan_round``
    then ``engine.run_round``), over the round's reported gradient evaluations."""
    eng, exp = flsim.engine, first_run(flsim, "sweep_c7", seed)
    cfg = exp.run
    train, _ = flsim.harness.make_dataset(exp)
    plan = eng.build_partition(cfg, train)
    theta0 = flsim.models.init_params(cfg.model, eng.derive_stream(cfg.seed, eng.INIT_ROUND,
                                                                   eng.SERVER_CHANNEL))
    server, states = eng.init_server_state(cfg, theta0), eng.init_client_states(cfg, theta0)

    def one_round():
        return eng.run_round(server, states, eng.plan_round(plan, train, cfg, 0), cfg)

    evals = one_round()[2].grad_evals  # the same round each call; the first also ranks rows
    return one_round, 50, evals, f"per gradient evaluation of round 0, {evals} evals"


# line -> build(flsim, seed) -> (a fresh call, calls a timing, units a call, note)
LINES = {
    **{f"{name} kernel": functools.partial(kernel_line, name) for name in SPECS},
    **{f"{name} plan": functools.partial(plan_line, name)
       for name in ("sweep_c7", "mlp_fedsmoo_skew", "cross_device")},
    "sweep_c7 ranks": ranks_line,
    "cross_device eval": eval_line,
    "sweep_c7 round": round_line,
}


def time_line(flsim, line, seed, repeat):
    """(µs per unit, note) of one line of ``LINES``, built afresh."""
    call, number, per, note = LINES[line](flsim, seed)
    return best_us(call, repeat, number) / per, note


def plans_per_sweep(flsim, seed) -> int:
    """Round plans one sweep_c7 sweep builds: its ``round_schedule`` calls."""
    eng, calls = flsim.engine, []
    real = eng.round_schedule
    eng.round_schedule = lambda *a: calls.append(a) or real(*a)
    try:
        spec = flsim.harness.parse_config(WORKLOADS["sweep_c7"].config_text(seed))
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            flsim.harness.run_sweep(spec, out)
    finally:
        eng.round_schedule = real
    return len(calls)


def sweep_us(flsim, seed, repeat):
    """Run id -> (µs per evaluation, evaluations) for each run of sweep_c7."""
    h = flsim.harness
    runs = h.parse_config(WORKLOADS["sweep_c7"].config_text(seed)).runs
    train, test = h.make_dataset(runs[0])
    out = {}
    for exp in runs:
        best, evals = float("inf"), 0
        for _ in range(repeat):
            t0 = time.perf_counter()
            records = flsim.engine.run_training(exp.run, train, test)
            best = min(best, time.perf_counter() - t0)
            evals = sum(r.grad_evals for r in records)
        out[h._run_dir(exp.run)] = (1e6 * best / evals, evals)
    return out


class _Mallinfo2(ctypes.Structure):  # glibc's struct mallinfo2 (malloc.h), all size_t
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost",
    )]


def heap_reader():
    """A function giving the bytes glibc's malloc has in use (arena chunks plus
    mmapped chunks), or None where the C library has no ``mallinfo2``."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return None
    mallinfo2.restype = _Mallinfo2

    def in_use():
        info = mallinfo2()
        return info.uordblks + info.hblkhd

    return in_use


def memory_samples(flsim, seed):
    """Heap bytes in use after each round of the first sweep_c7 run, or None."""
    in_use = heap_reader()
    if in_use is None:
        return None
    exp = first_run(flsim, "sweep_c7", seed)
    train, test = flsim.harness.make_dataset(exp)
    samples = []
    flsim.engine.run_training(exp.run, train, test, on_round=lambda *_: samples.append(in_use()))
    return samples


def dataset_bytes(flsim, seed):
    """Workload -> {"peak": tracemalloc peak of one make_dataset call, "kept":
    the bytes of the train and test sets it returns}, for each first run."""
    out = {}
    for name in WORKLOADS:
        exp = first_run(flsim, name, seed)
        flsim.harness.make_dataset(exp)  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            data = flsim.harness.make_dataset(exp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {"peak": peak, "kept": sum(d.features.nbytes + d.labels.nbytes for d in data)}
    return out


def import_as(src, name, into):
    """The flsim package in ``src``, copied to ``into`` and imported as ``name``."""
    shutil.copytree(os.path.join(src, "flsim"), os.path.join(into, name))
    return importlib.import_module(name)


def against(src, other, seed, pairs, repeat) -> dict:
    """Line -> per-pair ratios of ``src``'s µs over ``other``'s, both imported
    into this process and timed alternately."""
    with tempfile.TemporaryDirectory() as tmp:  # flsim imports every module it has
        sys.path.insert(0, tmp)
        try:
            sides = [import_as(src, "flsim_src", tmp), import_as(other, "flsim_against", tmp)]
        finally:
            sys.path.remove(tmp)
    ratios = {line: [] for line in LINES}
    for i in range(pairs):
        for line in LINES:
            us = [None, None]
            for side in (0, 1) if i % 2 == 0 else (1, 0):  # which goes first alternates
                # built afresh, in the pair's order, so no side keeps the memory it was first given
                us[side] = time_line(sides[side], line, seed, repeat)[0]
            ratios[line].append(us[0] / us[1])
            print(f"pair {i + 1} {line}: {us[0]:.1f} us against {us[1]:.1f} us, "
                  f"ratio {ratios[line][-1]:.3f}")
    for line, r in ratios.items():
        q1, q3 = np.percentile(r, [25, 75])
        print(f"{line}: median ratio {statistics.median(r):.3f}, quartiles {q1:.3f}-{q3:.3f} "
              f"over {pairs} pairs, --src faster in {sum(x < 1 for x in r)}")
    return ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="also print one JSON line")
    ap.add_argument("--against", help="time only the LINES, of --src over this src")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.pairs < 1:
        ap.error("--repeat and --pairs must be at least 1")
    if args.against is not None:
        ratios = against(os.path.abspath(args.src), os.path.abspath(args.against), args.seed,
                         args.pairs, args.repeat)
        if args.json:
            print(json.dumps({"ratio": ratios}, separators=(",", ":")))
        return 0

    sys.path.insert(0, os.path.abspath(args.src))
    import flsim
    import flsim.engine
    import flsim.harness
    import flsim.models

    seed = args.seed
    result = {"us": {}, "note": {}}
    for line in LINES:
        us, note = time_line(flsim, line, seed, args.repeat)
        result["us"][line], result["note"][line] = us, note
        print(f"{line}: {us:.1f} us {note}")
    result["plans_per_sweep"] = plans = plans_per_sweep(flsim, seed)
    print(f"sweep_c7 seed {seed}: {plans} round plans per sweep")
    runs = sweep_us(flsim, seed, args.repeat)
    for run_id, (us, evals) in runs.items():
        print(f"sweep_c7 seed {seed} {run_id}: {us:.1f} us/eval over {evals} evals")
    mean = float(np.mean([us for us, _ in runs.values()]))
    print(f"sweep_c7 seed {seed} mean: {mean:.1f} us/eval")
    result["sweep_us_per_eval"] = {k: us for k, (us, _) in runs.items()}
    result["sweep_mean_us_per_eval"] = mean
    result["heap_bytes"] = heap = memory_samples(flsim, seed)
    if heap is None:
        print(f"sweep_c7 seed {seed} memory: unavailable (no glibc mallinfo2)")
    else:
        kb = [b / 1024 for b in (heap[0], statistics.median(heap), heap[-1], max(heap))]
        print(f"sweep_c7 seed {seed} memory: heap in use after each of {len(heap)} rounds "
              "of the first run: first {:.1f}, median {:.1f}, last {:.1f}, max {:.1f} KB"
              .format(*kb))
    result["dataset_bytes"] = sizes = dataset_bytes(flsim, seed)
    for name, b in sizes.items():
        print(f"{name} seed {seed} dataset: make_dataset peaks at {b['peak'] / 1e6:.2f} MB "
              f"for {b['kept'] / 1e6:.2f} MB kept ({b['peak'] / b['kept']:.2f}x)")
    if args.json:
        print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
