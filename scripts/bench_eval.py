"""Microseconds per gradient evaluation: the kernel alone and end to end.

Prints:

- ``kernel``: one ``flsim.models.loss_and_grad`` call for linear 32->10 and
  mlp 32->16->10 at batch 32 (timeit, best of ``--repeat``), on a step built
  once by ``flsim.models.batch_steps``, as a round builds it, and on layer
  views of the parameters built once, as ``client_opt`` builds them;
- ``round``: what the engine pays per evaluation, everything included: round
  0 of the first ``sweep_c7`` run, its plan and the round itself
  (``engine.plan_round`` then ``engine.run_round``, timeit, best of
  ``--repeat``), over the round's reported gradient evaluations;
- ``plan``: µs per round plan, the sampling, client streams and step
  schedule (``engine.plan_round``, timeit, best of ``--repeat``): of round 0
  of the first ``sweep_c7`` run, and the mean over rounds 0-9 of the
  ``mlp_fedsmoo_skew`` and ``cross_device`` runs, each with the mean number of
  client streams a plan draws (one per sampled client whose shard is more
  than one batch) and the share of sampled clients whose shard fits one
  batch; and the plans one ``sweep_c7`` sweep builds (its
  ``engine.round_schedule`` calls): the per-sweep scheduling overhead;
- ``ranks``: µs per ``flsim.models.row_keys`` on the ``sweep_c7`` train set
  (timeit, best of ``--repeat``). A dataset caches its ranks, so no other line
  times them;
- ``eval``: µs per ``flsim.models.top1_accuracy`` of the ``cross_device`` run's
  initial parameters on its test set (timeit, best of ``--repeat``): the
  per-round eval, which that workload pays every round.

Then it runs each run of the ``sweep_c7`` benchmark sweep in this process on
one shared dataset (``run_training`` only, best of ``--repeat``) and prints
wall time over reported gradient evaluations for each run, and their mean.

Last, ``memory``: glibc's heap in use (``mallinfo2``, read through ``ctypes``:
bytes in use in the arenas plus mmapped chunks) after each round of the first
``sweep_c7`` run, while that round's plan is still alive; the line gives the
first, median, last and largest sample, and ``--json`` every sample. Without
glibc's ``mallinfo2`` it prints ``unavailable``.

    python3 scripts/bench_eval.py [--src DIR] [--seed N] [--repeat K] [--json]
    python3 scripts/bench_eval.py [--src DIR] --against DIR [--pairs N] [--repeat K] [--json]

``--src`` names the ``src`` directory to import flsim from (default: this
checkout's), so the same script measures both sides of a change; it calls
only the engine's public plan, round and training entry points.

``--against DIR`` prints only the ``kernel``, ``plan``, ``ranks`` and ``eval``
lines, of ``--src`` over ``DIR``. It copies both ``flsim`` packages into a
temporary directory under two package names (flsim's imports are relative)
and imports both into this one process. Then, for ``--pairs`` rounds (default
10), it times each line of both sides, one side after the other, the side that
goes first alternating, so the machine's drift moves both sides of a pair
alike. Each side's call is built afresh before it is timed, in the pair's
order, so neither side keeps the arrays it was given first for every pair.
It prints each pair's ratio (below 1 is faster) and, per line, the median
ratio, the lower and upper quartiles of the ratios (the pairs' spread: a median
inside the quartiles of an A/A run shows nothing) and the number of pairs in
which ``--src`` was faster. This script times both sides, so ``DIR`` must have
``models.layer_views``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
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

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 32
PLAN_ROUNDS = 10  # rounds a lone run's plan line averages over
PLAN_WORKLOADS = ("sweep_c7", "mlp_fedsmoo_skew", "cross_device")
RANKS_NUMBER = 20  # row_keys calls a ranks timing
EVAL_NUMBER = 200  # top1_accuracy calls an eval timing
SPECS = {
    "linear": dict(kind="linear", input_dim=32, num_classes=10),
    "mlp": dict(kind="mlp", input_dim=32, num_classes=10, hidden_dim=16),
}


def best_us(fn, repeat, number) -> float:
    """µs per call of ``fn``: timeit, best of ``repeat`` runs of ``number`` calls."""
    return 1e6 * min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def kernel_call(flsim, name):
    """A kernel call for one spec at batch 32, on canonical random rows."""
    m = flsim.models
    spec = m.ModelSpec(**SPECS[name])
    theta = m.init_params(spec, flsim.engine.derive_stream(0, -1, -1))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((BATCH, spec.input_dim))
    y = rng.integers(0, spec.num_classes, BATCH)
    counts = np.ones(BATCH)  # distinct float rows: each its own run
    (step,) = m.batch_steps(spec, X, y, counts, [0, BATCH], [BATCH])
    layers = m.layer_views(spec, theta)
    return lambda: m.loss_and_grad(spec, theta, step, layers)


def kernel_us(flsim, name, repeat, number=2000):
    """µs per kernel call for one spec at batch 32."""
    return best_us(kernel_call(flsim, name), repeat, number)


def workload_text(name, seed) -> str:
    """The config of the benchmark workload ``name`` for ``seed``."""
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[name].config_text(seed)


def sweep_c7_runs(flsim, seed):
    """The sweep_c7 benchmark's runs for ``seed``, in sweep order."""
    spec = flsim.harness.parse_config(workload_text("sweep_c7", seed))
    return [exp for cell in spec.cells for exp in cell]


def round_us(flsim, seed, repeat, number=50):
    """(µs per evaluation, evaluations) of round 0 of the first sweep_c7 run."""
    eng = flsim.engine
    exp = sweep_c7_runs(flsim, seed)[0]
    cfg = exp.run
    train, _ = flsim.harness.make_dataset(exp)
    plan = eng.build_partition(cfg, train)
    stream = eng.derive_stream(cfg.seed, eng.INIT_ROUND, eng.SERVER_CHANNEL)
    theta0 = flsim.models.init_params(cfg.model, stream)
    server, states = eng.init_server_state(cfg, theta0), eng.init_client_states(cfg, theta0)

    def one_round():
        return eng.run_round(server, states, eng.plan_round(plan, train, cfg, 0), cfg)

    evals = one_round()[2].grad_evals  # the same round each call; the first also ranks rows

    return best_us(one_round, repeat, number) / evals, evals


def plan_run(flsim, name, seed):
    """(run, rounds) a plan line builds: round 0 of the first ``sweep_c7`` run,
    or rounds 0 to ``PLAN_ROUNDS - 1`` of a lone-run workload's run."""
    if name == "sweep_c7":
        return sweep_c7_runs(flsim, seed)[0], 1
    return flsim.harness.parse_config(workload_text(name, seed)), PLAN_ROUNDS


def plan_call(flsim, exp, rounds):
    """(a call building the run ``exp``'s plans of rounds 0 to ``rounds - 1``,
    the mean number of client streams a plan draws, the share of sampled
    clients whose shard fits one batch)."""
    eng, cfg = flsim.engine, exp.run
    train, _ = flsim.harness.make_dataset(exp)
    plan = eng.build_partition(cfg, train)

    def build():
        return [eng.plan_round(plan, train, cfg, r) for r in range(rounds)]

    shards = [shard for _, round_shards, _ in build() for shard in round_shards]  # also ranks rows
    drawing = sum(len(shard) > cfg.batch_size for shard in shards)  # each draws one stream
    return build, drawing / rounds, 1 - drawing / len(shards)


def plan_us(flsim, exp, repeat, rounds, number=50):
    """(µs per round plan, streams a plan draws, one-batch share) over
    rounds 0 to ``rounds - 1`` of the run ``exp``."""
    build, streams, share = plan_call(flsim, exp, rounds)
    return best_us(build, repeat, max(1, number // rounds)) / rounds, streams, share


def ranks_call(flsim, seed):
    """(a call ranking the rows of the sweep_c7 train set, its row count)."""
    train, _ = flsim.harness.make_dataset(sweep_c7_runs(flsim, seed)[0])
    return lambda: flsim.models.row_keys(train.features, train.labels), len(train)


def eval_call(flsim, seed):
    """(a call scoring the cross_device run's initial parameters on its test
    set, the test set's row count)."""
    exp = flsim.harness.parse_config(workload_text("cross_device", seed))
    eng, spec = flsim.engine, exp.run.model
    _, test = flsim.harness.make_dataset(exp)
    theta = flsim.models.init_params(spec, eng.derive_stream(exp.run.seed, eng.INIT_ROUND,
                                                            eng.SERVER_CHANNEL))
    return lambda: flsim.models.top1_accuracy(spec, theta, test.features, test.labels), len(test)


def plans_per_sweep(flsim, seed) -> int:
    """Round plans one sweep_c7 sweep builds: its ``round_schedule`` calls."""
    eng, calls = flsim.engine, []
    real = eng.round_schedule
    eng.round_schedule = lambda *a: calls.append(a) or real(*a)
    try:
        spec = flsim.harness.parse_config(workload_text("sweep_c7", seed))
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            flsim.harness.run_sweep(spec, out)
    finally:
        eng.round_schedule = real
    return len(calls)


def sweep_us(flsim, seed, repeat):
    """Run id -> (µs per evaluation, evaluations) for each run of sweep_c7."""
    h = flsim.harness
    runs = sweep_c7_runs(flsim, seed)
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
    exp = sweep_c7_runs(flsim, seed)[0]
    train, test = flsim.harness.make_dataset(exp)
    samples = []
    flsim.engine.run_training(exp.run, train, test, on_round=lambda *_: samples.append(in_use()))
    return samples


def import_as(src, name, into):
    """The flsim package in ``src``, copied to ``into`` and imported as ``name``."""
    shutil.copytree(os.path.join(src, "flsim"), os.path.join(into, name))
    return importlib.import_module(name)


def against_call(flsim, line, seed):
    """(a fresh call, calls a timing, calls a reported unit) of one ``--against`` line."""
    name, kind = line.rsplit(" ", 1)
    if kind == "kernel":
        return kernel_call(flsim, name), 2000, 1
    if kind == "plan":
        exp, rounds = plan_run(flsim, name, seed)
        return plan_call(flsim, exp, rounds)[0], max(1, 50 // rounds), rounds
    if kind == "ranks":
        return ranks_call(flsim, seed)[0], RANKS_NUMBER, 1
    return eval_call(flsim, seed)[0], EVAL_NUMBER, 1


def against(src, other, seed, pairs, repeat) -> dict:
    """Line -> per-pair ratios of ``src``'s µs over ``other``'s, both imported
    into this process and timed alternately."""
    with tempfile.TemporaryDirectory() as tmp:  # flsim imports every module it has
        sys.path.insert(0, tmp)
        try:
            sides = [import_as(src, "flsim_src", tmp), import_as(other, "flsim_against", tmp)]
        finally:
            sys.path.remove(tmp)
    lines = [f"{name} kernel" for name in SPECS] + [f"{name} plan" for name in PLAN_WORKLOADS]
    lines += ["sweep_c7 ranks", "cross_device eval"]
    ratios = {line: [] for line in lines}
    for i in range(pairs):
        for line in lines:
            us = [None, None]
            for side in (0, 1) if i % 2 == 0 else (1, 0):  # which goes first alternates
                # built afresh, in the pair's order, so no side keeps the memory it was first given
                call, number, per = against_call(sides[side], line, seed)
                us[side] = best_us(call, repeat, number) / per
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
    ap.add_argument("--against",
                    help="time only the kernel, plan, ranks and eval lines against this src")
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

    result = {"kernel_us": {}}
    for name in SPECS:
        result["kernel_us"][name] = kernel = kernel_us(flsim, name, args.repeat)
        print(f"{name} batch {BATCH}: kernel {kernel:.1f} us")
    result["plan"] = {}
    for name in PLAN_WORKLOADS:
        exp, rounds = plan_run(flsim, name, args.seed)
        us, streams, share = plan_us(flsim, exp, args.repeat, rounds)
        result["plan"][name] = {"us": us, "streams_per_plan": streams, "one_batch_share": share}
        span = "round 0" if rounds == 1 else f"rounds 0-{rounds - 1}"
        print(f"{name} seed {args.seed} round plan: {us:.1f} us over {span}, "
              f"{streams:.2f} client streams a plan, "
              f"{100 * share:.1f}% of sampled clients fit one batch")
    call, rows = ranks_call(flsim, args.seed)
    result["ranks_us"] = us = best_us(call, args.repeat, RANKS_NUMBER)
    print(f"sweep_c7 seed {args.seed} ranks: {us:.1f} us per row_keys over {rows} train rows")
    call, rows = eval_call(flsim, args.seed)
    result["eval_us"] = us = best_us(call, args.repeat, EVAL_NUMBER)
    print(f"cross_device seed {args.seed} eval: {us:.1f} us per top1_accuracy "
          f"over {rows} test rows")
    result["plans_per_sweep"] = plans = plans_per_sweep(flsim, args.seed)
    print(f"sweep_c7 seed {args.seed}: {plans} round plans per sweep")
    us, evals = round_us(flsim, args.seed, args.repeat)
    result["round_us_per_eval"] = us
    print(f"sweep_c7 seed {args.seed} round 0: {us:.1f} us/eval over {evals} evals")
    runs = sweep_us(flsim, args.seed, args.repeat)
    for run_id, (us, evals) in runs.items():
        print(f"sweep_c7 seed {args.seed} {run_id}: {us:.1f} us/eval over {evals} evals")
    mean = float(np.mean([us for us, _ in runs.values()]))
    print(f"sweep_c7 seed {args.seed} mean: {mean:.1f} us/eval")
    result["sweep_us_per_eval"] = {k: us for k, (us, _) in runs.items()}
    result["sweep_mean_us_per_eval"] = mean
    result["heap_bytes"] = heap = memory_samples(flsim, args.seed)
    if heap is None:
        print(f"sweep_c7 seed {args.seed} memory: unavailable (no glibc mallinfo2)")
    else:
        kb = [b / 1024 for b in (heap[0], statistics.median(heap), heap[-1], max(heap))]
        print(f"sweep_c7 seed {args.seed} memory: heap in use after each of {len(heap)} rounds "
              "of the first run: first {:.1f}, median {:.1f}, last {:.1f}, max {:.1f} KB"
              .format(*kb))
    if args.json:
        print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
