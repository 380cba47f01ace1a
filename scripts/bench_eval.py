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
  ``mlp_fedsmoo_skew`` and ``cross_device`` runs, each with the share of
  sampled clients whose shard fits one batch (those draw no stream); and the
  plans one ``sweep_c7`` sweep builds (its ``engine.round_schedule`` calls):
  the per-sweep scheduling overhead;
- ``stream``: µs per client stream when a round seeds 2, 10 and 50 sampled
  clients' streams (``engine.client_streams``, timeit, best of ``--repeat``).

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
only the engine's public stream, plan, round and training entry points. A
tree whose ``run_round`` builds its own plan, or whose ``client_opt`` builds no
layer views, is timed with that tree's own copy of this script.

``--against DIR`` prints only the ``kernel`` line, in ``--pairs`` pairs (default
10): each pair times ``--src`` and ``DIR`` in two fresh processes, each with the
``kernel_us`` of the ``scripts`` directory beside it, the side that goes first
alternating, so the machine's drift between runs moves both sides of a pair
alike. It prints each pair's ratio (``--src`` over ``DIR``; below 1
is faster) and the median ratio.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 32
PLAN_ROUNDS = 10  # rounds a lone run's plan line averages over
SPECS = {
    "linear": dict(kind="linear", input_dim=32, num_classes=10),
    "mlp": dict(kind="mlp", input_dim=32, num_classes=10, hidden_dim=16),
}


def kernel_us(flsim, name, repeat, number=2000):
    """µs per kernel call for one spec at batch 32, on canonical random rows."""
    m = flsim.models
    spec = m.ModelSpec(**SPECS[name])
    theta = m.init_params(spec, flsim.engine.derive_stream(0, -1, -1))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((BATCH, spec.input_dim))
    y = rng.integers(0, spec.num_classes, BATCH)
    counts = np.ones(BATCH)  # distinct float rows: each its own run
    (step,) = m.batch_steps(spec, X, y, counts, [0, BATCH], [BATCH])
    layers = m.layer_views(spec, theta)

    def kernel():
        m.loss_and_grad(spec, theta, step, layers)

    return 1e6 * min(timeit.repeat(kernel, number=number, repeat=repeat)) / number


def kernel_line(src, repeat) -> dict:
    """Spec name -> ``kernel_us`` for the flsim in ``src``, timed in a new
    interpreter by the copy of this script beside ``src``."""
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import bench_eval, flsim.engine; "
        "print(json.dumps({n: bench_eval.kernel_us(flsim, n, int(sys.argv[3])) "
        "for n in bench_eval.SPECS}))"
    )
    src = os.path.abspath(src)
    cmd = [sys.executable, "-c", code, os.path.join(src, os.pardir, "scripts"), src, str(repeat)]
    return json.loads(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)


def kernel_pairs(src, against, pairs, repeat) -> dict:
    """Spec name -> per-pair ratios of ``src``'s kernel line over ``against``'s."""
    ratios = {name: [] for name in SPECS}
    for i in range(pairs):
        lines = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):  # which goes first alternates
            lines[side] = kernel_line((src, against)[side], repeat)
        ours, theirs = lines
        for name in SPECS:
            ratios[name].append(ours[name] / theirs[name])
            print(f"pair {i + 1} {name}: {ours[name]:.1f} us against {theirs[name]:.1f} us, "
                  f"ratio {ratios[name][-1]:.3f}")
    for name, r in ratios.items():
        print(f"{name} batch {BATCH}: median ratio {statistics.median(r):.3f} over {pairs} pairs, "
              f"--src faster in {sum(x < 1 for x in r)}")
    return ratios


def stream_us(flsim, clients, repeat, number=200):
    """µs per client stream when one round seeds ``clients`` sampled clients."""
    eng = flsim.engine
    ids = list(range(0, 2000, 2000 // clients))  # ascending, as run_round samples them

    def streams():
        return eng.client_streams(1, 0, ids)

    return 1e6 * min(timeit.repeat(streams, number=number, repeat=repeat)) / number / clients


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

    best = min(timeit.repeat(one_round, number=number, repeat=repeat)) / number
    return 1e6 * best / evals, evals


def plan_us(flsim, exp, repeat, rounds, number=50):
    """(µs per round plan, share of sampled clients whose shard fits one
    batch), over rounds 0 to ``rounds - 1`` of the run ``exp``."""
    eng, cfg = flsim.engine, exp.run
    train, _ = flsim.harness.make_dataset(exp)
    plan = eng.build_partition(cfg, train)

    def build():
        return [eng.plan_round(plan, train, cfg, r) for r in range(rounds)]

    shards = [shard for _, round_shards, _ in build() for shard in round_shards]  # also ranks rows
    share = sum(len(shard) <= cfg.batch_size for shard in shards) / len(shards)
    calls = max(1, number // rounds)
    return 1e6 * min(timeit.repeat(build, number=calls, repeat=repeat)) / (calls * rounds), share


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="also print one JSON line")
    ap.add_argument("--against", help="time only the kernel line, against this src directory")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.pairs < 1:
        ap.error("--repeat and --pairs must be at least 1")
    if args.against is not None:
        ratios = kernel_pairs(args.src, args.against, args.pairs, args.repeat)
        if args.json:
            print(json.dumps({"kernel_ratio": ratios}, separators=(",", ":")))
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
    result["stream_us"] = {}
    for clients in (2, 10, 50):
        result["stream_us"][str(clients)] = us = stream_us(flsim, clients, args.repeat)
        print(f"{clients} sampled clients: {us:.1f} us/stream")
    result["plan_us"] = us = plan_us(flsim, sweep_c7_runs(flsim, args.seed)[0], args.repeat, 1)[0]
    result["plans_per_sweep"] = plans = plans_per_sweep(flsim, args.seed)
    print(f"sweep_c7 seed {args.seed} round plan: {us:.1f} us, {plans} plans per sweep")
    result["plan"] = {}
    for name in ("mlp_fedsmoo_skew", "cross_device"):
        exp = flsim.harness.parse_config(workload_text(name, args.seed))
        us, share = plan_us(flsim, exp, args.repeat, PLAN_ROUNDS)
        result["plan"][name] = {"us": us, "one_batch_share": share}
        print(f"{name} seed {args.seed} round plan: {us:.1f} us over rounds 0-{PLAN_ROUNDS - 1}, "
              f"{100 * share:.1f}% of sampled clients fit one batch")
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
