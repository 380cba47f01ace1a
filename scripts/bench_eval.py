"""Microseconds per gradient evaluation: the kernel alone and end to end.

Prints, for linear 32->10 and mlp 32->16->10 at batch 32:

- ``kernel``: one ``flsim.models.loss_and_grad`` call (timeit, best of
  ``--repeat``);
- ``step``: what ``client_opt`` pays per evaluation around it, from the
  batch's row indices: slicing the dataset's row ranks, canonicalising,
  fancy-indexing features and labels, and the kernel call.

Then it runs each run of the ``sweep_c7`` benchmark sweep in this process on
one shared dataset (``run_training`` only, best of ``--repeat``) and prints
wall time over reported gradient evaluations for each run, and their mean.

    python3 scripts/bench_eval.py [--src DIR] [--seed N] [--repeat K] [--json]

``--src`` names the ``src`` directory to import flsim from (default: this
checkout's), so the same script measures both sides of a change.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 32
SPECS = {
    "linear": dict(kind="linear", input_dim=32, num_classes=10),
    "mlp": dict(kind="mlp", input_dim=32, num_classes=10, hidden_dim=16),
}


def kernel_us(flsim, name, repeat, number=2000):
    """(kernel µs, step µs) for one spec at batch 32 on a 24,000-row dataset."""
    m = flsim.models
    spec = m.ModelSpec(**SPECS[name])
    theta = m.init_params(spec, flsim.engine.derive_stream(0, -1, -1))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((24000, spec.input_dim))
    y = rng.integers(0, spec.num_classes, 24000)
    ranks = m.row_keys(X, y)
    rows = rng.choice(len(y), BATCH, replace=False)

    sel, counts = m.canonical_rows(ranks[rows])
    Xc, yc, n = X[rows[sel]], y[rows[sel]], float(BATCH)

    def kernel():
        m.loss_and_grad(spec, theta, Xc, yc, counts, n)

    def step():
        sel, counts = m.canonical_rows(ranks[rows])
        r = rows[sel]
        m.loss_and_grad(spec, theta, X[r], y[r], counts, float(len(rows)))

    return tuple(
        1e6 * min(timeit.repeat(fn, number=number, repeat=repeat)) / number
        for fn in (kernel, step)
    )


def sweep_us(flsim, seed, repeat):
    """Run id -> (µs per evaluation, evaluations) for each run of sweep_c7."""
    sys.path.insert(0, ROOT)
    from perfbench.workloads import SweepC7

    h = flsim.harness
    spec = h.parse_config(SweepC7.config_text(seed))
    runs = [exp for cell in spec.cells for exp in cell]
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="also print one JSON line")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    sys.path.insert(0, os.path.abspath(args.src))
    import flsim
    import flsim.engine
    import flsim.harness
    import flsim.models

    result = {"kernel_us": {}, "step_us": {}}
    for name in SPECS:
        kernel, step = kernel_us(flsim, name, args.repeat)
        result["kernel_us"][name], result["step_us"][name] = kernel, step
        print(f"{name} batch {BATCH}: kernel {kernel:.1f} us, step {step:.1f} us")
    runs = sweep_us(flsim, args.seed, args.repeat)
    for run_id, (us, evals) in runs.items():
        print(f"sweep_c7 seed {args.seed} {run_id}: {us:.1f} us/eval over {evals} evals")
    mean = float(np.mean([us for us, _ in runs.values()]))
    print(f"sweep_c7 seed {args.seed} mean: {mean:.1f} us/eval")
    result["sweep_us_per_eval"] = {k: us for k, (us, _) in runs.items()}
    result["sweep_mean_us_per_eval"] = mean
    if args.json:
        print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
