"""Run every workload over ten seeds and record the numbers with provenance.

    python3 perfbench/record.py

Each workload in ``BENCHMARK.json`` runs ``run.py --trace 0`` once per seed
and ``--trace 1`` once, one process at a time. For each end-to-end metric it
reports the median, the quartiles and their spread, (q3 - q1) / median,
against the bound fixed in ``BENCHMARK.json``. ``perfbench/baseline.json``
receives those figures, the per-layer metrics of the traced run, the map from
each per-layer metric to the end-to-end metric and workloads it should move,
and the machine, versions and commit measured. End-to-end times are at
reference speed (see ``run.py``).
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCHMARK, REFERENCE_S, ROOT
from spans import MOVES
from workloads import WORKLOADS

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")
SEEDS = list(range(1, 11))


def run_once(bench, workload, seed, trace, seconds) -> dict:
    cmd = [sys.executable, *bench["command"][1:]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"{result['failed']}/{result['attempted']} failed, {took:.1f} s", flush=True)
    return result


def blas_threads():
    """OpenBLAS's thread count, read from the library NumPy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "reference_kernel_s": REFERENCE_S,
    }


def spread_stats(values, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_third_of_bound": spread <= bound / 3,
        "values": values,
    }


def main() -> int:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {"provenance": provenance(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in bench["workloads"]:
        name = workload["name"]
        print(f"{name}: seeds {SEEDS[0]}..{SEEDS[-1]}", flush=True)
        results = [run_once(bench, name, s, 0, seconds) for s in SEEDS]
        entry = {
            "why": workload["why"],
            "seeds": SEEDS,
            "config": WORKLOADS[name].config_text(SEEDS[0]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            stats = spread_stats(values, metric["bound"])
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], **stats}
            # the driver does not hold set-up time's spread to its bound
            steady &= stats["within_third_of_bound"] or metric["name"] == "setup_s"
            print(f"  {metric['name']:18s} median {stats['median']:12.6g} {metric['unit']:5s} "
                  f"spread {stats['spread']:7.2%} bound {stats['bound']:.0%}", flush=True)
        traced = run_once(bench, name, SEEDS[0], 1, seconds)
        entry["per_layer"] = {"seed": SEEDS[0], **traced}
        report["workloads"][name] = entry
    report["per_layer_map"] = [
        {"metric": m["name"], "unit": m["unit"], "moves": MOVES[m["name"]][0],
         "on": list(MOVES[m["name"]][1])}
        for m in bench["per_layer"]
    ]
    report["steady"] = steady
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
