"""flsim benchmark: one workload, end-to-end metrics or a traced per-layer breakdown.

    python3 perfbench/run.py --workload sweep_c7 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; flsim is imported from ``src/``, and
the metric names and units come from ``BENCHMARK.json`` beside it. After one
untimed warm-up unit, the run repeats whole units of the workload for
``--seconds`` and reports medians. In-process set-up probes are spread evenly
over the same window, so they sample the same stretch of machine time; peak
memory is read when the window ends, and the fresh-interpreter import probes
run after that, so their memory is not counted. Every unit's outputs are
checked (see ``workloads.py``). With ``--trace 0`` the last stdout line is a
JSON object holding the end-to-end metrics; with ``--trace 1`` untraced and
traced units alternate, the JSON holds the per-layer metrics, and the spans
are written to ``.perfbench/trace-<workload>.jsonl``.

End-to-end times are reported at reference speed. On a shared host the
speed of one CPU drifts by up to 1.7x, over seconds and over tens of minutes,
and CPU time drifts with wall time. So every timed unit and set-up probe is
bracketed by a fixed reference kernel that does not touch flsim, and a time
measured between two kernels is scaled by ``REFERENCE_S`` over their mean
time: it reads as on a machine where the kernel takes ``REFERENCE_S``. A
change to flsim moves these times as it moves raw ones; a change of host
speed cancels out. The human-readable lines give the median scale applied.
Per-layer times are raw.

Exit status: 0 with a result line, 1 if no unit ran to completion, 2 if there
is no flsim source or BENCHMARK.json to benchmark or the arguments are bad.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

from spans import Recorder, per_layer_metrics, quantile, write_spans
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

IMPORT_PROBES = 5
SETUP_PROBES = 10

# time of the reference kernel on the machine the times are reported for
REFERENCE_S = 0.02
_REF_STEPS = 600
_ref_rng = numpy.random.default_rng(0)
_REF_X = _ref_rng.standard_normal((32, 32))
_REF_W = _ref_rng.standard_normal((32, 10))
_REF_Y = _ref_rng.integers(0, 10, 32)


def reference_seconds() -> float:
    """Time one fixed kernel, independent of flsim and of --seed.

    Like flsim's training loop it mixes small NumPy operations (a softmax
    regression step on a 32x32 batch) with interpreter work (dict updates).
    """
    t0 = time.perf_counter()
    w = _REF_W.copy()
    rows = numpy.arange(len(_REF_Y))
    tally = {}
    for _ in range(_REF_STEPS):
        z = _REF_X @ w
        z -= z.max(axis=1, keepdims=True)
        p = numpy.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, _REF_Y] -= 1.0
        w -= 0.01 * (_REF_X.T @ p) / len(_REF_Y)
        for j in range(40):
            tally[j % 7] = tally.get(j % 7, 0) + j
    return time.perf_counter() - t0


def at_reference_speed(fn):
    """Call fn() between two reference kernels.

    Returns fn's result and the factor that scales a time measured during the
    call to reference speed.
    """
    before = reference_seconds()
    out = fn()
    after = reference_seconds()
    return out, 2.0 * REFERENCE_S / (before + after)

_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import flsim\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Median time to import flsim in a fresh interpreter, as `flsim run` pays
    it, at reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def probe():
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    times = []
    for _ in range(IMPORT_PROBES):
        seconds, scale = at_reference_speed(probe)
        times.append(seconds * scale)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    Read before any probe subprocess starts, so the child term covers only
    processes the workload started. The kernel keeps the largest child's peak,
    not a sum: the workers of a process pool would count as one.
    """
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def window(seconds, step, probe):
    """Call step() until ``seconds`` have passed (at least once), and probe()
    SETUP_PROBES times at even intervals over the same span."""
    t0 = time.perf_counter()
    steps = probes = 0
    while True:
        elapsed = time.perf_counter() - t0
        if probes < SETUP_PROBES and elapsed >= probes * seconds / SETUP_PROBES:
            probe()
            probes += 1
        elif steps == 0 or elapsed < seconds:
            step()
            steps += 1
        else:
            return


class Tally:
    """Runs attempted and failed, and the per-run digests of the first unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = {}

    def run(self, workload, recorder=None):
        """One checked unit, or None if it raised."""
        try:
            unit = workload.run_unit(recorder)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        for run_id, digest in unit.digests.items():
            want = self.reference.setdefault(run_id, digest)
            if digest != want:
                unit.failed.setdefault(run_id, "outputs differ from the first unit of this seed")
        if recorder is not None and in_process(recorder, unit):
            calls = len(recorder.by_name().get("models.loss_and_grad", ()))
            if "models.loss_and_grad" not in recorder.absent and calls != unit.expected_evals:
                unit.failed["trace"] = (
                    f"traced loss_and_grad calls {calls} != derived {unit.expected_evals}"
                )
        failed = set(unit.failed) & set(unit.runs)
        if set(unit.failed) - set(unit.runs):  # a check on the unit as a whole
            failed = set(unit.runs)
        self.attempted += len(unit.runs)
        self.failed += len(failed)
        for run_id, why in sorted(unit.failed.items()):
            print(f"check failed: {workload.name} {run_id}: {why}", file=sys.stderr)
        return unit


def in_process(recorder, unit) -> bool:
    """Whether every round the program reported ran under the recorder."""
    if "engine.run_round" in recorder.absent:
        return True  # no way to tell; assume the rounds ran here
    return len(recorder.by_name().get("engine.run_round", ())) == unit.rounds


def end_to_end(workload, tally, seconds, units) -> tuple[dict, float] | None:
    """End-to-end metrics, name -> unit in ``units``, from one timed window,
    and the median scale that brought its times to reference speed."""
    done, setups, scales = [], [], []  # done: (unit, scale)

    def step():
        unit, scale = at_reference_speed(lambda: tally.run(workload))
        scales.append(scale)
        if unit is not None:
            done.append((unit, scale))

    def probe():
        setup, scale = at_reference_speed(workload.setup_probe)
        scales.append(scale)
        setups.append(setup * scale)

    window(seconds, step, probe)
    if not done:
        return None
    peak_mb = peak_rss_mb()
    import_s = import_seconds()
    setup_s = statistics.median(setups)
    wall = statistics.median(u.wall_s * scale for u, scale in done)
    train = wall - setup_s
    grad_evals = statistics.median(u.grad_evals for u, _ in done)
    rounds = statistics.median(u.rounds for u, _ in done)
    round_ms = [ms * scale for u, scale in done for ms in u.round_ms]
    values = {
        "setup_s": import_s + setup_s,
        "wall_s": import_s + wall,
        "grad_evals_per_s": grad_evals / train,
        "rounds_per_s": rounds / train,
        "round_ms.p50": quantile(round_ms, 50),
        "round_ms.p90": quantile(round_ms, 90),
        "peak_rss_mb": peak_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, statistics.median(scales)


def per_layer(workload, tally, seconds, units) -> dict | None:
    """Alternate untraced and traced units; per-layer metrics from the traced."""
    recorders, pairs, setups = [], [], []
    out_of_process = False

    def step():
        nonlocal out_of_process
        walls = {}
        for with_trace in (False, True) if len(pairs) % 2 == 0 else (True, False):
            recorder = Recorder() if with_trace else None
            unit = tally.run(workload, recorder)
            if unit is None:
                continue
            walls[with_trace] = unit.wall_s
            if with_trace:
                recorders.append(recorder)
                out_of_process |= not in_process(recorder, unit)
        if len(walls) == 2:
            pairs.append((walls[False], walls[True]))

    window(seconds, step, lambda: setups.append(workload.setup_probe()))
    if not pairs:
        return None
    setup_s = statistics.median(setups)
    # training time, traced against untraced, of two adjacent units
    overhead_pct = 100.0 * statistics.median(
        (traced - setup_s) / (plain - setup_s) - 1.0 for plain, traced in pairs
    )
    write_spans(os.path.join(SCRATCH, f"trace-{workload.name}.jsonl"), recorders)
    nproc = len(os.sched_getaffinity(0))
    return per_layer_metrics(recorders, units, nproc, out_of_process, overhead_pct)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "flsim", "__init__.py")):
        print(f"no flsim source under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(BENCHMARK) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read {BENCHMARK}: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, SRC)
    import flsim
    import flsim.engine
    import flsim.harness

    if not os.path.abspath(flsim.__file__).startswith(SRC + os.sep):
        print(f"imported flsim from {flsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    workload = WORKLOADS[args.workload](flsim, args.seed, SCRATCH)
    tally = Tally()
    # warm-up: the first unit (and reference kernel) in a fresh process runs slow;
    # it is checked, not timed
    if tally.run(workload) is None:
        return 1
    reference_seconds()
    if args.trace:
        metrics = per_layer(workload, tally, args.seconds, units)
    else:
        measured = end_to_end(workload, tally, args.seconds, units)
        metrics = None if measured is None else measured[0]
    if metrics is None:
        return 1

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} times scaled to reference speed by a median {measured[1]:.4g}"
              f" (reference kernel {1e3 * REFERENCE_S / measured[1]:.4g} ms, reported as {1e3 * REFERENCE_S:g} ms)")
    print(f"{args.workload} fail_ratio {tally.failed / tally.attempted:.6g} ratio ({tally.failed}/{tally.attempted} runs)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
