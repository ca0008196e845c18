"""The certattack benchmark: whole attack cells through `run_cell`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evasion-cert --seed 1 --seconds 30 --trace 0

One process runs cells of one workload back to back, one at a time (a
closed loop with a single client), on one CPU with BLAS pinned to one
thread.  It prints each metric of BENCHMARK.json by name with its unit
and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A record of the run (environment, calibration,
every cell, and the spans of a traced run) goes to perfbench/out/.

--trace 0 reports the end-to-end metrics.  Cells run with the cell seeds
of `--seed`, each on its own graph, until the next cell would end after
`--seconds`; at least QUALITY_CELLS cells run.
  cell_s_p50   median seconds of one cell (build graph, split, train,
               attack with certificate refreshes, discretize, evaluate)
  peak_rss_mb  peak resident memory of the process
  setup_s      median over fresh interpreters of the time from process
               start to a built workload config
  post_acc     post-attack test accuracy as a share of the cell's clean
               accuracy, median over the first QUALITY_CELLS cells; it is
               deterministic per seed.  A share of the clean accuracy, so
               that a worse clean model does not read as a stronger
               attack; the median, not the mean, because a few poisoning
               cells collapse to 0.1-0.6 and would swing a mean.
A cell fails when run_cell reports a failure or breaks a check (see
check_cell); `failed` / `attempted` is the failed fraction.  The run is
not correct either when the attack lowers the test accuracy of fewer than
MIN_ATTACKED of the first QUALITY_CELLS cells: an attack that does
nothing leaves post equal to pre on every cell, while each workload's
attack lowers it on 86-99.5% of cells.

--trace 1 reports the per-layer metrics.  Each of the first TRACE_CELLS
seeds runs once untraced and then, with the layer wrappers of tracing.py
in, once traced, so both runs of a seed see the same host speed.  The
traced cells must reproduce the untraced results exactly; the median over
seeds of the traced minus the untraced cell time is the tracing overhead.

On a shared host, CPU speed drifts by tens of percent within minutes,
and the drift moves every cell and set-up alike.  A fixed numpy kernel is
timed before the first set-up probe and after every probe and cell, and
each wall time is scaled by CALIBRATION_REF_S over the mean of the kernel
times around it: cell, layer and set-up times are seconds on a host that
runs the kernel in CALIBRATION_REF_S.  The raw wall and kernel times are
in the record.
"""
import os
import sys

# Pinned before numpy is imported; probes inherit them.
THREAD_VARS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "certattack" / "__init__.py").is_file():
    sys.exit(f"run.py: no certattack sources under {SRC}; run it from the "
             f"root of a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from certattack.experiment import build_dataset, run_cell  # noqa: E402

from tracing import ROOT_SITE, Tracer, layer_metrics  # noqa: E402
from workloads import (PRE_ACCURACY_FLOOR, WORKLOADS, build_config,  # noqa: E402
                       cell_seeds)

# Typical time of calibration_kernel() on the 2-core x86_64 host the
# benchmark was defined on (numpy 2.4.6, OpenBLAS 0.3.31, one thread).
CALIBRATION_REF_S = 0.012
CALIBRATION_REPS = 8
SETUP_PROBES = 7
QUALITY_CELLS = 10
MIN_ATTACKED = 3
TRACE_CELLS = 6


def calibration_kernel(arrays) -> float:
    """Seconds for a fixed mix of the work the cells do: small n=100
    products and elementwise calls, n=600 products with passes over an
    m=80k pair vector, and interpreted Python.

    It writes into preallocated buffers, so the state of the allocator
    after a cell does not change its time.
    """
    a, x, ax, aa, col, b, h, bh, v, tmp = arrays
    start = time.perf_counter()
    for _ in range(150):
        np.matmul(a, x, out=ax)
        np.maximum(ax, 0.0, out=ax)
        np.multiply(a, col, out=aa)
        ax.argmax(axis=1)
    for _ in range(6):
        np.matmul(b, h, out=bh)
        np.subtract(v, 0.3, out=tmp)
        np.clip(tmp, 0.0, 1.0, out=tmp)
        tmp.sum()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.perf_counter() - start


class Calibration:
    """Kernel times taken around every cell, and the host-speed scale of a
    cell: CALIBRATION_REF_S over the mean of the median kernel times just
    before and just after it."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.arrays = (rng.random((100, 100)), rng.random((100, 16)),
                       np.empty((100, 16)), np.empty((100, 100)),
                       rng.random((100, 1)),
                       rng.random((600, 600)), rng.random((600, 16)),
                       np.empty((600, 16)), rng.random(80_000),
                       np.empty(80_000))
        self.samples = []
        self.last = None

    def measure(self) -> float:
        times = [calibration_kernel(self.arrays)
                 for _ in range(CALIBRATION_REPS)]
        self.samples += times
        self.last = statistics.median(times)
        return self.last

    def scale_since(self, before: float) -> float:
        """Scale of the work done since the kernel that took `before`;
        measures the kernel again to close the window."""
        return CALIBRATION_REF_S / ((before + self.measure()) / 2)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def measure_setup(workload: str, seed: int, calibration: Calibration
                  ) -> list[dict]:
    """Wall seconds from starting a fresh interpreter to a built config,
    each probe between two calibration kernels like a cell."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibration.last
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=120)
        wall = float(done.stdout.split()[-1]) - start
        scale = calibration.scale_since(before)
        samples.append({"wall_s": wall, "scale": scale,
                        "setup_s": wall * scale})
    return samples


def check_cell(row, budget: int, floor: float, seen: dict) -> list[str]:
    """Reasons the cell is wrong; an empty list when it is right.

    `floor` is the lowest clean accuracy a right cell reaches.  `seen`
    maps each seed to its first result, so a repeat of the seed (the
    traced rerun) must return exactly the same result.
    """
    if row.status != "ok":
        return [f"status {row.status}: {row.reason}"]
    problems = []
    if not 0 <= row.budget_used <= budget:
        problems.append(f"budget_used {row.budget_used} outside [0, {budget}]")
    for name in ("pre_accuracy", "post_accuracy"):
        value = getattr(row, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [0, 1]")
    if row.pre_accuracy < floor:
        problems.append(f"pre_accuracy {row.pre_accuracy} below {floor}")
    result = (row.pre_accuracy, row.post_accuracy, row.budget_used)
    first = seen.setdefault(row.seed, result)
    if result != first:
        problems.append(f"seed {row.seed} gave {result}, earlier {first}")
    return problems


class CellRunner:
    """Runs cells one at a time, each between two calibration kernels."""

    def __init__(self, workload: str, tiny: bool, calibration: Calibration,
                 seen: dict):
        self.workload = workload
        self.tiny = tiny
        self.calibration = calibration
        self.seen = seen
        self.cells = []

    def run(self, seed: int, cell_fn=run_cell) -> None:
        config = build_config(self.workload, seed, tiny=self.tiny)
        budget = int(config.budget_ratio
                     * build_dataset(config.dataset).num_edges)
        before = self.calibration.last
        start = time.perf_counter()
        row = cell_fn(config, seed, config.sweep_values[0])
        wall = time.perf_counter() - start
        scale = self.calibration.scale_since(before)
        floor = 0.0 if self.tiny else PRE_ACCURACY_FLOOR
        problems = check_cell(row, budget, floor, self.seen)
        if problems:
            print(f"cell seed={seed} FAILED: {'; '.join(problems)}",
                  file=sys.stderr)
        self.cells.append({
            "seed": seed, "wall_s": wall, "scale": scale,
            "cell_s": wall * scale, "ok": not problems,
            "problems": problems, "status": row.status,
            "pre_accuracy": row.pre_accuracy,
            "post_accuracy": row.post_accuracy,
            "budget_used": row.budget_used, "budget": budget})

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.cells)

    def times(self) -> list[float]:
        """Scaled seconds of the cells that passed their checks, or of
        all cells when none did."""
        cells = [c for c in self.cells if c["ok"]] or self.cells
        return sorted(c["cell_s"] for c in cells)


def tail_note(times) -> str:
    """The highest percentile with at least ten cells beyond it."""
    for pct in (99.9, 99, 90, 50):
        if len(times) * (1 - pct / 100) >= 10:
            q = statistics.quantiles(times, n=1000, method="inclusive")
            return f"p{pct:g} {q[round(pct * 10) - 1]!r} s"
    return "no percentile has 10 cells beyond it"


def timed_run(runner, seeds, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    for seed in seeds:
        if len(runner.cells) >= QUALITY_CELLS:
            walls = [c["wall_s"] for c in runner.cells]
            if time.perf_counter() + statistics.median(walls) > deadline:
                break
        runner.run(seed)


def traced_run(workload, tiny, calibration, seeds):
    """Each seed once untraced and then once traced; returns both runners
    and the tracer."""
    seen = {}
    untraced = CellRunner(workload, tiny, calibration, seen)
    traced = CellRunner(workload, tiny, calibration, seen)
    tracer = Tracer()
    traced_cell = tracer.wrap(ROOT_SITE, run_cell)
    for index, seed in enumerate(seeds):
        untraced.run(seed)
        restore = tracer.install()
        try:
            tracer.cell = index
            traced.run(seed, traced_cell)
        finally:
            restore()
    return [untraced, traced], tracer


def trace_metrics(untraced, traced, tracer) -> dict:
    metrics = layer_metrics(tracer.spans, [c["scale"] for c in traced.cells])
    metrics["trace.cell_s_p50"] = statistics.median(traced.times())
    metrics["trace.untraced_cell_s_p50"] = statistics.median(untraced.times())
    metrics["trace.overhead_s"] = statistics.median(
        t["cell_s"] - u["cell_s"] for t, u in zip(traced.cells, untraced.cells))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the cells and the kernel alike: the two CPUs of a shared
    # host run at different speeds, and a migration between them moves a
    # cell but not the kernel times around it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    calibration = Calibration()
    calib_before = calibration.measure()
    seeds = cell_seeds(args.seed)
    setup = ([] if args.trace
             else measure_setup(args.workload, seeds[0], calibration))
    if args.trace:
        runners, tracer = traced_run(args.workload, args.tiny, calibration,
                                     seeds[:TRACE_CELLS])
    else:
        runners = [CellRunner(args.workload, args.tiny, calibration, {})]
        timed_run(runners[0], seeds, args.seconds)
    calib_after = calibration.measure()
    cells = [c for r in runners for c in r.cells]
    failed = sum(r.failed for r in runners)
    if failed == len(cells):
        print("no cell passed its checks; nothing to report", file=sys.stderr)
        return 1
    quality = ([c for c in runners[0].cells[:QUALITY_CELLS] if c["ok"]]
               or [c for c in cells if c["ok"]])
    attacked = sum(c["post_accuracy"] < c["pre_accuracy"] for c in quality)
    if attacked < MIN_ATTACKED:
        print(f"the attack lowered the accuracy of only {attacked} of "
              f"{len(quality)} cells", file=sys.stderr)
    if args.trace:
        metrics = trace_metrics(*runners, tracer)
    else:
        times = runners[0].times()
        metrics = {
            "cell_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "post_acc": statistics.median(
                c["post_accuracy"] / c["pre_accuracy"] for c in quality),
        }

    result = {
        "correct": failed == 0 and attacked >= MIN_ATTACKED,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"args": vars(args), "env": environment(),
              "calibration": {"ref_s": CALIBRATION_REF_S,
                              "before_s": calib_before,
                              "after_s": calib_after,
                              "samples_s": calibration.samples},
              "setup_s": setup, "cells": cells, "result": result,
              "spans": tracer.spans if args.trace else []}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))

    print(f"{args.workload} seed={args.seed}: {len(cells)} cells, {failed} "
          f"failed (failed_frac {failed / len(cells)!r}); calibration kernel "
          f"{calib_before!r} s before, {calib_after!r} s after")
    if not args.trace:
        print(f"cell tail: {tail_note(times)}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
