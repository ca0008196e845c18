"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        # from the root of a checkout, ~1 min

Runs every workload at the tiny size and checks that:
- each end-to-end metric (--trace 0) and each per-layer metric
  (--trace 1) is printed by name with its unit, and the JSON result
  agrees with BENCHMARK.json;
- every cell passes its checks;
- the count metrics of two traced runs with the same seed are equal;
- interactions.json maps exactly the workloads and per-layer metrics of
  BENCHMARK.json;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT):
    args = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        sys.exit(f"{where}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{where}: cells failed their checks\n{done.stderr}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        sys.exit(f"{where}: metrics {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{where}: {m['name']} has unit {got[m['name']]['unit']}")
        if not any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines):
            sys.exit(f"{where}: {m['name']} not printed with its unit")
    return {name: entry["value"] for name, entry in got.items()}


def main() -> int:
    interactions = json.loads((HERE / "interactions.json").read_text())
    names = {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    if set(interactions["layer_metrics"]) != names:
        sys.exit("interactions.json does not map exactly the per-layer "
                 "metrics of BENCHMARK.json")
    if set(interactions["workloads"]) != workloads:
        sys.exit("interactions.json does not name exactly the workloads")
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload in sorted(workloads):
        check_result(workload, 0)
        first = check_result(workload, 1)
        second = check_result(workload, 1)
        differ = [n for n in counts if first[n] != second[n]]
        if differ:
            sys.exit(f"{workload}: counts differ between runs: {differ}")
        print(f"{workload}: ok")

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(sorted(workloads)[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        sys.exit("benchmark reported a result without the package sources")
    print("without sources: exit", done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
