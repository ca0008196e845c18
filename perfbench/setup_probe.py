"""One set-up of the benchmark in a fresh interpreter.

Imports certattack (and with it numpy and scipy), builds the workload's
config, and prints the wall-clock time at which it is ready.  run.py starts
it with `python3 perfbench/setup_probe.py <workload> <seed>` and takes the
difference to the time it started the process as one sample of setup_s.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import build_config  # noqa: E402  (imports certattack)

build_config(sys.argv[1], int(sys.argv[2]))
print(repr(time.time()))
