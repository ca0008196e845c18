"""The benchmark's traced run reaches every span site it wraps.

perfbench/tracing.py replaces each site's name in the certattack module
that calls it, so its per-layer metrics count only calls made through
that module's globals.  A refactor that calls a traced name another way
(an import-time capture, a default argument, a call from a different
module) would silently read zero; this test catches that.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import build_config  # noqa: E402

from certattack.experiment import run_cell  # noqa: E402

# The attack-step kernels that carry the plain-PGD cell.
DENSE_SITES = ("gcn.relax_perturbation", "attacks.gradients",
               "attacks.project_budget", "attacks.discretize")


def test_tiny_cells_reach_every_trace_site():
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        for workload in ("evasion-cert", "poisoning-cert", "evasion-dense"):
            tracer.cell = workload
            config = build_config(workload, seed=0, tiny=True)
            row = run_cell(config, 0, config.sweep_values[0])
            assert row.status == "ok", row.reason
    finally:
        restore()
    reached = {span[3] for span in tracer.spans}
    assert [site for site in tracing.SITES if site not in reached] == []
    dense = {span[3] for span in tracer.spans if span[2] == "evasion-dense"}
    assert [site for site in DENSE_SITES if site not in dense] == []
