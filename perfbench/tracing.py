"""Span tracing of certattack's layers for the benchmark's traced run.

The package binds names with `from .x import y`, so a call looks its
callee up in the caller's module.  Each wrapper therefore replaces the
name where the caller looks it up; patching only the defining module
would record nothing.  A site is "<certattack module>.<name>" in that
sense: `smoothing.predict_all` is `gcn.predict_all` as the Monte Carlo
loop of `certattack.smoothing` calls it.
"""
import functools
import importlib
import inspect
import time

ROOT_SITE = "experiment.run_cell"

SITES = (
    "experiment.build_dataset", "experiment.split_nodes", "experiment.train",
    "experiment.pgd_evasion", "experiment.minmax_poisoning",
    "smoothing.sample_noise", "smoothing.apply_perturbation",
    "smoothing.predict_all", "smoothing.train_arrays",
    "smoothing.lower_bound_prob", "smoothing.worst_case_retained",
    "attacks.mc_counts_evasion", "attacks.mc_counts_poisoning",
    "attacks.gradients", "attacks.param_gradients", "attacks.project_budget",
    "attacks.discretize", "attacks.evaluate_attack",
    "attacks.relax_perturbation",
    "gcn.relax_perturbation", "gcn.train_arrays",
)

# Work a call does beyond counting as one call, read from its config
# argument: epochs trained, or noisy graphs classified / replicates trained.
WORK = {
    "smoothing.train_arrays": "epochs",
    "gcn.train_arrays": "epochs",
    "attacks.mc_counts_evasion": "num_samples",
    "attacks.mc_counts_poisoning": "num_samples",
}

MC_SITES = ("attacks.mc_counts_evasion", "attacks.mc_counts_poisoning")
LOOP_SITES = ("experiment.pgd_evasion", "experiment.minmax_poisoning")

# Per-layer metric -> (sites, measure).  Seconds are "self" (minus the
# traced calls made inside) or "total"; counts are "calls" or "work".
# Every value is per cell.
LAYER_METRICS = {
    "graph.build_s": (("experiment.build_dataset",
                       "experiment.split_nodes"), "self"),
    "perturb.apply_s": (("smoothing.apply_perturbation",), "self"),
    "perturb.apply_calls": (("smoothing.apply_perturbation",), "calls"),
    "perturb.relax_s": (("gcn.relax_perturbation",
                         "attacks.relax_perturbation"), "self"),
    "gcn.predict_s": (("smoothing.predict_all",), "self"),
    "gcn.predict_calls": (("smoothing.predict_all",), "calls"),
    "gcn.train_s": (("smoothing.train_arrays", "gcn.train_arrays"), "self"),
    "gcn.train_calls": (("smoothing.train_arrays", "gcn.train_arrays"),
                        "calls"),
    "gcn.train_epochs": (("smoothing.train_arrays", "gcn.train_arrays"),
                         "work"),
    "gcn.gradients_s": (("attacks.gradients",), "self"),
    "gcn.gradients_calls": (("attacks.gradients",), "calls"),
    "gcn.param_gradients_s": (("attacks.param_gradients",), "self"),
    "smoothing.noise_s": (("smoothing.sample_noise",), "self"),
    "smoothing.noise_calls": (("smoothing.sample_noise",), "calls"),
    "smoothing.mc_evasion_s": (("attacks.mc_counts_evasion",), "total"),
    "smoothing.mc_evasion_self_s": (("attacks.mc_counts_evasion",), "self"),
    "smoothing.mc_poisoning_s": (("attacks.mc_counts_poisoning",), "total"),
    "smoothing.mc_poisoning_self_s": (("attacks.mc_counts_poisoning",),
                                      "self"),
    "smoothing.refreshes": (MC_SITES, "calls"),
    "smoothing.samples": (MC_SITES, "work"),
    "smoothing.bounds_s": (("smoothing.lower_bound_prob",), "self"),
    "smoothing.bounds_calls": (("smoothing.lower_bound_prob",), "calls"),
    "smoothing.rho_s": (("smoothing.worst_case_retained",), "self"),
    "smoothing.radius_steps": (("smoothing.worst_case_retained",), "calls"),
    "attacks.loop_self_s": (LOOP_SITES, "self"),
    "attacks.attack_s": (LOOP_SITES, "total"),
    "attacks.project_s": (("attacks.project_budget",), "self"),
    "attacks.project_calls": (("attacks.project_budget",), "calls"),
    "attacks.discretize_s": (("attacks.discretize",), "total"),
    "attacks.evaluate_s": (("attacks.evaluate_attack",), "total"),
    "experiment.cell_self_s": ((ROOT_SITE,), "self"),
}


class Tracer:
    """Records one span per traced call: id, parent id, cell id, site,
    start, end and work.  Spans stay in memory until the run writes them."""

    def __init__(self):
        self.spans = []
        self.cell = None
        self._stack = []

    def wrap(self, site, fn):
        field = WORK.get(site)
        signature = inspect.signature(fn) if field else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0
            if field:
                config = signature.bind(*args, **kwargs).arguments["config"]
                work = getattr(config, field)
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.cell, site, 0.0, 0.0, work]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        """Wrap every site; returns a function that puts the originals back."""
        patched = []
        for site in SITES:
            module_name, name = site.split(".")
            module = importlib.import_module(f"certattack.{module_name}")
            original = getattr(module, name)
            patched.append((module, name, original))
            setattr(module, name, self.wrap(site, original))

        def restore():
            for module, name, original in patched:
                setattr(module, name, original)
        return restore


def layer_metrics(spans, scale):
    """Per-cell means of every LAYER_METRICS entry plus the derived ratios.

    `scale[cell]` multiplies that cell's seconds (the benchmark's
    host-speed factor); counts are not scaled.
    """
    child_time = [0.0] * len(spans)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_site = {}
    for span_id, _, cell, site, start, end, work in spans:
        total = (end - start) * scale[cell]
        acc = by_site.setdefault(site, {"total": 0.0, "self": 0.0,
                                        "calls": 0, "work": 0})
        acc["total"] += total
        acc["self"] += total - child_time[span_id] * scale[cell]
        acc["calls"] += 1
        acc["work"] += work
    cells = len(scale)
    empty = {"total": 0.0, "self": 0.0, "calls": 0, "work": 0}
    out = {}
    for metric, (sites, measure) in LAYER_METRICS.items():
        out[metric] = sum(by_site.get(s, empty)[measure]
                          for s in sites) / cells
    mc_s = out["smoothing.mc_evasion_s"] + out["smoothing.mc_poisoning_s"]
    refreshes = out["smoothing.refreshes"]
    out["smoothing.mc_evasion_refresh_s"] = (
        out["smoothing.mc_evasion_s"] / refreshes if refreshes else 0.0)
    out["smoothing.mc_poisoning_refresh_s"] = (
        out["smoothing.mc_poisoning_s"] / refreshes if refreshes else 0.0)
    out["smoothing.samples_per_s"] = (
        out["smoothing.samples"] / mc_s if mc_s else 0.0)
    out["attacks.cert_s"] = (mc_s + out["smoothing.bounds_s"]
                             + out["smoothing.rho_s"])
    out["attacks.cert_share"] = (out["attacks.cert_s"]
                                 / out["attacks.attack_s"])
    return out
