"""Experiment sweeps, distribution reports and runtime profiling.

Configs are plain key=value files with INI section headers so they diff
cleanly; sweep cells are independent jobs whose rows are merged in a
deterministic (seed, value, scheme) order, never by completion order.
Wall-clock columns live in a separate timings file so the raw results CSV
is byte-identical across reruns of the same config.
"""
import configparser
import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attacks import (AttackConfig, AttackReport, WeightScheme,
                      minmax_poisoning, pgd_evasion)
from .errors import CertAttackError, ParameterError
from .gcn import LossKind, TrainConfig, train
from .graph import DataSplit, Graph, load_graph, split_nodes, synth_sbm
from .perturb import infer_n, triu_pairs
from .smoothing import Certificate, NoiseSpec, SmoothingConfig, mix_seed

SWEEP_AXES = ("budget_ratio", "beta", "alpha", "num_samples", "sharpness",
              "scheme")


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "sbm"
    n: int = 100
    communities: int = 2
    p_in: float = 0.1
    p_out: float = 0.01
    feature_dim: int = 8
    seed: int = 0
    edges: str = ""
    features: str = ""
    labels: str = ""
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind not in ("sbm", "files"):
            raise ParameterError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "files" and not (self.edges and self.features
                                         and self.labels):
            raise ParameterError(
                "files dataset needs edges, features and labels paths")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    ratios: tuple = (0.1, 0.1, 0.8)
    seeds: tuple = (0,)
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "evasion"
    budget_ratio: float = 0.2
    attack: AttackConfig = field(default_factory=lambda: AttackConfig(budget=1))
    sweep_axis: str = "scheme"
    sweep_values: tuple = ("uniform", "certified")
    out_dir: str = "out"

    def __post_init__(self):
        if self.mode not in ("evasion", "poisoning"):
            raise ParameterError(f"unknown attack mode {self.mode!r}")
        if self.sweep_axis not in SWEEP_AXES:
            raise ParameterError(
                f"sweep axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not self.sweep_values:
            raise ParameterError("sweep values must be non-empty")
        # Parsed here so a malformed value is a config error; range checks
        # stay in the cell, where they make a failed row.
        cast = {"scheme": str, "num_samples": int}.get(self.sweep_axis, float)
        for value in self.sweep_values:
            try:
                cast(value)
            except (TypeError, ValueError):
                raise ParameterError(f"bad {self.sweep_axis} sweep value "
                                     f"{value!r}") from None
        if not self.seeds:
            raise ParameterError("seeds list must be non-empty")


@dataclass
class ResultRow:
    seed: int
    axis: str
    value: str
    scheme: str
    pre_accuracy: float | None
    post_accuracy: float | None
    budget_used: int | None
    attack_seconds: float = 0.0
    cert_seconds: float = 0.0
    status: str = "ok"
    reason: str = ""

    def sort_key(self):
        return (self.seed, self.value, self.scheme)


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    raw = section[key].strip()
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParameterError(f"bad value for {key}: {raw!r}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse a key=value experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ParameterError(f"cannot read config file {path}")
    ds = parser["dataset"] if "dataset" in parser else None
    dataset = DatasetConfig(
        kind=_get(ds, "kind", str, "sbm"),
        n=_get(ds, "n", int, 100),
        communities=_get(ds, "communities", int, 2),
        p_in=_get(ds, "p_in", float, 0.1),
        p_out=_get(ds, "p_out", float, 0.01),
        feature_dim=_get(ds, "feature_dim", int, 8),
        seed=_get(ds, "seed", int, 0),
        edges=_get(ds, "edges", str, ""),
        features=_get(ds, "features", str, ""),
        labels=_get(ds, "labels", str, ""),
        num_classes=_get(ds, "num_classes", int, None))
    sp = parser["split"] if "split" in parser else None
    ratios = (_get(sp, "train_ratio", float, 0.1),
              _get(sp, "val_ratio", float, 0.1),
              _get(sp, "test_ratio", float, 0.8))
    seeds = tuple(int(tok) for tok in
                  _get(sp, "seeds", str, "0").split(",") if tok.strip())
    tr = parser["train"] if "train" in parser else None
    train_config = TrainConfig(
        learning_rate=_get(tr, "learning_rate", float, 0.05),
        epochs=_get(tr, "epochs", int, 200),
        weight_decay=_get(tr, "weight_decay", float, 5e-4),
        hidden_dim=_get(tr, "hidden_dim", int, 16))
    at = parser["attack"] if "attack" in parser else None
    mode = _get(at, "mode", str, "evasion")
    loss = LossKind(_get(at, "loss", str, "cross_entropy"),
                    _get(at, "kappa", float, 0.0))
    attack = AttackConfig(
        budget=1,
        iterations=_get(at, "iterations", int, 100 if mode == "evasion" else 10),
        refresh_interval=_get(at, "refresh_interval", int,
                              10 if mode == "evasion" else 2),
        step_size=_get(at, "step_size", float, 0.1),
        inner_step_size=_get(at, "inner_step_size", float, 0.01),
        loss=loss,
        smoothing=SmoothingConfig(
            num_samples=_get(at, "num_samples", int,
                             200 if mode == "evasion" else 20),
            alpha=_get(at, "alpha", float, 0.1)),
        noise=NoiseSpec(_get(at, "beta", float, 0.999)),
        scheme=WeightScheme(_get(at, "scheme", str, "certified"),
                            _get(at, "sharpness", float, 1.0)),
        discretize_trials=_get(at, "discretize_trials", int, 20))
    sw = parser["sweep"] if "sweep" in parser else None
    axis = _get(sw, "axis", str, "scheme")
    values = tuple(tok.strip() for tok in
                   _get(sw, "values", str, "uniform,certified").split(",")
                   if tok.strip())
    out = parser["output"] if "output" in parser else None
    return ExperimentConfig(
        dataset=dataset, ratios=ratios, seeds=seeds, train=train_config,
        mode=mode, budget_ratio=_get(at, "budget_ratio", float, 0.2),
        attack=attack, sweep_axis=axis, sweep_values=values,
        out_dir=_get(out, "directory", str, "out"))


def build_dataset(dataset: DatasetConfig) -> Graph:
    if dataset.kind == "sbm":
        return synth_sbm(dataset.n, dataset.communities, dataset.p_in,
                         dataset.p_out, dataset.feature_dim, dataset.seed)
    return load_graph(dataset.edges, dataset.features, dataset.labels,
                      num_classes=dataset.num_classes)


def prepare_cell(config: ExperimentConfig, seed: int, value: str):
    """(graph, split, train config, attack config) of one sweep cell, with
    the sweep value and the per-seed streams applied."""
    graph = build_dataset(config.dataset)
    attack = config.attack
    budget_ratio = config.budget_ratio
    scheme = attack.scheme
    smoothing = attack.smoothing
    noise = attack.noise
    axis = config.sweep_axis
    if axis == "budget_ratio":
        budget_ratio = float(value)
    elif axis == "beta":
        noise = NoiseSpec(float(value))
    elif axis == "alpha":
        smoothing = replace(smoothing, alpha=float(value))
    elif axis == "num_samples":
        smoothing = replace(smoothing, num_samples=int(value))
    elif axis == "sharpness":
        scheme = replace(scheme, a=float(value))
    elif axis == "scheme":
        scheme = replace(scheme, tag=value)
    budget = int(budget_ratio * graph.num_edges)
    attack = replace(attack, budget=budget,
                     smoothing=replace(smoothing, seed=mix_seed(seed, 3)),
                     scheme=replace(scheme, seed=mix_seed(seed, 4)),
                     seed=mix_seed(seed, 2))
    split = split_nodes(graph, config.ratios, seed)
    train_config = replace(config.train, seed=mix_seed(seed, 1))
    return graph, split, train_config, attack


def run_attack(mode: str, graph: Graph, split: DataSplit,
               train_config: TrainConfig, attack: AttackConfig
               ) -> AttackReport:
    """The mode's attack on a prepared cell; evasion first trains the
    model it attacks."""
    if mode == "evasion":
        params = train(graph, split, graph.adjacency, train_config)
        return pgd_evasion(params, graph, split, attack)
    return minmax_poisoning(graph, split, train_config, attack)


def run_cell(config: ExperimentConfig, seed: int, value: str) -> ResultRow:
    """One fully deterministic (seed, sweep value) attack evaluation.

    Package, arithmetic and linear-algebra failures become a failed row so
    the sweep goes on; any other exception is a bug and propagates.
    """
    row = ResultRow(seed=seed, axis=config.sweep_axis, value=value,
                    scheme=_cell_scheme_tag(config, value), pre_accuracy=None,
                    post_accuracy=None, budget_used=None)
    try:
        graph, split, train_config, attack = prepare_cell(config, seed, value)
        start = time.perf_counter()
        report = run_attack(config.mode, graph, split, train_config, attack)
        row.pre_accuracy = report.pre_attack_accuracy
        row.post_accuracy = report.post_attack_accuracy
        row.budget_used = report.budget_used
        row.attack_seconds = time.perf_counter() - start
        row.cert_seconds = report.cert_seconds
    except (CertAttackError, ArithmeticError, np.linalg.LinAlgError) as exc:
        row.status = "failed"
        row.reason = " ".join(str(exc).split())
    return row


def _row_record(row: ResultRow) -> list:
    fmt = lambda v: "" if v is None else repr(v)
    return [row.seed, row.axis, row.value, row.scheme, fmt(row.pre_accuracy),
            fmt(row.post_accuracy),
            "" if row.budget_used is None else row.budget_used,
            row.status, row.reason]

RAW_HEADER = ["seed", "axis", "value", "scheme", "pre_accuracy",
              "post_accuracy", "budget_used", "status", "reason"]


def _read_existing_rows(path: Path) -> dict:
    """Rows of a previous run that finished, with the timings that the
    timings.csv beside it records; failed cells run again."""
    done = {}
    if not path.exists():
        return done
    with open(path, "r", newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["status"] != "ok":
                continue
            key = (int(rec["seed"]), rec["value"], rec["scheme"])
            done[key] = ResultRow(
                seed=int(rec["seed"]), axis=rec["axis"], value=rec["value"],
                scheme=rec["scheme"],
                pre_accuracy=float(rec["pre_accuracy"]),
                post_accuracy=float(rec["post_accuracy"]),
                budget_used=int(rec["budget_used"]))
    timings_path = path.with_name("timings.csv")
    if timings_path.exists():
        with open(timings_path, "r", newline="") as fh:
            for rec in csv.DictReader(fh):
                row = done.get((int(rec["seed"]), rec["value"],
                                rec["scheme"]))
                if row is not None:
                    row.attack_seconds = float(rec["attack_seconds"])
                    row.cert_seconds = float(rec["cert_seconds"])
    return done


def run_sweep(config: ExperimentConfig, jobs: int = 1,
              resume: bool = False) -> list[ResultRow]:
    """Run every (seed, sweep value) cell and write raw/summary/timings CSVs.

    A failing cell is recorded as a failed row and the sweep continues;
    with resume=True, cells with an ok row in the raw CSV are skipped and
    keep their timings.
    The merged raw CSV is rewritten in full, sorted, so its bytes do not
    depend on scheduling or on how many resume passes produced it.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / "raw_results.csv"
    existing = _read_existing_rows(raw_path) if resume else {}
    cells = [(seed, value) for seed in config.seeds
             for value in config.sweep_values]
    pending = [(s, v) for (s, v) in cells
               if (s, v, _cell_scheme_tag(config, v)) not in existing]
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fresh = list(pool.map(run_cell, [config] * len(pending),
                                  [s for s, _ in pending],
                                  [v for _, v in pending]))
    else:
        fresh = [run_cell(config, s, v) for s, v in pending]
    rows = list(existing.values()) + fresh
    rows.sort(key=ResultRow.sort_key)
    with open(raw_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for row in rows:
            writer.writerow(_row_record(row))
    _write_summary(rows, out_dir / "summary.csv")
    with open(out_dir / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "value", "scheme", "attack_seconds",
                         "cert_seconds"])
        for row in rows:
            writer.writerow([row.seed, row.value, row.scheme,
                             f"{row.attack_seconds:.6f}",
                             f"{row.cert_seconds:.6f}"])
    return rows


def _cell_scheme_tag(config: ExperimentConfig, value: str) -> str:
    return value if config.sweep_axis == "scheme" else config.attack.scheme.tag


def _write_summary(rows: list[ResultRow], path) -> None:
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.value, row.scheme), []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "scheme", "cells", "failures", "mean_pre",
                         "std_pre", "mean_post", "std_post"])
        for (value, scheme) in sorted(groups):
            cell_rows = groups[(value, scheme)]
            ok = [r for r in cell_rows if r.status == "ok"]
            record = [value, scheme, len(cell_rows), len(cell_rows) - len(ok)]
            if ok:
                pre = np.asarray([r.pre_accuracy for r in ok])
                post = np.asarray([r.post_accuracy for r in ok])
                record += [repr(float(pre.mean())), repr(float(pre.std())),
                           repr(float(post.mean())), repr(float(post.std()))]
            else:
                record += ["", "", "", ""]
            writer.writerow(record)


def report_distribution(delta_binary: np.ndarray,
                        certificates: dict[int, int] | list[Certificate],
                        path=None) -> dict:
    """Histogram of perturbed edges against incident certified sizes.

    `certificates` is a {node: certified size} map (as read back by
    read_certificates_csv) or a list of Certificate.  Every perturbed pair
    contributes one entry per incident target node (mapped to that node's
    certified size); pairs touching no target node fall into the 'none'
    bin.  Returns {size_or_'none': count} and optionally writes it as CSV.
    """
    sizes = (certificates if isinstance(certificates, dict) else
             {cert.node: cert.certified_size for cert in certificates})
    delta_binary = np.asarray(delta_binary)
    rows, cols = triu_pairs(infer_n(delta_binary.size))
    histogram: dict = {}
    for p in np.flatnonzero(delta_binary):
        hit = False
        for endpoint in (int(rows[p]), int(cols[p])):
            if endpoint in sizes:
                histogram[sizes[endpoint]] = histogram.get(sizes[endpoint], 0) + 1
                hit = True
        if not hit:
            histogram["none"] = histogram.get("none", 0) + 1
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["certified_size", "edge_count"])
            for key in sorted(k for k in histogram if k != "none"):
                writer.writerow([key, histogram[key]])
            if "none" in histogram:
                writer.writerow(["none", histogram["none"]])
    return histogram


def low_size_fraction(histogram: dict, threshold: int = 1) -> float:
    """Fraction of mapped histogram entries with certified size <= threshold."""
    mapped = {k: v for k, v in histogram.items() if k != "none"}
    total = sum(mapped.values())
    if total == 0:
        return 0.0
    low = sum(v for k, v in mapped.items() if k <= threshold)
    return low / total


def runtime_profile(config: ExperimentConfig, sample_counts: list[int],
                    path=None) -> list[tuple]:
    """Attack and certification wall time per Monte Carlo sample count."""
    graph, split, train_config, attack = prepare_cell(
        config, config.seeds[0], config.sweep_values[0])
    results = []
    for n_samples in sample_counts:
        cell_attack = replace(attack, smoothing=replace(
            attack.smoothing, num_samples=n_samples))
        start = time.perf_counter()
        report = run_attack(config.mode, graph, split, train_config,
                            cell_attack)
        total = time.perf_counter() - start
        results.append((n_samples, total, report.cert_seconds))
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["num_samples", "attack_seconds", "cert_seconds"])
            for n_samples, total, cert in results:
                writer.writerow([n_samples, f"{total:.6f}", f"{cert:.6f}"])
    return results
