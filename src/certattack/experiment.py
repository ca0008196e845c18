"""Experiment sweeps, distribution reports, runtime profiling, and the
writers and readers of every file the package writes.

Configs are plain key=value files with INI section headers so they diff
cleanly; sweep cells are independent jobs whose rows are merged in a
deterministic (seed, value, scheme) order, never by completion order.
Wall-clock columns live in a separate timings file so the raw results CSV
is byte-identical across reruns of the same config.  Every output file is
written beside its target and then moved over it, so a failed write
leaves the previous file whole.
"""
import configparser
import csv
import math
import os
import struct
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .attacks import (AttackConfig, AttackReport, minmax_poisoning,
                      pgd_evasion)
from .errors import (CertAttackError, DimensionError, GraphLoadError,
                     ParameterError)
from .gcn import GCNParams, TrainConfig, train
from .graph import DataSplit, Graph, load_graph, split_nodes, synth_sbm
from .perturb import infer_n, num_pairs, triu_pairs
from .smoothing import (Certificates, NoiseSpec, SmoothingConfig,
                        lower_bound_prob, mix_seed)

SWEEP_AXES = ("budget_ratio", "beta", "alpha", "num_samples", "sharpness",
              "scheme")


def _tokens(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# Every config key: section -> key -> parser of its text.  A key missing
# from the file keeps its dataclass default.
KEYS = {
    "dataset": {"kind": str, "n": int, "communities": int, "p_in": float,
                "p_out": float, "feature_dim": int, "seed": int,
                "edges": str, "features": str, "labels": str,
                "num_classes": int},
    "split": {"train_ratio": float, "val_ratio": float, "test_ratio": float,
              "seeds": lambda raw: tuple(map(int, _tokens(raw)))},
    "train": {"learning_rate": float, "epochs": int, "weight_decay": float,
              "hidden_dim": int},
    "attack": {"mode": str, "budget_ratio": float, "iterations": int,
               "refresh_interval": int, "step_size": float,
               "inner_step_size": float, "loss": str, "kappa": float,
               "num_samples": int, "alpha": float, "beta": float,
               "sharpness": float, "scheme": str, "discretize_trials": int},
    "sweep": {"axis": str, "values": _tokens},
    "output": {"directory": str},
}

# Field path in ExperimentConfig of each [attack] key that is not
# attack.<key>; sweep axes are [attack] keys.
ATTACK_PATHS = {
    "mode": "mode", "budget_ratio": "budget_ratio",
    "beta": "attack.noise.beta", "loss": "attack.loss.tag",
    "kappa": "attack.loss.kappa", "scheme": "attack.scheme.tag",
    "sharpness": "attack.scheme.a", "alpha": "attack.smoothing.alpha",
    "num_samples": "attack.smoothing.num_samples",
}

# The only defaults that depend on the mode; a poisoning attack retrains
# N replicates at each refresh, so it runs fewer, cheaper iterations.
MODE_DEFAULTS = {"poisoning": {"iterations": 10, "refresh_interval": 2,
                               "num_samples": 20}}


def parse_key(section: str, key: str, raw: str):
    """The value of one config key parsed from its text; an unknown key or
    a malformed value, a NaN or infinite float among them, is a
    ParameterError."""
    parse = KEYS[section].get(key)
    if parse is None:
        raise ParameterError(f"unknown key {key!r} in section [{section}]")
    try:
        value = parse(raw.strip())
        if parse is float and not math.isfinite(value):
            raise ValueError
        return value
    except ValueError:
        raise ParameterError(f"bad value for {key}: {raw!r}") from None


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
        if self.seed < 0:
            raise ParameterError(f"dataset seed {self.seed} is negative")


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
        for value in self.sweep_values:
            parse_key("attack", self.sweep_axis, value)
        if not self.seeds or min(self.seeds) < 0:
            raise ParameterError(f"seeds must be a non-empty list of "
                                 f"nonnegative integers, got {self.seeds}")


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


def _replace_at(obj, path: str, value):
    """obj with the field at a dotted attribute path replaced by value."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_at(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def set_attack_key(config: ExperimentConfig, key: str, value
                   ) -> ExperimentConfig:
    """config with one parsed [attack] key or sweep value set in its field."""
    return _replace_at(config, ATTACK_PATHS.get(key, f"attack.{key}"), value)


def parse_config(path) -> ExperimentConfig:
    """Parse a key=value experiment config file; every key is checked and
    parsed here, and a missing key keeps its dataclass default."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise ParameterError(f"cannot read config file {path}")
        texts = {section: dict(parser[section].items())
                 for section in parser.sections()}
    except configparser.Error as exc:  # a syntax or interpolation error
        raise ParameterError(f"{path}: {exc}") from None
    values = {section: {} for section in KEYS}
    for section, items in texts.items():
        if section not in KEYS:
            raise ParameterError(f"unknown config section [{section}]")
        values[section] = {key: parse_key(section, key, raw)
                           for key, raw in items.items()}
    split, sweep = values["split"], values["sweep"]
    config = ExperimentConfig(dataset=DatasetConfig(**values["dataset"]),
                              train=TrainConfig(**values["train"]))
    config = replace(
        config,
        ratios=tuple(split.get(key, ratio) for key, ratio in zip(
            ("train_ratio", "val_ratio", "test_ratio"), config.ratios)),
        seeds=split.get("seeds", config.seeds),
        sweep_axis=sweep.get("axis", config.sweep_axis),
        sweep_values=sweep.get("values", config.sweep_values),
        out_dir=values["output"].get("directory", config.out_dir))
    attack = values["attack"]
    for key, value in {**MODE_DEFAULTS.get(attack.get("mode"), {}),
                       **attack}.items():
        config = set_attack_key(config, key, value)
    return config


def build_dataset(dataset: DatasetConfig) -> Graph:
    if dataset.kind == "sbm":
        return synth_sbm(dataset.n, dataset.communities, dataset.p_in,
                         dataset.p_out, dataset.feature_dim, dataset.seed)
    return load_graph(dataset.edges, dataset.features, dataset.labels,
                      num_classes=dataset.num_classes)


def prepare_cell(config: ExperimentConfig, seed: int, value=None):
    """(graph, split, train config, attack config) of one cell: the config
    with the sweep value, if given, and the per-seed streams applied."""
    graph = build_dataset(config.dataset)
    if value is not None:
        config = set_attack_key(config, config.sweep_axis,
                                parse_key("attack", config.sweep_axis, value))
    attack = config.attack
    attack = replace(attack, budget=int(config.budget_ratio * graph.num_edges),
                     smoothing=replace(attack.smoothing, seed=mix_seed(seed, 3)),
                     scheme=replace(attack.scheme, seed=mix_seed(seed, 4)),
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
            fmt(row.post_accuracy), fmt(row.budget_used), row.status,
            row.reason]

HEADERS = {"raw_results": ["seed", "axis", "value", "scheme", "pre_accuracy",
                           "post_accuracy", "budget_used", "status", "reason"],
           "timings": ["seed", "value", "scheme", "attack_seconds",
                       "cert_seconds"]}


def _read_existing_rows(path: Path) -> dict:
    """Rows of a previous run that finished, with the timings that the
    timings.csv beside it records; failed cells run again.  A foreign
    header or a malformed row in either file is a ParameterError naming
    file and line."""
    def records(csv_path, header, parse):
        if not csv_path.exists():
            return
        with open(csv_path, "r", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != header:
                raise ParameterError(f"{csv_path}:1: unexpected header")
            for rec in reader:
                try:
                    if None in rec or None in rec.values():
                        raise ValueError(f"expected {len(header)} fields")
                    yield parse(rec)
                except ValueError as exc:
                    raise ParameterError(
                        f"{csv_path}:{reader.line_num}: {exc}") from None

    done = {row.sort_key(): row for row in records(
        path, HEADERS["raw_results"], lambda rec: rec["status"] == "ok" and
        ResultRow(int(rec["seed"]), rec["axis"], rec["value"], rec["scheme"],
                  float(rec["pre_accuracy"]), float(rec["post_accuracy"]),
                  int(rec["budget_used"]))) if row}
    for key, *seconds in records(path.with_name("timings.csv"),
                                 HEADERS["timings"], lambda rec: (
            (int(rec["seed"]), rec["value"], rec["scheme"]),
            float(rec["attack_seconds"]), float(rec["cert_seconds"]))):
        if key in done:
            done[key].attack_seconds, done[key].cert_seconds = seconds
    return done


def run_sweep(config: ExperimentConfig, jobs: int = 1,
              resume: bool = False) -> list[ResultRow]:
    """Run every (seed, sweep value) cell and write raw/summary/timings CSVs.

    A failing cell is recorded as a failed row and the sweep continues;
    with resume=True, cells with an ok row in the raw CSV are skipped and
    keep their timings.  Pending cells run on min(jobs, cells) worker
    processes; jobs must be at least 1.
    The merged raw CSV is rewritten in full, sorted, so its bytes do not
    depend on scheduling or on how many resume passes produced it.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(config.out_dir)
    raw_path = out_dir / "raw_results.csv"
    existing = _read_existing_rows(raw_path) if resume else {}
    cells = [(seed, value) for seed in config.seeds
             for value in config.sweep_values]
    pending = [(s, v) for (s, v) in cells
               if (s, v, _cell_scheme_tag(config, v)) not in existing]
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            fresh = list(pool.map(run_cell, [config] * len(pending),
                                  [s for s, _ in pending],
                                  [v for _, v in pending]))
    else:
        fresh = [run_cell(config, s, v) for s, v in pending]
    rows = list(existing.values()) + fresh
    rows.sort(key=ResultRow.sort_key)
    _write_csv(raw_path, [HEADERS["raw_results"], *map(_row_record, rows)])
    _write_csv(out_dir / "summary.csv",
               [["value", "scheme", "cells", "failures", "mean_pre", "std_pre",
                 "mean_post", "std_post"], *_summary_records(rows)])
    _write_csv(out_dir / "timings.csv", [HEADERS["timings"], *(
        [row.seed, row.value, row.scheme, f"{row.attack_seconds:.6f}",
         f"{row.cert_seconds:.6f}"] for row in rows)])
    return rows


def _cell_scheme_tag(config: ExperimentConfig, value: str) -> str:
    return value if config.sweep_axis == "scheme" else config.attack.scheme.tag


def _summary_records(rows: list[ResultRow]):
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.value, row.scheme), []).append(row)
    for (value, scheme), cell_rows in sorted(groups.items()):
        ok = [r for r in cell_rows if r.status == "ok"]
        record = [value, scheme, len(cell_rows), len(cell_rows) - len(ok)]
        if ok:
            pre = np.asarray([r.pre_accuracy for r in ok])
            post = np.asarray([r.post_accuracy for r in ok])
            record += [repr(float(pre.mean())), repr(float(pre.std())),
                       repr(float(post.mean())), repr(float(post.std()))]
        else:
            record += ["", "", "", ""]
        yield record


def report_distribution(delta_binary: np.ndarray,
                        certificates: dict[int, int] | Certificates,
                        path=None) -> dict:
    """Histogram of perturbed edges against incident certified sizes.

    `certificates` is a {node: certified size} map (as read back by
    read_certificates_csv) or a Certificates.  Every perturbed pair
    contributes one entry per incident target node (mapped to that node's
    certified size); pairs touching no target node fall into the 'none'
    bin.  Returns {size_or_'none': count} and optionally writes it as CSV.
    """
    sizes = (certificates if isinstance(certificates, dict) else
             dict(zip(certificates.nodes.tolist(),
                      certificates.sizes.tolist())))
    delta_binary = np.asarray(delta_binary)
    rows, cols = triu_pairs(infer_n(delta_binary.size))
    histogram = Counter()
    for p in np.flatnonzero(delta_binary != 0):
        hits = [sizes[end] for end in (int(rows[p]), int(cols[p]))
                if end in sizes]
        histogram.update(hits or ["none"])
    if path is not None:
        keys = sorted(k for k in histogram if k != "none")
        if "none" in histogram:
            keys.append("none")
        _write_csv(path, [["certified_size", "edge_count"],
                          *([key, histogram[key]] for key in keys)])
    return dict(histogram)


def runtime_profile(config: ExperimentConfig, sample_counts: list[int],
                    path=None) -> list[tuple]:
    """Attack and certification wall time per Monte Carlo sample count,
    on the first seed with the config's own [attack] keys."""
    graph, split, train_config, attack = prepare_cell(config,
                                                      config.seeds[0])
    # A certified attack loads scipy.special at its first bound; loaded
    # here, the import is not timed as the first count's certification.
    import scipy.special  # noqa: F401
    results = []
    for n_samples in sample_counts:
        cell_attack = _replace_at(attack, "smoothing.num_samples", n_samples)
        start = time.perf_counter()
        report = run_attack(config.mode, graph, split, train_config,
                            cell_attack)
        total = time.perf_counter() - start
        results.append((n_samples, total, report.cert_seconds))
    if path is not None:
        _write_csv(path, [["num_samples", "attack_seconds", "cert_seconds"],
                          *([n, f"{total:.6f}", f"{cert:.6f}"]
                            for n, total, cert in results)])
    return results


def _replace_file(path, write, **open_args) -> None:
    """Call write(fh) on a temp file beside `path`, opened with open_args,
    then move it over `path`, making its directory first: a crash while
    writing leaves the previous file whole and no temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, **open_args) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a failed write


def _read_file(path, what: str, read, **open_args):
    """read(fh) of `path` opened with open_args; a file that cannot be
    opened or read is a GraphLoadError naming it as `what`."""
    try:
        with open(path, **open_args) as fh:
            return read(fh)
    except OSError as exc:
        raise GraphLoadError(f"{path}: cannot read {what}: {exc}") from exc


def _write_csv(path, rows, **dialect) -> None:
    """Replace `path` with the CSV of rows, header included, written with
    the csv module's dialect arguments."""
    _replace_file(path, lambda fh: csv.writer(fh, **dialect).writerows(rows),
                  mode="w", newline="", encoding="utf-8")


def write_certificates_csv(certs: Certificates, spec: NoiseSpec,
                           config: SmoothingConfig, path) -> None:
    """One row per target: its smoothed label (its counts' argmax) and
    that label's count, the N samples its counts sum to, and p_lower, the
    lower_bound_prob of its true-label count."""
    rows = zip(certs.nodes.tolist(), certs.labels.tolist(),
               certs.counts.tolist(), certs.counts.argmax(axis=1).tolist(),
               certs.sizes.tolist())
    _write_csv(path, [
        ["node", "true_label", "smoothed_label", "top_count", "N", "alpha",
         "beta", "p_lower", "K"],
        *([node, label, top, row[top], sum(row), repr(config.alpha),
           repr(spec.beta),
           repr(lower_bound_prob(row[label], sum(row), config.alpha)), k]
          for node, label, row, top, k in rows)])


def read_certificates_csv(path) -> dict[int, int]:
    """node -> certified size map from an exported certificate CSV.

    A file that cannot be read is a GraphLoadError naming the file; a
    missing node or K column, or a node or K that is not a nonnegative
    integer, is one naming the file and line.
    """
    lines = _read_file(path, "certificate file", list, newline="")
    reader = csv.DictReader(lines, restval="")
    if not {"node", "K"} <= set(reader.fieldnames or ()):
        raise GraphLoadError(f"{path}:1: need node and K columns, got "
                             f"{reader.fieldnames}")
    sizes = {}
    for row in reader:
        # A decimal string is a nonnegative integer that int() reads.
        if not (row["node"].isdecimal() and row["K"].isdecimal()):
            raise GraphLoadError(
                f"{path}:{reader.line_num}: node and K must be "
                f"nonnegative integers, got {row['node']!r}, {row['K']!r}")
        sizes[int(row["node"])] = int(row["K"])
    return sizes


def write_report_csv(report: AttackReport, scheme_tag: str, path) -> None:
    """Per-iteration trace followed by a one-row summary section."""
    _write_csv(path, [
        ["iteration", "cr_loss", "feasible_mass"],
        *([t, repr(float(loss)), repr(float(mass))] for t, (loss, mass)
          in enumerate(zip(report.per_iteration_loss,
                           report.per_iteration_mass))),
        [],
        ["scheme", "budget", "pre_accuracy", "post_accuracy",
         "runtime_seconds"],
        [scheme_tag, report.perturbation.budget,
         repr(report.pre_attack_accuracy), repr(report.post_attack_accuracy),
         repr(report.attack_seconds)]])


def write_delta_edges(delta_binary: np.ndarray, adjacency: np.ndarray,
                      path) -> None:
    """Flip list: one 's<TAB>t<TAB>direction' line per perturbed pair."""
    n = adjacency.shape[0]
    delta_binary = np.asarray(delta_binary)
    if delta_binary.shape != (num_pairs(n),):
        raise DimensionError("flip vector does not match the adjacency size")
    s, t = (ends[delta_binary != 0] for ends in triu_pairs(n))
    directions = np.where(adjacency[s, t] != 0, "remove", "add")
    _write_csv(path, zip(s.tolist(), t.tolist(), directions.tolist()),
               delimiter="\t", lineterminator="\n")


def read_delta_edges(path, n: int | None = None) -> np.ndarray:
    """Inverse of write_delta_edges: the flip vector over n nodes, by
    default the fewest nodes that hold every listed pair.

    Lines are whitespace-separated 's t direction'.  A file that cannot be
    read is a GraphLoadError naming the file; a malformed line, a self-pair
    or an index outside [0, n) is one naming the file and line.
    """
    pairs = []
    lines = _read_file(path, "flip file", list, encoding="utf-8")
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            continue
        where = f"{path}:{lineno}"
        # A decimal token is a nonnegative integer that int() reads.
        if not (len(toks) == 3 and toks[0].isdecimal()
                and toks[1].isdecimal() and toks[2] in ("add", "remove")):
            raise GraphLoadError(
                f"{where}: expected 's t add|remove', got {line.strip()!r}")
        s, t = int(toks[0]), int(toks[1])
        if s == t:
            raise GraphLoadError(f"{where}: self-pair ({s}, {t})")
        if n is not None and max(s, t) >= n:
            raise GraphLoadError(f"{where}: node index outside [0, {n})")
        pairs.append((s, t))
    if n is None:
        n = 1 + max((max(pair) for pair in pairs), default=0)
    s, t = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    marked = np.zeros((n, n), dtype=np.int8)
    marked[s, t] = marked[t, s] = 1
    return marked[triu_pairs(n)]


_MAGIC = b"GCNPARAM"
_VERSION = 1


def save_params(params: GCNParams, path) -> None:
    """Binary checkpoint: magic, version, then per-matrix dims and float64
    row-major entries, all little-endian."""
    def write(fh):
        fh.write(_MAGIC + struct.pack("<Q", _VERSION))
        for mat in (params.W1, params.W2):
            fh.write(struct.pack("<QQ", *mat.shape))
            fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())

    _replace_file(path, write, mode="wb")


def load_params(path) -> GCNParams:
    """Inverse of save_params; a file that cannot be read is a
    GraphLoadError naming it, and one that is not a whole checkpoint a
    ParameterError.  Each matrix's size is checked against the bytes left
    before it is read, and no byte may follow W2."""
    data = memoryview(_read_file(path, "checkpoint", lambda fh: fh.read(),
                                 mode="rb"))
    if data[:len(_MAGIC)] != _MAGIC:
        raise ParameterError(f"{path}: not a GCN checkpoint")
    offset = len(_MAGIC)

    def read(size):
        nonlocal offset
        if size > len(data) - offset:
            raise ParameterError(f"{path}: truncated checkpoint")
        offset += size
        return data[offset - size:offset]

    (version,) = struct.unpack("<Q", read(8))
    if version != _VERSION:
        raise ParameterError(f"{path}: unsupported checkpoint version {version}")
    mats = []
    for _ in range(2):
        rows, cols = struct.unpack("<QQ", read(16))
        if rows * cols == 0:  # numpy cannot shape (0, 2**62)
            raise ParameterError(f"{path}: empty weight matrix")
        buf = read(rows * cols * 8)
        mats.append(np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy())
    if offset != len(data):
        raise ParameterError(f"{path}: {len(data) - offset} bytes after the "
                             "checkpoint")
    return GCNParams(*mats)
