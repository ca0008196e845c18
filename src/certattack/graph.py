"""Graph data model, dataset I/O, synthetic benchmarks, splits and metrics."""
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GraphLoadError, ParameterError
from .perturb import num_pairs, triu_pairs


@dataclass(frozen=True)
class Graph:
    """Immutable node-classification instance.

    adjacency: n-by-n symmetric 0/1 matrix with zero diagonal (int8)
    features:  n-by-d real matrix
    labels:    length-n class indices in [0, num_classes)
    """
    adjacency: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        adjacency = np.ascontiguousarray(self.adjacency, dtype=np.int8)
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        n = adjacency.shape[0]
        if adjacency.shape != (n, n):
            raise ParameterError(f"adjacency must be square, got {adjacency.shape}")
        if not np.isin(adjacency, (0, 1)).all():
            raise ParameterError("adjacency entries must be 0 or 1")
        if (adjacency != adjacency.T).any():
            raise ParameterError("adjacency must be symmetric")
        if np.diagonal(adjacency).any():
            raise ParameterError("adjacency diagonal must be zero (no self-loops)")
        if features.shape[0] != n:
            raise ParameterError(
                f"features have {features.shape[0]} rows for {n} nodes")
        if not np.isfinite(features).all():
            raise ParameterError("features contain non-finite entries")
        if labels.shape != (n,):
            raise ParameterError(f"labels must have length {n}, got {labels.shape}")
        if self.num_classes < 1:
            raise ParameterError("num_classes must be positive")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise ParameterError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]")
        for name, arr in (("adjacency", adjacency), ("features", features),
                          ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    @property
    def num_pairs(self) -> int:
        return num_pairs(self.n)


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/val/test node-index sets over the nodes [0, n)."""
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    n: int

    def __post_init__(self):
        masks = {name: np.sort(np.asarray(getattr(self, name), dtype=np.int64))
                 for name in ("train", "val", "test")}
        merged = np.concatenate(list(masks.values()))
        if merged.size and (merged.min() < 0 or merged.max() >= self.n):
            raise ParameterError("split indices out of node range")
        if len(np.unique(merged)) != merged.size:
            raise ParameterError("split masks must be pairwise disjoint")
        if masks["train"].size == 0:
            raise ParameterError("train mask must be non-empty")
        for name, arr in masks.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _read_table(path, kind: str) -> list[list[str]]:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                rows.append((lineno, stripped))
    except OSError as exc:
        raise GraphLoadError(f"{path}: cannot read {kind} file: {exc}") from exc
    return rows


def load_graph(edges_path, features_path, labels_path,
               num_classes: int | None = None) -> Graph:
    """Load a graph from an edge list, a features CSV and a labels file.

    Edge file: one whitespace-separated 0-indexed pair per line, '#'
    comments allowed, undirected.  Self-loops and duplicate pairs are
    dropped with a single aggregated warning.  Features: headerless CSV,
    row i describes node i.  Labels: one integer per line.
    """
    feature_rows = []
    for lineno, line in _read_table(features_path, "features"):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise GraphLoadError(
                f"{features_path}:{lineno}: non-numeric feature entry") from exc
        if not all(math.isfinite(v) for v in row):
            raise GraphLoadError(
                f"{features_path}:{lineno}: non-finite feature entry")
        if feature_rows and len(row) != len(feature_rows[0]):
            raise GraphLoadError(
                f"{features_path}:{lineno}: inconsistent column count")
        feature_rows.append(row)
    if not feature_rows:
        raise GraphLoadError(f"{features_path}: empty features file")
    features = np.asarray(feature_rows, dtype=np.float64)
    n = features.shape[0]

    labels = []
    for lineno, line in _read_table(labels_path, "labels"):
        try:
            labels.append(int(line))
        except ValueError as exc:
            raise GraphLoadError(
                f"{labels_path}:{lineno}: non-integer label") from exc
    if len(labels) != n:
        raise GraphLoadError(
            f"{labels_path}: {len(labels)} labels for {n} feature rows "
            f"in {features_path}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise GraphLoadError(f"{labels_path}: negative label {labels.min()}")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    elif labels.max() >= num_classes:
        raise GraphLoadError(
            f"{labels_path}: label {labels.max()} outside [0, {num_classes})")

    adjacency = np.zeros((n, n), dtype=np.int8)
    dropped_loops = 0
    dropped_dupes = 0
    for lineno, line in _read_table(edges_path, "edges"):
        toks = line.split()
        if len(toks) != 2:
            raise GraphLoadError(
                f"{edges_path}:{lineno}: expected two node indices, got {line!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise GraphLoadError(
                f"{edges_path}:{lineno}: non-integer node index") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphLoadError(
                f"{edges_path}:{lineno}: node index out of range [0, {n})")
        if u == v:
            dropped_loops += 1
            continue
        if adjacency[u, v]:
            dropped_dupes += 1
            continue
        adjacency[u, v] = 1
        adjacency[v, u] = 1
    if dropped_loops or dropped_dupes:
        warnings.warn(
            f"{edges_path}: dropped {dropped_loops} self-loops and "
            f"{dropped_dupes} duplicate edges")
    return Graph(adjacency, features, labels, num_classes)


def synth_sbm(n: int, k: int, p_in: float, p_out: float,
              feature_dim: int, seed: int) -> Graph:
    """Stochastic-block-model benchmark graph with community labels.

    Features are a one-hot community indicator plus Gaussian noise with
    sigma 0.5; deterministic for a fixed seed.
    """
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ParameterError(
            f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if n < 2 or k < 1 or n % k != 0:
        raise ParameterError(f"n={n} must be a positive multiple of k={k}")
    if feature_dim < 1:
        raise ParameterError("feature_dim must be positive")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(k, dtype=np.int64), n // k)
    rows, cols = triu_pairs(n)
    same = labels[rows] == labels[cols]
    probs = np.where(same, p_in, p_out)
    vec = (rng.random(num_pairs(n)) < probs).astype(np.int8)
    adjacency = np.zeros((n, n), dtype=np.int8)
    adjacency[rows, cols] = vec
    adjacency[cols, rows] = vec
    features = np.zeros((n, feature_dim))
    features[np.arange(n), labels % feature_dim] = 1.0
    features += rng.normal(0.0, 0.5, size=(n, feature_dim))
    return Graph(adjacency, features, labels, num_classes=k)


def split_nodes(graph: Graph, ratios: tuple[float, float, float],
                seed: int) -> DataSplit:
    """Stratified-by-label random split, deterministic given the seed.

    Per class: floor(ratio * class size) nodes per mask, with at least one
    train node per class when the train ratio is positive.  When the ratios
    sum to one, per-class flooring leftovers are appended to test.
    """
    r_train, r_val, r_test = ratios
    if min(ratios) < 0 or r_train <= 0:
        raise ParameterError("ratios must be nonnegative with train ratio > 0")
    if sum(ratios) > 1.0 + 1e-9:
        raise ParameterError(f"ratios sum to {sum(ratios)} > 1")
    exhaustive = sum(ratios) >= 1.0 - 1e-9
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(graph.num_classes):
        idx = np.flatnonzero(graph.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        n_tr = int(r_train * idx.size)
        if n_tr == 0:
            warnings.warn(
                f"class {c} has only {idx.size} nodes; assigning one to train")
            n_tr = 1
        n_va = min(int(r_val * idx.size), idx.size - n_tr)
        n_te = min(int(r_test * idx.size), idx.size - n_tr - n_va)
        if exhaustive:
            n_te = idx.size - n_tr - n_va
        train.extend(idx[:n_tr])
        val.extend(idx[n_tr:n_tr + n_va])
        test.extend(idx[n_tr + n_va:n_tr + n_va + n_te])
    return DataSplit(np.asarray(train, dtype=np.int64),
                     np.asarray(val, dtype=np.int64),
                     np.asarray(test, dtype=np.int64), n=graph.n)


def classification_accuracy(predictions: np.ndarray, labels: np.ndarray,
                            mask: np.ndarray) -> float:
    """Fraction of masked nodes whose prediction equals the label.

    Reported as attack accuracy: lower means a stronger attack.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ParameterError("accuracy over an empty mask is undefined")
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    return float(np.mean(predictions[mask] == labels[mask]))
