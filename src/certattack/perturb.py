"""Edge-flip perturbation algebra on the strict upper triangle.

Undirected perturbations are stored as length-m vectors over the strict
upper triangle of the adjacency matrix (m = n(n-1)/2), so each node pair
is counted once against the budget and the diagonal is never touched.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

SUM_TOLERANCE = 1e-6


def num_pairs(n: int) -> int:
    """Number of unordered node pairs, i.e. the perturbation vector length."""
    return n * (n - 1) // 2


@lru_cache(maxsize=64)
def triu_pairs(n: int):
    """Row/column indices of the strict upper triangle, row-major order."""
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=64)
def triu_flat(n: int):
    """Flat indices in an (n, n) C-order array of each pair's upper
    (r * n + c) and lower (c * n + r) entry, in triu_pairs order."""
    rows, cols = triu_pairs(n)
    upper, lower = rows * n + cols, cols * n + rows
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


def infer_n(m: int) -> int:
    """Node count whose strict upper triangle has m entries."""
    n = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if num_pairs(n) != m:
        raise DimensionError(f"{m} is not a valid pair count n(n-1)/2")
    return n


def apply_perturbation(adjacency: np.ndarray, delta_binary: np.ndarray) -> np.ndarray:
    """XOR a binary upper-triangle flip vector into a binary adjacency.

    Mirrors the flips to keep symmetry and leaves the diagonal untouched.
    Self-inverse: applying the same vector twice restores the input.
    """
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    delta_binary = np.asarray(delta_binary)
    if delta_binary.shape != (num_pairs(n),):
        raise DimensionError(
            f"flip vector length {delta_binary.shape} does not match n={n} "
            f"(expected {num_pairs(n)})")
    if not ((delta_binary == 0) | (delta_binary == 1)).all():
        raise DomainError("binary flip vector must contain only 0/1 entries")
    rows, cols = triu_pairs(n)
    on = np.flatnonzero(delta_binary != 0)
    r, c = rows[on], cols[on]
    out = adjacency.copy()
    flipped = out[r, c].astype(np.int8) ^ 1
    out[r, c] = flipped
    out[c, r] = flipped
    return out


def relax_perturbation(adjacency: np.ndarray, delta_relaxed: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Continuous surrogate of the XOR flip: A' = A + (1 - 2A) * delta.

    Coincides exactly with :func:`apply_perturbation` on binary input and is
    differentiable in delta, which is what the attack gradients need.
    A' goes into `out`, an (n, n) float array, when one is given; no
    other n x n array is made.  The cost is one n x n cast plus delta's
    support: where delta is +0.0, and on the diagonal, (1 - 2a) * 0.0 + a
    is a + 0.0 for every a with 2a finite, so only the other pairs are
    written, each entry of both triangles from its own entry a of A.
    """
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    delta_relaxed = np.asarray(delta_relaxed, dtype=float)
    if delta_relaxed.shape != (num_pairs(n),):
        raise DimensionError(
            f"relaxed vector length {delta_relaxed.shape} does not match n={n}")
    if not (delta_relaxed.min(initial=0.0) >= 0.0
            and delta_relaxed.max(initial=0.0) <= 1.0):
        raise DomainError("relaxed perturbation entries must lie in [0, 1]")
    out = np.add(adjacency, 0.0, out=out, dtype=np.float64)
    on = np.flatnonzero(delta_relaxed.view(np.int64) != 0)  # all but +0.0
    d = delta_relaxed[on]
    for entries in triu_flat(n):  # take and put read any memory layout
        a = np.take(adjacency, entries[on]).astype(np.float64)
        np.put(out, entries[on], (1.0 - 2.0 * a) * d + a)
    return out


@dataclass
class Perturbation:
    """Budgeted edge-flip variable over the upper-triangle index space.

    `relaxed` is the continuous PGD iterate; `binary` is the discretized
    attack actually applied to the graph.
    """
    relaxed: np.ndarray
    budget: int
    binary: np.ndarray

    def __post_init__(self):
        self.relaxed = np.asarray(self.relaxed, dtype=float)
        if self.budget < 0:
            raise ParameterError("budget must be nonnegative")
        if not (self.relaxed.min(initial=0.0) >= 0.0
                and self.relaxed.max(initial=0.0) <= 1.0):
            raise DomainError("relaxed entries must lie in [0, 1]")
        if self.relaxed.sum() > self.budget + SUM_TOLERANCE:
            raise DomainError(
                f"relaxed mass {self.relaxed.sum():.6f} exceeds budget {self.budget}")
        self.binary = np.asarray(self.binary)
        if self.binary.shape != self.relaxed.shape:
            raise DimensionError("binary and relaxed vectors differ in length")
        if not ((self.binary == 0) | (self.binary == 1)).all():
            raise DomainError("binary entries must be 0/1")
        if int(self.binary.sum()) > self.budget:
            raise DomainError("binary flip count exceeds budget")

    @property
    def num_flips(self) -> int:
        return int(self.binary.sum())
