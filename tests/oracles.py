"""Independent oracles used by the unit and acceptance tests.

Everything here deliberately avoids the production code paths it checks:
exact rational arithmetic for the Neyman-Pearson worst case, breakpoint
scanning for the capped-box projection, brute-force enumeration for
certified sizes, a dense XOR for edge flips, a one-node loss, and the
one-graph-at-a-time Monte Carlo loop of evasion certification.
"""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from certattack import (apply_perturbation, exact_smoothed_probs, num_pairs,
                        predict_all, sample_noise)


def np_regions(beta: Fraction, radius: int):
    """Exact (clean, attacked) probability per agreement-count region."""
    regions = []
    for k in range(radius, -1, -1):
        c = comb(radius, k)
        x = c * beta ** k * (1 - beta) ** (radius - k)
        y = c * beta ** (radius - k) * (1 - beta) ** k
        regions.append((x, y))
    return regions


def worst_case_retained_exact(p_lower: Fraction, beta: Fraction,
                              radius: int) -> Fraction:
    """LP minimum of the attacked mass over all fractional region
    allocations t in [0,1]^(r+1) with sum(t * clean) >= p_lower.

    Enumerates every vertex of the feasible polytope (at most one
    fractional coordinate) in exact rational arithmetic.
    """
    regions = np_regions(beta, radius)
    idx = range(len(regions))
    best = None
    for size in range(len(regions) + 1):
        for subset in combinations(idx, size):
            xs = sum(regions[i][0] for i in subset)
            ys = sum(regions[i][1] for i in subset)
            if xs >= p_lower:
                if best is None or ys < best:
                    best = ys
                continue
            for j in idx:
                if j in subset:
                    continue
                xj, yj = regions[j]
                if xj == 0:
                    continue
                frac = (p_lower - xs) / xj
                if 0 <= frac <= 1:
                    cand = ys + frac * yj
                    if best is None or cand < best:
                        best = cand
    assert best is not None
    return best


def project_capped_box_exact(x: np.ndarray, budget: float) -> np.ndarray:
    """Exact Euclidean projection onto {p in [0,1]^m : sum p <= budget}
    via breakpoint scanning of mu -> sum(clip(x - mu, 0, 1))."""
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    breaks = sorted(set([0.0] + [v for v in x] + [v - 1.0 for v in x]))
    breaks = [b for b in breaks if b >= 0.0]

    def mass(mu):
        return float(np.clip(x - mu, 0.0, 1.0).sum())

    lo = 0.0
    for b in breaks:
        if mass(b) <= budget:
            hi = b
            break
        lo = b
    else:
        hi = float(x.max())
    # mass is linear on [lo, hi]; solve exactly
    m_lo, m_hi = mass(lo), mass(hi)
    if m_lo == m_hi:
        mu = lo
    else:
        mu = lo + (m_lo - budget) * (hi - lo) / (m_lo - m_hi)
    return np.clip(x - mu, 0.0, 1.0)


def xor_dense(adjacency: np.ndarray, delta_binary: np.ndarray) -> np.ndarray:
    """Dense reference of the flip: mirror the upper-triangle vector into a
    full 0/1 matrix and XOR it into every entry, keeping the input dtype."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    flips = np.zeros((n, n), dtype=np.int8)
    flips[np.triu_indices(n, k=1)] = np.asarray(delta_binary) != 0
    flips |= flips.T
    return np.bitwise_xor(A.astype(np.int8), flips).astype(A.dtype)


def central_difference(fn, x0: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Per-coordinate central finite difference of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        plus.flat[i] += step
        minus = x0.copy()
        minus.flat[i] -= step
        grad.flat[i] = (fn(plus) - fn(minus)) / (2.0 * step)
    return grad


def brute_force_certified_size(params, adjacency, features, node, label,
                               spec, max_radius: int) -> int:
    """Largest r <= max_radius such that every perturbation of up to r
    edge flips leaves the exact smoothed prediction of the node correct.

    Enumerates all C(m, r) perturbations per radius and evaluates the
    exact smoothed argmax on each perturbed graph.
    """
    probs = exact_smoothed_probs(params, adjacency, features, spec)
    if int(np.argmax(probs[node])) != label:
        return 0
    m = num_pairs(adjacency.shape[0])
    for radius in range(1, max_radius + 1):
        for flips in combinations(range(m), radius):
            delta = np.zeros(m, dtype=np.int8)
            delta[list(flips)] = 1
            perturbed = apply_perturbation(adjacency, delta)
            probs = exact_smoothed_probs(params, perturbed, features, spec)
            if int(np.argmax(probs[node])) != label:
                return radius - 1
    return max_radius


def node_loss(logits_row: np.ndarray, label: int, kind) -> float:
    """Loss of one node given its logit row: the scalar reference of the
    vectorized per-node losses (cross-entropy, or the CW margin
    max(max_{c != y} z_c - z_y, -kappa))."""
    z = np.asarray(logits_row, dtype=np.float64)
    assert 0 <= label < z.size
    if kind.tag == "cross_entropy":
        shifted = z - z.max()
        return float(np.log(np.exp(shifted).sum()) - shifted[label])
    others = np.delete(z, label)
    return float(max(others.max() - z[label], -kind.kappa))


def mc_counts_evasion_loop(params, adjacency, features, target_nodes, spec,
                           config) -> np.ndarray:
    """Evasion label counts one noisy graph at a time: draw mask j, XOR it
    into the adjacency and classify the copy with predict_all."""
    targets = np.asarray(target_nodes, dtype=np.int64)
    counts = np.zeros((targets.size, params.num_classes), dtype=np.int64)
    n = adjacency.shape[0]
    for j in range(config.num_samples):
        noisy = apply_perturbation(adjacency,
                                   sample_noise(spec, n, config.seed, j))
        preds = predict_all(params, noisy, features)
        counts[np.arange(targets.size), preds[targets]] += 1
    return counts
