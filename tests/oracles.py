"""Independent oracles used by the unit and acceptance tests.

Everything here deliberately avoids the production code paths it checks:
exact rational arithmetic for the Neyman-Pearson worst case, breakpoint
scanning for the capped-box projection, the exact smoothed distribution
by enumerating all 2^m noise masks and brute-force enumeration for
certified sizes on top of it, a dense XOR for edge flips, a one-node
loss, and the one-graph-at-a-time Monte Carlo loop of evasion
certification.  certify_nodes is the keyword-API certification of
either threat model: it takes its targets, labels and samples as given,
where the package's attacks.certifier picks them from the split.

The criterion helpers measure what the acceptance criteria compare:
the weighted loss at forward's logits, whose central differences check
the analytic gradients (criterion 4), and the fraction of perturbed
edges at certified size <= 1 (criterion 8).

The attack-step oracles at the end are the straightforward forms of the
attack kernels (fancy-index scatters and gathers, np.hstack'ed factors,
a full-array bisection, a full argsort), and the training-epoch oracles
the straightforward forms of the loss and backward kernels (a max
reduction, a fancy-index label term, an np.where ReLU mask); the kernels
must match them bit for bit.  gradients_dense is the edge gradient in
another product order, through a dense Ahat and a dense gradient with
respect to it; gradients() must match it up to rounding.
"""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from certattack import (CROSS_ENTROPY, Certificate, GCNParams, NoiseSpec,
                        NumericError, ParameterError, SmoothingConfig,
                        TrainConfig, apply_perturbation,
                        certificates_from_counts, forward, gcn,
                        mc_counts_evasion, mc_counts_poisoning, num_pairs,
                        predict_all, sample_noise, size_function,
                        weighted_logit_loss)

EXACT_PAIRS_CAP = 20


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


def weighted_loss(params, adjacency_real, features, labels, node_weights,
                  mask, kind=CROSS_ENTROPY) -> float:
    """Sum over masked nodes of weight(u) * loss(u) at forward's logits."""
    return weighted_logit_loss(forward(params, adjacency_real, features),
                               labels, node_weights, mask, kind)


def low_size_fraction(histogram: dict) -> float:
    """Fraction of mapped histogram entries with certified size <= 1."""
    mapped = {k: v for k, v in histogram.items() if k != "none"}
    total = sum(mapped.values())
    if total == 0:
        return 0.0
    low = sum(v for k, v in mapped.items() if k <= 1)
    return low / total


def exact_smoothed_probs(params, adjacency, features, spec) -> np.ndarray:
    """Exact smoothed label distribution for every node by enumerating all
    2^m noise masks; only feasible for m <= EXACT_PAIRS_CAP."""
    n = adjacency.shape[0]
    m = num_pairs(n)
    if m > EXACT_PAIRS_CAP:
        raise ValueError(f"exact enumeration needs 2^{m} masks; cap is "
                         f"2^{EXACT_PAIRS_CAP}")
    probs = np.zeros((n, params.num_classes))
    bits = np.arange(m)
    node_idx = np.arange(n)
    for code in range(1 << m):
        mask = ((code >> bits) & 1).astype(np.int8)
        flips = int(mask.sum())
        weight = (1.0 - spec.beta) ** flips * spec.beta ** (m - flips)
        if weight == 0.0:
            continue
        preds = predict_all(params, apply_perturbation(adjacency, mask),
                            features)
        probs[node_idx, preds] += weight
    return probs


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


def certify_nodes(mode: str, *, target_nodes, labels, spec: NoiseSpec,
                  config: SmoothingConfig, adjacency=None, features=None,
                  params: GCNParams | None = None,
                  train_idx=None, train_config: TrainConfig | None = None,
                  num_classes: int | None = None) -> list[Certificate]:
    """Monte Carlo certification of the targets under evasion or poisoning.

    Per node: counts -> smoothed label (argmax, ties to the lowest class)
    -> Clopper-Pearson lower bound for the true label -> certified size,
    which is zero unless the smoothed label is correct and the bound
    exceeds 1/2.
    """
    if mode == "evasion":
        if params is None:
            raise ParameterError("evasion certification needs trained params")
        counts = mc_counts_evasion(params, adjacency, features, target_nodes,
                                   spec, config)
    elif mode == "poisoning":
        if train_config is None or train_idx is None or num_classes is None:
            raise ParameterError(
                "poisoning certification needs train_idx, train_config and "
                "num_classes")
        counts = mc_counts_poisoning(adjacency, features, labels, train_idx,
                                     train_config, target_nodes, spec, config,
                                     num_classes)
    else:
        raise ParameterError(f"unknown certification mode {mode!r}")
    return certificates_from_counts(counts, target_nodes, labels,
                                    size_function(spec, config))


def relax_scatter(adjacency, delta_relaxed):
    """A + (1 - 2A) * delta with delta mirrored by two fancy-index
    scatters over the upper-triangle pairs."""
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    mirrored = np.zeros((n, n))
    mirrored[rows, cols] = delta_relaxed
    mirrored[cols, rows] = delta_relaxed
    return A + (1.0 - 2.0 * A) * mirrored


def _pair_gradients(adjacency, M):
    """The edge gradient from the (n, n) pair matrix M: its strict upper
    triangle gathered at [rows, cols], times the XOR factor 1 - 2A."""
    rows, cols = np.triu_indices(len(M), k=1)
    return (1.0 - 2.0 * np.asarray(adjacency, dtype=np.float64)[rows, cols]
            ) * M[rows, cols]


def _edge_checked(total, gW1, gW2, g_delta):
    if not (np.isfinite(gW1).all() and np.isfinite(gW2).all()
            and np.isfinite(g_delta).all()):
        raise NumericError("non-finite gradient")
    return float(total), gW1, gW2, g_delta


def _relaxed_inputs(adjacency, delta_relaxed, features, node_weights, mask):
    """(A + I, its degrees, X, the weight vector) of gradients()' inputs,
    in fresh arrays."""
    A = np.asarray(adjacency, dtype=np.float64)
    Atil = relax_scatter(A, delta_relaxed) + np.eye(len(A))
    w = np.zeros(len(A))
    mask = np.asarray(mask, dtype=np.int64)
    w[mask] = np.asarray(node_weights, dtype=np.float64)[mask]
    return Atil, Atil.sum(axis=1), np.asarray(features, dtype=np.float64), w


def gradients_outer(params, adjacency, delta_relaxed, features, labels,
                    node_weights, mask, kind, work=None):
    """gradients() in its own product order, Ahat Y = s (Atil (s Y)) and
    the pair gradients one product L R^T of the low-rank factors, but
    with fresh arrays throughout: L and R side by side by np.hstack, the
    ReLU mask by np.where, the losses from loss_rows_reduce and the
    gradient gathered at [rows, cols].  `work`, gradients()' buffer
    workspace, is ignored."""
    Atil, deg, X, w = _relaxed_inputs(adjacency, delta_relaxed, features,
                                      node_weights, mask)
    W1, W2 = params.W1, params.W2
    s = (deg ** -0.5)[:, None]
    AtSX = Atil @ (s * X)
    AX = s * AtSX
    Z1 = AX @ W1
    H1 = np.maximum(Z1, 0.0)
    HW2 = H1 @ W2
    AtSHW2 = Atil @ (s * HW2)
    loss_rows, grad_rows = loss_rows_reduce(s * AtSHW2, np.asarray(labels),
                                            kind)
    G2 = grad_rows * w[:, None]
    AtSG2 = Atil @ (s * G2)
    AG2 = s * AtSG2
    GZ1 = np.where(Z1 > 0.0, AG2 @ W2.T, 0.0)
    XW1 = X @ W1
    dots = (np.einsum("ij,ij->i", G2, AtSHW2)
            + np.einsum("ij,ij->i", GZ1, AtSX @ W1)
            + np.einsum("ij,ij->i", HW2, AtSG2)
            + np.einsum("ij,ij->i", XW1, Atil @ (s * GZ1)))
    half_c = (-0.5 * deg ** -1.5 * dots)[:, None]
    ones = np.ones((len(X), 1))
    L = np.hstack([s * G2, s * GZ1, half_c, s * HW2, s * XW1, ones])
    R = np.hstack([s * HW2, s * XW1, ones, s * G2, s * GZ1, half_c])
    return _edge_checked(loss_rows @ w, AX.T @ GZ1, H1.T @ AG2,
                         _pair_gradients(adjacency, L @ R.T))


def gradients_dense(params, adjacency, delta_relaxed, features, labels,
                    node_weights, mask, kind, work=None):
    """gradients() the dense way: Ahat built as (A + I) o s s^T, the
    gradient w.r.t. Ahat as G2 HW2^T + GZ1 XW1^T, the normalization's
    chain rule as row and column corrections of the dense Gtil, and the
    pair gradient Gtil + Gtil^T at [rows, cols].  Another product order:
    it matches gradients() up to rounding, not bit for bit."""
    Atil, deg, X, w = _relaxed_inputs(adjacency, delta_relaxed, features,
                                      node_weights, mask)
    W1, W2 = params.W1, params.W2
    s = deg ** -0.5
    Ahat = Atil * np.outer(s, s)
    AX = Ahat @ X
    Z1 = AX @ W1
    H1 = np.maximum(Z1, 0.0)
    HW2 = H1 @ W2
    loss_rows, grad_rows = loss_rows_reduce(Ahat @ HW2, np.asarray(labels),
                                            kind)
    G2 = grad_rows * w[:, None]
    AG2 = Ahat @ G2
    GZ1 = np.where(Z1 > 0.0, AG2 @ W2.T, 0.0)
    GA = G2 @ HW2.T + GZ1 @ (X @ W1).T
    GAt = GA * Atil
    d32 = deg ** -1.5
    Gtil = (GA * np.outer(s, s)
            - 0.5 * np.outer(d32 * (GAt @ s), np.ones(len(X)))
            - 0.5 * np.outer(np.ones(len(X)), d32 * (GAt.T @ s)))
    return _edge_checked(loss_rows @ w, AX.T @ GZ1, H1.T @ AG2,
                         _pair_gradients(adjacency, Gtil + Gtil.T))


def project_bisect_full(relaxed, budget):
    """Capped-box projection by bisection on mu, summing clip(x - mu)
    over the whole array at every step."""
    x = np.asarray(relaxed, dtype=np.float64)
    clipped = np.clip(x, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    lo, hi = 0.0, float(x.max())
    for _ in range(100):
        mu = 0.5 * (lo + hi)
        if np.clip(x - mu, 0.0, 1.0).sum() > budget:
            lo = mu
        else:
            hi = mu
        if hi - lo < 1e-10:
            break
    return np.clip(x - 0.5 * (lo + hi), 0.0, 1.0)


def top_budget_argsort(relaxed, budget):
    """The (up to) budget largest positive entries from a full stable
    argsort, ties toward the lower index."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    out = np.zeros(relaxed.size, dtype=np.int8)
    if budget <= 0:
        return out
    take = np.argsort(-relaxed, kind="stable")[:budget]
    out[take[relaxed[take] > 0.0]] = 1
    return out


def discretize_masked(relaxed, budget, trials, rng, objective):
    """discretize() ranking an over-budget draw over all m entries, with
    the undrawn ones masked to -inf."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    best = top_budget_argsort(relaxed, budget)
    best_value = objective(best)
    for _ in range(trials):
        draw = (rng.random(relaxed.size) < relaxed).astype(np.int8)
        if int(draw.sum()) > budget:
            masked = np.where(draw > 0, relaxed, -np.inf)
            draw = top_budget_argsort(masked, budget)
        value = objective(draw)
        if value > best_value:
            best, best_value = draw, value
    return best


def loss_rows_reduce(logits, labels, kind):
    """gcn._loss_rows with the cross-entropy row max taken by a reduction
    over the class axis and the label term subtracted through a
    fancy-index scatter; (n, C) or (B, n, C) logits.  The CW margin is
    gcn's own."""
    if kind.tag != "cross_entropy":
        return gcn._loss_rows(logits, labels, kind)
    n, C = logits.shape[-2:]
    idx = np.arange(n)
    safe = np.where((labels >= 0) & (labels < C), labels, 0)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    Z = expz.sum(axis=-1)
    loss = np.log(Z) - shifted[..., idx, safe]
    grad = expz / Z[..., None]
    grad[..., idx, safe] -= 1.0
    return loss, grad


def backward_where(W1, W2, view, labels, weights, kind, edge=None):
    """gcn._backward with the ReLU mask by np.where, the losses from
    loss_rows_reduce and the pair matrix in fresh arrays, L and R side by
    side by np.hstack; `edge` only asks for the pair matrix, which reads
    the products A_cols keeps, and no array is written."""
    AX, A_rows, A_cols = view
    Z1, H1, HW2, Z2 = gcn._propagate(AX, W1, W2, A_rows)
    loss_rows, grad_rows = loss_rows_reduce(Z2, labels, kind)
    total = loss_rows @ weights
    G2 = grad_rows * weights[:, None]
    AG2 = A_cols @ G2
    gW2 = np.swapaxes(H1, -1, -2) @ AG2
    GZ1 = np.where(Z1 > 0.0, AG2 @ np.swapaxes(W2, -1, -2), 0.0)
    gW1 = np.swapaxes(AX, -1, -2) @ GZ1
    if edge is None:
        return total, gW1, gW2, None
    X, _ = edge
    AtSX, AtSHW2, AtSG2 = A_cols.inner
    s, XW1 = A_cols.s, X @ W1
    dots = (np.einsum("ij,ij->i", G2, AtSHW2)
            + np.einsum("ij,ij->i", GZ1, AtSX @ W1)
            + np.einsum("ij,ij->i", HW2, AtSG2)
            + np.einsum("ij,ij->i", XW1, A_cols.Atil @ (s * GZ1)))
    half_c = (-0.5 * A_cols.deg ** -1.5 * dots)[:, None]
    ones = np.ones((len(X), 1))
    L = np.hstack([s * G2, s * GZ1, half_c, s * HW2, s * XW1, ones])
    R = np.hstack([s * HW2, s * XW1, ones, s * G2, s * GZ1, half_c])
    return total, gW1, gW2, L @ R.T
