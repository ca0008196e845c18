"""Randomized smoothing over binary edge noise and certified sizes.

Noise keeps each upper-triangle edge status with probability beta and
flips it with probability 1 - beta.  Certified perturbation sizes come
from the discrete Neyman-Pearson construction: for a radius r, outcomes
are partitioned by the number k of perturbed coordinates that agree with
the clean graph, giving region probabilities

    Pr_clean(k)  = C(r,k) beta^k (1-beta)^(r-k)
    Pr_attack(k) = C(r,k) beta^(r-k) (1-beta)^k

and likelihood ratio (beta/(1-beta))^(2k-r).  The worst-case retained
probability rho(r) consumes the lower-bound mass greedily from the
highest-ratio region down, fractionally at the boundary.
"""
import functools
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CertificationError, ParameterError, TrainingError
from .gcn import (GCNParams, TrainConfig, noisy_forward, predict_all,
                  stack_block, train_arrays)
from .perturb import apply_perturbation, num_pairs

DEFAULT_RADIUS_CAP = 2000

# An evasion certifier keeps its flip lists, (1 - beta) * m * N int32
# entries (0.5 MB expected at n=100, beta=0.95, N=500), up to this many bytes.
FLIP_BYTES = 16 * 2 ** 20


@dataclass(frozen=True)
class NoiseSpec:
    """Keep-probability of the edge-status noise; beta in (0.5, 1]."""
    beta: float

    def __post_init__(self):
        if not 0.5 < self.beta <= 1.0:
            raise ParameterError(
                f"beta must lie in (0.5, 1], got {self.beta}")


@dataclass(frozen=True)
class SmoothingConfig:
    num_samples: int = 200
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ParameterError("num_samples must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")


@dataclass
class Certificate:
    """Per-node smoothing outcome."""
    node: int
    true_label: int
    counts: np.ndarray
    smoothed_label: int
    p_lower: float
    certified_size: int
    saturated: bool = False


def mix_seed(seed: int, salt: int) -> int:
    """Deterministic derived seed for replicate / sub-stream use."""
    ss = np.random.SeedSequence([seed % (2 ** 63), int(salt)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def sample_noise(spec: NoiseSpec, n: int, seed: int, index: int) -> np.ndarray:
    """One upper-triangle flip mask; entry 1 with probability 1 - beta.

    Deterministic given (seed, index); applied to graphs via the XOR of
    apply_perturbation, which is self-inverse.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed % (2 ** 63), int(index)]))
    return (rng.random(num_pairs(n)) < 1.0 - spec.beta).astype(np.int8)


def noise_flips(spec: NoiseSpec, n: int, config: SmoothingConfig):
    """For each of config's N noise masks in order, the int32 pair indices
    it flips; None when they are expected to exceed FLIP_BYTES, and then
    mc_counts_evasion draws the masks as it classifies."""
    if (1.0 - spec.beta) * num_pairs(n) * config.num_samples * 4 > FLIP_BYTES:
        return None
    return list(_draw_flips(spec, n, config))


def _draw_flips(spec, n, config):
    for j in range(config.num_samples):
        mask = sample_noise(spec, n, config.seed, j)
        yield np.flatnonzero(mask != 0).astype(np.int32)


def mc_counts_evasion(params: GCNParams, adjacency: np.ndarray,
                      features: np.ndarray, target_nodes: np.ndarray,
                      spec: NoiseSpec, config: SmoothingConfig,
                      flips: list | None = None) -> np.ndarray:
    """Monte Carlo label counts under noise for a fixed trained model: each
    of the N noisy graphs is classified once and serves every target node,
    in blocks of stack_block(n) graphs per call of one noisy_forward scorer.
    A caller may keep flips = noise_flips(spec, n, config) across
    adjacencies, else they are drawn here, block by block; A is symmetric
    and 0/1."""
    logits_on = noisy_forward(params, adjacency, features)
    targets = np.asarray(target_nodes, dtype=np.int64)
    lists = iter(flips or _draw_flips(spec, len(adjacency), config))
    votes = []  # (graphs, targets) predicted labels per block
    while block := list(islice(lists, stack_block(len(adjacency)))):
        votes.append(np.argmax(logits_on(block), axis=-1)[:, targets])
    C = params.num_classes
    flat = np.concatenate(votes) + np.arange(targets.size) * C
    return np.bincount(flat.reshape(-1), minlength=targets.size * C).reshape(
        targets.size, C)


def mc_counts_poisoning(adjacency: np.ndarray, features: np.ndarray,
                        labels: np.ndarray, train_idx: np.ndarray,
                        train_config: TrainConfig, target_nodes: np.ndarray,
                        spec: NoiseSpec, config: SmoothingConfig,
                        num_classes: int, size=None) -> np.ndarray:
    """Label counts from N classifiers trained on independently noised graphs.

    Replicate j trains on A xor eps_j with a seed derived from
    (train_config.seed, j) and predicts the targets on its own noisy
    graph.  Replicates train in stacked blocks of stack_block(n);
    a divergence names the lowest failing replicate and its own epoch,
    exactly as it fails alone.

    With size, the K of size_function(spec, config), training stops after
    the first block from which no further replicate can change any
    target's K (see _decided; the targets' labels must be known).  The
    counts are then those of the replicates trained so far: good for
    certified_sizes, but not for a bound, which needs all N.
    """
    targets = np.asarray(target_nodes, dtype=np.int64)
    counts = np.zeros((targets.size, num_classes), dtype=np.int64)
    n = adjacency.shape[0]
    rows = np.arange(targets.size)
    block = stack_block(n)
    for start in range(0, config.num_samples, block):
        js = range(start, min(start + block, config.num_samples))
        noisy = np.stack([apply_perturbation(
            adjacency, sample_noise(spec, n, config.seed, j)) for j in js])
        try:
            models = train_arrays(noisy, features, labels, train_idx,
                                  train_config, num_classes,
                                  [mix_seed(train_config.seed, j) for j in js])
        except TrainingError as exc:
            raise CertificationError(
                f"replicate {js[exc.model]} failed: {exc}") from exc
        for params_j, noisy_j in zip(models, noisy):
            preds = predict_all(params_j, noisy_j, features)
            counts[rows, preds[targets]] += 1
        if size is not None and _decided(size, counts[rows, labels[targets]],
                                         js.stop, config.num_samples):
            break
    return counts


def _decided(size, true_counts: np.ndarray, done: int, total: int) -> bool:
    """Whether the votes of replicates done..total-1 can change no target's
    certified size.  They cannot if, for each true-label count c so far,
    K(c) == K(c + total - done), which fixes K on every count in between
    because K never falls as c grows, and K(c) > 0 only where c is already
    a strict majority of total, so the true label stays the smoothed one.
    With alpha <= 1/2 the second holds whenever K(c) > 0, since the bound
    lies at or below c / total; a larger alpha is checked."""
    return all(size(c) == size(c + total - done)
               and (size(c) == 0 or 2 * c > total)
               for c in true_counts.tolist())


def lower_bound_prob(count: int, total: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower bound: the alpha quantile of
    Beta(count, total - count + 1); zero by convention when count is 0."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 <= count <= total:
        raise ParameterError(f"count {count} outside [0, {total}]")
    if count == 0:
        return 0.0
    # Imported here, so that a process that never certifies loads no scipy.
    from scipy.special import betaincinv
    return float(betaincinv(count, total - count + 1, alpha))


def worst_case_retained(p_lower: float, beta: float, radius: int) -> float:
    """rho(r): minimal smoothed probability retained after r flips.

    Greedy allocation over the likelihood-ratio regions: the adversary
    spends the refusal mass 1 - p_lower on regions in descending
    attacked/clean ratio order (k = 0 agreements upward), fractionally at
    the boundary, and rho is one minus the attacked mass removed.  Working
    with the complement keeps the computation stable when p_lower sits
    within a few ulp of 1, and region probabilities live in log space so
    beta close to 1 does not underflow.
    """
    if radius == 0:
        return p_lower
    from scipy.special import gammaln  # here, as in lower_bound_prob
    k = np.arange(0, radius + 1, dtype=np.float64)
    log_comb = (gammaln(radius + 1) - gammaln(k + 1)
                - gammaln(radius - k + 1))
    log_beta, log_1mb = np.log(beta), np.log1p(-beta)
    log_x = log_comb + k * log_beta + (radius - k) * log_1mb
    log_y = log_comb + (radius - k) * log_beta + k * log_1mb
    remaining = 1.0 - p_lower
    removed = 0.0
    for lx, ly in zip(log_x, log_y):
        x_mass = np.exp(lx)
        if x_mass < remaining:
            removed += np.exp(ly)
            remaining -= x_mass
        else:
            if remaining > 0.0:
                with np.errstate(over="ignore"):
                    removed += remaining * np.exp(ly - lx)
            break
    return float(1.0 - removed)


def certified_size(p_lower: float, spec: NoiseSpec,
                   r_max: int = DEFAULT_RADIUS_CAP) -> int:
    """Largest radius r with rho(r) > 1/2; zero when p_lower <= 1/2.

    Scans r upward and stops at the first failure; if the scan reaches
    r_max without failing, r_max is returned with a saturation warning,
    so a size of r_max means the scan saturated.
    """
    if not 0.0 <= p_lower <= 1.0:
        raise ParameterError(f"p_lower must lie in [0, 1], got {p_lower}")
    if spec.beta >= 1.0:
        raise ParameterError(
            "certified size is undefined at beta = 1 (likelihood ratio "
            "degenerates)")
    if p_lower <= 0.5:
        return 0
    prev_rho = np.inf
    for r in range(1, r_max + 1):
        rho = worst_case_retained(p_lower, spec.beta, r)
        if rho > prev_rho + 1e-9:
            raise CertificationError(
                f"worst-case probability increased from {prev_rho} to {rho} "
                f"at radius {r}; monotonicity assumption violated")
        if rho <= 0.5:
            return r - 1
        prev_rho = rho
    warnings.warn(f"certified size saturated at the scan cap {r_max}")
    return r_max


def size_function(spec: NoiseSpec, config: SmoothingConfig):
    """K(c): the certified size of a node whose true label won c of the N
    votes and is its smoothed label, certified_size of the count's
    lower_bound_prob, or 0 when that bound is at most 1/2.  K is a
    non-decreasing step function of c.  K and K.bound, the count's
    bound, are cached per count, so one K scans each count once."""
    bound = functools.cache(lambda count: lower_bound_prob(
        count, config.num_samples, config.alpha))

    @functools.cache
    def size(count: int) -> int:
        p_low = bound(count)
        return (certified_size(p_low, spec, DEFAULT_RADIUS_CAP)
                if p_low > 0.5 else 0)

    size.bound = bound
    return size


def certified_sizes(counts: np.ndarray, true_labels: np.ndarray,
                    size) -> np.ndarray:
    """The certified size K of each row of label counts: size's K of the
    row's true-label count where that label is the row's argmax, else 0."""
    true_counts = counts[np.arange(len(counts)), true_labels]
    wins = counts.argmax(axis=1) == true_labels
    return np.array([size(c) if win else 0 for c, win
                     in zip(true_counts.tolist(), wins)], dtype=np.int64)


def certificates_from_counts(counts: np.ndarray, target_nodes: np.ndarray,
                             labels: np.ndarray, size) -> list[Certificate]:
    """One certificate per target node from its row of all N label counts,
    with size's K, a size_function."""
    targets = np.asarray(target_nodes, dtype=np.int64)
    true_labels = np.asarray(labels)[targets]
    sizes = certified_sizes(counts, true_labels, size)
    return [Certificate(node, label, row.copy(), int(np.argmax(row)),
                        size.bound(int(row[label])), k,
                        k == DEFAULT_RADIUS_CAP)
            for node, label, row, k in zip(targets.tolist(),
                                           true_labels.tolist(), counts,
                                           sizes.tolist())]
