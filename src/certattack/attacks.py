"""Certificate-guided attack framework.

Node weights shrink exponentially with the certified perturbation size
(w = 1/(1 + exp(a * K))), so the weighted attack loss concentrates the
edge-flip budget on provably fragile nodes.  With uniform weights both
attacks reduce exactly to their unweighted base versions.
"""
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .gcn import (CROSS_ENTROPY, EdgeWorkspace, GCNParams, LossKind,
                  TrainConfig, gradients, init_params, noisy_forward,
                  param_gradients, predict_all, train, weighted_logit_loss)
from .graph import DataSplit, Graph, classification_accuracy
from .perturb import Perturbation, apply_perturbation, relax_perturbation
from .smoothing import (NoiseSpec, SmoothingConfig, certificates_from_counts,
                        certified_sizes, mc_counts_evasion,
                        mc_counts_poisoning, mix_seed, noise_flips,
                        size_function)

WEIGHT_SCHEMES = ("uniform", "random", "degree", "centrality", "certified")
CENTRALITY_ITERATIONS = 100
CENTRALITY_TOL = 1e-8


@dataclass(frozen=True)
class WeightScheme:
    """How target nodes are weighted inside the attack loss."""
    tag: str = "certified"
    a: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.tag not in WEIGHT_SCHEMES:
            raise ParameterError(f"unknown weight scheme {self.tag!r}")
        if self.a <= 0:
            raise ParameterError("sharpness a must be positive")


@dataclass(frozen=True)
class AttackConfig:
    """All attack hyperparameters.

    step_size is the base PGD rate; the effective ascent step at iteration
    t is step_size * max(budget, 1) / sqrt(t + 1).  inner_step_size is the
    constant model-descent rate of the poisoning inner problem.
    """
    budget: int
    iterations: int = 100
    refresh_interval: int = 10
    step_size: float = 0.1
    inner_step_size: float = 0.01
    loss: LossKind = CROSS_ENTROPY
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.999))
    scheme: WeightScheme = field(default_factory=WeightScheme)
    discretize_trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise ParameterError("budget must be nonnegative")
        if self.iterations < 1:
            raise ParameterError("iterations must be at least 1")
        if self.refresh_interval < 1:
            raise ParameterError("refresh_interval must be at least 1")
        if self.step_size <= 0 or self.inner_step_size <= 0:
            raise ParameterError("step sizes must be positive")
        if self.discretize_trials < 1:
            raise ParameterError("discretize_trials must be at least 1")


@dataclass
class AttackReport:
    perturbation: Perturbation
    pre_attack_accuracy: float
    post_attack_accuracy: float
    per_iteration_loss: np.ndarray
    per_iteration_mass: np.ndarray
    weights_history: list
    attack_seconds: float = 0.0
    cert_seconds: float = 0.0
    delta_trajectory: np.ndarray | None = None

    @property
    def budget_used(self) -> int:
        return self.perturbation.num_flips


def eigenvector_centrality(adjacency: np.ndarray) -> np.ndarray:
    """Power-iteration eigenvector centrality, normalized to max 1: at most
    CENTRALITY_ITERATIONS steps, stopping once no entry moves by
    CENTRALITY_TOL."""
    A = np.asarray(adjacency, dtype=np.float64)
    n = A.shape[0]
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(CENTRALITY_ITERATIONS):
        y = A @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return np.ones(n)
        y /= norm
        x, moved = y, np.abs(y - x).max()
        if moved < CENTRALITY_TOL:
            break
    x = np.abs(x)
    top = x.max()
    return x / top if top > 0 else np.ones(n)


def node_weights(scheme: WeightScheme, sizes: np.ndarray | None,
                 graph: Graph, target_nodes: np.ndarray) -> np.ndarray:
    """Weights for the target nodes under the chosen scheme; the certified
    scheme reads sizes, the targets' certified sizes K in target order."""
    targets = np.asarray(target_nodes, dtype=np.int64)
    if scheme.tag == "uniform":
        return np.ones(targets.size)
    if scheme.tag == "random":
        return np.random.default_rng(scheme.seed).random(targets.size)
    # After the two returns above, so uniform and random attacks never
    # load scipy.
    from scipy.special import expit
    if scheme.tag == "degree":
        deg = np.asarray(graph.adjacency, dtype=np.float64).sum(axis=1)
        return expit(-scheme.a * deg[targets])
    if scheme.tag == "centrality":
        cen = eigenvector_centrality(graph.adjacency)
        return expit(-scheme.a * cen[targets])
    if sizes is None or np.shape(sizes) != targets.shape:
        raise ParameterError("certified scheme needs one certified size per "
                             "target node, in target order")
    return expit(-scheme.a * np.asarray(sizes))


def project_budget(relaxed: np.ndarray, budget: int) -> np.ndarray:
    """Euclidean projection onto {p in [0,1]^m : sum(p) <= budget}.

    If the box-clipped point already fits the budget it is returned as is;
    otherwise the shift mu with sum(clip(x - mu)) = budget is found by
    bisection on [0, max(x)].

    Each bisection step sums clip(live - mu, 0, 1) over `live`: all of x
    until lo first moves, then the entries above lo only.  An entry at or
    below lo clips to exactly 0 for every later mu >= lo, so the set
    shrinks each time lo moves.  Until then the live sum is the full-array
    sum itself; after, it is a different rounding of the same real sum T.
    numpy's pairwise summation passes each term through at most 45
    additions for m <= 1e8, which puts each sum within about 45 u T of T
    (u = 2**-53), so the two lie within 1e-14 T of each other.  Where the
    live sum is within 1e-12 (mass + budget) of the budget, the full-array
    sum decides instead; elsewhere both fall on the same side of the
    budget.  Every bisection decision, the final mu and the returned
    array are therefore those of the full-array bisection.  The 1e-12
    follows from this bound; it is not a setting.
    """
    x = np.asarray(relaxed, dtype=np.float64)
    clipped = np.clip(x, 0.0, 1.0)
    if clipped.sum() <= budget:
        return clipped
    lo, hi = 0.0, float(x.max())
    live = x
    for _ in range(100):
        mu = 0.5 * (lo + hi)
        mass = np.clip(live - mu, 0.0, 1.0).sum()
        if abs(mass - budget) <= 1e-12 * (mass + budget):
            mass = np.clip(x - mu, 0.0, 1.0).sum()
        if mass > budget:
            lo = mu
            live = live[live > lo]
        else:
            hi = mu
        if hi - lo < 1e-10:
            break
    return np.clip(x - 0.5 * (lo + hi), 0.0, 1.0)


def top_delta_binary(relaxed: np.ndarray, budget: int) -> np.ndarray:
    """Deterministic rounding: the (up to) budget largest positive entries,
    ties toward the lower index."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    out = np.zeros(relaxed.size, dtype=np.int8)
    if budget <= 0:
        return out
    take = np.flatnonzero(relaxed > 0.0)
    if take.size > budget:
        values = relaxed[take]
        kth = np.partition(values, take.size - budget)[take.size - budget]
        take = take[values >= kth]  # every tie at the k-th value
        take = take[np.argsort(-relaxed[take], kind="stable")[:budget]]
    out[take] = 1
    return out


def discretize(relaxed: np.ndarray, budget: int, trials: int,
               rng: np.random.Generator, objective) -> np.ndarray:
    """Best binary candidate under the attacker objective.

    Candidates: the deterministic top-budget rounding plus `trials`
    Bernoulli(relaxed) draws, each truncated to its highest-value active
    entries when over budget.  Never exceeds the budget and never scores
    below the deterministic candidate.
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    best = top_delta_binary(relaxed, budget)
    best_value = objective(best)
    for _ in range(trials):
        draw = rng.random(relaxed.size) < relaxed
        on = np.flatnonzero(draw)
        if on.size > budget:
            draw[on[top_delta_binary(relaxed[on], budget) == 0]] = False
        value = objective(draw)
        if value > best_value:
            best, best_value = draw.astype(np.int8), value
    return best


def certifier(mode: str, graph: Graph, split: DataSplit,
              train_config: TrainConfig | None, config: AttackConfig,
              params: GCNParams | None = None):
    """(targets, labels, certify) of a threat model: certify(adjacency) ->
    the targets' certificates on that graph, from all N samples, for
    `certattack certify`; certify(adjacency, refresh=True) -> only their
    certified sizes K, for the attack's refreshes.  One size function K
    serves every call, so each count is bounded and scanned once.

    Evasion certifies the fixed model params on the test nodes with flip
    lists drawn at the first call and kept while they fit in FLIP_BYTES.
    Poisoning certifies the train nodes with replicates trained on labels
    set to -1 outside the train mask; only it reads train_config, and a
    refresh stops training replicates once every K is decided.
    """
    size = size_function(config.noise, config.smoothing)
    if mode == "evasion":
        targets, labels = split.test, graph.labels

        @functools.cache
        def flips():
            return noise_flips(config.noise, graph.n, config.smoothing)

        def counts(adjacency, stop):  # stopping early gains evasion nothing
            return mc_counts_evasion(params, adjacency, graph.features,
                                     targets, config.noise, config.smoothing,
                                     flips())
    elif mode == "poisoning":
        targets = split.train
        labels = np.where(np.isin(np.arange(graph.n), targets),
                          graph.labels, -1)

        def counts(adjacency, stop):
            return mc_counts_poisoning(adjacency, graph.features, labels,
                                       targets, train_config, targets,
                                       config.noise, config.smoothing,
                                       graph.num_classes, stop)
    else:
        raise ParameterError(f"unknown certification mode {mode!r}")

    def certify(adjacency, refresh=False):
        if refresh:
            return certified_sizes(counts(adjacency, size), labels[targets],
                                   size)
        return certificates_from_counts(counts(adjacency, None), targets,
                                        labels, size)

    return targets, labels, certify


def _attack_loop(graph: Graph, split: DataSplit, certification,
                 model: GCNParams, config: AttackConfig, model_on,
                 model_step=None, record_trajectory: bool = False
                 ) -> AttackReport:
    """Weighted projected-gradient ascent on the relaxed perturbation.

    certification is certifier's (targets, labels, certify).  The
    certified scheme refreshes its weights every refresh_interval
    iterations from certify(snapshot, refresh=True), the certified sizes
    on the binarized snapshot of the current perturbation; other schemes
    compute their weights once.
    model_step(model, delta, w_full) -> model, when given, runs before
    each ascent step.  The discretized perturbation is scored by
    evaluate_attack with model_on(adjacency) -> the model to test.
    """
    start = time.perf_counter()
    targets, labels, certify = certification
    A = graph.adjacency
    delta = np.zeros(graph.num_pairs)
    losses = np.zeros(config.iterations)
    masses = np.zeros(config.iterations)
    weights_history = []
    trajectory = [] if record_trajectory else None
    cert_seconds = 0.0
    certified = config.scheme.tag == "certified"
    w_full = np.zeros(graph.n)
    work = EdgeWorkspace(A)  # the PGD steps' buffers, for this attack only
    for t in range(config.iterations):
        if t == 0 or (certified and t % config.refresh_interval == 0):
            sizes = None
            if certified:
                tick = time.perf_counter()
                sizes = certify(apply_perturbation(
                    A, top_delta_binary(delta, config.budget)), refresh=True)
                cert_seconds += time.perf_counter() - tick
            w_targets = node_weights(config.scheme, sizes, graph, targets)
            w_full[targets] = w_targets
            weights_history.append((t, w_targets))
        if model_step is not None:
            model = model_step(model, delta, w_full)
        loss, _, _, g_delta = gradients(model, A, delta, graph.features,
                                        labels, w_full, targets, config.loss,
                                        work=work)
        losses[t] = loss
        step = config.step_size * max(config.budget, 1) / np.sqrt(t + 1.0)
        delta = project_budget(delta + step * g_delta, config.budget)
        masses[t] = delta.sum()
        if record_trajectory:
            trajectory.append(delta.copy())

    del work  # dead after the last step; freed before the scorer's A + I
    logits_on = noisy_forward(model, A, graph.features)

    def attack_objective(binary):  # the CR loss on A xor binary
        pairs = np.flatnonzero(binary != 0)
        return weighted_logit_loss(logits_on([pairs])[0], labels, w_full,
                                   targets, config.loss)

    rng = np.random.default_rng(mix_seed(config.seed, 0xD15C))
    binary = discretize(delta, config.budget, config.discretize_trials, rng,
                        attack_objective)
    pre, post = evaluate_attack(graph, split, binary, model_on)
    return AttackReport(
        perturbation=Perturbation(delta, config.budget, binary),
        pre_attack_accuracy=pre, post_attack_accuracy=post,
        per_iteration_loss=losses, per_iteration_mass=masses,
        weights_history=weights_history,
        attack_seconds=time.perf_counter() - start,
        cert_seconds=cert_seconds,
        delta_trajectory=np.asarray(trajectory) if record_trajectory else None)


def pgd_evasion(params: GCNParams, graph: Graph, split: DataSplit,
                config: AttackConfig,
                record_trajectory: bool = False) -> AttackReport:
    """Projected-gradient evasion attack on the fixed trained model, which
    the certified scheme recertifies on each snapshot (see _attack_loop);
    the uniform scheme is exactly the plain PGD base attack."""
    if split.test.size == 0:
        raise ParameterError("evasion attack needs a non-empty test mask")
    certification = certifier("evasion", graph, split, None, config, params)
    return _attack_loop(graph, split, certification, params, config,
                        lambda _: params, record_trajectory=record_trajectory)


def minmax_poisoning(graph: Graph, split: DataSplit,
                     train_config: TrainConfig, config: AttackConfig,
                     record_trajectory: bool = False) -> AttackReport:
    """Alternating min-max poisoning attack over the training nodes: each
    iteration takes one model-descent step on the weighted training loss
    and one projected ascent step; the certified scheme recertifies by
    training classifiers on noisy copies of each snapshot.  Labels outside
    the train mask are masked out, so the attack is blind to test labels;
    the reported accuracies come from a separate clean retraining."""
    certification = certifier("poisoning", graph, split, train_config,
                              config)
    targets, labels_masked, _ = certification
    theta = init_params(graph.features.shape[1], train_config.hidden_dim,
                        graph.num_classes, mix_seed(config.seed, 0x7E7A))

    def model_step(theta, delta, w_full):
        relaxed_adj = relax_perturbation(graph.adjacency, delta)
        _, gW1, gW2 = param_gradients(theta, relaxed_adj, graph.features,
                                      labels_masked, w_full, targets,
                                      config.loss)
        return GCNParams(theta.W1 - config.inner_step_size * gW1,
                         theta.W2 - config.inner_step_size * gW2)

    retrain = functools.partial(train, graph, split, config=train_config)
    return _attack_loop(graph, split, certification, theta, config, retrain,
                        model_step=model_step,
                        record_trajectory=record_trajectory)


def evaluate_attack(graph: Graph, split: DataSplit, delta_binary: np.ndarray,
                    model_on) -> tuple[float, float]:
    """(pre, post) test accuracy around a binary perturbation: the model
    model_on(adjacency) scored on the clean and on the XOR-perturbed graph.

    Evasion passes its fixed model (lambda _: params); poisoning retrains
    from scratch (clean unweighted loss, same seed policy) on each graph.
    """
    def accuracy(adjacency):
        preds = predict_all(model_on(adjacency), adjacency, graph.features)
        return classification_accuracy(preds, graph.labels, split.test)

    return (accuracy(graph.adjacency),
            accuracy(apply_perturbation(graph.adjacency, delta_binary)))
