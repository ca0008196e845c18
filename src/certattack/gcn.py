"""Dense two-layer GCN with hand-derived gradients.

All gradients (with respect to the weight matrices and to the relaxed
edge-flip vector) are computed analytically, including the chain rule
through the symmetric degree normalization, so the whole pipeline stays
deterministic and autograd-free.  Features come before weights: the
hidden layer is (Ahat X) W1, so a training builds Ahat X once.
"""
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (DomainError, NumericError, ParameterError, TrainingError)
from .graph import DataSplit, Graph
from .perturb import relax_perturbation, triu_flat

# Stacked kernels hold blocks of about this many adjacency entries.
STACK_ENTRIES = 100_000


def stack_block(n: int) -> int:
    """Graphs per stacked block at n nodes, 10 at n = 100 and 1 from
    n = 224: poisoning replicates trained in lockstep, and noisy graphs per
    call of a noisy_forward scorer."""
    return max(1, STACK_ENTRIES // (n * n))


@dataclass(frozen=True)
class LossKind:
    """Per-node loss selector: plain cross-entropy or a CW-style margin.

    cw_margin evaluates max(max_{c != y} z_c - z_y, -kappa).
    """
    tag: str = "cross_entropy"
    kappa: float = 0.0

    def __post_init__(self):
        if self.tag not in ("cross_entropy", "cw_margin"):
            raise ParameterError(f"unknown loss kind {self.tag!r}")
        if self.kappa < 0:
            raise ParameterError("kappa must be nonnegative")


CROSS_ENTROPY = LossKind("cross_entropy")


@dataclass
class GCNParams:
    """Two-layer GCN weights: W1 (d x h) and W2 (h x C)."""
    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        if self.W1.ndim != 2 or self.W2.ndim != 2:
            raise ParameterError("weights must be matrices")
        if self.W1.shape[1] != self.W2.shape[0]:
            raise ParameterError(
                f"hidden dims disagree: W1 {self.W1.shape}, W2 {self.W2.shape}")
        if not (np.isfinite(self.W1).all() and np.isfinite(self.W2).all()):
            raise ParameterError("weights contain non-finite entries")

    @property
    def num_classes(self) -> int:
        return self.W2.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    weight_decay: float = 5e-4
    hidden_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")
        if self.epochs < 1:
            raise ParameterError("epochs must be at least 1")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be nonnegative")
        if self.hidden_dim < 1:
            raise ParameterError("hidden_dim must be positive")


class _Ahat:
    """Ahat = S (A + I) S, S = diag(deg^{-1/2}) with deg the row sums of
    A + I, as an operator that is never built: Ahat @ Y is
    s (Atil (s Y)) for Atil = A + I, slice by slice for (B, n, n) stacks.
    Each product keeps its Atil S Y in `inner`, in call order: the edge
    gradient's factors."""

    def __init__(self, Atil, deg):
        self.Atil, self.deg, self.inner = Atil, deg, []
        self.s = (deg ** -0.5)[..., None]

    def __matmul__(self, Y):
        self.inner.append(self.Atil @ (self.s * Y))
        return self.s * self.inner[-1]


def _normalize(adjacency_real, copy=True):
    """The _Ahat of a real adjacency A or of each matrix of a (B, n, n)
    stack; A + I goes in a float copy, or with copy=False over A itself."""
    A = np.array(adjacency_real, dtype=np.float64) if copy else adjacency_real
    if A.min(initial=0.0) < -1e-12:
        raise DomainError("adjacency entries must be nonnegative")
    diagonal = np.arange(A.shape[-1])
    A[..., diagonal, diagonal] += 1.0
    return _Ahat(A, A.sum(axis=-1))


def _propagate(AX, W1, W2, A_rows):
    """Both layers from AX = Ahat X: Z1 = AX W1 at every node and
    Z2 = A_rows (H1 W2) at the rows of Ahat that A_rows holds."""
    Z1 = AX @ W1
    H1 = np.maximum(Z1, 0.0)
    HW2 = H1 @ W2
    Z2 = A_rows @ HW2
    return Z1, H1, HW2, Z2


def _logits(X, W1, W2, Ahat):
    """Z2 of an _Ahat or of each slice of an _Ahat stack; a non-finite
    value raises the error of the first failing slice, as forward would."""
    Z1, _, _, Z2 = _propagate(Ahat @ X, W1, W2, Ahat)
    if not (np.isfinite(Z1).all() and np.isfinite(Z2).all()):
        for z1, z2 in zip(*(z.reshape(-1, *z.shape[-2:]) for z in (Z1, Z2))):
            if not np.isfinite(z1).all():
                raise NumericError("non-finite activation in hidden layer")
            if not np.isfinite(z2).all():
                raise NumericError("non-finite logits in output layer")
    return Z2


def forward(params: GCNParams, adjacency_real: np.ndarray,
            features: np.ndarray) -> np.ndarray:
    """Logits = Ahat relu((Ahat X) W1) W2 for all nodes."""
    return _logits(np.asarray(features, dtype=np.float64), params.W1,
                   params.W2, _normalize(adjacency_real))


def predict_all(params: GCNParams, adjacency: np.ndarray,
                features: np.ndarray) -> np.ndarray:
    """Argmax prediction per node; ties break toward the lowest class."""
    return np.argmax(forward(params, adjacency, features), axis=1)


def _symmetric(adjacency):
    """The adjacency, or a (B, n, n) stack, as an array, checked to be
    symmetric: the backward pass reads the rows of Ahat^T as columns of
    Ahat."""
    A = np.asarray(adjacency)
    if (A.ndim < 2 or A.shape[-1] != A.shape[-2]
            or (A != np.swapaxes(A, -1, -2)).any()):
        raise DomainError("adjacency must be symmetric")
    return A


def _binary_symmetric(adjacency):
    """The adjacency as an array, checked to be a symmetric 0/1 matrix."""
    A = _symmetric(adjacency)
    if A.ndim != 2 or not ((A == 0) | (A == 1)).all():
        raise DomainError("adjacency must be a symmetric 0/1 matrix")
    return A


def noisy_forward(params: GCNParams, adjacency: np.ndarray,
                  features: np.ndarray):
    """logits_on(flip_lists) -> a (len(flip_lists), n, C) stack, slice b
    forward's logits on A xor flip_lists[b], for 1 to stack_block(n) lists
    of pair indices in triu_pairs order; A must be symmetric and 0/1.  A call
    copies the float A + I into the scorer's stack and writes 1 - v at each
    flip: forward's float operations on each XOR-ed copy."""
    A = _binary_symmetric(adjacency)
    n = A.shape[0]
    Atil = _normalize(A).Atil
    X = np.asarray(features, dtype=np.float64)
    upper, lower = triu_flat(n)
    stack = np.empty((stack_block(n), n, n))
    flat = stack.reshape(-1)
    ones = np.ones(n)

    def logits_on(flip_lists):
        b = len(flip_lists)
        if not 0 < b <= len(stack):
            raise ParameterError(f"score 1 to {len(stack)} flip lists a call")
        np.copyto(stack[:b], Atil)
        pairs = np.concatenate(flip_lists)
        shift = np.repeat(np.arange(b) * n * n, [len(f) for f in flip_lists])
        i, k = upper[pairs] + shift, lower[pairs] + shift
        flat[i] = flat[k] = 1.0 - flat[i]
        # Every entry is 0, 1 or 2, so the product's partial sums are
        # integers and it gives sum(axis=-1)'s degrees exactly.
        return _logits(X, params.W1, params.W2,
                       _Ahat(stack[:b], stack[:b] @ ones))
    return logits_on


def _loss_rows(logits, labels, kind):
    """Vectorized per-node losses and d(loss)/d(logits) rows.

    Rows whose weight is zero may carry placeholder labels (e.g. -1); the
    caller multiplies by the weights, which kills their contribution.
    Cross-entropy also takes a (B, n, C) stack of logits.
    """
    n, C = logits.shape[-2:]
    idx = np.arange(n)
    safe = np.where((labels >= 0) & (labels < C), labels, 0)
    if kind.tag == "cross_entropy":
        top = reduce(np.maximum, np.moveaxis(logits, -1, 0))  # exact max
        shifted = logits - top[..., None]
        expz = np.exp(shifted)
        Z = expz.sum(axis=-1)
        loss = np.log(Z) - shifted[..., idx, safe]
        grad = expz / Z[..., None]
        grad -= safe[:, None] == np.arange(C)  # one-hot; x - 0.0 is x
    else:
        z_true = logits[idx, safe]
        masked = logits.copy()
        masked[idx, safe] = -np.inf
        best_other = np.argmax(masked, axis=1)
        margin = masked[idx, best_other] - z_true
        loss = np.maximum(margin, -kind.kappa)
        grad = np.zeros_like(logits)
        active = margin > -kind.kappa
        grad[idx[active], best_other[active]] = 1.0
        grad[idx[active], safe[active]] = -1.0
    return loss, grad


def _relu_mask(P, Z1):
    """np.where(Z1 > 0.0, P, 0.0) in P's memory, but a kept -0.0 reads +0.0
    (GZ1 only enters matmuls) and a masked inf or NaN reads NaN: P = AG2 W2^T
    has one only when that epoch's loss or gW2 is non-finite under either
    form, so no divergence epoch, failing model or NumericError moves."""
    P *= Z1 > 0.0
    P += 0.0  # a masked negative's -0.0 becomes np.where's +0.0
    return P


def _loss_view(Ahat, X, labels, weights):
    """(view, labels, weights) for _backward at the loss rows, the nodes
    whose weight is not zero: the view (Ahat X, Ahat's rows there, its
    columns there) of an _Ahat or of each slice of an _Ahat stack; the
    columns are the rows' transposed view, faster for BLAS than a copy."""
    rows = np.flatnonzero(weights)
    A_rows = (Ahat.s[..., rows, :] * Ahat.Atil[..., rows, :]
              * np.swapaxes(Ahat.s, -1, -2))
    return ((Ahat @ X, A_rows, np.swapaxes(A_rows, -1, -2)), labels[rows],
            weights[rows])


def _backward(W1, W2, view, labels, weights, kind, edge=None):
    """Weighted-sum loss over the loss rows with gradients w.r.t. W1, W2
    and, given `edge` = (X, out), the real adjacency entries, via the
    normalization chain rule.  `view` is (Ahat X, A_rows, A_cols),
    Ahat's rows and columns at the loss rows, whose labels and weights
    are given; Ahat must be symmetric, because A_cols stands for
    A_rows^T.  Without the adjacency gradient, views and weights may be
    (B, ...) stacks of B models trained in lockstep; the loss is then one
    value per model.  The adjacency gradient needs every row, both A_rows
    and A_cols the _Ahat whose product gave Ahat X, and returns, in the
    (n, n) array `out`, M with the gradient of pair (i, j) at M[i, j]
    before the XOR factor 1 - 2A."""
    AX, A_rows, A_cols = view
    Z1, H1, HW2, Z2 = _propagate(AX, W1, W2, A_rows)
    loss_rows, grad_rows = _loss_rows(Z2, labels, kind)
    total = loss_rows @ weights
    G2 = grad_rows * weights[:, None]
    AG2 = A_cols @ G2
    gW2 = np.swapaxes(H1, -1, -2) @ AG2
    GZ1 = _relu_mask(AG2 @ np.swapaxes(W2, -1, -2), Z1)
    gW1 = np.swapaxes(AX, -1, -2) @ GZ1
    if edge is None:
        return total, gW1, gW2, None
    # dL/dAhat = U V^T with U = [G2, GZ1] and V = [HW2, XW1]; then
    # M = S (U V^T + V U^T) S - (c 1^T + 1 c^T) / 2 with c = deg^{-3/2}
    # (rowsum(U o Atil S V) + rowsum(V o Atil S U)), as one product L R^T
    # of the windows L = [SU, -c/2, SV, 1] and R = [SV, 1, SU, -c/2] of
    # F = [SU, -c/2, SV, 1, SU, -c/2].
    X, out = edge
    AtSX, AtSHW2, AtSG2 = A_cols.inner
    XW1 = X @ W1
    C, k = G2.shape[1], G2.shape[1] + GZ1.shape[1]
    F = np.empty((len(X), 3 * k + 3))
    SU, SV = F[:, :k], F[:, k + 1:2 * k + 1]
    for part, Y in ((SU[:, :C], G2), (SU[:, C:], GZ1), (SV[:, :C], HW2),
                    (SV[:, C:], XW1)):
        np.multiply(A_cols.s, Y, out=part)
    dots = (np.einsum("ij,ij->i", G2, AtSHW2)
            + np.einsum("ij,ij->i", GZ1, AtSX @ W1)
            + np.einsum("ij,ij->i", HW2, AtSG2)
            + np.einsum("ij,ij->i", XW1, A_cols.Atil @ SU[:, C:]))
    F[:, k] = -0.5 * A_cols.deg ** -1.5 * dots
    F[:, 2 * k + 1] = 1.0
    F[:, 2 * k + 2:] = F[:, :k + 1]
    return total, gW1, gW2, np.matmul(F[:, :2 * k + 2], F[:, k + 1:].T,
                                      out=out)


def weighted_logit_loss(logits: np.ndarray, labels: np.ndarray,
                        node_weights: np.ndarray, mask: np.ndarray,
                        kind: LossKind = CROSS_ENTROPY) -> float:
    """The CR loss: sum over masked nodes u of weight(u) * loss(u), from
    the model's logits; the weights of masked nodes must be nonnegative."""
    mask = np.asarray(mask, dtype=np.int64)
    w = _effective_weights(node_weights, mask, logits.shape[0])
    loss_rows, _ = _loss_rows(logits, np.asarray(labels), kind)
    return float(w[mask] @ loss_rows[mask])


def _effective_weights(node_weights, mask, n):
    w = np.zeros(n)
    mask = np.asarray(mask, dtype=np.int64)
    w[mask] = np.asarray(node_weights, dtype=np.float64)[mask]
    if (w < 0).any():
        raise ParameterError("node weights must be nonnegative")
    return w


def param_gradients(params: GCNParams, adjacency_real: np.ndarray,
                    features: np.ndarray, labels: np.ndarray,
                    node_weights: np.ndarray, mask: np.ndarray,
                    kind: LossKind = CROSS_ENTROPY):
    """(loss, dL/dW1, dL/dW2) of the weighted masked loss; the adjacency
    must be symmetric."""
    X = np.asarray(features, dtype=np.float64)
    w = _effective_weights(node_weights, mask, X.shape[0])
    total, gW1, gW2, _ = _backward(
        params.W1, params.W2,
        *_loss_view(_normalize(_symmetric(adjacency_real)), X,
                    np.asarray(labels), w), kind)
    if not (np.isfinite(gW1).all() and np.isfinite(gW2).all()):
        raise NumericError("non-finite parameter gradient")
    return float(total), gW1, gW2


class EdgeWorkspace:
    """gradients()' state on one adjacency, which must be symmetric and 0/1:
    the factor 1 - 2A per pair and two (n, n) float buffers that each call
    overwrites, for A + I and the pair gradients.  An attack keeps one for
    all its PGD steps, so no step allocates an n x n array."""

    def __init__(self, adjacency):
        self.adjacency = _binary_symmetric(adjacency)
        self.upper = triu_flat(self.adjacency.shape[0])[0]
        self.sign = 1.0 - 2.0 * np.take(self.adjacency, self.upper)
        self.buffers = np.empty((2, *self.adjacency.shape))


def gradients(params: GCNParams, adjacency: np.ndarray,
              delta_relaxed: np.ndarray, features: np.ndarray,
              labels: np.ndarray, node_weights: np.ndarray,
              mask: np.ndarray, kind: LossKind = CROSS_ENTROPY,
              work: EdgeWorkspace | None = None):
    """Gradients of the weighted masked loss at A' = A + (1-2A) o delta.

    Returns (loss, dL/dW1, dL/dW2, dL/ddelta) where the delta gradient
    lives on the strict upper triangle with the mirrored (s,t)/(t,s)
    contributions summed and the XOR-relaxation factor (1-2A) applied.
    `work` is an EdgeWorkspace of this adjacency; without one, the call
    builds its own.
    """
    if work is None:
        work = EdgeWorkspace(adjacency)
    elif work.adjacency is not adjacency:
        raise ParameterError("the workspace belongs to another adjacency")
    Ahat = _normalize(relax_perturbation(work.adjacency, delta_relaxed,
                                         out=work.buffers[0]), copy=False)
    X = np.asarray(features, dtype=np.float64)
    w = _effective_weights(node_weights, mask, len(work.adjacency))
    total, gW1, gW2, M = _backward(
        params.W1, params.W2, (Ahat @ X, Ahat, Ahat), np.asarray(labels), w,
        kind, (X, work.buffers[1]))
    g_delta = work.sign * M.ravel()[work.upper]
    if not (np.isfinite(gW1).all() and np.isfinite(gW2).all()
            and np.isfinite(g_delta).all()):
        raise NumericError("non-finite gradient")
    return float(total), gW1, gW2, g_delta


def init_params(feature_dim: int, hidden_dim: int, num_classes: int,
                seed: int) -> GCNParams:
    """Seeded Glorot-uniform initialization, W1 drawn before W2."""
    rng = np.random.default_rng(seed)
    s1 = np.sqrt(6.0 / (feature_dim + hidden_dim))
    W1 = rng.uniform(-s1, s1, size=(feature_dim, hidden_dim))
    s2 = np.sqrt(6.0 / (hidden_dim + num_classes))
    W2 = rng.uniform(-s2, s2, size=(hidden_dim, num_classes))
    return GCNParams(W1, W2)


def train_arrays(adjacency_real: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, train_idx: np.ndarray,
                 config: TrainConfig, num_classes: int, seeds) -> list:
    """Full-batch gradient descent on the mean train cross-entropy.

    The objective is mean CE over the train mask plus an L2 penalty of
    0.5 * weight_decay * ||W||^2; only labels at train_idx are read. The
    adjacency is fixed and must be symmetric, so Ahat X and Ahat's rows
    and columns at the train nodes are built once, before the first
    epoch, and the loss is taken on the train rows only.

    A (B, n, n) stack with B `seeds` trains B models in lockstep, model b
    from seeds[b], and returns a list of B GCNParams; every operation
    works slice by slice in the order of a single training, so each model
    is bit-identical to training its adjacency in a stack of one.  A
    divergence raises TrainingError for the lowest failing model, with
    the epoch at which it fails alone and its index as `model`; the
    stack stops early only when model 0 diverges.
    """
    A = np.asarray(adjacency_real)
    if A.ndim != 3 or len(seeds) != A.shape[0]:
        raise ParameterError("train on a (B, n, n) stack with B seeds")
    X = np.asarray(features, dtype=np.float64)
    _symmetric(A)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ParameterError("cannot train on an empty mask")
    inits = [init_params(X.shape[1], config.hidden_dim, num_classes, seed)
             for seed in seeds]
    W1 = np.stack([p.W1 for p in inits])
    W2 = np.stack([p.W2 for p in inits])
    weights = np.zeros(X.shape[0])
    weights[train_idx] = 1.0 / train_idx.size
    # A + I goes before the epoch loop, which reads only the view: kept
    # alive, it made glibc trim and refault the heap at every epoch
    view, labels, weights = _loss_view(
        _normalize(A), X, np.asarray(labels, dtype=np.int64), weights)
    wd = config.weight_decay
    failed_at = np.full(len(seeds), -1)  # each model's first bad epoch
    for epoch in range(config.epochs):
        data_loss, gW1, gW2, _ = _backward(W1, W2, view, labels, weights,
                                           CROSS_ENTROPY)
        failed_at[(failed_at < 0) & ~np.isfinite(data_loss)] = epoch
        if failed_at[0] >= 0:
            break
        W1 = W1 - config.learning_rate * (gW1 + wd * W1)
        W2 = W2 - config.learning_rate * (gW2 + wd * W2)
    else:
        final_rows, _ = _loss_rows(_propagate(view[0], W1, W2, view[1])[3],
                                   labels, CROSS_ENTROPY)
        final = final_rows @ weights + 0.5 * wd * (
            np.sum(W1 * W1, axis=(1, 2)) + np.sum(W2 * W2, axis=(1, 2)))
        failed_at[(failed_at < 0) & ~np.isfinite(final)] = config.epochs
    failed = np.flatnonzero(failed_at >= 0)
    if failed.size:
        b = int(failed[0])
        raise TrainingError(f"loss diverged at epoch {failed_at[b]}", model=b)
    return [GCNParams(w1, w2) for w1, w2 in zip(W1, W2)]


def train(graph: Graph, split: DataSplit, adjacency_real: np.ndarray,
          config: TrainConfig) -> GCNParams:
    """Train on the split's train mask over a (possibly perturbed) adjacency."""
    return train_arrays(np.asarray(adjacency_real)[None], graph.features,
                        graph.labels, split.train, config, graph.num_classes,
                        [config.seed])[0]
