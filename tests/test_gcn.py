import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certattack import (CROSS_ENTROPY, DomainError, GCNParams, LossKind,
                        NoiseSpec, ParameterError, TrainConfig, TrainingError,
                        apply_perturbation, forward, gradients, init_params,
                        load_params, mix_seed, num_pairs, param_gradients,
                        predict_all, relax_perturbation, sample_noise,
                        save_params, split_nodes, synth_sbm, train,
                        train_arrays, weighted_logit_loss)
from certattack import gcn
from oracles import (backward_where, central_difference, gradients_dense,
                     gradients_outer, loss_rows_reduce, node_loss,
                     weighted_loss)


def _ahat(adjacency):
    """Ahat as a matrix: the normalized propagation of the identity."""
    return gcn._normalize(adjacency) @ np.eye(len(adjacency))


class TestNormalize:
    def test_isolated_nodes_become_identity(self):
        out = _ahat(np.zeros((2, 2)))
        assert np.allclose(out, np.eye(2))

    def test_complete_pair(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(_ahat(adj), np.full((2, 2), 0.5))

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(5)
        upper = np.triu(rng.random((5, 5)), k=1)
        adj = upper + upper.T
        out = _ahat(adj)
        atil = adj + np.eye(5)
        deg = atil.sum(axis=1)
        for i in range(5):
            for j in range(5):
                assert out[i, j] == pytest.approx(
                    atil[i, j] / np.sqrt(deg[i] * deg[j]), rel=1e-12)


class TestForward:
    def test_zero_output_weights(self, tiny_graph):
        params = init_params(4, 3, 2, seed=0)
        params.W2[:] = 0.0
        logits = forward(params, tiny_graph.adjacency, tiny_graph.features)
        assert np.all(logits == 0.0)
        preds = predict_all(params, tiny_graph.adjacency, tiny_graph.features)
        assert np.all(preds == 0)

    def test_single_isolated_node(self):
        rng = np.random.default_rng(3)
        x = rng.random((1, 4))
        params = init_params(4, 3, 2, seed=1)
        logits = forward(params, np.zeros((1, 1)), x)
        expected = np.maximum(x @ params.W1, 0.0) @ params.W2
        assert np.allclose(logits, expected)

    def test_relaxed_entry_changes_follow_relaxation(self, tiny_graph):
        params = init_params(4, 3, 2, seed=2)
        delta = np.zeros(num_pairs(4))
        delta[2] = 0.4
        relaxed = relax_perturbation(tiny_graph.adjacency, delta)
        via_forward = forward(params, relaxed, tiny_graph.features)
        rebuilt = forward(params, relaxed.copy(), tiny_graph.features)
        assert np.array_equal(via_forward, rebuilt)

    def test_prediction_shift_invariance(self, tiny_graph):
        params = init_params(4, 3, 3, seed=4)
        logits = forward(params, tiny_graph.adjacency, tiny_graph.features)
        shifted = logits + 7.5
        assert np.array_equal(np.argmax(logits, axis=1),
                              np.argmax(shifted, axis=1))


class TestNodeLoss:
    def test_uniform_cross_entropy(self):
        loss = node_loss(np.zeros(4), 0, LossKind("cross_entropy"))
        assert loss == pytest.approx(np.log(4.0))

    def test_cw_saturates_at_minus_kappa(self):
        loss = node_loss(np.array([5.0, 0.0, 0.0]), 0,
                         LossKind("cw_margin", kappa=0.0))
        assert loss == 0.0

    def test_cw_plain_margin(self):
        loss = node_loss(np.array([0.0, 3.0, 1.0]), 0,
                         LossKind("cw_margin", kappa=10.0))
        assert loss == pytest.approx(3.0)

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        for kind in (LossKind("cross_entropy"), LossKind("cw_margin", 1.0)):
            for i in range(6):
                row = weighted_logit_loss(logits, labels, np.ones(6), [i],
                                          kind)
                assert row == pytest.approx(
                    node_loss(logits[i], labels[i], kind), rel=1e-12)


def _assert_same_bits(ours, want):
    """Byte equality, which, unlike array_equal, tells -0.0 from +0.0 and
    one NaN from another."""
    for a, b in zip(ours, want, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _hard_logits(rng, shape):
    """Logits whose rows take turns at being plain, tied, signed zeros,
    +inf, -inf, NaN and too large for exp without the max shift."""
    logits = rng.normal(scale=3.0, size=shape)
    rows = logits.reshape(-1, shape[-1])  # a view: rows write logits
    rows[1::8] = rows[1::8, :1]  # every class tied
    rows[2::8, -1] = rows[2::8, 0]  # a tie that may be the max
    rows[3::8] = rng.choice([0.0, -0.0], size=rows[3::8].shape)
    rows[4::8, -1] = np.inf
    rows[5::8, 0] = -np.inf
    rows[6::8, shape[-1] // 2] = np.nan
    rows[7::8] *= 400.0
    return logits


class TestEpochKernels:
    """The training epoch's kernels against their np.where / max-reduction
    forms in tests/oracles.py, byte for byte."""

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["rows", "stack"])
    @pytest.mark.parametrize("C", range(2, 8))
    def test_cross_entropy_rows_match_reduction_form(self, C, stack):
        rng = np.random.default_rng(C)
        logits = _hard_logits(rng, stack + (48, C))
        labels = rng.integers(-1, C, 48)
        with np.errstate(all="ignore"):
            _assert_same_bits(gcn._loss_rows(logits, labels, CROSS_ENTROPY),
                              loss_rows_reduce(logits, labels, CROSS_ENTROPY))

    def test_relu_mask_matches_where(self):
        rng = np.random.default_rng(5)
        # a matmul product, as in _backward, with negatives to be masked
        P = rng.normal(size=(3, 40, 6)) @ rng.normal(size=(6, 5))
        Z1 = rng.normal(size=P.shape)
        Z1[..., 0] = 0.0
        Z1[..., 1] = -0.0
        Z1[0, :, 2] = np.nan
        Z1[1, :, 2] = -np.inf
        Z1[2, :, 2] = np.inf
        P[:, :, 3] = -0.0  # where Z1 > 0 keeps it, it reads +0.0
        want = np.where(Z1 > 0.0, P, 0.0)
        want[:, :, 3] = 0.0
        assert gcn._relu_mask(P, Z1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, stack, edge", [
        (CROSS_ENTROPY, 3, False), (CROSS_ENTROPY, None, False),
        (CROSS_ENTROPY, None, True), (LossKind("cw_margin", 0.5), None, False),
        (LossKind("cw_margin", 0.5), None, True)],
        ids=["ce-stack", "ce", "ce-edges", "cw", "cw-edges"])
    def test_backward_matches_where_form(self, kind, stack, edge):
        g = synth_sbm(30, 3, 0.3, 0.05, 5, seed=2)
        rng = np.random.default_rng(2)
        if stack is None:  # the attack's relaxed graph
            adjacency = relax_perturbation(g.adjacency,
                                           rng.random(num_pairs(30)) * 0.2)
        else:  # poisoning certification's noisy graphs
            adjacency = np.stack([
                apply_perturbation(g.adjacency,
                                   sample_noise(NoiseSpec(0.8), 30, 4, j))
                for j in range(stack)])
        params = [init_params(5, 6, 3, seed=j) for j in range(stack or 1)]
        W1 = np.stack([p.W1 for p in params])
        W2 = np.stack([p.W2 for p in params])
        W1[..., 0] = 0.0  # a hidden unit at exactly 0: the mask's boundary
        if stack is None:
            W1, W2 = W1[0], W2[0]
        labels = np.where(rng.random(30) < 0.3, -1, g.labels)
        weights = np.where(labels < 0, 0.0, rng.random(30))

        def args():  # the edge gradient reads the products Ahat keeps
            Ahat = gcn._normalize(adjacency)
            if not edge:  # the loss rows, as training and param_gradients
                return (*gcn._loss_view(Ahat, g.features, labels, weights),
                        kind)
            return ((Ahat @ g.features, Ahat, Ahat), labels, weights, kind,
                    (g.features, np.empty((30, 30))))
        want = backward_where(W1, W2, *args())
        ours = gcn._backward(W1, W2, *args())
        _assert_same_bits(ours, want)

    def test_train_arrays_weights_match_where_form(self, monkeypatch):
        graph = synth_sbm(40, 2, 0.3, 0.05, 6, seed=1)
        split = split_nodes(graph, (0.3, 0.0, 0.7), seed=0)
        noisy = np.stack([
            apply_perturbation(graph.adjacency,
                               sample_noise(NoiseSpec(0.8), graph.n, 5, j))
            for j in range(3)])
        args = (noisy, graph.features, graph.labels, split.train,
                TrainConfig(epochs=40, learning_rate=0.1), 2, [11, 12, 13])
        ours = train_arrays(*args)
        monkeypatch.setattr(gcn, "_backward", backward_where)
        want = train_arrays(*args)
        _assert_same_bits([p.W1 for p in ours] + [p.W2 for p in ours],
                          [p.W1 for p in want] + [p.W2 for p in want])


def _fd_check(graph, params, delta, weights, mask, kind, step=1e-4):
    """Max relative error between analytic and central-difference partials."""
    _, gW1, gW2, gd = gradients(params, graph.adjacency, delta,
                                graph.features, graph.labels, weights, mask,
                                kind)

    def loss_of(W1, W2, d):
        p = GCNParams(W1, W2)
        return weighted_loss(p, relax_perturbation(graph.adjacency, d),
                             graph.features, graph.labels, weights, mask,
                             kind)

    worst = 0.0
    fd = central_difference(
        lambda w: loss_of(w.reshape(params.W1.shape), params.W2, delta),
        params.W1.ravel(), step).reshape(params.W1.shape)
    worst = max(worst, _rel_err(gW1, fd))
    fd = central_difference(
        lambda w: loss_of(params.W1, w.reshape(params.W2.shape), delta),
        params.W2.ravel(), step).reshape(params.W2.shape)
    worst = max(worst, _rel_err(gW2, fd))
    fd = central_difference(lambda d: loss_of(params.W1, params.W2, d),
                            delta, step)
    worst = max(worst, _rel_err(gd, fd))
    return worst


def _rel_err(analytic, fd):
    denom = np.maximum.reduce([np.abs(analytic), np.abs(fd),
                               np.full_like(fd, 1e-3)])
    return float((np.abs(analytic - fd) / denom).max())


class TestGradients:
    def test_zero_weights_zero_gradients(self, tiny_graph):
        params = init_params(4, 3, 2, seed=0)
        delta = np.full(num_pairs(4), 0.5)
        w = np.zeros(4)
        _, gW1, gW2, gd = gradients(params, tiny_graph.adjacency, delta,
                                    tiny_graph.features, tiny_graph.labels,
                                    w, np.arange(4), LossKind("cross_entropy"))
        assert np.all(gW1 == 0) and np.all(gW2 == 0) and np.all(gd == 0)

    @pytest.mark.parametrize("loss_fn", ["weighted_loss", "gradients",
                                         "param_gradients"])
    def test_negative_masked_weight_rejected(self, tiny_graph, loss_fn):
        params = init_params(4, 3, 2, seed=1)
        adjacency, X, y = (tiny_graph.adjacency, tiny_graph.features,
                           tiny_graph.labels)
        call = {
            "weighted_loss": lambda w, mask: weighted_loss(
                params, adjacency, X, y, w, mask),
            "gradients": lambda w, mask: gradients(
                params, adjacency, np.zeros(num_pairs(4)), X, y, w, mask),
            "param_gradients": lambda w, mask: param_gradients(
                params, adjacency, X, y, w, mask),
        }[loss_fn]
        w = np.array([-1.0, 1.0, 0.5, 2.0])
        with pytest.raises(ParameterError, match="nonnegative"):
            call(w, np.arange(4))
        call(w, np.arange(1, 4))  # only masked weights are read

    def test_linearity_in_weights(self, tiny_graph):
        params = init_params(4, 3, 2, seed=1)
        delta = np.full(num_pairs(4), 0.3)
        w = np.array([0.5, 1.0, 0.25, 2.0])
        out1 = gradients(params, tiny_graph.adjacency, delta,
                         tiny_graph.features, tiny_graph.labels, w,
                         np.arange(4), LossKind("cross_entropy"))
        out2 = gradients(params, tiny_graph.adjacency, delta,
                         tiny_graph.features, tiny_graph.labels, 2 * w,
                         np.arange(4), LossKind("cross_entropy"))
        for a, b in zip(out1, out2):
            assert np.allclose(2 * np.asarray(a), np.asarray(b), rtol=1e-12)

    @pytest.mark.parametrize("kind", [LossKind("cross_entropy"),
                                      LossKind("cw_margin", kappa=0.5)])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(42)
        for seed in range(3):
            g = synth_sbm(6, 2, 0.8, 0.2, 4, seed=seed)
            params = init_params(4, 5, 2, seed=seed + 10)
            delta = rng.uniform(0.2, 0.8, num_pairs(6))
            w = np.zeros(6)
            mask = np.array([0, 2, 3, 5])
            w[mask] = rng.uniform(0.2, 1.0, mask.size)
            assert _fd_check(g, params, delta, w, mask, kind) <= 1e-4

    def test_param_gradients_match_finite_differences(self):
        # the loss rows only, on a real-valued symmetric adjacency
        g = synth_sbm(12, 2, 0.5, 0.2, 4, seed=3)
        rng = np.random.default_rng(3)
        scale = rng.random((12, 12))
        adjacency = g.adjacency * (scale + scale.T)
        params = init_params(4, 5, 2, seed=3)
        w = rng.uniform(0.2, 1.0, 12)
        mask = np.array([1, 4, 5, 9])
        _, gW1, gW2 = param_gradients(params, adjacency, g.features,
                                      g.labels, w, mask)

        def loss_of(W1, W2):
            return weighted_loss(GCNParams(W1, W2), adjacency, g.features,
                                 g.labels, w, mask)
        fd1 = central_difference(
            lambda v: loss_of(v.reshape(params.W1.shape), params.W2),
            params.W1.ravel()).reshape(params.W1.shape)
        fd2 = central_difference(
            lambda v: loss_of(params.W1, v.reshape(params.W2.shape)),
            params.W2.ravel()).reshape(params.W2.shape)
        assert max(_rel_err(gW1, fd1), _rel_err(gW2, fd2)) <= 1e-4

    def test_asymmetric_adjacency_rejected(self):
        # the backward pass reads the rows of Ahat^T as columns of Ahat, so
        # an asymmetric adjacency would get wrong weight gradients back
        g = synth_sbm(12, 2, 0.5, 0.2, 4, seed=3)
        adjacency = g.adjacency * np.random.default_rng(3).random((12, 12))
        with pytest.raises(DomainError, match="symmetric"):
            param_gradients(init_params(4, 5, 2, seed=3), adjacency,
                            g.features, g.labels, np.ones(12), np.arange(12))

    @pytest.mark.parametrize("kind", [LossKind("cross_entropy"),
                                      LossKind("cw_margin", kappa=0.5)],
                             ids=["ce", "cw"])
    @pytest.mark.parametrize("support", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [4, 30, 100])
    def test_matches_dense_form(self, n, support, kind):
        # the low-rank product order against the dense Gtil form, on
        # real-valued relaxed adjacencies: equal up to rounding, relative
        # to each entry and, where the mirrored terms cancel, to the
        # largest entry
        g = synth_sbm(n, 2, 0.5, 0.1, 4, seed=n)
        params = init_params(4, 5, 2, seed=n)
        rng = np.random.default_rng(n)
        delta = rng.uniform(0.01, 1.0, num_pairs(n))  # every pair nonzero
        if support == "sparse":
            delta *= rng.random(delta.size) < 0.2
        mask = np.flatnonzero(rng.random(n) < 0.6)
        args = (params, g.adjacency, delta, g.features, g.labels,
                rng.random(n), mask, kind)
        for ours, want in zip(gradients(*args), gradients_dense(*args),
                              strict=True):
            np.testing.assert_allclose(
                ours, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=12),
           st.sampled_from([LossKind("cross_entropy"),
                            LossKind("cw_margin", kappa=0.5)]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_outer_form(self, seed, half, kind):
        rng = np.random.default_rng(seed)
        n = 2 * half
        g = synth_sbm(n, 2, 0.5, 0.1, 4, seed=seed)
        params = init_params(4, 5, 2, seed=seed)
        delta = rng.random(num_pairs(n)) * (rng.random(num_pairs(n)) < 0.5)
        mask = np.flatnonzero(rng.random(n) < 0.6)
        w = rng.random(n)
        ours = gradients(params, g.adjacency, delta, g.features, g.labels,
                         w, mask, kind)
        oracle = gradients_outer(params, g.adjacency, delta, g.features,
                                 g.labels, w, mask, kind)
        _assert_same_bits(ours, oracle)


class TestEdgeWorkspace:
    def test_call_allocates_no_n_by_n_array(self):
        n = 200
        g = synth_sbm(n, 2, 0.05, 0.005, 4, seed=3)
        params = init_params(4, 5, 2, seed=3)
        rng = np.random.default_rng(3)
        delta = rng.random(num_pairs(n)) * (rng.random(num_pairs(n)) < 0.05)
        args = (params, g.adjacency, delta, g.features, g.labels,
                rng.random(n), np.arange(n), LossKind("cw_margin", kappa=0.5))
        work = gcn.EdgeWorkspace(g.adjacency)
        gradients(*args, work=work)  # warm-up: fills per-n caches
        tracemalloc.start()
        try:
            gradients(*args, work=work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the returned length-m gradient and one length-m temporary, not
        # the 8-9 float (n, n) arrays of a call that builds its own buffers
        assert peak <= 2 * n * n * 8

    @pytest.mark.parametrize("kind", [LossKind("cross_entropy"),
                                      LossKind("cw_margin", kappa=0.5)])
    def test_reuse_matches_fresh_calls_and_oracle(self, kind):
        n = 16
        g = synth_sbm(n, 2, 0.5, 0.1, 4, seed=7)
        params = init_params(4, 5, 2, seed=7)
        rng = np.random.default_rng(7)
        mask = np.flatnonzero(rng.random(n) < 0.6)
        w = rng.random(n)
        m = num_pairs(n)
        u = rng.random(m)
        # entries rise, reach 1, fall back to exactly 0, then all reach 1
        deltas = [np.zeros(m), 0.3 * u, 0.6 * u, np.where(u > 0.5, 1.0, 0.0),
                  np.where(u > 0.5, 0.0, 0.6 * u), np.zeros(m), np.ones(m)]
        work = gcn.EdgeWorkspace(g.adjacency)
        for delta in deltas:
            args = (params, g.adjacency, delta, g.features, g.labels, w,
                    mask, kind)
            reused = gradients(*args, work=work)
            for want in (gradients(*args), gradients_outer(*args)):
                for a, b in zip(reused, want, strict=True):
                    assert np.array_equal(a, b)

    def test_asymmetric_adjacency_rejected(self):
        # the factor 1 - 2A comes from the upper triangle and the edge
        # gradient sums the mirrored pairs, so an asymmetric A would get a
        # wrong gradient back instead of an error
        g = synth_sbm(8, 2, 0.5, 0.2, 4, seed=3)
        adjacency = g.adjacency.copy()
        adjacency[0, 1] = 1 - adjacency[1, 0]
        with pytest.raises(DomainError):
            gradients(init_params(4, 3, 2, seed=3), adjacency,
                      np.zeros(num_pairs(8)), g.features, g.labels,
                      np.ones(8), np.arange(8))

    def test_workspace_of_another_adjacency_rejected(self, tiny_graph):
        work = gcn.EdgeWorkspace(tiny_graph.adjacency.copy())
        with pytest.raises(ParameterError):
            gradients(init_params(4, 3, 2, seed=0), tiny_graph.adjacency,
                      np.zeros(num_pairs(4)), tiny_graph.features,
                      tiny_graph.labels, np.ones(4), np.arange(4), work=work)


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self, tiny_graph):
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        config = TrainConfig(learning_rate=0.05, epochs=200, seed=0)
        params = train(tiny_graph, split, tiny_graph.adjacency, config)
        preds = predict_all(params, tiny_graph.adjacency, tiny_graph.features)
        assert np.array_equal(preds, tiny_graph.labels)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)

    def test_deterministic(self, tiny_graph):
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        config = TrainConfig(epochs=50, seed=3)
        a = train(tiny_graph, split, tiny_graph.adjacency, config)
        b = train(tiny_graph, split, tiny_graph.adjacency, config)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)

    def test_loss_monotone_at_small_rate(self, tiny_graph):
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        mean_weights = np.full(tiny_graph.n, 1.0 / split.train.size)
        objective = []
        for epochs in range(1, 301, 10):
            config = TrainConfig(learning_rate=0.01, epochs=epochs, seed=0)
            params = train(tiny_graph, split, tiny_graph.adjacency, config)
            data_loss = weighted_loss(params, tiny_graph.adjacency,
                                      tiny_graph.features, tiny_graph.labels,
                                      mean_weights, split.train)
            penalty = 0.5 * config.weight_decay * (
                np.sum(params.W1 ** 2) + np.sum(params.W2 ** 2))
            objective.append(data_loss + penalty)
        assert np.all(np.diff(objective) <= 1e-8)

    def test_adjacency_normalized_once_per_training(self, tiny_graph,
                                                    monkeypatch):
        calls = []
        normalize = gcn._normalize

        def counting(adjacency_real):
            calls.append(1)
            return normalize(adjacency_real)

        monkeypatch.setattr(gcn, "_normalize", counting)
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        train(tiny_graph, split, tiny_graph.adjacency,
              TrainConfig(epochs=25, seed=0))
        assert len(calls) == 1

    def test_divergence_reports_epoch(self, tiny_graph):
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        config = TrainConfig(learning_rate=1e6, epochs=200, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingError,
                                                      match="epoch"):
            train(tiny_graph, split, tiny_graph.adjacency, config)

    def test_stack_matches_single_trainings(self):
        graph = synth_sbm(40, 2, 0.3, 0.05, 6, seed=1)
        split = split_nodes(graph, (0.3, 0.0, 0.7), seed=0)
        noisy = np.stack([
            apply_perturbation(graph.adjacency,
                               sample_noise(NoiseSpec(0.8), graph.n, 5, j))
            for j in range(3)])
        seeds = [11, 12, 13]
        config = TrainConfig(epochs=30, learning_rate=0.1, seed=0)
        stacked = train_arrays(noisy, graph.features, graph.labels,
                               split.train, config, graph.num_classes, seeds)
        assert len(stacked) == 3
        for adj, seed, params in zip(noisy, seeds, stacked):
            [alone] = train_arrays(adj[None], graph.features, graph.labels,
                                   split.train, config, graph.num_classes,
                                   [seed])
            assert np.array_equal(params.W1, alone.W1)
            assert np.array_equal(params.W2, alone.W2)

    @pytest.mark.parametrize("epochs, model, epoch",
                             [(31, None, None), (32, 1, 32), (33, 0, 33),
                              (200, 0, 33)])
    def test_stack_names_lowest_failing_model_and_its_epoch(
            self, epochs, model, epoch):
        # Alone, model 1 diverges at epoch 32 and model 0 at epoch 33; with
        # 32 epochs only model 1's final loss check fails.
        graph = synth_sbm(30, 2, 0.3, 0.05, 4, seed=0)
        split = split_nodes(graph, (0.3, 0.0, 0.7), seed=0)
        noisy = np.stack([
            apply_perturbation(graph.adjacency,
                               sample_noise(NoiseSpec(0.9), graph.n, 1, j))
            for j in (0, 3)])
        seeds = [mix_seed(3, 0), mix_seed(3, 3)]
        config = TrainConfig(learning_rate=1e6, epochs=epochs)
        args = (graph.features, graph.labels, split.train)
        with np.errstate(all="ignore"):
            if model is None:
                train_arrays(noisy, *args, config, 2, seeds)
                return
            with pytest.raises(TrainingError) as stacked:
                train_arrays(noisy, *args, config, 2, seeds)
            with pytest.raises(TrainingError) as alone:
                train_arrays(noisy[model][None], *args, config, 2,
                             [seeds[model]])
        assert stacked.value.model == model and alone.value.model == 0
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == f"loss diverged at epoch {epoch}"

    def test_asymmetric_adjacency_rejected(self, tiny_graph):
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        stack = np.stack([tiny_graph.adjacency] * 2)
        stack[1, 0, 1] = 1 - stack[1, 1, 0]  # only the second matrix
        with pytest.raises(DomainError, match="symmetric"):
            train(tiny_graph, split, stack[1], TrainConfig(epochs=5))
        with pytest.raises(DomainError, match="symmetric"):
            train_arrays(stack, tiny_graph.features, tiny_graph.labels,
                         split.train, TrainConfig(epochs=5), 2, [1, 2])

    def test_stack_needs_one_seed_per_adjacency(self, tiny_graph):
        args = (tiny_graph.features, tiny_graph.labels, np.arange(4),
                TrainConfig(epochs=5), 2)
        stack = np.stack([tiny_graph.adjacency] * 2)
        with pytest.raises(ParameterError):
            train_arrays(stack, *args, [1])
        with pytest.raises(ParameterError):  # one (n, n) matrix is no stack
            train_arrays(tiny_graph.adjacency, *args, [1])


class TestPredict:
    def test_matches_forward_argmax(self, sbm_setup):
        graph, _, params = sbm_setup
        logits = forward(params, graph.adjacency, graph.features)
        assert np.array_equal(predict_all(params, graph.adjacency,
                                          graph.features),
                              np.argmax(logits, axis=1))

    def test_uniform_weight_loss_equals_unweighted_sum(self, sbm_setup):
        graph, split, params = sbm_setup
        kind = LossKind("cross_entropy")
        total = weighted_loss(params, graph.adjacency, graph.features,
                              graph.labels, np.ones(graph.n), split.test,
                              kind)
        logits = forward(params, graph.adjacency, graph.features)
        expected = sum(node_loss(logits[v], graph.labels[v], kind)
                       for v in split.test)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_relaxed_binary_equals_xor_forward(self, sbm_setup):
        graph, _, params = sbm_setup
        rng = np.random.default_rng(0)
        delta = (rng.random(graph.num_pairs) < 0.02).astype(np.int8)
        from certattack import apply_perturbation
        a = forward(params, relax_perturbation(graph.adjacency,
                                               delta.astype(float)),
                    graph.features)
        b = forward(params, apply_perturbation(graph.adjacency, delta),
                    graph.features)
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = init_params(5, 4, 3, seed=7)
        path = tmp_path / "params.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert np.array_equal(params.W1, loaded.W1)
        assert np.array_equal(params.W2, loaded.W2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ParameterError):
            load_params(path)

    @pytest.mark.parametrize("matrix, dims, error", [
        ("W1", (2**40, 2**40), "truncated"),
        ("W2", (2**40, 2**40), "truncated"),
        ("W1", (0, 2**62), "empty")], ids=["W1", "W2", "empty"])
    def test_dims_beyond_the_file_rejected(self, tmp_path, matrix, dims,
                                           error):
        # 2^40 x 2^40 doubles: the byte count overflows any index, so the
        # header must be checked against the file, not read through
        path = tmp_path / "params.bin"
        save_params(init_params(5, 4, 3, seed=7), path)
        data = path.read_bytes()
        at = 16 if matrix == "W1" else 16 + 16 + 5 * 4 * 8
        path.write_bytes(data[:at] + struct.pack("<QQ", *dims)
                         + data[at + 16:])
        with pytest.raises(ParameterError, match=error):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        save_params(init_params(5, 4, 3, seed=7), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ParameterError, match="1 bytes after"):
            load_params(path)
