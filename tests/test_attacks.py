import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from certattack import (AttackConfig, CertificationError, LossKind,
                        NoiseSpec, ParameterError, SmoothingConfig,
                        TrainConfig, TrainingError, WeightScheme,
                        apply_perturbation, certifier, discretize,
                        eigenvector_centrality, evaluate_attack, forward,
                        gradients, init_params, minmax_poisoning,
                        node_weights, parse_config, pgd_evasion,
                        prepare_cell, project_budget, split_nodes,
                        size_function, synth_sbm, top_delta_binary, train)
from certattack import attacks, smoothing
from certattack.graph import DataSplit, Graph
from oracles import (certify_nodes, discretize_masked, gradients_outer,
                     mc_counts_evasion_loop, node_loss, project_bisect_full,
                     project_capped_box_exact, relax_scatter,
                     top_budget_argsort, weighted_loss)
from test_experiment import readme_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import build_config  # noqa: E402


class TestNodeWeights:
    def test_certified_values(self, sbm_graph):
        targets = np.array([0, 1, 2])
        w = node_weights(WeightScheme("certified", a=1.0), np.array([0, 2, 1]),
                         sbm_graph, targets)
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(1.0 / (1.0 + np.exp(2.0)), rel=1e-9)
        assert w[1] == pytest.approx(0.11920, abs=1e-5)

    def test_uniform_is_ones(self, sbm_graph):
        w = node_weights(WeightScheme("uniform"), None, sbm_graph,
                         np.arange(5))
        assert np.all(w == 1.0)

    def test_certified_monotone_in_size(self, sbm_graph):
        targets = np.arange(6)
        sizes = np.array([0, 1, 2, 3, 5, 9])
        for a in (0.5, 1.0, 3.0):
            w = node_weights(WeightScheme("certified", a=a), sizes, sbm_graph,
                             targets)
            assert np.all(np.diff(w) < 0)

    def test_missing_certificates_rejected(self, sbm_graph):
        with pytest.raises(ParameterError):
            node_weights(WeightScheme("certified"), None, sbm_graph,
                         np.arange(3))

    def test_random_seeded(self, sbm_graph):
        a = node_weights(WeightScheme("random", seed=5), None, sbm_graph,
                         np.arange(10))
        b = node_weights(WeightScheme("random", seed=5), None, sbm_graph,
                         np.arange(10))
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_degree_and_centrality_shrink_with_connectivity(self, sbm_graph):
        deg = sbm_graph.adjacency.sum(axis=0)
        lo, hi = int(np.argmin(deg)), int(np.argmax(deg))
        targets = np.array([lo, hi])
        w_deg = node_weights(WeightScheme("degree"), None, sbm_graph, targets)
        assert w_deg[0] > w_deg[1]
        cen = eigenvector_centrality(sbm_graph.adjacency)
        targets = np.array([int(np.argmin(cen)), int(np.argmax(cen))])
        w_cen = node_weights(WeightScheme("centrality", a=2.0), None,
                             sbm_graph, targets)
        assert w_cen[0] > w_cen[1]
        assert np.allclose(w_cen, 1.0 / (1.0 + np.exp(2.0 * cen[targets])),
                           rtol=1e-12, atol=0.0)

    def test_centrality_is_the_leading_eigenvector(self):
        graph = synth_sbm(60, 2, 0.3, 0.1, 4, seed=0)
        A = graph.adjacency.astype(np.float64)
        assert connected_components(A)[0] == 1
        values, vectors = np.linalg.eigh(A)
        assert values[0] > -values[-1] + 1.0  # not bipartite
        leading = np.abs(vectors[:, -1])
        assert np.allclose(eigenvector_centrality(graph.adjacency),
                           leading / leading.max(), rtol=0.0, atol=1e-6)

    def test_one_size_per_target_required(self, sbm_graph):
        for sizes in ([0, 1], [0, 1, 2, 3], [[0, 1, 2]]):
            with pytest.raises(ParameterError, match="target order"):
                node_weights(WeightScheme("certified"), np.array(sizes),
                             sbm_graph, np.arange(3))


class TestCrLoss:
    """The paper's CR loss is weighted_loss: sum of w(u) * loss(u)."""

    def test_uniform_weights_reduce_to_plain_sum(self, sbm_setup):
        graph, split, params = sbm_setup
        kind = LossKind("cross_entropy")
        weighted = weighted_loss(params, graph.adjacency, graph.features,
                                 graph.labels, np.ones(graph.n), split.test,
                                 kind)
        logits = forward(params, graph.adjacency, graph.features)
        plain = sum(node_loss(logits[v], graph.labels[v], kind)
                    for v in split.test)
        assert weighted == pytest.approx(plain, rel=1e-12)

    def test_zero_weight_drops_node(self, sbm_setup):
        graph, split, params = sbm_setup
        kind = LossKind("cross_entropy")
        targets = split.test[:4]
        w = np.ones(graph.n)
        w[targets[1]] = 0.0
        args = (params, graph.adjacency, graph.features, graph.labels, w)
        dropped = weighted_loss(*args, targets, kind)
        rest = weighted_loss(*args, targets[[0, 2, 3]], kind)
        assert dropped == pytest.approx(rest, rel=1e-12)

    def test_weighted_arithmetic(self, sbm_setup):
        # two targets at the certified-scheme weights of K = 0 and K = 2
        graph, split, params = sbm_setup
        targets = split.test[:2]
        w = np.zeros(graph.n)
        w[targets] = [0.5, 1.0 / (1.0 + np.exp(2.0))]
        logits = forward(params, graph.adjacency, graph.features)
        for kind in (LossKind("cross_entropy"), LossKind("cw_margin", 0.5)):
            expected = sum(w[v] * node_loss(logits[v], graph.labels[v], kind)
                           for v in targets)
            got = weighted_loss(params, graph.adjacency, graph.features,
                                graph.labels, w, targets, kind)
            assert got == pytest.approx(expected, rel=1e-12)


class TestProjection:
    def test_feasible_point_unchanged(self):
        x = np.array([0.2, 0.3, 0.1])
        assert np.array_equal(project_budget(x, 2), x)

    def test_analytic_shift(self):
        out = project_budget(np.array([0.8, 0.8, 0.8]), 1.2)
        assert np.allclose(out, [0.4, 0.4, 0.4], atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 1.0, 40)
        once = project_budget(x, 5)
        twice = project_budget(once, 5)
        assert np.allclose(once, twice, atol=1e-9)

    def test_matches_breakpoint_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.integers(1, 7)
            x = rng.normal(0.4, 0.8, m)
            budget = float(rng.uniform(0.2, m * 0.7))
            ours = project_budget(x, budget)
            exact = project_capped_box_exact(x, budget)
            assert np.abs(ours - exact).max() <= 1e-5

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_feasibility_at_scale(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.3, 1.2, 500)
        budget = int(rng.integers(1, 60))
        out = project_budget(x, budget)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.sum() <= budget + 1e-6

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=3000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_full_bisection(self, seed, m, ties):
        rng = np.random.default_rng(seed)
        if ties:  # few distinct values, so the clipped terms tie often
            x = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5], m)
        else:  # a PGD iterate: mostly near zero, a few large entries
            x = rng.normal(0.0, 0.05, m) + (rng.random(m) < 0.05) * 2.0
        budget = int(rng.integers(0, max(2, m // 20)))
        assert np.array_equal(project_budget(x, budget),
                              project_bisect_full(x, budget))

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_between_the_two_roundings(self, seed):
        # the positive entries alone and the whole array sum to different
        # roundings at the first midpoint; a budget equal to the full sum
        # puts them on opposite sides, so the first step must sum all of x or
        # defer to the full sum
        rng = np.random.default_rng(seed)
        for _ in range(100):  # about a third of the draws qualify
            x = rng.normal(0.0, 0.05, 1000) + (rng.random(1000) < 0.2) * 2.0
            mu = 0.5 * float(x.max())
            full = np.clip(x - mu, 0.0, 1.0).sum()
            if np.clip(x[x > 0.0] - mu, 0.0, 1.0).sum() > full:
                break
        else:
            pytest.fail("no draw rounds the two sums apart")
        assert np.array_equal(project_budget(x, full),
                              project_bisect_full(x, full))

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_between_the_two_roundings_after_lo_moves(self, seed):
        # the first midpoint exceeds the budget, so lo moves and the live
        # set drops the entries at or below it; at the second midpoint
        # the live and full sums differ in the last bit, and a budget equal
        # to the full sum puts them on opposite sides, so only the
        # full-sum fallback decides right
        rng = np.random.default_rng(seed)
        for _ in range(200):
            x = rng.normal(0.0, 0.05, 1000) + (rng.random(1000) < 0.2) * 2.0
            lo, hi = 0.5 * float(x.max()), float(x.max())
            mu = 0.5 * (lo + hi)
            full = np.clip(x - mu, 0.0, 1.0).sum()
            if np.clip(x[x > lo] - mu, 0.0, 1.0).sum() > full:
                break
        else:
            pytest.fail("no draw rounds the two sums apart")
        assert np.clip(x - lo, 0.0, 1.0).sum() > full  # lo does move
        assert np.array_equal(project_budget(x, full),
                              project_bisect_full(x, full))

    @pytest.mark.parametrize("m", [2, 64, 1000, 79800])
    def test_exact_tie_at_first_midpoint(self, m):
        # the first midpoint is 0.5, where the clipped sum is m/2 = budget
        # exactly, so the live-set sum defers to the full-array sum
        x = np.ones(m)
        assert np.array_equal(project_budget(x, m // 2),
                              project_bisect_full(x, m // 2))


class TestDiscretize:
    def test_binary_input_fixed_point(self):
        relaxed = np.array([1.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        out = discretize(relaxed, 3, 5, rng, lambda b: 0.0)
        assert np.array_equal(out, [1, 0, 1, 0])

    def test_top_budget_selection(self):
        out = top_delta_binary(np.array([0.9, 0.8, 0.1]), 2)
        assert np.array_equal(out, [1, 1, 0])

    def test_never_worse_than_deterministic(self):
        rng = np.random.default_rng(3)
        relaxed = rng.random(30) * 0.6
        weights = rng.normal(size=30)

        def objective(b):
            return float(weights @ b)

        det = top_delta_binary(relaxed, 6)
        best = discretize(relaxed, 6, 25, np.random.default_rng(1), objective)
        assert objective(best) >= objective(det)
        assert best.sum() <= 6

    def test_budget_respected(self):
        rng = np.random.default_rng(5)
        relaxed = np.clip(rng.random(50), 0, 1)
        out = discretize(relaxed, 4, 30, rng, lambda b: float(b.sum()))
        assert out.sum() <= 4

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_top_budget_matches_full_argsort(self, seed, m, budget):
        # few distinct values: ties at the k-th value, zeros, -0.0, -inf
        rng = np.random.default_rng(seed)
        values = [-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf]
        relaxed = rng.choice(values, m, p=rng.dirichlet(np.ones(8)))
        assert np.array_equal(top_delta_binary(relaxed, budget),
                              top_budget_argsort(relaxed, budget))

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_masked_ranking(self, seed, m, budget):
        rng = np.random.default_rng(seed)
        relaxed = rng.choice([0.0, 0.2, 0.5, 0.9, 1.0], m)
        scores = rng.normal(size=m)

        def objective(binary):
            return float(scores @ binary)

        ours = discretize(relaxed, budget, 10, np.random.default_rng(seed),
                          objective)
        oracle = discretize_masked(relaxed, budget, 10,
                                   np.random.default_rng(seed), objective)
        assert np.array_equal(ours, oracle)


def line_graph(n, feature_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    labels = (np.arange(n) >= n // 2).astype(np.int64)
    features = np.zeros((n, feature_dim))
    features[np.arange(n), labels % feature_dim] = 1.0
    features += rng.normal(0, 0.3, (n, feature_dim))
    return Graph(adj, features, labels, 2)


class TestEvaluateAttack:
    def test_zero_delta_evasion_identity(self, sbm_setup):
        graph, split, params = sbm_setup
        delta = np.zeros(graph.num_pairs, dtype=np.int8)
        pre, post = evaluate_attack(graph, split, delta, lambda _: params)
        assert pre == post

    def test_zero_delta_poisoning_identity(self, tiny_graph):
        split = DataSplit(np.array([0, 2]), np.array([]), np.array([1, 3]),
                          n=4)
        tc = TrainConfig(epochs=80, seed=0)
        delta = np.zeros(tiny_graph.num_pairs, dtype=np.int8)
        pre, post = evaluate_attack(
            tiny_graph, split, delta,
            lambda adjacency: train(tiny_graph, split, adjacency, tc))
        assert pre == post

    def test_far_flips_leave_two_hop_predictions_unchanged(self):
        # 2-layer receptive field: flipping the far end of a path graph
        # cannot change predictions of nodes three or more hops away
        graph = line_graph(10)
        params = init_params(3, 4, 2, seed=1)
        split = DataSplit(np.arange(1, 10), np.array([]), np.array([0]),
                          n=10)
        delta = np.zeros(graph.num_pairs, dtype=np.int8)
        rows, cols = np.triu_indices(10, k=1)
        far_pair = np.flatnonzero((rows == 8) & (cols == 9))[0]
        delta[far_pair] = 1
        pre, post = evaluate_attack(graph, split, delta, lambda _: params)
        assert pre == post
        clean_logits = forward(params, graph.adjacency, graph.features)
        pert_logits = forward(params, apply_perturbation(graph.adjacency,
                                                         delta),
                              graph.features)
        assert np.allclose(clean_logits[0], pert_logits[0], atol=1e-12)

    def test_accuracies_in_unit_interval(self, sbm_setup):
        graph, split, params = sbm_setup
        rng = np.random.default_rng(2)
        delta = (rng.random(graph.num_pairs) < 0.01).astype(np.int8)
        pre, post = evaluate_attack(graph, split, delta, lambda _: params)
        assert 0.0 <= pre <= 1.0 and 0.0 <= post <= 1.0


def small_attack_config(budget, scheme="uniform", iterations=12, seed=0,
                        **kwargs):
    return AttackConfig(
        budget=budget, iterations=iterations, refresh_interval=4,
        step_size=kwargs.pop("step_size", 0.2),
        inner_step_size=kwargs.pop("inner_step_size", 0.2),
        loss=kwargs.pop("loss", LossKind("cross_entropy")),
        smoothing=SmoothingConfig(num_samples=20, alpha=0.1, seed=seed),
        noise=NoiseSpec(kwargs.pop("beta", 0.9)),
        scheme=WeightScheme(scheme, 1.0, seed=seed),
        discretize_trials=8, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def small_setup():
    graph = synth_sbm(40, 2, 0.25, 0.02, 4, seed=2)
    split = split_nodes(graph, (0.2, 0.1, 0.7), seed=0)
    tc = TrainConfig(epochs=120, learning_rate=0.1, seed=1)
    params = train(graph, split, graph.adjacency, tc)
    return graph, split, tc, params


class TestPgdEvasion:
    def test_zero_budget_is_identity(self, small_setup):
        graph, split, _, params = small_setup
        report = pgd_evasion(params, graph, split,
                             small_attack_config(budget=0))
        assert report.budget_used == 0
        assert report.post_attack_accuracy == report.pre_attack_accuracy

    def test_uniform_matches_hand_rolled_pgd(self, small_setup):
        # reduction: with unit weights the loop is plain projected ascent
        graph, split, _, params = small_setup
        budget = 6
        config = small_attack_config(budget=budget, iterations=15)
        report = pgd_evasion(params, graph, split, config,
                             record_trajectory=True)
        delta = np.zeros(graph.num_pairs)
        w = np.zeros(graph.n)
        w[split.test] = 1.0
        for t in range(15):
            _, _, _, g_delta = gradients(params, graph.adjacency, delta,
                                         graph.features, graph.labels, w,
                                         split.test, config.loss)
            step = config.step_size * budget / np.sqrt(t + 1.0)
            delta = project_budget(delta + step * g_delta, budget)
            assert np.array_equal(report.delta_trajectory[t], delta)

    def test_feasible_every_iteration(self, small_setup):
        graph, split, _, params = small_setup
        config = small_attack_config(budget=5, iterations=10)
        report = pgd_evasion(params, graph, split, config,
                             record_trajectory=True)
        for delta in report.delta_trajectory:
            assert delta.min() >= 0.0 and delta.max() <= 1.0
            assert delta.sum() <= 5 + 1e-6
        assert report.perturbation.binary.sum() <= 5

    def test_deterministic(self, small_setup):
        graph, split, _, params = small_setup
        config = small_attack_config(budget=5, scheme="certified")
        a = pgd_evasion(params, graph, split, config)
        b = pgd_evasion(params, graph, split, config)
        assert np.array_equal(a.perturbation.binary, b.perturbation.binary)
        assert np.array_equal(a.per_iteration_loss, b.per_iteration_loss)
        assert a.post_attack_accuracy == b.post_attack_accuracy

    def test_certified_scheme_refreshes_weights(self, small_setup):
        graph, split, _, params = small_setup
        config = small_attack_config(budget=5, scheme="certified",
                                     iterations=9)
        report = pgd_evasion(params, graph, split, config)
        assert [t for t, _ in report.weights_history] == [0, 4, 8]
        for _, w in report.weights_history:
            assert np.all(w > 0.0) and np.all(w <= 0.5)


def count_noise_draws(monkeypatch):
    """The mask indices of every sample_noise call from now on."""
    draws, draw = [], smoothing.sample_noise

    def counting(spec, n, seed, index):
        draws.append(index)
        return draw(spec, n, seed, index)

    monkeypatch.setattr(smoothing, "sample_noise", counting)
    return draws


class TestEvasionNoise:
    """An evasion attack draws its N noise masks once, at its first
    certificate refresh, and counts exactly what drawing them at every
    refresh and classifying each XOR-ed copy counts."""

    def config(self, scheme):
        # N = 20 samples, 10 refreshes (every 4 of 40 iterations)
        return small_attack_config(budget=5, scheme=scheme, iterations=40)

    def test_certified_draws_each_mask_once(self, small_setup, monkeypatch):
        graph, split, _, params = small_setup
        draws = count_noise_draws(monkeypatch)
        report = pgd_evasion(params, graph, split, self.config("certified"))
        assert len(report.weights_history) == 10
        assert draws == list(range(20))

    def test_uniform_draws_nothing(self, small_setup, monkeypatch):
        graph, split, _, params = small_setup
        draws = count_noise_draws(monkeypatch)
        pgd_evasion(params, graph, split, self.config("uniform"))
        assert draws == []

    def test_over_cap_draws_at_every_refresh(self, small_setup,
                                             monkeypatch):
        graph, split, _, params = small_setup
        config = self.config("certified")
        kept = pgd_evasion(params, graph, split, config)
        monkeypatch.setattr(smoothing, "FLIP_BYTES", 0)
        draws = count_noise_draws(monkeypatch)
        redrawn = pgd_evasion(params, graph, split, config)
        assert draws == list(range(20)) * 10
        assert_same_report(redrawn, kept)

    def test_matches_reference_loop(self, small_setup, monkeypatch):
        graph, split, _, params = small_setup
        # N = 100 at beta = 0.95: the weights change between refreshes
        config = replace(self.config("certified"), noise=NoiseSpec(0.95),
                         smoothing=SmoothingConfig(100, 0.1, seed=0))
        fused = pgd_evasion(params, graph, split, config)
        monkeypatch.setattr(attacks, "mc_counts_evasion",
                            lambda *args: mc_counts_evasion_loop(*args[:6]))
        reference = pgd_evasion(params, graph, split, config)
        assert_same_report(fused, reference)
        assert len({w.tobytes() for _, w in fused.weights_history}) > 1


def assert_same_report(got, want):
    assert np.array_equal(got.perturbation.binary, want.perturbation.binary)
    assert np.array_equal(got.per_iteration_loss, want.per_iteration_loss)
    assert got.post_attack_accuracy == want.post_attack_accuracy
    for (t, w), (t_want, w_want) in zip(got.weights_history,
                                        want.weights_history, strict=True):
        assert t == t_want and np.array_equal(w, w_want)


class TestCertifier:
    """certifier's certify equals the keyword-API oracle certify_nodes
    called with the targets, true labels and train nodes of the mode."""

    @pytest.mark.parametrize("mode, flip_bytes", [
        ("evasion", smoothing.FLIP_BYTES), ("evasion", 0),
        ("poisoning", smoothing.FLIP_BYTES)])
    def test_matches_certify_nodes(self, tmp_path, monkeypatch, mode,
                                   flip_bytes):
        monkeypatch.setattr(smoothing, "FLIP_BYTES", flip_bytes)
        config = parse_config(readme_config(tmp_path, mode))
        graph, split, train_config, attack = prepare_cell(config, 0)
        evasion = mode == "evasion"
        params = (train(graph, split, graph.adjacency, train_config)
                  if evasion else None)
        _, _, certify = certifier(mode, graph, split, train_config, attack,
                                  params)
        got = certify(graph.adjacency)
        want = certify_nodes(
            mode, target_nodes=split.test if evasion else split.train,
            labels=graph.labels, spec=attack.noise, config=attack.smoothing,
            adjacency=graph.adjacency, features=graph.features,
            params=params, train_idx=split.train, train_config=train_config,
            num_classes=graph.num_classes)
        assert got.nodes.size > 0
        for name, value in vars(got).items():
            assert np.array_equal(value, vars(want)[name]), name

    def test_unknown_mode_rejected(self, small_setup):
        graph, split, _, params = small_setup
        with pytest.raises(ParameterError, match="certification mode"):
            certifier("meta", graph, split, None, small_attack_config(1),
                      params)


def scripted_certifier(monkeypatch, votes, true_labels, spec, config, block,
                       diverging=None):
    """certifier("poisoning") on an edgeless graph whose train nodes are
    the targets, with noise and training replaced by a script: replicate j
    votes votes[j] at the targets, replicates train in blocks of `block`,
    and a block holding replicate `diverging` fails as a diverging
    training does.  Returns certify and the list of replicates trained."""
    N, T = votes.shape
    n = T + 1
    graph = Graph(np.zeros((n, n), np.int8), np.zeros((n, 1)),
                  np.append(true_labels, 0), num_classes=3)
    split = DataSplit(np.arange(T), np.array([], np.int64),
                      np.array([T]), n)
    trained = []

    def train_arrays(noisy, features, labels, train_idx, config, C, js):
        trained.extend(js)
        if diverging in js:
            raise TrainingError("diverged at epoch 1", js.index(diverging))
        return js

    def predict_all(j, adjacency, features):
        return np.append(votes[j], 0)

    monkeypatch.setattr(smoothing, "train_arrays", train_arrays)
    monkeypatch.setattr(smoothing, "predict_all", predict_all)
    monkeypatch.setattr(smoothing, "stack_block", lambda n: block)
    monkeypatch.setattr(smoothing, "mix_seed", lambda seed, j: j)
    monkeypatch.setattr(smoothing, "sample_noise", lambda *args: None)
    monkeypatch.setattr(smoothing, "apply_perturbation", lambda A, mask: A)
    attack = AttackConfig(budget=1, smoothing=config, noise=spec)
    _, _, certify = certifier("poisoning", graph, split, TrainConfig(),
                              attack)
    return certify, graph.adjacency, trained


def vote_script(rng, true_labels, true_counts, N, order):
    """(N, targets) votes: target i gets true_counts[i] votes for its
    label and the rest for the next class mod 3, in a random order, or
    with the true votes first ("early") or last ("late")."""
    votes = np.empty((N, len(true_labels)), np.int64)
    for i, (label, c) in enumerate(zip(true_labels, true_counts)):
        column = np.append(np.full(c, label), np.full(N - c, (label + 1) % 3))
        if order == "random":
            column = rng.permutation(column)
        elif order == "late":
            column = column[::-1]
        votes[:, i] = column
    return votes


class TestRefreshStopRule:
    """A poisoning refresh, certify(A, stop=True), stops training
    replicates after the first block from which no further vote can change
    any target's K; its K vector equals the one from all N votes."""

    # id -> (beta, N, alpha, DEFAULT_RADIUS_CAP, block)
    GRID = {
        # poisoning-cert's (beta, N, alpha): K = 1 needs 60 of 60
        "poisoning-cert": (0.9, 60, 0.1, None, 10),
        # K = 1 and K = 2 need 1957 and 2000 of 2000
        "beta0.95-N2000": (0.95, 2000, 0.1, None, 100),
        # the README's noise: K(N) = 0, so every refresh stops at once
        "K_max-0": (0.999, 200, 0.1, None, 10),
        # K(c) reaches the cap 3 from c = 160 on and stays there
        "saturated": (0.6, 200, 0.1, 3, 10),
        # K(10) = K(20) = 2 at the cap, without a majority at c = 10
        "alpha0.99": (0.6, 20, 0.99, 2, 2),
    }

    @pytest.mark.parametrize("point", GRID)
    def test_sizes_match_all_votes(self, monkeypatch, point):
        beta, N, alpha, cap, block = self.GRID[point]
        if cap is not None:
            monkeypatch.setattr(smoothing, "DEFAULT_RADIUS_CAP", cap)
        spec, config = NoiseSpec(beta), SmoothingConfig(N, alpha, seed=1)
        K = size_function(spec, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # saturated scans
            steps = sorted({c for c in range(1, N + 1) if K(c) > K(c - 1)})
        counts = {0, N // 2, N // 2 + 1, N - 1, N}
        counts |= {c + d for c in steps for d in (-1, 0, 1) if 0 <= c + d <= N}
        rng = np.random.default_rng(N)
        scenarios = [(np.full(3, N), "random")]  # every target unanimous
        for c in sorted(counts):
            for order in ("random", "early", "late"):
                scenarios += [(np.array([c, c]), order), (np.array(
                    [c, rng.choice(sorted(counts))]), order)]
        stopped = 0
        for true_counts, order in scenarios:
            # a first target of label 2 loses a tie to its dissent class 0
            true_labels = (2 - np.arange(len(true_counts))) % 3
            votes = vote_script(rng, true_labels, true_counts, N, order)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                certify, A, trained = scripted_certifier(
                    monkeypatch, votes, true_labels, spec, config, block)
                full = certify(A)
                assert len(trained) == N
                assert (full.counts.sum(axis=1) == N).all()
                trained.clear()
                stopped_certs = certify(A, stop=True)
                assert np.array_equal(stopped_certs.sizes, full.sizes), (
                    true_counts, order)
                assert (stopped_certs.counts.sum(axis=1)
                        == len(trained)).all()
            assert trained == list(range(len(trained)))
            assert len(trained) % block == 0 or len(trained) == N
            stopped += len(trained) < N
            if K(N) == 0:
                assert len(trained) == block
        assert 0 < stopped and (K(N) == 0 or stopped < len(scenarios))

    @pytest.mark.parametrize("seed", [6, 9, 11])
    def test_poisoning_cert_cells(self, monkeypatch, seed):
        # real training on poisoning-cert's full config: cell 6 stops after
        # one block, cells 9 and 11 certify K = 1 and train all 60
        config = build_config("poisoning-cert", seed)
        graph, split, train_config, attack = prepare_cell(config, seed)
        _, _, certify = certifier("poisoning", graph, split, train_config,
                                  attack)
        blocks = []
        train_arrays = smoothing.train_arrays

        def recording(noisy, *rest):
            blocks.append(len(noisy))
            return train_arrays(noisy, *rest)

        full = certify(graph.adjacency).sizes.tolist()
        monkeypatch.setattr(smoothing, "train_arrays", recording)
        sizes = certify(graph.adjacency, stop=True).sizes
        assert sizes.tolist() == full
        assert sum(blocks) == (60 if max(full) > 0 else 10)

    def test_replicates_after_the_stop_are_not_trained(self, monkeypatch):
        # replicate 15 diverges, but every K is decided after the first
        # block: each target has a dissent there, and K = 1 needs 60 of 60
        config = SmoothingConfig(60, 0.1, seed=1)
        true_labels = np.array([0, 1])
        votes = vote_script(np.random.default_rng(0), true_labels,
                            np.array([59, 30]), 60, "late")
        certify, A, trained = scripted_certifier(
            monkeypatch, votes, true_labels, NoiseSpec(0.9), config, 10,
            diverging=15)
        assert certify(A, stop=True).sizes.tolist() == [0, 0]
        assert trained == list(range(10))
        with pytest.raises(CertificationError, match="replicate 15 failed"):
            certify(A)


class TestEdgeWorkspaceScope:
    def test_attacks_on_two_sizes_match_lone_runs(self, small_setup,
                                                  monkeypatch):
        graph, split, tc, params = small_setup
        other = synth_sbm(30, 2, 0.3, 0.03, 4, seed=5)
        other_split = split_nodes(other, (0.2, 0.1, 0.7), seed=0)
        runs = [(params, graph, split),
                (train(other, other_split, other.adjacency, tc), other,
                 other_split)]
        config = small_attack_config(budget=6, iterations=16)

        def attack(params, graph, split):
            return pgd_evasion(params, graph, split, config,
                               record_trajectory=True)

        with monkeypatch.context() as patch:  # every step on fresh arrays
            patch.setattr(attacks, "gradients",
                          lambda *args, work: gradients(*args))
            lone = {run[1].n: attack(*run) for run in runs}
        for run in runs * 2:  # n = 40, 30, 40, 30 back to back
            report = attack(*run)
            want = lone[run[1].n]
            assert np.array_equal(report.delta_trajectory,
                                  want.delta_trajectory)
            assert_same_report(report, want)


class TestMinmaxPoisoning:
    def test_zero_budget_matches_clean_retrain(self, small_setup):
        graph, split, tc, _ = small_setup
        report = minmax_poisoning(graph, split, tc,
                                  small_attack_config(budget=0))
        assert report.post_attack_accuracy == report.pre_attack_accuracy

    def test_budget_respected_and_deterministic(self, small_setup):
        graph, split, tc, _ = small_setup
        config = small_attack_config(budget=6, scheme="certified",
                                     iterations=8)
        a = minmax_poisoning(graph, split, tc, config)
        b = minmax_poisoning(graph, split, tc, config)
        assert a.perturbation.binary.sum() <= 6
        assert np.array_equal(a.perturbation.binary, b.perturbation.binary)

    def test_blind_to_test_labels(self, small_setup):
        # scrambling every non-train label must not change the attack output
        graph, split, tc, _ = small_setup
        config = small_attack_config(budget=6, scheme="certified",
                                     iterations=8)
        report = minmax_poisoning(graph, split, tc, config)
        scrambled = graph.labels.copy()
        outside = np.setdiff1d(np.arange(graph.n), split.train)
        scrambled[outside] = (scrambled[outside] + 1) % graph.num_classes
        shuffled_graph = Graph(graph.adjacency, graph.features, scrambled,
                               graph.num_classes)
        report2 = minmax_poisoning(shuffled_graph, split, tc, config)
        assert np.array_equal(report.perturbation.binary,
                              report2.perturbation.binary)
        assert np.array_equal(report.per_iteration_loss,
                              report2.per_iteration_loss)

    def test_uniform_never_refreshes_certificates(self, small_setup):
        graph, split, tc, _ = small_setup
        config = small_attack_config(budget=6, scheme="uniform",
                                     iterations=8)
        report = minmax_poisoning(graph, split, tc, config)
        assert len(report.weights_history) == 1
        assert report.cert_seconds == 0.0


class TestKernelIdentity:
    """Whole attacks run bit for bit as they do with the straightforward
    kernels of tests/oracles.py patched in where the attack loop calls
    its kernels."""

    @pytest.mark.parametrize("mode, scheme", [("evasion", "uniform"),
                                              ("evasion", "certified"),
                                              ("poisoning", "certified")])
    def test_attack_matches_oracle_kernels(self, small_setup, monkeypatch,
                                           mode, scheme):
        graph, split, tc, params = small_setup
        config = small_attack_config(budget=6, scheme=scheme, iterations=16)

        def run():
            if mode == "evasion":
                return pgd_evasion(params, graph, split, config,
                                   record_trajectory=True)
            return minmax_poisoning(graph, split, tc, config,
                                    record_trajectory=True)

        fast = run()
        for name, oracle in (("gradients", gradients_outer),
                             ("project_budget", project_bisect_full),
                             ("top_delta_binary", top_budget_argsort),
                             ("discretize", discretize_masked),
                             ("relax_perturbation", relax_scatter)):
            monkeypatch.setattr(attacks, name, oracle)
        slow = run()
        # the budget binds, so every projection after the first bisects
        assert np.allclose(fast.per_iteration_mass[1:], 6.0)
        assert np.array_equal(fast.delta_trajectory, slow.delta_trajectory)
        assert_same_report(fast, slow)
        assert (fast.pre_attack_accuracy, fast.budget_used) == (
            slow.pre_attack_accuracy, slow.budget_used)


class TestEqualWeightReduction:
    def test_constant_certificates_scale_the_uniform_gradient(self,
                                                              small_setup):
        # all certificates equal -> weights are a constant w, so the ascent
        # direction (normalized) matches the uniform scheme's exactly
        graph, split, _, params = small_setup
        targets = split.test
        w_const = node_weights(WeightScheme("certified", a=1.0),
                               np.full(targets.size, 2), graph, targets)
        assert np.allclose(w_const, w_const[0])
        delta = np.zeros(graph.num_pairs)
        w_full = np.zeros(graph.n)
        w_full[targets] = w_const
        u_full = np.zeros(graph.n)
        u_full[targets] = 1.0
        kind = LossKind("cross_entropy")
        _, _, _, g_cert = gradients(params, graph.adjacency, delta,
                                    graph.features, graph.labels, w_full,
                                    targets, kind)
        _, _, _, g_unif = gradients(params, graph.adjacency, delta,
                                    graph.features, graph.labels, u_full,
                                    targets, kind)
        direction_cert = g_cert / np.linalg.norm(g_cert)
        direction_unif = g_unif / np.linalg.norm(g_unif)
        assert np.abs(direction_cert - direction_unif).max() <= 1e-10


class TestReportExport:
    def test_report_csv_sections(self, small_setup, tmp_path):
        from certattack import write_report_csv
        graph, split, _, params = small_setup
        report = pgd_evasion(params, graph, split,
                             small_attack_config(budget=4, iterations=5))
        path = tmp_path / "report.csv"
        write_report_csv(report, "uniform", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,cr_loss,feasible_mass"
        assert len([l for l in lines if l and l[0].isdigit()]) >= 5
        assert "scheme,budget,pre_accuracy,post_accuracy,runtime_seconds" \
            in lines


class TestDeltaEdges:
    def test_write_read_roundtrip(self, tmp_path):
        from certattack import read_delta_edges, write_delta_edges
        graph = synth_sbm(20, 2, 0.4, 0.05, 3, seed=1)
        delta = (np.random.default_rng(0).random(190) < 0.1).astype(np.int8)
        path = tmp_path / "delta.tsv"
        write_delta_edges(delta, graph.adjacency, path)
        back = read_delta_edges(path, 20)
        assert back.dtype == np.int8
        np.testing.assert_array_equal(back, delta)

    def test_default_n_holds_every_pair(self, tmp_path):
        from certattack import read_delta_edges
        path = tmp_path / "delta.tsv"
        path.write_text("3 1 add\n\n0\t4\tremove\n")
        back = read_delta_edges(path)
        rows, cols = np.triu_indices(5, k=1)
        assert sorted(zip(rows[back == 1], cols[back == 1])) == [(0, 4), (1, 3)]

    def test_index_outside_n_names_line(self, tmp_path):
        from certattack import GraphLoadError, read_delta_edges
        path = tmp_path / "delta.tsv"
        path.write_text("0\t1\tadd\n2\t5\tadd\n")
        with pytest.raises(GraphLoadError, match=r"delta\.tsv:2"):
            read_delta_edges(path, 5)
