import functools
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import certattack
from certattack import (AttackConfig, CertificationError, DomainError,
                        GCNParams, Graph, NoiseSpec, NumericError,
                        ParameterError, SmoothingConfig, TrainConfig,
                        TrainingError, apply_perturbation,
                        certificates_from_counts, certified_size,
                        forward, init_params,
                        lower_bound_prob, mc_counts_evasion,
                        mc_counts_poisoning, mix_seed, noise_flips,
                        noisy_forward, num_pairs, predict_all,
                        sample_noise, size_function, split_nodes,
                        synth_sbm, train, triu_pairs, worst_case_retained,
                        write_certificates_csv)
from certattack import attacks, smoothing
from certattack.gcn import stack_block
from oracles import (certify_nodes, exact_smoothed_probs,
                     mc_counts_evasion_loop, worst_case_retained_exact)


class TestSampleNoise:
    def test_beta_one_never_flips(self):
        mask = sample_noise(NoiseSpec(1.0), 50, seed=0, index=0)
        assert mask.sum() == 0

    def test_flip_fraction_concentrates(self):
        # binomial oracle: flip prob 0.1 over m = C(142, 2) >= 10000 pairs
        n = 142
        m = num_pairs(n)
        mask = sample_noise(NoiseSpec(0.9), n, seed=1, index=0)
        frac = mask.mean()
        assert abs(frac - 0.1) <= 3.0 * np.sqrt(0.09 / m)

    def test_deterministic_stream(self):
        a = sample_noise(NoiseSpec(0.8), 20, seed=5, index=3)
        b = sample_noise(NoiseSpec(0.8), 20, seed=5, index=3)
        c = sample_noise(NoiseSpec(0.8), 20, seed=5, index=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMcCountsEvasion:
    def test_beta_one_concentrates_on_clean_prediction(self, sbm_setup):
        graph, split, params = sbm_setup
        config = SmoothingConfig(num_samples=25, alpha=0.1, seed=0)
        counts = mc_counts_evasion(params, graph.adjacency, graph.features,
                                   split.test, NoiseSpec(1.0), config)
        clean = predict_all(params, graph.adjacency, graph.features)
        for i, node in enumerate(split.test):
            assert counts[i, clean[node]] == 25

    def test_rows_sum_to_n(self, sbm_setup):
        graph, split, params = sbm_setup
        config = SmoothingConfig(num_samples=40, alpha=0.1, seed=1)
        counts = mc_counts_evasion(params, graph.adjacency, graph.features,
                                   split.test, NoiseSpec(0.9), config)
        assert np.all(counts.sum(axis=1) == 40)

    def test_matches_exact_probabilities(self, tiny_graph):
        params = init_params(4, 3, 2, seed=2)
        spec = NoiseSpec(0.75)
        probs = exact_smoothed_probs(params, tiny_graph.adjacency,
                                     tiny_graph.features, spec)
        N = 10000
        config = SmoothingConfig(num_samples=N, alpha=0.1, seed=3)
        counts = mc_counts_evasion(params, tiny_graph.adjacency,
                                   tiny_graph.features, np.arange(4), spec,
                                   config)
        for i in range(4):
            for c in range(2):
                p = probs[i, c]
                tolerance = 5.0 * np.sqrt(max(p * (1 - p), 1e-4) / N)
                assert abs(counts[i, c] / N - p) <= tolerance


@functools.lru_cache(maxsize=None)
def exactness_case(n):
    """(graph, model) on an n-node two-block SBM; the 4-node model is
    untrained, so its predictions depend on the noise too."""
    if n == 4:
        return synth_sbm(4, 2, 1.0, 0.0, 4, seed=0), init_params(4, 3, 2, 2)
    graph = synth_sbm(n, 2, 3.0 / n + 0.07, 0.01, 8, seed=n)
    split = split_nodes(graph, (0.3, 0.0, 0.7), seed=0)
    return graph, train(graph, split, graph.adjacency,
                        TrainConfig(epochs=60, seed=1))


class TestEvasionFlipLists:
    """The fused loop over flip lists counts exactly what the loop of
    apply_perturbation and predict_all over sampled masks counts."""

    @pytest.mark.parametrize("beta", [0.6, 0.95, 1.0])
    @pytest.mark.parametrize("n", [4, 30, 100])
    def test_counts_match_reference_loop(self, n, beta):
        graph, params = exactness_case(n)
        spec, config = NoiseSpec(beta), SmoothingConfig(60, 0.1, seed=n)
        flips = noise_flips(spec, n, config)
        for j, pairs in enumerate(flips):
            assert pairs.dtype == np.int32
            assert np.array_equal(
                pairs, np.flatnonzero(sample_noise(spec, n, n, j)))
        if beta == 1.0:
            assert all(pairs.size == 0 for pairs in flips)
        args = (params, graph.adjacency, graph.features, np.arange(n), spec,
                config)
        want = mc_counts_evasion_loop(*args)
        assert np.array_equal(mc_counts_evasion(*args), want)
        assert np.array_equal(mc_counts_evasion(*args, flips), want)

    def test_perturbed_snapshot(self):
        graph, params = exactness_case(100)
        rng = np.random.default_rng(4)
        snapshot = apply_perturbation(
            graph.adjacency,
            (rng.random(num_pairs(100)) < 0.02).astype(np.int8))
        spec, config = NoiseSpec(0.9), SmoothingConfig(200, 0.1, seed=8)
        args = (params, snapshot, graph.features, np.arange(100), spec,
                config)
        want = mc_counts_evasion_loop(*args)
        assert not np.array_equal(
            want, mc_counts_evasion_loop(params, graph.adjacency,
                                         *args[2:]))
        flips = noise_flips(spec, 100, config)
        assert np.array_equal(mc_counts_evasion(*args, flips), want)

    def test_each_noisy_graph_matches_forward_bit_for_bit(self):
        # counts hide most float differences, so compare the scorer's
        # logits with forward's on the XOR-ed copy, byte for byte
        graph, params = exactness_case(30)
        spec, config = NoiseSpec(0.8), SmoothingConfig(20, 0.1, seed=3)
        logits_on = noisy_forward(params, graph.adjacency, graph.features)
        for j, pairs in enumerate(noise_flips(spec, 30, config)):
            noisy = apply_perturbation(graph.adjacency,
                                       sample_noise(spec, 30, 3, j))
            assert logits_on([pairs])[0].tobytes() == forward(
                params, noisy, graph.features).tobytes()

    def test_over_cap_draws_in_the_same_loop(self, monkeypatch):
        graph, params = exactness_case(30)
        spec, config = NoiseSpec(0.95), SmoothingConfig(80, 0.1, seed=2)
        monkeypatch.setattr(smoothing, "FLIP_BYTES", 0)
        assert noise_flips(spec, 30, config) is None
        args = (params, graph.adjacency, graph.features, np.arange(30), spec,
                config)
        assert np.array_equal(mc_counts_evasion(*args, None),
                              mc_counts_evasion_loop(*args))

    @pytest.mark.parametrize("bad", ["two", "negative", "non-square",
                                     "asymmetric", "vector"])
    def test_adjacency_must_be_symmetric_and_binary(self, bad):
        # the scorer flips each pair back from its upper entry, so an
        # asymmetric A would come back changed after the first graph
        graph, params = exactness_case(30)
        adjacency = graph.adjacency.astype(np.int64)
        if bad == "non-square":
            adjacency = adjacency[:, :-1]
        elif bad == "asymmetric":
            adjacency[0, 1] = 1 - adjacency[1, 0]
        elif bad == "vector":
            adjacency = adjacency[0]
        else:
            adjacency[0, 1] = adjacency[1, 0] = 2 if bad == "two" else -1
        with pytest.raises(DomainError):
            mc_counts_evasion(params, adjacency, graph.features,
                              np.arange(30), NoiseSpec(0.9),
                              SmoothingConfig(5, 0.1))
        with pytest.raises(DomainError):
            noisy_forward(params, adjacency, graph.features)


def xor_logits(params, graph, pairs):
    """forward's logits on the graph with the pair indices flipped."""
    delta = np.zeros(num_pairs(len(graph.adjacency)), dtype=np.int8)
    delta[pairs] = 1
    return forward(params, apply_perturbation(graph.adjacency, delta),
                   graph.features)


class TestStackedScorer:
    """A scorer call classifies a block of flip lists at once; every slice
    has forward's bytes and every count the one-graph loop's."""

    def assert_slices(self, params, graph, lists):
        logits = noisy_forward(params, graph.adjacency, graph.features)(lists)
        assert logits.shape == (len(lists), len(graph.adjacency),
                                params.num_classes)
        for got, pairs in zip(logits, lists):
            assert got.tobytes() == xor_logits(params, graph, pairs).tobytes()

    @pytest.mark.parametrize("beta", [0.9, 0.9999])
    def test_full_and_partial_blocks(self, beta):
        # N = 25 at n = 100 is two blocks of 10 and one of 5; at beta =
        # 0.9999 about 60% of the lists flip no pair
        graph, params = exactness_case(100)
        spec, config = NoiseSpec(beta), SmoothingConfig(25, 0.1, seed=4)
        flips = noise_flips(spec, 100, config)
        assert stack_block(100) == 10
        for start in (0, 10, 20):
            self.assert_slices(params, graph, flips[start:start + 10])
        args = (params, graph.adjacency, graph.features, np.arange(100),
                spec, config)
        assert np.array_equal(mc_counts_evasion(*args, flips),
                              mc_counts_evasion_loop(*args))

    def test_lists_without_pairs(self):
        graph, params = exactness_case(100)
        empty = np.array([], dtype=np.int32)
        flips = noise_flips(NoiseSpec(0.9), 100, SmoothingConfig(3, 0.1))
        self.assert_slices(params, graph, [empty, flips[0], empty, flips[1]])
        self.assert_slices(params, graph, [empty, empty])

    @pytest.mark.parametrize("count", [0, 11])
    def test_block_size_is_checked(self, count):
        # eleven lists at n = 100 would score ten, silently, were the
        # last one empty
        graph, params = exactness_case(100)
        logits_on = noisy_forward(params, graph.adjacency, graph.features)
        with pytest.raises(ParameterError, match="1 to 10 flip lists"):
            logits_on([np.array([], dtype=np.int32)] * count)

    def test_one_graph_per_block_past_the_stack_size(self):
        # from n = 224 a block is one graph; from n = 317 by the max(1, .);
        # an untrained model's predictions depend on the noise too
        graph = synth_sbm(320, 2, 0.03, 0.01, 8, seed=320)
        params = init_params(8, 16, 2, seed=4)
        spec, config = NoiseSpec(0.99), SmoothingConfig(3, 0.1, seed=5)
        flips = noise_flips(spec, 320, config)
        assert [stack_block(n) for n in (223, 224, 320)] == [2, 1, 1]
        self.assert_slices(params, graph, flips[:1])
        args = (params, graph.adjacency, graph.features, np.arange(320),
                spec, config)
        assert np.array_equal(mc_counts_evasion(*args, flips),
                              mc_counts_evasion_loop(*args))

    def test_over_cap_draws_block_by_block(self, monkeypatch):
        graph, params = exactness_case(100)
        spec, config = NoiseSpec(0.95), SmoothingConfig(25, 0.1, seed=6)
        monkeypatch.setattr(smoothing, "FLIP_BYTES", 0)
        assert noise_flips(spec, 100, config) is None
        drawn, seen = [], []
        monkeypatch.setattr(smoothing, "sample_noise",
                            lambda *a: drawn.append(a) or sample_noise(*a))
        scorer = smoothing.noisy_forward

        def counting(*args):  # masks drawn when each block is scored
            logits_on = scorer(*args)
            return lambda lists: seen.append(len(drawn)) or logits_on(lists)
        monkeypatch.setattr(smoothing, "noisy_forward", counting)
        args = (params, graph.adjacency, graph.features, np.arange(100),
                spec, config)
        assert np.array_equal(mc_counts_evasion(*args, None),
                              mc_counts_evasion_loop(*args))
        assert seen == [10, 20, 25]

    @pytest.mark.parametrize("case", ["W1", "W2", "later slice"])
    def test_first_failing_graph_names_the_error(self, case):
        # forward checks the hidden layer before the output layer; a
        # stack must raise what its first failing graph raises alone
        if case == "later slice":
            # no edges, one feature: the hidden layer overflows on the
            # 9-leaf star, the output layer already on the 5-leaf one
            graph = Graph(np.zeros((12, 12)), np.ones((12, 1)),
                          np.arange(12) % 2, 2)
            params = GCNParams([[1e308]], [[1.3, -1.3]])
            rows, cols = triu_pairs(12)
            lists = [np.flatnonzero((rows == 0) & (cols <= k)) for k in
                     (0, 5, 9)]
            want = ["finite", "output", "hidden"]
        else:
            graph, params = exactness_case(100)
            if case == "W1":
                # the features and W1 times 1e155 each are finite, while
                # the largest final |(Ahat X) W1| of graph 0 is about
                # 0.62e310, 35 times the largest double: it overflows on
                # any summation order
                graph = Graph(graph.adjacency, graph.features * 1e155,
                              graph.labels, graph.num_classes)
            params = GCNParams(params.W1 * (1e155 if case == "W1" else 1e3),
                               params.W2 * (1e308 if case == "W2" else 1.0))
            lists = noise_flips(NoiseSpec(0.9), 100,
                                SmoothingConfig(10, 0.1))
            want = ["hidden" if case == "W1" else "output"]
        with np.errstate(over="ignore", invalid="ignore"):
            alone = []
            for pairs in lists:
                try:
                    xor_logits(params, graph, pairs)
                    alone.append("finite")
                except NumericError as exc:
                    alone.append(str(exc))
            first = next(m for m in alone if m != "finite")
            logits_on = noisy_forward(params, graph.adjacency, graph.features)
            with pytest.raises(NumericError) as raised:
                logits_on(lists)
        assert [m.split()[-2] if m != "finite" else m
                for m in alone[:len(want)]] == want
        assert str(raised.value) == first


class TestMcCountsPoisoning:
    def test_rows_sum_to_n(self, tiny_graph):
        config = SmoothingConfig(num_samples=8, alpha=0.1, seed=2)
        tc = TrainConfig(epochs=40, seed=1)
        counts = mc_counts_poisoning(tiny_graph.adjacency,
                                     tiny_graph.features, tiny_graph.labels,
                                     np.arange(4), tc, np.arange(4),
                                     NoiseSpec(0.8), config, 2)
        assert np.all(counts.sum(axis=1) == 8)

    def test_blocks_match_single_trainings(self, monkeypatch):
        # n = 150 puts 4 replicates in a block, so N = 9 spans three blocks.
        graph = synth_sbm(150, 3, 0.1, 0.01, 6, seed=2)
        split = split_nodes(graph, (0.2, 0.0, 0.8), seed=1)
        spec, tc = NoiseSpec(0.9), TrainConfig(epochs=20, seed=4)
        config = SmoothingConfig(num_samples=9, alpha=0.1, seed=6)
        args = (graph.features, graph.labels, split.train)
        expected = np.zeros((split.test.size, graph.num_classes), np.int64)
        reference = []
        for j in range(9):
            noisy = apply_perturbation(graph.adjacency,
                                       sample_noise(spec, graph.n, 6, j))
            params = train(graph, split, noisy,
                           replace(tc, seed=mix_seed(tc.seed, j)))
            reference.append((params.W1, params.W2, noisy))
            preds = predict_all(params, noisy, graph.features)
            expected[np.arange(split.test.size), preds[split.test]] += 1

        blocks, seen = [], []
        train_stack = smoothing.train_arrays
        predict = smoothing.predict_all

        def recording_train(adjacency, *rest):
            blocks.append(len(adjacency))
            return train_stack(adjacency, *rest)

        def recording_predict(params, adjacency, features):
            seen.append((params.W1, params.W2, adjacency))
            return predict(params, adjacency, features)

        monkeypatch.setattr(smoothing, "train_arrays", recording_train)
        monkeypatch.setattr(smoothing, "predict_all", recording_predict)
        counts = mc_counts_poisoning(graph.adjacency, *args, tc, split.test,
                                     spec, config, graph.num_classes)
        assert blocks == [4, 4, 1]
        assert np.array_equal(counts, expected)
        assert len(seen) == len(reference)
        for got, want in zip(seen, reference):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_divergence_names_first_replicate_and_its_epoch(self):
        graph = synth_sbm(30, 2, 0.3, 0.05, 4, seed=0)
        split = split_nodes(graph, (0.3, 0.0, 0.7), seed=0)
        spec, tc = NoiseSpec(0.9), TrainConfig(learning_rate=1e6, seed=3)
        config = SmoothingConfig(num_samples=5, alpha=0.1, seed=1)
        noisy = apply_perturbation(graph.adjacency,
                                   sample_noise(spec, graph.n, 1, 0))
        # Replicate 0 diverges at epoch 33 alone, replicate 3 at epoch 32,
        # so the stacked block fails before replicate 0 does.
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError) as alone:
                train(graph, split, noisy, replace(tc, seed=mix_seed(3, 0)))
            with pytest.raises(CertificationError) as stacked:
                mc_counts_poisoning(graph.adjacency, graph.features,
                                    graph.labels, split.train, tc,
                                    split.test, spec, config,
                                    graph.num_classes)
        assert str(stacked.value) == f"replicate 0 failed: {alone.value}"

    def test_majority_matches_clean_training_mostly(self):
        graph = synth_sbm(30, 2, 0.6, 0.05, 4, seed=5)
        split = split_nodes(graph, (0.5, 0.0, 0.5), seed=0)
        tc = TrainConfig(epochs=80, learning_rate=0.1, seed=2)
        clean = train(graph, split, graph.adjacency, tc)
        preds = predict_all(clean, graph.adjacency, graph.features)
        well = [v for v in split.train if preds[v] == graph.labels[v]]
        config = SmoothingConfig(num_samples=20, alpha=0.1, seed=0)
        counts = mc_counts_poisoning(graph.adjacency, graph.features,
                                     graph.labels, split.train, tc,
                                     np.asarray(well), NoiseSpec(0.98),
                                     config, 2)
        majority = counts.argmax(axis=1)
        agree = np.mean(majority == preds[np.asarray(well)])
        assert agree >= 0.8


class TestLowerBound:
    def test_unanimous_closed_form(self):
        assert lower_bound_prob(200, 200, 0.1) == pytest.approx(
            0.1 ** (1 / 200), abs=1e-9)

    def test_zero_count_convention(self):
        assert lower_bound_prob(0, 200, 0.1) == 0.0

    def test_strictly_increasing_in_count(self):
        values = [lower_bound_prob(k, 200, 0.1) for k in range(1, 201)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            lower_bound_prob(5, 10, 0.0)

    @pytest.mark.parametrize("p", [0.6, 0.9])
    @pytest.mark.parametrize("n", [20, 200])
    def test_coverage(self, p, n):
        alpha = 0.1
        rng = np.random.default_rng(12345)
        hits = 0
        trials = 1000
        for _ in range(trials):
            count = rng.binomial(n, p)
            if lower_bound_prob(int(count), n, alpha) <= p:
                hits += 1
        assert hits / trials >= (1 - alpha) - 0.02


def test_import_does_not_load_scipy_stats():
    code = "import certattack, sys; assert 'scipy.stats' not in sys.modules"
    src = Path(certattack.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


class TestCertifiedSize:
    def test_below_half_is_zero(self):
        assert certified_size(0.4, NoiseSpec(0.9)) == 0

    def test_hand_anchor(self):
        spec = NoiseSpec(0.9)
        assert worst_case_retained(0.99, 0.9, 1) == pytest.approx(0.91)
        assert worst_case_retained(0.99, 0.9, 2) == pytest.approx(0.19)
        assert certified_size(0.99, spec) == 1
        assert worst_case_retained(0.95, 0.9, 1) == pytest.approx(0.55)
        assert certified_size(0.95, spec) == 1

    def test_beta_one_rejected(self):
        with pytest.raises(ParameterError):
            certified_size(0.9, NoiseSpec(1.0))

    @pytest.mark.parametrize("beta", [0.6, 0.9, 0.999])
    @pytest.mark.parametrize("p", [0.55, 0.75, 0.95, 0.99])
    def test_greedy_matches_rational_lp(self, beta, p):
        beta_frac = Fraction(beta).limit_denominator(100000)
        p_frac = Fraction(p).limit_denominator(100000)
        for radius in range(1, 5):
            greedy = worst_case_retained(float(p_frac), float(beta_frac),
                                         radius)
            exact = worst_case_retained_exact(p_frac, beta_frac, radius)
            assert abs(greedy - float(exact)) <= 1e-12

    def test_monotone_in_p_lower(self):
        spec = NoiseSpec(0.9)
        sizes = [certified_size(p, spec)
                 for p in np.arange(0.5, 1.0, 0.01)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_noise_level_regression_values(self):
        # pinned oracle values: keeping nearly every edge status (beta close
        # to 1) makes a single adversarial flip almost always visible, so
        # the certified radius shrinks to zero; heavier noise blurs it
        assert certified_size(0.99, NoiseSpec(0.999)) == 0
        assert certified_size(0.99, NoiseSpec(0.9)) == 1
        assert certified_size(0.99, NoiseSpec(0.7)) == 7

    def test_saturation_flag(self):
        with pytest.warns(UserWarning, match="saturated"):
            assert certified_size(0.999999, NoiseSpec(0.6), r_max=3) == 3

    def test_certificates_flag_saturation_at_the_cap(self, monkeypatch):
        # N=200, alpha=0.1, beta=0.6: a unanimous row certifies 32 and a
        # 160/40 row exactly 3, so both reach a cap of 3; 150/50 gives 2
        monkeypatch.setattr(smoothing, "DEFAULT_RADIUS_CAP", 3)
        counts = np.array([[200, 0], [0, 200], [150, 50], [140, 60],
                           [40, 160], [160, 40]])
        labels = np.array([0, 1, 0, 0, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            certs = certificates_from_counts(
                counts, np.arange(6), labels,
                size_function(NoiseSpec(0.6), SmoothingConfig(200, 0.1)))
        sizes = [cert.certified_size for cert in certs]
        assert sizes == [3, 3, 2, 0, 0, 3]
        assert [cert.saturated for cert in certs] == [k == 3 for k in sizes]

    def test_certificates_warn_when_saturated(self, monkeypatch):
        # attacks take K from the same size_function, so a saturated scan
        # inside an attack warns as well
        monkeypatch.setattr(smoothing, "DEFAULT_RADIUS_CAP", 3)
        with pytest.warns(UserWarning, match="saturated at the scan cap 3"):
            certificates_from_counts(
                np.array([[200, 0]]), np.arange(1), np.zeros(1, dtype=np.int64),
                size_function(NoiseSpec(0.6), SmoothingConfig(200, 0.1)))

    def test_certificates_compute_each_count_once(self, monkeypatch):
        # true-label counts 150, 150, 150, 50, 190: three bounds, and two
        # sizes, since a count of 50 certifies nothing
        counts = np.array([[150, 50], [150, 50], [50, 150], [150, 50],
                           [190, 10]])
        labels = np.array([0, 0, 1, 1, 0])
        spec, config = NoiseSpec(0.8), SmoothingConfig(200, 0.1)
        calls = []
        for name in ("lower_bound_prob", "certified_size"):
            def counted(*args, fn=getattr(smoothing, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(smoothing, name, counted)
        certs = certificates_from_counts(counts, np.arange(5), labels,
                                         size_function(spec, config))
        assert calls.count("lower_bound_prob") == 3
        assert calls.count("certified_size") == 2
        for cert, row, label in zip(certs, counts, labels):
            p_low = lower_bound_prob(int(row[label]), 200, 0.1)
            assert cert.p_lower == p_low
            assert cert.certified_size == (
                certified_size(p_low, spec) if row.argmax() == label else 0)


class TestSizeFunction:
    # (beta, N, alpha, DEFAULT_RADIUS_CAP): poisoning-cert, evasion-cert,
    # beta = 0.95 at N = 2000, the README's K_max = 0, a saturated cap
    GRID = [(0.9, 60, 0.1, 2000), (0.95, 500, 0.1, 2000),
            (0.95, 2000, 0.1, 2000), (0.999, 200, 0.1, 2000),
            (0.6, 200, 0.1, 3)]

    @pytest.mark.parametrize("beta, N, alpha, cap", GRID)
    def test_is_the_bound_and_scan_of_each_count(self, monkeypatch, beta, N,
                                                 alpha, cap):
        monkeypatch.setattr(smoothing, "DEFAULT_RADIUS_CAP", cap)
        spec = NoiseSpec(beta)
        K = smoothing.size_function(spec, SmoothingConfig(N, alpha))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sizes = [K(c) for c in range(N + 1)]
            for c in range(N + 1):
                p_low = lower_bound_prob(c, N, alpha)
                assert K.bound(c) == p_low
                assert sizes[c] == (certified_size(p_low, spec, cap)
                                    if p_low > 0.5 else 0)
        assert sizes == sorted(sizes)  # K never falls as c grows
        assert all(2 * c > N for c in range(N + 1) if sizes[c] > 0)

    def test_certifier_scans_each_count_once(self, monkeypatch, sbm_setup):
        graph, split, params = sbm_setup[:3]
        calls = []

        def counted(*args, fn=smoothing.certified_size):
            calls.append(args[0])
            return fn(*args)

        monkeypatch.setattr(smoothing, "certified_size", counted)
        attack = AttackConfig(budget=1, smoothing=SmoothingConfig(100, 0.1),
                              noise=NoiseSpec(0.8))
        _, _, certify = attacks.certifier("evasion", graph, split, None,
                                          attack, params)
        certs = certify(graph.adjacency)
        sizes = certify(graph.adjacency, refresh=True)  # the same counts
        assert sizes.tolist() == [cert.certified_size for cert in certs]
        assert len(calls) == len(set(calls)) > 0


class TestExactSmoothedProb:
    def test_beta_one_is_point_mass(self, tiny_graph):
        params = init_params(4, 3, 2, seed=0)
        probs = exact_smoothed_probs(params, tiny_graph.adjacency,
                                     tiny_graph.features, NoiseSpec(1.0))
        clean = predict_all(params, tiny_graph.adjacency, tiny_graph.features)
        for u in range(4):
            assert probs[u, clean[u]] == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self, tiny_graph):
        params = init_params(4, 3, 2, seed=1)
        probs = exact_smoothed_probs(params, tiny_graph.adjacency,
                                     tiny_graph.features, NoiseSpec(0.75))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_capacity_cap(self):
        graph = synth_sbm(10, 2, 0.5, 0.1, 4, seed=0)  # m = 45 > 20
        params = init_params(4, 3, 2, seed=0)
        with pytest.raises(ValueError):
            exact_smoothed_probs(params, graph.adjacency, graph.features,
                                 NoiseSpec(0.9))


class TestCertifyNodes:
    def test_wrong_majority_gets_zero(self, sbm_setup):
        graph, split, params = sbm_setup
        certs = certify_nodes(
            "evasion", target_nodes=split.test, labels=graph.labels,
            spec=NoiseSpec(0.9), config=SmoothingConfig(50, 0.1, seed=0),
            adjacency=graph.adjacency, features=graph.features, params=params)
        for cert in certs:
            if cert.smoothed_label != cert.true_label:
                assert cert.certified_size == 0
            if cert.p_lower <= 0.5:
                assert cert.certified_size == 0

    def test_unanimous_vote_gets_k1_at_beta09(self, tiny_graph):
        # composition: N_y=N=200, alpha=0.1 -> p_lower ~= 0.9886 -> K=1
        split = split_nodes(tiny_graph, (1.0, 0.0, 0.0), seed=0)
        tc = TrainConfig(epochs=200, learning_rate=0.05, seed=0)
        params = train(tiny_graph, split, tiny_graph.adjacency, tc)
        certs = certify_nodes(
            "evasion", target_nodes=np.arange(4), labels=tiny_graph.labels,
            spec=NoiseSpec(0.9), config=SmoothingConfig(200, 0.1, seed=0),
            adjacency=tiny_graph.adjacency, features=tiny_graph.features,
            params=params)
        unanimous = [c for c in certs
                     if c.counts[c.true_label] == 200]
        assert unanimous, "toy graph should produce unanimous votes"
        for cert in unanimous:
            assert cert.p_lower == pytest.approx(0.9885530946569389, abs=1e-9)
            assert cert.certified_size == 1

    def test_deterministic(self, sbm_setup):
        graph, split, params = sbm_setup
        kwargs = dict(target_nodes=split.test[:10], labels=graph.labels,
                      spec=NoiseSpec(0.9),
                      config=SmoothingConfig(30, 0.1, seed=7),
                      adjacency=graph.adjacency, features=graph.features,
                      params=params)
        a = certify_nodes("evasion", **kwargs)
        b = certify_nodes("evasion", **kwargs)
        assert all(x.certified_size == y.certified_size and
                   np.array_equal(x.counts, y.counts)
                   for x, y in zip(a, b))

    def test_csv_export_columns(self, sbm_setup, tmp_path):
        graph, split, params = sbm_setup
        spec = NoiseSpec(0.9)
        config = SmoothingConfig(30, 0.1, seed=7)
        certs = certify_nodes("evasion", target_nodes=split.test[:5],
                              labels=graph.labels, spec=spec, config=config,
                              adjacency=graph.adjacency,
                              features=graph.features, params=params)
        path = tmp_path / "certs.csv"
        write_certificates_csv(certs, spec, config, path)
        header = path.read_text().splitlines()[0]
        assert header == ("node,true_label,smoothed_label,top_count,N,alpha,"
                          "beta,p_lower,K")


class TestSoundness:
    def test_certified_never_exceeds_brute_force(self):
        # theorem check on random instances: the bound is sound
        import warnings

        from oracles import brute_force_certified_size
        for seed in range(4):
            graph = synth_sbm(4, 2, 0.9, 0.1, 3, seed=seed)
            split = split_nodes(graph, (1.0, 0.0, 0.0), seed=0)
            tc = TrainConfig(epochs=120, learning_rate=0.1, seed=seed)
            params = train(graph, split, graph.adjacency, tc)
            spec = NoiseSpec(0.75)
            probs = exact_smoothed_probs(params, graph.adjacency,
                                         graph.features, spec)
            for u in range(4):
                label = graph.labels[u]
                p = probs[u, label]
                if int(np.argmax(probs[u])) != label or p <= 0.5:
                    k_cert = 0
                else:
                    with warnings.catch_warnings():
                        # exact probabilities can round to 1.0, which
                        # legitimately saturates the radius scan
                        warnings.simplefilter("ignore", UserWarning)
                        k_cert = certified_size(p, spec, r_max=50)
                k_true = brute_force_certified_size(
                    params, graph.adjacency, graph.features, u, label, spec,
                    max_radius=3)
                assert min(k_cert, 3) <= k_true
