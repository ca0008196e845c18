import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certattack import (DimensionError, DomainError, Perturbation,
                        apply_perturbation, num_pairs, relax_perturbation)
from conftest import random_binary_adjacency
from oracles import relax_scatter, xor_dense

DTYPES = (np.int8, np.bool_, np.int64, np.float64)


@st.composite
def adjacency_and_delta(draw, binary=True):
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    adj = random_binary_adjacency(rng, n)
    if binary:
        delta = rng.integers(0, 2, num_pairs(n)).astype(np.int8)
    else:
        delta = rng.random(num_pairs(n))
    return adj, delta


@st.composite
def sparse_iterate(draw):
    """An adjacency of any accepted kind and a delta whose entries are
    mostly exact zeros of either sign, as a projected PGD iterate is."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["int8", "bool", "float32", "float64",
                                 "real"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    if kind == "real":  # asymmetric, with signed zeros and a 0.5
        adj = rng.choice([-0.0, 0.0, 0.5, 1.0, 0.3, -1.25], (n, n))
    else:
        adj = random_binary_adjacency(rng, n, rng.random()).astype(kind)
    delta = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, rng.random()],
                       num_pairs(n))
    return adj, delta


class TestApply:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(0)
        adj = random_binary_adjacency(rng, 5)
        out = apply_perturbation(adj, np.zeros(num_pairs(5), dtype=np.int8))
        assert np.array_equal(out, adj)

    def test_flip_removes_existing_edge(self):
        adj = np.zeros((3, 3), dtype=np.int8)
        adj[0, 1] = adj[1, 0] = 1
        delta = np.zeros(num_pairs(3), dtype=np.int8)
        delta[0] = 1  # pair (0, 1) in row-major upper-triangle order
        out = apply_perturbation(adj, delta)
        assert out[0, 1] == 0 and out[1, 0] == 0

    def test_input_not_mutated(self):
        rng = np.random.default_rng(1)
        adj = random_binary_adjacency(rng, 6)
        before = adj.copy()
        delta = rng.integers(0, 2, num_pairs(6)).astype(np.int8)
        apply_perturbation(adj, delta)
        assert np.array_equal(adj, before)

    @given(adjacency_and_delta())
    @settings(max_examples=50, deadline=None)
    def test_involution(self, case):
        adj, delta = case
        twice = apply_perturbation(apply_perturbation(adj, delta), delta)
        assert np.array_equal(twice, adj)

    @given(adjacency_and_delta())
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_diagonal(self, case):
        adj, delta = case
        out = apply_perturbation(adj, delta)
        assert np.array_equal(out, out.T)
        assert np.diagonal(out).sum() == 0

    def test_length_mismatch(self):
        adj = np.zeros((4, 4), dtype=np.int8)
        with pytest.raises(DimensionError):
            apply_perturbation(adj, np.zeros(3, dtype=np.int8))

    def test_non_binary_mask_rejected(self):
        adj = np.zeros((4, 4), dtype=np.int8)
        delta = np.zeros(num_pairs(4), dtype=np.int8)
        delta[2] = 2
        with pytest.raises(DomainError):
            apply_perturbation(adj, delta)

    @pytest.mark.parametrize("graph_dtype", DTYPES)
    @pytest.mark.parametrize("mask_dtype", DTYPES)
    def test_matches_dense_xor(self, graph_dtype, mask_dtype):
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            adj = random_binary_adjacency(rng, n, p=rng.random())
            delta = rng.random(num_pairs(n)) < rng.random()
            adj, delta = adj.astype(graph_dtype), delta.astype(mask_dtype)
            out = apply_perturbation(adj, delta)
            expected = xor_dense(adj, delta)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)


class TestRelax:
    def test_formula_on_absent_edge(self):
        adj = np.zeros((2, 2), dtype=np.int8)
        out = relax_perturbation(adj, np.array([0.3]))
        assert out[0, 1] == pytest.approx(0.3)

    def test_formula_on_present_edge(self):
        adj = np.zeros((2, 2), dtype=np.int8)
        adj[0, 1] = adj[1, 0] = 1
        out = relax_perturbation(adj, np.array([0.3]))
        assert out[0, 1] == pytest.approx(0.7)

    @given(adjacency_and_delta(binary=True))
    @settings(max_examples=50, deadline=None)
    def test_binary_input_matches_xor(self, case):
        adj, delta = case
        relaxed = relax_perturbation(adj, delta.astype(float))
        xored = apply_perturbation(adj, delta).astype(float)
        assert np.array_equal(relaxed, xored)

    @given(adjacency_and_delta(binary=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, case):
        adj, delta = case
        out = relax_perturbation(adj, delta)
        assert np.allclose(out, out.T)

    def test_out_of_range_rejected(self):
        adj = np.zeros((2, 2), dtype=np.int8)
        with pytest.raises(DomainError):
            relax_perturbation(adj, np.array([1.2]))

    @pytest.mark.parametrize("check", [
        lambda d: relax_perturbation(np.zeros((3, 3), dtype=np.int8), d),
        lambda d: Perturbation(d, budget=1, binary=np.zeros(3))],
        ids=["relax", "perturbation"])
    def test_nan_rejected(self, check):
        # NaN fails every comparison, so a range check must ask for
        # inside [0, 1] rather than look for outside it
        with pytest.raises(DomainError):
            check(np.array([np.nan, 0.0, 0.0]))

    @given(adjacency_and_delta(binary=False), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_scatter(self, case, real_adjacency):
        adj, delta = case
        if real_adjacency:  # relaxed adjacencies are real-valued
            adj = adj * np.random.default_rng(adj.size).random(adj.shape)
        assert np.array_equal(relax_perturbation(adj, delta),
                              relax_scatter(adj, delta))

    @given(sparse_iterate(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bit_patterns_on_sparse_iterates(self, case, into_out):
        # array_equal takes -0.0 for 0.0, so compare the bit patterns
        adj, delta = case
        n = adj.shape[0]
        out = np.full((n, n), np.nan) if into_out else None
        got = relax_perturbation(adj, delta, out=out)
        if into_out:
            assert got is out
        assert np.array_equal(got.view(np.int64),
                              relax_scatter(adj, delta).view(np.int64))

    @pytest.mark.parametrize("layout", ["transposed", "sliced"])
    def test_fills_a_non_contiguous_out(self, layout):
        rng = np.random.default_rng(5)
        n = 9
        adj = rng.random((n, n))  # asymmetric, so a transposed write shows
        delta = rng.random(num_pairs(n)) * (rng.random(num_pairs(n)) < 0.3)
        out = (np.full((n, n), np.nan).T if layout == "transposed"
               else np.full((n, n + 3), np.nan)[:, :n])
        assert relax_perturbation(adj, delta, out=out) is out
        assert np.array_equal(out, relax_scatter(adj, delta))


class TestPerturbation:
    def test_validates_budget_mass(self):
        with pytest.raises(DomainError):
            Perturbation(np.array([0.9, 0.9]), budget=1,
                         binary=np.array([1, 0]))

    def test_binary_popcount_capped(self):
        with pytest.raises(DomainError):
            Perturbation(np.array([0.5, 0.5]), budget=1,
                         binary=np.array([1, 1]))

    def test_valid(self):
        p = Perturbation(np.array([0.5, 0.5]), budget=1,
                         binary=np.array([1, 0]))
        assert p.num_flips == 1

    @pytest.mark.parametrize("binary", [[-1, 1], [0.5, 0.0], [2, -2]])
    def test_binary_entries_must_be_0_or_1(self, binary):
        # each sums to at most the budget, so only the 0/1 check rejects it
        with pytest.raises(DomainError):
            Perturbation(np.array([0.5, 0.5]), budget=1,
                         binary=np.array(binary))

    @pytest.mark.parametrize("binary", [[True, False], [1.0, 0.0]])
    def test_binary_accepts_any_0_1_dtype(self, binary):
        p = Perturbation(np.array([0.5, 0.5]), budget=1,
                         binary=np.array(binary))
        assert p.num_flips == 1
