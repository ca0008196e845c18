import numpy as np
import pytest

from certattack import (DataSplit, GraphLoadError, ParameterError,
                        classification_accuracy, load_graph, split_nodes,
                        synth_sbm)


def write_dataset(tmp_path, edges, features, labels):
    ep = tmp_path / "edges.tsv"
    fp = tmp_path / "features.csv"
    lp = tmp_path / "labels.txt"
    ep.write_text("\n".join(edges) + "\n")
    fp.write_text("\n".join(",".join(str(v) for v in row) for row in features) + "\n")
    lp.write_text("\n".join(str(v) for v in labels) + "\n")
    return ep, fp, lp


class TestLoadGraph:
    def test_basic_edges(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t1", "1\t2"],
                              [[1.0], [2.0], [3.0]], [0, 1, 1])
        g = load_graph(*paths)
        expected = np.zeros((3, 3), dtype=np.int8)
        expected[0, 1] = expected[1, 0] = 1
        expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(g.adjacency, expected)
        assert g.num_classes == 2

    def test_self_loop_dropped(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t0", "0\t1"],
                              [[1.0], [2.0]], [0, 1])
        with pytest.warns(UserWarning, match="self-loops"):
            g = load_graph(*paths)
        assert np.diagonal(g.adjacency).sum() == 0
        assert g.num_edges == 1

    def test_duplicate_edges_dropped(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t1", "1\t0"],
                              [[1.0], [2.0]], [0, 1])
        with pytest.warns(UserWarning, match="duplicate"):
            g = load_graph(*paths)
        assert g.num_edges == 1

    def test_label_out_of_declared_range(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t1"], [[1.0], [2.0]], [0, 7])
        with pytest.raises(GraphLoadError, match="label 7"):
            load_graph(*paths, num_classes=6)

    def test_edge_index_out_of_range(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t5"], [[1.0], [2.0]], [0, 1])
        with pytest.raises(GraphLoadError, match="out of range"):
            load_graph(*paths)

    def test_row_count_mismatch(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t1"], [[1.0], [2.0]], [0, 1, 0])
        with pytest.raises(GraphLoadError, match="labels"):
            load_graph(*paths)

    def test_non_finite_feature(self, tmp_path):
        paths = write_dataset(tmp_path, ["0\t1"], [[1.0], ["nan"]], [0, 1])
        with pytest.raises(GraphLoadError, match="non-finite"):
            load_graph(*paths)

    def test_comments_allowed(self, tmp_path):
        paths = write_dataset(tmp_path, ["# a comment", "0\t1"],
                              [[1.0], [2.0]], [0, 1])
        assert load_graph(*paths).num_edges == 1


class TestSynthSbm:
    def test_degenerate_two_cliques(self):
        g = synth_sbm(4, 2, 1.0, 0.0, 4, seed=0)
        expected = np.zeros((4, 4), dtype=np.int8)
        expected[0, 1] = expected[1, 0] = 1
        expected[2, 3] = expected[3, 2] = 1
        assert np.array_equal(g.adjacency, expected)
        assert np.array_equal(g.labels, [0, 0, 1, 1])

    def test_deterministic(self):
        a = synth_sbm(30, 3, 0.5, 0.05, 4, seed=9)
        b = synth_sbm(30, 3, 0.5, 0.05, 4, seed=9)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)

    def test_edge_count_matches_binomial_expectation(self):
        # oracle: within-block pairs 2*C(50,2)=2450 at 0.1, cross 2500 at 0.01
        g = synth_sbm(100, 2, 0.1, 0.01, 8, seed=1)
        expected = 2450 * 0.1 + 2500 * 0.01
        variance = 2450 * 0.1 * 0.9 + 2500 * 0.01 * 0.99
        assert abs(g.num_edges - expected) <= 3.0 * np.sqrt(variance)

    def test_invalid_probabilities(self):
        with pytest.raises(ParameterError):
            synth_sbm(10, 2, 0.1, 0.5, 4, seed=0)


class TestSplitNodes:
    def test_paper_ratios(self, sbm_graph):
        split = split_nodes(sbm_graph, (0.1, 0.1, 0.8), seed=0)
        assert split.train.size == 10
        assert split.val.size == 10
        assert split.test.size == 80

    def test_all_train(self, sbm_graph):
        split = split_nodes(sbm_graph, (1.0, 0.0, 0.0), seed=0)
        assert split.train.size == sbm_graph.n
        assert split.val.size == 0 and split.test.size == 0

    def test_seeds_differ_sizes_match(self, sbm_graph):
        a = split_nodes(sbm_graph, (0.1, 0.1, 0.8), seed=0)
        b = split_nodes(sbm_graph, (0.1, 0.1, 0.8), seed=1)
        assert a.train.size == b.train.size
        assert not np.array_equal(a.train, b.train)

    def test_disjoint(self, sbm_graph):
        split = split_nodes(sbm_graph, (0.2, 0.2, 0.6), seed=3)
        merged = np.concatenate([split.train, split.val, split.test])
        assert len(np.unique(merged)) == merged.size

    def test_every_class_in_train(self):
        g = synth_sbm(40, 4, 0.6, 0.05, 4, seed=2)
        split = split_nodes(g, (0.1, 0.1, 0.8), seed=0)
        assert set(g.labels[split.train]) == set(range(4))

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ParameterError, match="disjoint"):
            DataSplit(np.array([0, 1]), np.array([1]), np.array([2]), n=3)

    def test_node_count_is_required_and_bounds_indices(self):
        with pytest.raises(TypeError):
            DataSplit([0, 1], [], [5000])
        with pytest.raises(ParameterError, match="node range"):
            DataSplit([0, 1], [], [5000], n=100)
        assert DataSplit([0, 1], [], [99], n=100).test.tolist() == [99]


class TestAccuracy:
    def test_all_correct(self):
        labels = np.array([0, 1, 1, 0])
        assert classification_accuracy(labels, labels, np.arange(4)) == 1.0

    def test_all_wrong(self):
        labels = np.array([0, 1, 1, 0])
        assert classification_accuracy(1 - labels, labels, np.arange(4)) == 0.0

    def test_three_of_four(self):
        preds = np.array([0, 1, 1, 1])
        labels = np.array([0, 1, 1, 0])
        assert classification_accuracy(preds, labels, np.arange(4)) == 0.75

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            classification_accuracy(np.array([0]), np.array([0]),
                                    np.array([], dtype=int))
