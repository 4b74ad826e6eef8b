import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistil import data, metrics
from conceptdistil.errors import DataError

from oracles import brute_force_mae, dominance_flags, pairwise_auc, recall_by_threshold_scan


class TestFidelity:
    def test_identical_scores_give_one(self):
        assert metrics.fidelity([0.1, 0.9], [0.1, 0.9]) == 1.0

    def test_hand_computed_example(self):
        assert metrics.fidelity([0.2, 0.4], [0.4, 0.8]) == pytest.approx(0.7, abs=1e-15)

    def test_matches_brute_force_mae(self):
        rng = np.random.default_rng(0)
        pred, true = rng.random(257), rng.random(257)
        assert metrics.fidelity(pred, true) == pytest.approx(1.0 - brute_force_mae(pred, true), abs=1e-15)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=50))
    def test_symmetric(self, pairs):
        a = [p for p, _ in pairs]
        b = [q for _, q in pairs]
        assert metrics.fidelity(a, b) == metrics.fidelity(b, a)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            metrics.fidelity([], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            metrics.fidelity([1.2], [0.5])

    @pytest.mark.parametrize("pred, true, name", [
        ([np.nan], [0.5], "predictions"), ([0.5], [np.inf], "references"),
    ])
    def test_non_finite_input_rejected_naming_it(self, pred, true, name):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            metrics.fidelity(pred, true)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert metrics.roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert metrics.roc_auc([0.4] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="AUC undefined"):
            metrics.roc_auc([0.1, 0.2], [1, 1])

    def test_nan_score_rejected(self):  # NaN sorts last in np.unique, so it used to rank as the top score
        with pytest.raises(DataError, match="scores must be finite"):
            metrics.roc_auc([np.nan, 0.2, 0.3], [1, 0, 1])

    def test_matches_pairwise_oracle_with_heavy_ties(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(10, 120))
            scores = rng.integers(0, 6, size=n) / 5.0  # few distinct values
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert metrics.roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_matches_pairwise_oracle_n500(self):
        rng = np.random.default_rng(11)
        scores = np.round(rng.random(500), 2)  # duplicated scores
        labels = rng.integers(0, 2, size=500)
        assert metrics.roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    @given(st.data())
    @settings(max_examples=40)
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(4, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        scores = rng.random(n)
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        base = metrics.roc_auc(scores, labels)
        transformed = metrics.roc_auc(np.exp(3.0 * scores) + 5.0, labels)
        assert transformed == pytest.approx(base, abs=1e-12)


class TestMeanConceptAuc:
    def test_two_perfect_columns(self):
        pred = np.array([[0.9, 0.8], [0.1, 0.2]])
        golden = np.array([[1, 1], [0, 0]])
        per, mean = metrics.mean_concept_auc(pred, golden)
        assert mean == 1.0 and list(per) == [1.0, 1.0]

    def test_mean_equals_hand_average(self):
        rng = np.random.default_rng(3)
        pred = rng.random((40, 3))
        golden = rng.integers(0, 2, size=(40, 3))
        golden[0] = [1, 1, 1]
        golden[1] = [0, 0, 0]
        per, mean = metrics.mean_concept_auc(pred, golden)
        singles = [metrics.roc_auc(pred[:, i], golden[:, i]) for i in range(3)]
        np.testing.assert_allclose(per, singles, atol=1e-15)
        assert mean == pytest.approx(float(np.mean(singles)), abs=1e-15)

    def test_degenerate_column_names_the_concept(self):
        pred = np.random.default_rng(0).random((10, 2))
        golden = np.column_stack([np.ones(10, dtype=int), np.arange(10) % 2])
        with pytest.raises(DataError, match="suspicious_email"):
            metrics.mean_concept_auc(pred, golden, ["suspicious_email", "other"])


class TestRecallAtFpr:
    def test_perfectly_separated_is_one(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        for level in (0.01, 0.05, 0.5):
            assert metrics.recall_at_fpr(scores, labels, level) == 1.0

    def test_scores_equal_labels(self):
        labels = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
        assert metrics.recall_at_fpr(labels, labels, 0.05) == 1.0

    def test_level_out_of_range_rejected(self):
        with pytest.raises(DataError):
            metrics.recall_at_fpr([0.1, 0.9], [0, 1], 1.5)

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="scores must be finite"):
            metrics.recall_at_fpr([0.1, np.nan, 0.9], [0, 0, 1], 0.5)

    def test_non_binary_labels_rejected(self):  # a label of 2 used to count as neither class
        with pytest.raises(DataError, match="labels must be binary 0/1"):
            metrics.recall_at_fpr([0.9, 0.8, 0.1, 0.2], [1, 2, 0, 1], 0.5)

    def test_matches_exhaustive_threshold_scan(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = 200
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            for level in (0.01, 0.05, 0.2):
                assert metrics.recall_at_fpr(scores, labels, level) == pytest.approx(
                    recall_by_threshold_scan(scores, labels, level), abs=1e-12
                )

    def test_non_decreasing_in_level(self):
        rng = np.random.default_rng(9)
        scores = rng.random(150)
        labels = rng.integers(0, 2, size=150)
        levels = np.linspace(0.01, 0.99, 25)
        values = [metrics.recall_at_fpr(scores, labels, lv) for lv in levels]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestParetoFrontier:
    def test_definition_example(self):
        flags = metrics.pareto_frontier([(0.9, 0.7), (0.8, 0.8), (0.7, 0.6)])
        assert list(flags) == [True, True, False]

    def test_single_point_flagged(self):
        assert list(metrics.pareto_frontier([(0.5, 0.5)])) == [True]

    def test_duplicates_defend_each_other(self):
        flags = metrics.pareto_frontier([(0.5, 0.5), (0.5, 0.5), (0.4, 0.4)])
        assert list(flags) == [True, True, False]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            n = int(rng.integers(1, 60))
            pts = np.round(rng.random((n, 2)), 1)  # rounded to force ties
            np.testing.assert_array_equal(metrics.pareto_frontier(pts), dominance_flags(pts))

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30), st.randoms())
    @settings(max_examples=50)
    def test_flags_invariant_to_order(self, pts, rnd):
        base = metrics.pareto_frontier(pts)
        perm = list(range(len(pts)))
        rnd.shuffle(perm)
        shuffled = metrics.pareto_frontier([pts[i] for i in perm])
        for new_pos, old_pos in enumerate(perm):
            assert shuffled[new_pos] == base[old_pos]

    def test_empty_input_gives_empty_flags(self):
        assert metrics.pareto_frontier([]).size == 0


def scored_golden_set(**blocks):
    """Three rows, two features, the given blocks (``concept_names``, ``golden``, ``soft``, ``bb_scores``)."""
    return data.Dataset(ids=np.array(["a", "b", "c"]), feature_names=("f_0", "f_1"), x=np.zeros((3, 2)), **blocks)


class TestDatasetMeasures:
    def test_score_fidelity_requires_scores(self):
        with pytest.raises(DataError, match="test set must carry bb_score"):
            metrics.score_fidelity(np.full(3, 0.5), scored_golden_set(), "test set")
        assert metrics.score_fidelity(np.full(3, 0.5), scored_golden_set(bb_scores=np.full(3, 0.25)), "t") == 0.75

    def test_golden_auc_requires_hard_labels(self):
        soft_only = scored_golden_set(concept_names=("a", "b"), soft=np.full((3, 2), 0.5))
        with pytest.raises(DataError, match="golden set must carry hard concept labels"):
            metrics.golden_auc(np.full((3, 2), 0.5), soft_only, ("a", "b"), "golden set")

    def test_golden_auc_checks_the_concept_order(self):
        golden = scored_golden_set(concept_names=("a", "b"), golden=np.array([[1, 0], [0, 1], [1, 1]]))
        pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.6]])
        per, mean = metrics.golden_auc(pred, golden, ("a", "b"), "golden set")
        assert list(per) == [1.0, 1.0] and mean == 1.0
        with pytest.raises(DataError, match=re.escape("golden set concepts ('a', 'b') do not match ('b', 'a')")):
            metrics.golden_auc(pred[:, ::-1], golden, ("b", "a"), "golden set")
