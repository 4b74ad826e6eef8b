import json
import math
import re
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptdistil import cli, data, metrics, pool, teachers
from conceptdistil.errors import DataError
from conceptdistil.nn import derive_seed


# -- reference CART: the recursive per-feature search the array trees replaced,
# -- growing each tree as nested per-node objects, which tree_doc renders a fitted tree as

def gini(pos, n):
    p = pos / n
    return 2.0 * p * (1.0 - p)


def ref_best_split(x, y, features, min_leaf):
    n = y.size
    pos_total = float(y.sum())
    parent = gini(pos_total, n)
    best_gain, best = 0.0, None
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        sv, sy = x[order, f], y[order]
        boundaries = np.flatnonzero(sv[1:] != sv[:-1]) + 1  # left-side sizes
        boundaries = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
        if boundaries.size == 0:
            continue
        left_n = boundaries.astype(np.float64)
        left_pos = np.cumsum(sy)[boundaries - 1]
        right_n, right_pos = n - left_n, pos_total - left_pos
        gains = parent - (left_n * gini(left_pos, left_n) + right_n * gini(right_pos, right_n)) / n
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain, i = float(gains[j]), boundaries[j]
            best = (int(f), float((sv[i - 1] + sv[i]) / 2.0))
    return best


def ref_grow(x, y, depth, params, k, rng):
    n, pos = y.size, y.sum()
    leaf = {"positive_fraction": float(pos) / n, "sample_count": n}
    if depth >= params.max_depth or n < 2 * params.min_leaf or pos == 0 or pos == n:
        return leaf
    features = np.sort(rng.choice(x.shape[1], size=min(k, x.shape[1]), replace=False))
    best = ref_best_split(x, y, features, params.min_leaf)
    if best is None:
        return leaf
    feature, threshold = best
    mask = x[:, feature] < threshold
    return {"feature": feature, "threshold": threshold, "sample_count": n,
            "left": ref_grow(x[mask], y[mask], depth + 1, params, k, rng),
            "right": ref_grow(x[~mask], y[~mask], depth + 1, params, k, rng)}


def ref_forest(x, y, params):
    docs, n = [], y.size
    for t in range(params.n_trees):
        rng = np.random.default_rng(derive_seed(params.seed, teachers._TREE_RNG, t))
        rows = np.arange(n)
        if params.bootstrap:
            rows = np.random.default_rng(derive_seed(params.seed, teachers._BOOTSTRAP, t)).integers(0, n, n)
        docs.append(ref_grow(x[rows], y[rows], 0, params, params.resolved_subsample(x.shape[1]), rng))
    return docs


def ref_predict(docs, x):
    """Per-row root-to-leaf walk of each nested tree, summed over the trees in order."""
    out = np.zeros(x.shape[0])
    for r, row in enumerate(x):
        for doc in docs:
            while "feature" in doc:
                doc = doc["left"] if row[doc["feature"]] < doc["threshold"] else doc["right"]
            out[r] += doc["positive_fraction"]
    return out / len(docs)


def tree_doc(tree):
    """The reference's nested form of a fitted tree: one object per node, a split holding its two children."""
    def node(i):
        if tree.left[i] == i:
            return {"positive_fraction": float(tree.value[i]), "sample_count": int(tree.count[i])}
        return {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i]),
                "sample_count": int(tree.count[i]), "left": node(tree.left[i]), "right": node(tree.right[i])}

    return node(0)


def leaf_tree(p, n):
    """A one-leaf tree, read from its node arrays."""
    return teachers._read_tree({"feature": [-1], "threshold": [None], "left": [0], "right": [0], "value": [p],
                                "count": [n]}, 1, "tree")


@st.composite
def tie_heavy_fits(draw):
    """Small integer-valued data (many tied values) and forest parameters."""
    d = draw(st.integers(1, 4))
    min_leaf = draw(st.integers(1, 4))
    n = draw(st.integers(2 * min_leaf, 40))
    x = np.array(draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    params = teachers.ForestParams(
        n_trees=draw(st.integers(1, 3)), max_depth=draw(st.integers(1, 6)), min_leaf=min_leaf,
        feature_subsample=draw(st.none() | st.integers(1, d + 1)), bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return x, y, params


class TestAgainstReference:
    @settings(max_examples=150)
    @given(tie_heavy_fits())
    def test_fit_matches_the_reference_cart(self, case):
        x, y, params = case
        forest = teachers.fit_forest(x, y, params)
        assert [tree_doc(t) for t in forest.trees] == ref_forest(x, y, params)

    @settings(max_examples=100)
    @given(tie_heavy_fits(), st.lists(st.integers(-2, 8), min_size=1, max_size=60))
    def test_predict_matches_a_per_row_walk_bit_for_bit(self, case, halves):
        x, y, params = case
        forest = teachers.fit_forest(x, y, params)
        grid = np.resize(np.array(halves, dtype=float) / 2.0, (max(1, len(halves) // x.shape[1]), x.shape[1]))
        test_x = np.vstack([grid, x])  # midpoints, exact thresholds and the training rows
        expected = ref_predict([tree_doc(t) for t in forest.trees], test_x)
        assert forest.predict_proba(test_x).tobytes() == expected.tobytes()

    @settings(max_examples=60)
    @given(tie_heavy_fits())
    def test_save_load_save_is_byte_identical(self, case):
        x, y, params = case
        forest = teachers.fit_forest(x, y, params)
        names = tuple(f"f{j}" for j in range(x.shape[1]))
        tset = teachers.TeacherSet([forest, forest], ("a", "b"), names)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            teachers.save_teachers(tset, first)
            restored = teachers.load_teachers(first)
            teachers.save_teachers(restored, second)
            assert first.read_bytes() == second.read_bytes()
            assert restored.forests[0].predict_proba(x).tobytes() == forest.predict_proba(x).tobytes()

    @pytest.mark.parametrize("concept", range(6))
    def test_desk_like_forest_matches_the_reference(self, concept):
        # about 600 golden rows of 16 continuous features and 6 binary enrichment columns, at the default
        # depth and leaf size: long runs of distinct values and deep trees the tie-heavy property never draws
        ds = data.generate_synthetic(data.GeneratorConfig(n_instances=600, seed=12))
        x, y = np.hstack([ds.x, ds.teacher_x]), ds.golden[:, concept]
        params = teachers.ForestParams(n_trees=3, seed=concept)
        forest = teachers.fit_forest(x, y, params)
        assert [tree_doc(t) for t in forest.trees] == ref_forest(x, y, params)
        assert max(t.depth for t in forest.trees) >= 6

    def test_column_with_more_distinct_values_than_uint16_ranks(self):
        rng = np.random.default_rng(14)
        x = np.column_stack([rng.permutation(70_000) / 7.0, rng.integers(0, 3, 70_000)])
        y = (x[:, 0] + 2000.0 * x[:, 1] > 6000.0).astype(float)
        y[rng.random(70_000) < 0.1] = 0.0
        assert teachers._base(x, y, 1)[1].dtype == np.int64
        assert teachers._base(x[:1000], y[:1000], 1)[1].dtype == np.uint16
        params = teachers.ForestParams(n_trees=1, max_depth=2, feature_subsample=2, seed=1)
        forest = teachers.fit_forest(x, y, params)
        assert [tree_doc(t) for t in forest.trees] == ref_forest(x, y, params) and forest.trees[0].depth == 2

    @pytest.mark.parametrize("layout", ["fortran", "integer", "strided"])
    def test_any_input_layout_matches_the_reference(self, layout):
        rng = np.random.default_rng(15)
        ints = rng.integers(-20, 20, (300, 4))
        y = (ints[:, 0] + ints[:, 2] + rng.integers(-8, 8, 300) > 0).astype(float)
        x = {"fortran": np.asfortranarray(ints / 4.0), "integer": ints,
             "strided": np.repeat(ints / 4.0, 2, axis=1)[:, ::2]}[layout]
        assert not (x.flags.c_contiguous and x.dtype == np.float64)
        params = teachers.ForestParams(n_trees=3, max_depth=5, min_leaf=3, seed=2)
        expected = ref_forest(np.asarray(x, dtype=float), y, params)
        assert [tree_doc(t) for t in teachers.fit_forest(x, y, params).trees] == expected


class TestFitTree:
    def test_pure_labels_give_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        tree = teachers.fit_tree(x, np.ones(20), teachers.ForestParams(min_leaf=2), np.random.default_rng(1))
        assert tree_doc(tree) == {"positive_fraction": 1.0, "sample_count": 20} and tree.depth == 0
        tree = teachers.fit_tree(x, np.zeros(20), teachers.ForestParams(min_leaf=2), np.random.default_rng(1))
        assert tree_doc(tree) == {"positive_fraction": 0.0, "sample_count": 20} and tree.depth == 0

    def test_1d_separable_data_needs_one_split(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.uniform(-2, -0.5, 10), rng.uniform(0.5, 2, 10)]).reshape(-1, 1)
        y = np.concatenate([np.zeros(10), np.ones(10)])
        params = teachers.ForestParams(min_leaf=1, feature_subsample=1)
        tree = teachers.fit_tree(x, y, params, np.random.default_rng(3))
        assert (tree.left.tolist(), tree.right.tolist(), tree.depth) == ([1, 1, 2], [2, 1, 2], 1)
        doc = tree_doc(tree)
        assert doc["left"] == {"positive_fraction": 0.0, "sample_count": 10}
        assert doc["right"] == {"positive_fraction": 1.0, "sample_count": 10}
        max_neg, min_pos = x[y == 0].max(), x[y == 1].min()
        assert max_neg <= doc["threshold"] < min_pos

    def test_gini_gain_selects_the_clean_split(self):
        # 10 points, one feature separates perfectly, the other only partially:
        # parent gini 0.5; clean split gains 0.5 and must win
        x = np.array(
            [[-2.0, 0.1], [-1.5, -0.3], [-1.2, 0.4], [-0.8, -0.2], [-0.1, 0.6],
             [0.2, -0.5], [0.7, 0.3], [1.1, -0.1], [1.6, 0.2], [2.0, -0.4]]
        )
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
        params = teachers.ForestParams(min_leaf=1, feature_subsample=2, max_depth=1)
        tree = teachers.fit_tree(x, y, params, np.random.default_rng(4))
        assert tree.feature[0] == 0
        assert sorted(tree.value[1:]) == [0.0, 1.0]
        # hand enumeration: children [5,0] and [0,5] have weighted gini 0 -> gain 0.5
        counts = [(y[x[:, 0] < tree.threshold[0]]).sum(), (y[x[:, 0] >= tree.threshold[0]]).sum()]
        assert counts == [0.0, 5.0]

    def test_row_permutation_does_not_change_the_tree(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 4))
        y = (x[:, 1] + 0.5 * x[:, 3] > 0).astype(float)
        params = teachers.ForestParams(min_leaf=3, feature_subsample=2, max_depth=4)
        tree_a = teachers.fit_tree(x, y, params, np.random.default_rng(6))
        perm = rng.permutation(60)
        tree_b = teachers.fit_tree(x[perm], y[perm], params, np.random.default_rng(6))
        assert tree_doc(tree_a) == tree_doc(tree_b)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            teachers.fit_tree(np.zeros((0, 2)), np.zeros(0), teachers.ForestParams(), np.random.default_rng(0))

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            teachers.fit_tree(np.zeros((5, 2)), np.zeros(5), teachers.ForestParams(min_leaf=5), np.random.default_rng(0))

    @pytest.mark.parametrize("bad, message", [
        ("nan", "features must be finite"), ("inf", "features must be finite"), ("label", "labels must be 0 or 1"),
        ("1-d", "2-D with one row per label"), ("rows", "2-D with one row per label"),
    ])
    @pytest.mark.parametrize("fit", ["tree", "forest"])
    def test_malformed_inputs_rejected_before_any_tree_grows(self, bad, message, fit):
        x = np.random.default_rng(16).normal(size=(40, 3))
        y = (x[:, 0] > 0).astype(float)
        if bad == "label":
            y[7] = 2.0
        elif bad in ("nan", "inf"):
            x[7, 1] = np.nan if bad == "nan" else np.inf
        else:
            x = x[:, 0] if bad == "1-d" else x[:39]
        params = teachers.ForestParams(n_trees=2, min_leaf=2)
        with pytest.raises(DataError, match=message):
            if fit == "tree":
                teachers.fit_tree(x, y, params, np.random.default_rng(0))
            else:
                teachers.fit_forest(x, y, params)


class TestForest:
    def test_constant_leaf_forest_predicts_the_constant(self):
        p = 0.3
        trees = [leaf_tree(p, 10) for _ in range(7)]
        forest = teachers.Forest(trees, teachers.ForestParams(n_trees=7), n_features=2)
        out = forest.predict_proba(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_single_tree_no_bootstrap_equals_fit_tree(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 3))
        y = (x[:, 0] > 0.2).astype(float)
        params = teachers.ForestParams(n_trees=1, bootstrap=False, seed=13, min_leaf=2)
        forest = teachers.fit_forest(x, y, params)
        direct = teachers.fit_tree(
            x, y, params, np.random.default_rng(derive_seed(13, teachers._TREE_RNG, 0))
        )
        test_x = rng.normal(size=(30, 3))
        assert tree_doc(forest.trees[0]) == tree_doc(direct)
        np.testing.assert_array_equal(forest.predict_proba(test_x), ref_predict([tree_doc(direct)], test_x))

    def test_predictions_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        forest = teachers.fit_forest(x, y, teachers.ForestParams(n_trees=15, seed=0))
        out = forest.predict_proba(rng.normal(size=(50, 4)))
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_separable_concept_reaches_high_auc(self):
        cfg = data.GeneratorConfig(n_instances=1500, seed=6)
        ds = data.generate_synthetic(cfg)
        train, test = ds.take(np.arange(1000)), ds.take(np.arange(1000, 1500))
        feats_train = np.hstack([train.x, train.teacher_x])
        feats_test = np.hstack([test.x, test.teacher_x])
        forest = teachers.fit_forest(feats_train, train.golden[:, 0], teachers.ForestParams(n_trees=40, seed=1))
        auc = metrics.roc_auc(forest.predict_proba(feats_test), test.golden[:, 0])
        assert auc >= 0.95

    def test_dimension_mismatch_rejected(self):
        forest = teachers.Forest([leaf_tree(0.5, 1)], teachers.ForestParams(), 3)
        with pytest.raises(DataError):
            forest.predict_proba(np.zeros((2, 4)))

    def test_fit_is_seed_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(120, 3))
        y = (x[:, 2] > 0).astype(float)
        params = teachers.ForestParams(n_trees=5, seed=21)
        a = teachers.fit_forest(x, y, params)
        b = teachers.fit_forest(x, y, params)
        docs = lambda f: [tree_doc(t) for t in f.trees]
        assert docs(a) == docs(b)


class TestForestParams:
    @pytest.mark.parametrize("k", [0, -1])
    def test_feature_subsample_below_one_rejected(self, k):
        with pytest.raises(DataError, match="feature_subsample"):
            teachers.ForestParams(feature_subsample=k)


V2_DOC = {
    "format_version": 2, "kind": "concept_teachers", "concept_names": ["c"], "feature_names": ["f_0", "f_1"],
    "forests": [{
        "params": {"n_trees": 1, "max_depth": 8, "min_leaf": 5, "feature_subsample": None, "bootstrap": True,
                   "seed": 0},
        "n_features": 2,
        "trees": [{  # split on f_1 < 0.5 into a leaf and a split on f_0 < -1.0 into two leaves
            "feature": [1, -1, 0, -1, -1],
            "threshold": [0.5, None, -1.0, None, None],
            "left": [1, 1, 3, 3, 4],
            "right": [2, 1, 4, 3, 4],
            "value": [None, 0.25, None, 0.0, 1.0],
            "count": [10, 4, 6, 2, 4],
        }],
    }],
}


def node_set(key, i, v):
    """A tree with node ``i`` of array ``key`` set to ``v``."""
    return lambda t: {**t, key: t[key][:i] + [v] + t[key][i + 1:]}


def label_exit(tmp_path, capsys, doc):
    """``label``'s exit code with the teachers file ``doc`` (written with JSON's NaN and Infinity) and its
    stderr, and the file's path."""
    path = tmp_path / "teachers.json"
    path.write_text(json.dumps(doc))
    rows = tmp_path / "rows.csv"
    rows.write_text("id,f_0,f_1\nr0,0.1,0.2\n")
    code = cli.main(["label", "--input", str(rows), "--teachers", str(path), "--out", str(tmp_path / "l.csv")])
    return code, capsys.readouterr().err, path


ARRAYS = "['feature', 'threshold', 'left', 'right', 'value', 'count']"
SPLIT_RIGHT = "is not past the left child and below 5 at a split, the node at a leaf"
TWO_PARENTS = {"feature": [0, 0, -1, -1, -1], "threshold": [0.5, 0.2, None, None, None], "left": [1, 2, 2, 3, 4],
               "right": [3, 3, 2, 3, 4], "value": [None, None, 0.1, 0.2, 0.3], "count": [1, 1, 1, 1, 1]}


class TestV2Document:
    def test_hand_written_document_loads_into_its_arrays(self, tmp_path):
        path = tmp_path / "teachers.json"
        path.write_text(json.dumps(V2_DOC))
        tree = teachers.load_teachers(path).forests[0].trees[0]
        assert tree.feature.tolist() == [1, -1, 0, -1, -1] and tree.threshold[0] == 0.5
        assert (tree.left.tolist(), tree.right.tolist()) == ([1, 1, 3, 3, 4], [2, 1, 4, 3, 4])
        assert tree.count.tolist() == [10, 4, 6, 2, 4] and tree.depth == 2
        assert np.isnan(tree.threshold[[1, 3, 4]]).all() and np.isnan(tree.value[[0, 2]]).all()
        forest = teachers.load_teachers(path).forests[0]
        out = forest.predict_proba(np.array([[0.0, 0.0], [-2.0, 1.0], [0.0, 1.0], [-1.0, 0.5]]))
        assert out.tolist() == [0.25, 0.0, 1.0, 1.0]

    def test_resave_reproduces_the_document_bytes(self, tmp_path):
        path = tmp_path / "teachers.json"
        teachers.save_teachers(teachers.teachers_from_doc(V2_DOC), path)
        assert path.read_text() == json.dumps(V2_DOC, allow_nan=False)

    def test_depth_is_the_deepest_leafs(self):  # V2_DOC's tree splits its right child, this one its left
        assert teachers._read_tree({**TWO_PARENTS, "right": [4, 3, 2, 3, 4]}, 1, "t").depth == 2
        assert leaf_tree(0.5, 1).depth == 0

    @pytest.mark.parametrize("damage, message", [
        (lambda t: [t], " is a list, not an object"),
        (lambda t: {k: v for k, v in t.items() if k != "count"}, f": expects an object of the node arrays {ARRAYS}"),
        (lambda t: {**t, "depth": [0] * 5}, f": expects an object of the node arrays {ARRAYS}"),
        (lambda t: {k: [] for k in t}, ".feature has length 0: a tree has at least one node"),
        (lambda t: {**t, "value": t["value"][:-1]}, ".value has length 4, not 5"),
        (lambda t: {**t, "right": 2}, ".right is an int, not a list"),
        (node_set("left", 0, 1.5), ".left[0] is a float, not an integer"),
        (node_set("count", 3, True), ".count[3] is a bool, not an integer"),
        (node_set("threshold", 2, "abc"), ".threshold[2] is a str, not a number or null"),
        (node_set("value", 1, True), ".value[1] is a bool, not a number or null"),
        (node_set("count", 0, 2**64), ".count holds a number out of range"),
        (node_set("feature", 2, 2), ": node 2: feature 2 is outside [-1, 2)"),
        (node_set("feature", 1, -2), ": node 1: feature -2 is outside [-1, 2)"),
        (node_set("left", 2, 4), ": node 2: left 4 is not the next node at a split, the node at a leaf"),
        (node_set("right", 0, 1), f": node 0: right 1 {SPLIT_RIGHT}"),
        (node_set("right", 2, 5), f": node 2: right 5 {SPLIT_RIGHT}"),
        (node_set("threshold", 0, None), ": node 0: threshold null is not finite at a split, null at a leaf"),
        (node_set("threshold", 2, math.inf), ": node 2: threshold inf is not finite at a split, null at a leaf"),
        (node_set("value", 0, 0.5), ": node 0: value 0.5 is not null at a split, in [0, 1] at a leaf"),
        (node_set("left", 3, 4), ": node 3: left 4 is not the next node at a split, the node at a leaf"),
        (node_set("right", 1, 2), f": node 1: right 2 {SPLIT_RIGHT}"),
        (node_set("threshold", 4, 0.5), ": node 4: threshold 0.5 is not finite at a split, null at a leaf"),
        (node_set("value", 3, 1.5), ": node 3: value 1.5 is not null at a split, in [0, 1] at a leaf"),
        (node_set("value", 1, None), ": node 1: value null is not null at a split, in [0, 1] at a leaf"),
        (node_set("value", 4, math.nan), ": node 4: value null is not null at a split, in [0, 1] at a leaf"),
        (node_set("count", 4, 0), ": node 4: count 0 is below 1"),
        (node_set("right", 0, 3), ": node 2: parents 0 is not 1: every node but the root has one parent"),
        (lambda t: TWO_PARENTS, ": node 3: parents 2 is not 1: every node but the root has one parent"),
    ], ids=["not-an-object", "missing-array", "unknown-array", "empty", "ragged", "not-a-list", "fractional-int",
            "bool-int", "text-float", "bool-float", "int-overflow", "feature-high", "feature-low", "split-left",
            "split-right-back", "split-right-past-end", "split-null-threshold", "split-inf-threshold",
            "split-value", "leaf-left", "leaf-right", "leaf-threshold", "leaf-value-high", "leaf-value-null",
            "leaf-value-nan", "count", "orphan", "two-parents"])
    def test_damaged_tree_exits_2_naming_file_forest_tree_and_node(self, tmp_path, capsys, damage, message):
        doc = json.loads(json.dumps(V2_DOC))
        forest = json.loads(json.dumps(doc["forests"][0]))
        forest["params"]["n_trees"], forest["trees"] = 2, forest["trees"] * 2
        forest["trees"][1] = damage(forest["trees"][1])
        doc["concept_names"].append("d")
        doc["forests"].append(forest)
        code, err, path = label_exit(tmp_path, capsys, doc)
        assert code == 2 and f"{path}: forests[1].trees[1]{message}" in err

    def test_a_v1_file_exits_2_naming_its_version(self, tmp_path, capsys):
        v1 = {**V2_DOC, "format_version": 1}
        v1["forests"] = [{**V2_DOC["forests"][0], "trees": [{"positive_fraction": 0.5, "sample_count": 1}]}]
        code, err, path = label_exit(tmp_path, capsys, v1)
        assert code == 2 and f"{path}: unsupported concept_teachers format_version 1" in err

    @pytest.mark.parametrize("n_trees, trees", [(1, []), (2, "one")])
    def test_tree_count_must_match_n_trees(self, tmp_path, n_trees, trees):
        doc = json.loads(json.dumps(V2_DOC))
        forest = doc["forests"][0]
        forest["params"]["n_trees"] = n_trees
        forest["trees"] = forest["trees"] if trees == "one" else trees
        path = tmp_path / "teachers.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"forests\[0\]\.trees"):
            teachers.load_teachers(path)


B = teachers._BLOCK


@st.composite
def teacher_sets(draw):
    """TeacherSets on two features whose forests differ in tree count and depth: fitted forests with
    single-leaf trees mixed in, all-leaf forests and the hand-written v2 forest."""
    forests = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fit", "leaves", "v2"]))
        if kind == "v2":
            forests.append(teachers.teachers_from_doc(V2_DOC).forests[0])
            continue
        n_trees = draw(st.integers(1, 12))
        leaves = [leaf_tree(draw(st.floats(0.0, 1.0)), 1) for _ in range(n_trees)]
        if kind == "fit":
            n = draw(st.integers(4, 30))
            x = np.array(draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n)), dtype=float).reshape(n, 2)
            y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
            params = teachers.ForestParams(n_trees=n_trees, max_depth=draw(st.integers(1, 6)), min_leaf=1,
                                           seed=draw(st.integers(0, 2**32 - 1)))
            fitted = teachers.fit_forest(x, y, params).trees
            leaves = [draw(st.sampled_from([f, v])) for f, v in zip(fitted, leaves)]
        forests.append(teachers.Forest(leaves, teachers.ForestParams(n_trees=n_trees), 2))
    return teachers.TeacherSet(forests, tuple(f"c{i}" for i in range(len(forests))), ("f_0", "f_1"))


class TestForestWalk:
    @settings(max_examples=40, deadline=None)
    @given(teacher_sets(), st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]), st.integers(0, 2**32 - 1))
    def test_teach_labels_is_each_forests_per_row_walk_byte_for_byte(self, tset, n, seed):
        x = np.random.default_rng(seed).integers(-4, 8, size=(n, 2)) / 2.0  # hits the thresholds exactly
        dataset = data.Dataset(ids=np.array([f"r{i}" for i in range(n)]), feature_names=("f_0", "f_1"), x=x)
        expected = np.column_stack([ref_predict([tree_doc(t) for t in f.trees], x) for f in tset.forests])
        got = teachers.teach_labels(tset, dataset)
        assert got.shape == expected.shape == (n, len(tset.forests))
        assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def golden():
    ds = data.generate_synthetic(data.GeneratorConfig(n_instances=1200, seed=10))
    return ds.take(np.arange(800)), ds.take(np.arange(800, 1200))


class TestTeacherSet:

    def test_teach_labels_shapes_and_range(self, golden):
        g_train, corpus = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=10, seed=2))
        soft = teachers.teach_labels(tset, corpus)
        assert soft.shape == (corpus.n, corpus.k)
        assert np.all(soft >= 0) and np.all(soft <= 1)

    def test_constant_teachers_emit_prevalence_rows(self, golden):
        g_train, corpus = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=3, seed=3))
        prevalence = g_train.golden.mean(axis=0)
        for i, forest in enumerate(tset.forests):
            tset.forests[i] = teachers.Forest(
                [leaf_tree(float(prevalence[i]), g_train.n)],
                forest.params,
                forest.n_features,
            )
        soft = teachers.teach_labels(tset, corpus)
        np.testing.assert_allclose(soft, np.tile(prevalence, (corpus.n, 1)), atol=1e-15)

    def test_training_set_accuracy_beats_majority_rate(self, golden):
        g_train, _ = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=20, seed=4))
        soft = teachers.teach_labels(tset, g_train)
        hard = (soft >= 0.5).astype(int)
        for i in range(g_train.k):
            accuracy = (hard[:, i] == g_train.golden[:, i]).mean()
            majority = max(g_train.golden[:, i].mean(), 1 - g_train.golden[:, i].mean())
            assert accuracy >= majority

    def test_schema_mismatch_rejected(self, golden):
        g_train, corpus = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=2, seed=5))
        stripped = data.Dataset(
            ids=corpus.ids, feature_names=corpus.feature_names, x=corpus.x,
            concept_names=corpus.concept_names, golden=corpus.golden,
        )
        with pytest.raises(DataError, match="schema does not match the teachers: 6 columns missing, first 't_0'"):
            teachers.teach_labels(tset, stripped)

    @pytest.mark.parametrize("case, detail", [
        ("reordered", "column 0 is 'f_1', the teachers expect 'f_0'"),
        ("extra", "1 extra columns, first 't_5'"),
    ])
    def test_schema_mismatch_names_the_first_difference(self, golden, case, detail):
        g_train, corpus = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=1, seed=5))
        names = corpus.feature_names
        if case == "reordered":
            corpus = replace(corpus, feature_names=(names[1], names[0], *names[2:]))
        else:
            tset = replace(tset, feature_names=tset.feature_names[:-1])
        with pytest.raises(DataError, match=re.escape(f"feature schema does not match the teachers: {detail}")):
            teachers.teach_labels(tset, corpus)

    def test_json_round_trip_preserves_predictions(self, golden, tmp_path):
        g_train, corpus = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=6, seed=6))
        path = tmp_path / "teachers.json"
        teachers.save_teachers(tset, path)
        restored = teachers.load_teachers(path)
        np.testing.assert_array_equal(teachers.teach_labels(restored, corpus), teachers.teach_labels(tset, corpus))

    def test_evaluate_teachers_rejects_reordered_concepts(self, golden):
        g_train, g_valid = golden
        tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=2, seed=5))
        names = g_valid.concept_names
        swapped = replace(g_valid, concept_names=names[::-1], golden=g_valid.golden[:, ::-1])
        with pytest.raises(DataError, match=re.escape(f"golden set concepts {names[::-1]} do not match {names}")):
            teachers.evaluate_teachers(tset, swapped)

    def test_tune_teachers_returns_best_of_trials(self, golden):
        g_train, g_valid = golden
        tset, params, best_auc = teachers.tune_teachers(
            g_train.take(np.arange(300)), g_valid.take(np.arange(200)), n_trials=3, seed=0
        )
        _, recomputed = teachers.evaluate_teachers(tset, g_valid.take(np.arange(200)))
        assert best_auc == recomputed


class TestCpuCount:
    """The forests fit on as many processes as the CPUs this process may use, and the count changes nothing."""

    @staticmethod
    def set_cpus(monkeypatch, n):
        monkeypatch.setattr(pool, "usable_cpus", lambda: n)

    def test_teachers_file_is_byte_identical(self, golden, monkeypatch, tmp_path):
        g_train, _ = golden
        for cpus in (1, 2):
            self.set_cpus(monkeypatch, cpus)
            tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=4, seed=8))
            teachers.save_teachers(tset, tmp_path / f"teachers_{cpus}.json")
        assert (tmp_path / "teachers_1.json").read_bytes() == (tmp_path / "teachers_2.json").read_bytes()

    def test_tuning_picks_the_same_params_and_auc(self, golden, monkeypatch):
        g_train, g_valid = golden
        tuned = []
        for cpus in (1, 2):
            self.set_cpus(monkeypatch, cpus)
            _, params, auc = teachers.tune_teachers(g_train.take(np.arange(150)), g_valid.take(np.arange(200)),
                                                    n_trials=2, seed=1)
            tuned.append((params, auc))
        assert tuned[0] == tuned[1]

    def test_one_cpu_or_one_concept_starts_no_process(self, golden, monkeypatch):
        g_train, _ = golden
        monkeypatch.setattr(pool, "ProcessPoolExecutor", lambda *args, **kwargs: pytest.fail("a pool started"))
        params = teachers.ForestParams(n_trees=2, seed=8)
        self.set_cpus(monkeypatch, 1)
        assert len(teachers.fit_teachers(g_train, params).forests) == g_train.k
        self.set_cpus(monkeypatch, 2)
        one = replace(g_train, concept_names=g_train.concept_names[:1], golden=g_train.golden[:, :1])
        assert len(teachers.fit_teachers(one, params).forests) == 1

    def test_a_process_with_another_thread_fits_serially(self, golden, monkeypatch, tmp_path):
        g_train, _ = golden
        params = teachers.ForestParams(n_trees=2, seed=8)
        teachers.save_teachers(teachers.fit_teachers(g_train, params), tmp_path / "unthreaded.json")
        self.set_cpus(monkeypatch, 2)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", lambda *args, **kwargs: pytest.fail("a pool started"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            teachers.save_teachers(teachers.fit_teachers(g_train, params), tmp_path / "threaded.json")
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert (tmp_path / "threaded.json").read_bytes() == (tmp_path / "unthreaded.json").read_bytes()

    def test_a_worker_error_reaches_the_caller_and_teach_exits_2(self, golden, monkeypatch, tmp_path, capsys):
        g_train, _ = golden
        self.set_cpus(monkeypatch, 2)
        message = f"need at least 1600 rows, got {g_train.n}"
        with pytest.raises(DataError, match=f"^{message}$"):
            teachers.fit_teachers(g_train, teachers.ForestParams(min_leaf=800))
        data.save_csv(g_train, tmp_path / "golden_train.csv")
        (tmp_path / "forest.json").write_text(json.dumps({"min_leaf": 800}))
        assert cli.main(["teach", "--golden-train", str(tmp_path / "golden_train.csv"), "--config",
                         str(tmp_path / "forest.json"), "--out", str(tmp_path / "t")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
