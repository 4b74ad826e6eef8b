"""Per-concept random-forest teachers.

A small expert-labelled set (features plus enrichment columns that are
never shown to the surrogate) trains one forest per concept; the forests
then emit probabilistic concept labels for the full corpus. Trees are
CART with Gini gain, midpoint thresholds between consecutive distinct
feature values, and a fixed tie-break (lowest feature index, then lowest
threshold), so fitting is row-order invariant given the same rng.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics, schema
from .data import Dataset
from .errors import DataError
from .nn import derive_seed

FORMAT_VERSION = 1

# seed-stream tags
_TREE_RNG = 11
_BOOTSTRAP = 12
_CONCEPT = 21
_TUNE = 31


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (fraction/count)."""

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    positive_fraction: float | None = None
    sample_count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 5
    feature_subsample: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise DataError("min_leaf must be >= 1")
        if self.max_depth < 1:
            raise DataError("max_depth must be >= 1")

    def resolved_subsample(self, d: int) -> int:
        if self.feature_subsample is None:
            return int(np.ceil(np.sqrt(d)))
        return min(self.feature_subsample, d)


def _gini(pos: float, n: float) -> float:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _leaf(y: np.ndarray) -> TreeNode:
    n = y.size
    return TreeNode(positive_fraction=float(y.sum()) / n, sample_count=int(n))


def _best_split(x, y, features, min_leaf):
    """Best (gain, feature, threshold) over candidate midpoints, or None."""
    n = y.size
    pos_total = float(y.sum())
    parent = _gini(pos_total, n)
    best_gain = 0.0
    best = None
    for f in features:
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order]
        boundaries = np.flatnonzero(sv[1:] != sv[:-1]) + 1  # left-side sizes
        boundaries = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
        if boundaries.size == 0:
            continue
        cum_pos = np.cumsum(sy)
        left_n = boundaries.astype(np.float64)
        left_pos = cum_pos[boundaries - 1].astype(np.float64)
        right_n = n - left_n
        right_pos = pos_total - left_pos
        weighted = (left_n * _gini_vec(left_pos, left_n) + right_n * _gini_vec(right_pos, right_n)) / n
        gains = parent - weighted
        j = int(np.argmax(gains))  # first max keeps the lowest threshold on ties
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            i = boundaries[j]
            best = (best_gain, int(f), float((sv[i - 1] + sv[i]) / 2.0))
    return best


def _gini_vec(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def fit_tree(x, y, params: ForestParams, rng: np.random.Generator) -> TreeNode:
    """Grow one CART tree; deterministic given data and rng state."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size == 0 or y.size == 0:
        raise DataError("cannot fit a tree on empty data")
    if x.shape[0] != y.size:
        raise DataError("x and y row counts differ")
    if x.shape[0] < 2 * params.min_leaf:
        raise DataError(f"need at least {2 * params.min_leaf} rows, got {x.shape[0]}")
    k = params.resolved_subsample(x.shape[1])
    return _grow(x, y, 0, params, k, rng)


def _grow(x, y, depth, params, k, rng):
    n = y.size
    pos = y.sum()
    if depth >= params.max_depth or n < 2 * params.min_leaf or pos == 0 or pos == n:
        return _leaf(y)
    features = np.sort(rng.choice(x.shape[1], size=min(k, x.shape[1]), replace=False))
    best = _best_split(x, y, features, params.min_leaf)
    if best is None:
        return _leaf(y)
    _, feature, threshold = best
    mask = x[:, feature] < threshold
    node = TreeNode(feature=feature, threshold=threshold, sample_count=int(n))
    node.left = _grow(x[mask], y[mask], depth + 1, params, k, rng)
    node.right = _grow(x[~mask], y[~mask], depth + 1, params, k, rng)
    return node


def _predict_tree(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.positive_fraction
        else:
            mask = x[idx, nd.feature] < nd.threshold
            stack.append((nd.left, idx[mask]))
            stack.append((nd.right, idx[~mask]))
    return out


@dataclass
class Forest:
    trees: list[TreeNode]
    params: ForestParams
    n_features: int

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DataError(f"expected {self.n_features} feature columns, got shape {x.shape}")
        acc = np.zeros(x.shape[0])
        for tree in self.trees:
            acc += _predict_tree(tree, x)
        return acc / len(self.trees)


def fit_forest(x, y, params: ForestParams) -> Forest:
    """Bootstrap-aggregated trees sharing one parameter set."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(derive_seed(params.seed, _TREE_RNG, t))
        if params.bootstrap:
            boot = np.random.default_rng(derive_seed(params.seed, _BOOTSTRAP, t)).integers(0, n, n)
            trees.append(fit_tree(x[boot], y[boot], params, rng))
        else:
            trees.append(fit_tree(x, y, params, rng))
    return Forest(trees, params, x.shape[1])


@dataclass
class TeacherSet:
    forests: list[Forest]
    concept_names: tuple[str, ...]
    feature_names: tuple[str, ...]  # surrogate features followed by enrichment columns


def _teacher_features(dataset: Dataset) -> tuple[np.ndarray, tuple[str, ...]]:
    names = dataset.feature_names + dataset.teacher_feature_names
    if dataset.teacher_x is None:
        return dataset.x, names
    return np.hstack([dataset.x, dataset.teacher_x]), names


def fit_teachers(golden_train: Dataset, params: ForestParams) -> TeacherSet:
    """One forest per concept, fitted on the expert-labelled rows."""
    if golden_train.golden is None:
        raise DataError("teacher training requires hard concept labels")
    features, names = _teacher_features(golden_train)
    forests = []
    for i in range(golden_train.k):
        per_concept = replace(params, seed=derive_seed(params.seed, _CONCEPT, i))
        forests.append(fit_forest(features, golden_train.golden[:, i], per_concept))
    return TeacherSet(forests, golden_train.concept_names, names)


def teach_labels(teachers: TeacherSet, dataset: Dataset) -> np.ndarray:
    """Probabilistic concept labels for every row of ``dataset``."""
    features, names = _teacher_features(dataset)
    if names != teachers.feature_names:
        raise DataError("dataset feature schema does not match the teachers")
    out = np.empty((dataset.n, len(teachers.forests)))
    for i, forest in enumerate(teachers.forests):
        out[:, i] = forest.predict_proba(features)
    return out


def evaluate_teachers(teachers: TeacherSet, golden_test: Dataset) -> tuple[np.ndarray, float]:
    """Per-concept and mean golden-set AUC of the teachers' soft labels."""
    soft = teach_labels(teachers, golden_test)
    return metrics.mean_concept_auc(soft, golden_test.golden, golden_test.concept_names)


def tune_teachers(
    golden_train: Dataset,
    golden_valid: Dataset,
    n_trials: int,
    seed: int = 0,
) -> tuple[TeacherSet, ForestParams, float]:
    """Random search over forest knobs, scored by mean validation AUC."""
    if n_trials < 1:
        raise DataError("n_trials must be >= 1")
    d = len(golden_train.feature_names) + len(golden_train.teacher_feature_names)
    best = None
    for t in range(n_trials):
        rng = np.random.default_rng(derive_seed(seed, _TUNE, t))
        candidate = ForestParams(
            n_trees=int(rng.integers(50, 201)),
            max_depth=int(rng.integers(3, 13)),
            min_leaf=int(rng.integers(1, 21)),
            feature_subsample=int(rng.integers(2, d + 1)),
            bootstrap=bool(rng.integers(0, 2)),
            seed=derive_seed(seed, _TUNE, t, 1),
        )
        teachers = fit_teachers(golden_train, candidate)
        _, mean_auc = evaluate_teachers(teachers, golden_valid)
        if best is None or mean_auc > best[2]:
            best = (teachers, candidate, mean_auc)
    return best


# -- serialization ------------------------------------------------------------

def _node_to_doc(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"positive_fraction": node.positive_fraction, "sample_count": node.sample_count}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "sample_count": node.sample_count,
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc: dict) -> TreeNode:
    if "feature" not in doc:
        return TreeNode(
            positive_fraction=float(doc["positive_fraction"]),
            sample_count=int(doc["sample_count"]),
        )
    return TreeNode(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        sample_count=int(doc.get("sample_count", 0)),
        left=_node_from_doc(doc["left"]),
        right=_node_from_doc(doc["right"]),
    )


def teachers_to_doc(teachers: TeacherSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "concept_teachers",
        "concept_names": list(teachers.concept_names),
        "feature_names": list(teachers.feature_names),
        "forests": [
            {
                "params": schema.write(f.params),
                "n_features": f.n_features,
                "trees": [_node_to_doc(t) for t in f.trees],
            }
            for f in teachers.forests
        ],
    }


def teachers_from_doc(doc: dict) -> TeacherSet:
    forests = []
    for i, blob in enumerate(doc["forests"]):
        params = schema.read(ForestParams, blob["params"], f"forests[{i}].params")
        forests.append(Forest([_node_from_doc(t) for t in blob["trees"]], params, int(blob["n_features"])))
    return TeacherSet(forests, tuple(doc["concept_names"]), tuple(doc["feature_names"]))


def save_teachers(teachers: TeacherSet, path) -> None:
    Path(path).write_text(json.dumps(teachers_to_doc(teachers), allow_nan=False), encoding="utf-8")


def load_teachers(path) -> TeacherSet:
    return schema.load_file(path, "concept_teachers", teachers_from_doc)
