"""Per-concept random-forest teachers.

A small expert-labelled set (features plus enrichment columns that are
never shown to the surrogate) trains one forest per concept; the forests
then emit probabilistic concept labels for the full corpus. Trees are
CART with Gini gain, midpoint thresholds between consecutive distinct
feature values, and a fixed tie-break (lowest feature index, then lowest
threshold), so fitting is row-order invariant given the same rng.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics, pool, schema
from .data import Dataset
from .errors import DataError
from .nn import derive_seed
from .schema import Checked, bounded, ge

# seed-stream tags
_TREE_RNG = 11
_BOOTSTRAP = 12
_CONCEPT = 21
_TUNE = 31

_BLOCK = 512  # rows per block of the forest walk


@dataclass
class Tree:
    """One CART tree as parallel arrays over its nodes in preorder (root 0).

    A leaf has feature -1, threshold NaN and is its own left and right
    child; ``value`` is a leaf's positive fraction (NaN inside the tree)
    and ``count`` every node's training-row count. ``depth`` is the
    deepest leaf's depth.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    depth: int


@dataclass(frozen=True)
class ForestParams(Checked):
    n_trees: int = bounded(100, ge(1))
    max_depth: int = bounded(8, ge(1))
    min_leaf: int = bounded(5, ge(1))
    feature_subsample: int | None = bounded(None, ge(1))  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = bounded(0, ge(0))

    def resolved_subsample(self, d: int) -> int:
        if self.feature_subsample is None:
            return int(np.ceil(np.sqrt(d)))
        return min(self.feature_subsample, d)


def _gini(pos, n):
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(base, rows, ys, features, min_leaf):
    """Best (feature, threshold) by Gini gain over all candidate midpoints, or None. One stable sort of the
    (k, n) block of candidate value ranks; gains only at boundaries between distinct values with ``min_leaf``
    rows on each side, in feature-major order, whose first maximum is the tie-break (lowest feature, then
    lowest threshold)."""
    n = rows.size
    ranks = base[1].take(features, 0).take(rows, 1)
    order = np.argsort(ranks, axis=1, kind="stable")
    sr = ranks.take(order + np.arange(0, ranks.size, n)[:, None])
    ok = sr[:, 1:] != sr[:, :-1]  # column b holds boundary b + 1: b + 1 rows go left
    ok[:, :min_leaf - 1] = ok[:, n - min_leaf:] = False
    f, b = np.divmod(np.flatnonzero(ok), n - 1)
    pos_total = float(ys.sum())
    left_pos = np.cumsum(ys.take(order), axis=1)[f, b]
    left_n = b + 1.0
    right_n, right_pos = n - left_n, pos_total - left_pos
    weighted = (left_n * _gini(left_pos, left_n) + right_n * _gini(right_pos, right_n)) / n
    gains = _gini(pos_total, n) - weighted
    if f.size == 0 or gains[j := int(np.argmax(gains))] <= 0.0:
        return None
    lo, hi = base[0][features[f[j]]].take(rows.take(order[f[j], b[j]:b[j] + 2]))
    return int(features[f[j]]), float((lo + hi) / 2.0)


def _base(x, y, min_leaf):
    """Checked ``(x.T, dense value ranks of each column, y)``; ``uint16`` ranks make a stable sort a radix sort."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size == 0 or y.size == 0:
        raise DataError("cannot fit a tree on empty data")
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"x must be 2-D with one row per label, got shape {x.shape} for {y.size} labels")
    if x.shape[0] < 2 * min_leaf:
        raise DataError(f"need at least {2 * min_leaf} rows, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise DataError("tree features must be finite")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DataError("tree labels must be 0 or 1")
    xt = np.ascontiguousarray(x.T)
    ranks = [np.unique(col, return_inverse=True)[1] for col in xt]
    return xt, np.array(ranks, dtype=np.uint16 if max(r.max() for r in ranks) < 2**16 else np.int64), y


def _fit(base, rows, params, rng) -> Tree:
    out: list[list] = []  # one [feature, threshold, left, right, value, count, depth] row per node, in preorder
    _grow(base, rows, 0, params, params.resolved_subsample(len(base[0])), rng, out)
    *arrays, depth = (np.array(c) for c in zip(*out))
    return Tree(*arrays, int(depth.max()))


def fit_tree(x, y, params: ForestParams, rng: np.random.Generator) -> Tree:
    """Grow one CART tree; deterministic given data and rng state."""
    base = _base(x, y, params.min_leaf)
    return _fit(base, np.arange(base[2].size), params, rng)


def _grow(base, rows, depth, params, k, rng, out) -> int:
    """Append the subtree over ``base`` rows ``rows`` to ``out`` in preorder and return its root. Every
    node draws its candidate features from the one ``rng``, so another growth order would change the trees."""
    i, n, d = len(out), rows.size, len(base[0])
    ys = base[2].take(rows)
    pos = ys.sum()
    best = None
    if depth < params.max_depth and n >= 2 * params.min_leaf and 0 != pos != n:
        best = _best_split(base, rows, ys, np.sort(rng.choice(d, size=k, replace=False)), params.min_leaf)
    if best is None:
        out.append([-1, np.nan, i, i, float(pos) / n, n, depth])
        return i
    feature, threshold = best
    mask = base[0][feature].take(rows) < threshold
    row = [feature, threshold, i, i, np.nan, n, depth]
    out.append(row)
    row[2] = _grow(base, rows[mask], depth + 1, params, k, rng, out)
    row[3] = _grow(base, rows[~mask], depth + 1, params, k, rng, out)
    return i


@dataclass
class Forest:
    trees: list[Tree]
    params: ForestParams
    n_features: int

    def predict_proba(self, x) -> np.ndarray:
        """Mean leaf fraction over the trees."""
        return _walk([self], x)[:, 0]


def _walk(forests: list[Forest], x) -> np.ndarray:
    """``(rows, forests)`` mean leaf fractions, from one walk of every tree of every forest.

    The trees' node arrays are laid end to end, child indices offset by each tree's start. Each block of
    ``_BLOCK`` rows moves every (tree, row) pair down one level per step, as many steps as the deepest tree
    has levels (a leaf is its own child, so a pair that reaches one stays put); the block bounds the
    ``(trees, rows)`` temporaries. A forest's leaf fractions are then summed tree after tree from zero, as a
    per-row walk sums them (``np.add.reduce`` would sum a one-row block's trees pairwise), and divided by its
    tree count.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    for f in forests:
        if x.ndim != 2 or x.shape[1] != f.n_features:
            raise DataError(f"expected {f.n_features} feature columns, got shape {x.shape}")
    trees = [t for f in forests for t in f.trees]
    if not trees:  # no forest, or none holding a tree: the mean over no trees is 0 / 0
        return np.full((x.shape[0], len(forests)), np.nan)
    starts = np.cumsum([0] + [t.feature.size for t in trees[:-1]], dtype=np.intp)
    # node i goes to child[2 * i + (x < threshold)]
    child = np.concatenate([np.column_stack((t.right, t.left)).ravel() + s for t, s in zip(trees, starts)])
    col = np.maximum(np.concatenate([t.feature for t in trees]), 0)
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    depth = max(t.depth for t in trees)
    bounds = np.cumsum([0] + [len(f.trees) for f in forests])
    out = np.empty((x.shape[0], len(forests)))
    for lo in range(0, x.shape[0], _BLOCK):
        xb = x[lo:lo + _BLOCK]
        xf, base = xb.ravel(), np.arange(xb.shape[0]) * xb.shape[1]
        node = np.repeat(starts[:, None], xb.shape[0], axis=1)
        for _ in range(depth):
            node = child.take(2 * node + (xf.take(base + col.take(node)) < threshold.take(node)))
        leaf = value.take(node)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            acc = np.zeros(xb.shape[0])
            for row in leaf[a:b]:
                acc += row
            out[lo:lo + _BLOCK, i] = acc / (b - a)
    return out


def fit_forest(x, y, params: ForestParams) -> Forest:
    """Bootstrap-aggregated trees sharing one parameter set, grown over row indices into one checked base."""
    base = _base(x, y, params.min_leaf)
    n = base[2].size
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(derive_seed(params.seed, _TREE_RNG, t))
        boot = np.random.default_rng(derive_seed(params.seed, _BOOTSTRAP, t))
        trees.append(_fit(base, boot.integers(0, n, n) if params.bootstrap else np.arange(n), params, rng))
    return Forest(trees, params, base[0].shape[0])


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


def _fit_concept(shared, item: tuple[int, ForestParams]) -> Forest:
    features, golden = shared
    i, params = item
    return fit_forest(features, golden[:, i], params)


def fit_teachers(golden_train: Dataset, params: ForestParams) -> TeacherSet:
    """One forest per concept, fitted on the expert-labelled rows through :func:`pool.ordered_map` with its
    default ``jobs``. Each forest draws only from its own derived seeds, so the forests do not depend on the
    process count."""
    if golden_train.golden is None:
        raise DataError("teacher training requires hard concept labels")
    features, names = _teacher_features(golden_train)
    items = [(i, replace(params, seed=derive_seed(params.seed, _CONCEPT, i))) for i in range(golden_train.k)]
    forests = pool.ordered_map(_fit_concept, (features, golden_train.golden), items)
    return TeacherSet(forests, golden_train.concept_names, names)


def check_features(dataset: Dataset, expected: tuple[str, ...]) -> np.ndarray:
    """The columns the teachers read from ``dataset``, whose names must be ``expected``: the surrogate
    features, then the enrichment columns."""
    features, names = _teacher_features(dataset)
    if names != expected:
        i = next((i for i, (found, want) in enumerate(zip(names, expected)) if found != want), None)
        if i is not None:
            detail = f"column {i} is {names[i]!r}, the teachers expect {expected[i]!r}"
        elif len(names) < len(expected):
            detail = f"{len(expected) - len(names)} columns missing, first {expected[len(names)]!r}"
        else:
            detail = f"{len(names) - len(expected)} extra columns, first {names[len(expected)]!r}"
        raise DataError(f"dataset feature schema does not match the teachers: {detail}")
    return features


def teach_labels(teachers: TeacherSet, dataset: Dataset) -> np.ndarray:
    """Probabilistic concept labels for every row of ``dataset``."""
    return _walk(teachers.forests, check_features(dataset, teachers.feature_names))


def evaluate_teachers(teachers: TeacherSet, golden_test: Dataset) -> tuple[np.ndarray, float]:
    """Per-concept and mean golden-set AUC of the teachers' soft labels."""
    return metrics.golden_auc(teach_labels(teachers, golden_test), golden_test, teachers.concept_names, "golden set")


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
            feature_subsample=int(rng.integers(min(2, d), d + 1)),
            bootstrap=bool(rng.integers(0, 2)),
            seed=derive_seed(seed, _TUNE, t, 1),
        )
        teachers = fit_teachers(golden_train, candidate)
        _, mean_auc = evaluate_teachers(teachers, golden_valid)
        if best is None or mean_auc > best[2]:
            best = (teachers, candidate, mean_auc)
    return best


# -- serialization ------------------------------------------------------------

# a tree's node arrays as teachers.json stores them, one list each, with null for NaN
_ARRAYS = {"feature": int, "threshold": float | None, "left": int, "right": int, "value": float | None, "count": int}


def _read_tree(doc: dict, n_features: int, where: str) -> Tree:
    """The tree :func:`save_teachers` wrote as its node arrays, read by :func:`schema.array` and checked
    array-wide: a split's children are the next node and a later one, a leaf is its own children, and every
    node but the root has one parent, so every walk ends at a leaf. Every error names ``where``, as in
    ``forests[0].trees[3]``, and the node."""
    if sorted(doc) != sorted(_ARRAYS):
        raise DataError(f"{where}: expects an object of the node arrays {list(_ARRAYS)}")
    arrays = {"feature": schema.array(doc, "feature", int, None, where)}  # the others must have its length
    if not (n := arrays["feature"].size):
        raise DataError(f"{where}.feature has length 0: a tree has at least one node")
    arrays.update((key, schema.array(doc, key, kind, n, where)) for key, kind in _ARRAYS.items() if key != "feature")
    feature, threshold, left, right, value, count = arrays.values()
    node, split = np.arange(n), feature >= 0
    children = np.concatenate([left[split], right[split]])
    arrays["parents"] = parents = np.bincount(children[(children >= 0) & (children < n)], minlength=n)
    for key, bad, text in (
        ("feature", (feature < -1) | (feature >= n_features), f"is outside [-1, {n_features})"),
        ("left", left != np.where(split, node + 1, node), "is not the next node at a split, the node at a leaf"),
        ("right", np.where(split, (right <= node + 1) | (right >= n), right != node),
         f"is not past the left child and below {n} at a split, the node at a leaf"),
        ("threshold", np.where(split, ~np.isfinite(threshold), ~np.isnan(threshold)),
         "is not finite at a split, null at a leaf"),
        ("value", np.where(split, ~np.isnan(value), ~((value >= 0) & (value <= 1))),
         "is not null at a split, in [0, 1] at a leaf"),
        ("count", count < 1, "is below 1"),
        ("parents", parents != (node > 0), "is not 1: every node but the root has one parent"),
    ):
        if bad.any():
            v = arrays[key][k := int(np.argmax(bad))].item()
            raise DataError(f"{where}: node {k}: {key} {'null' if v != v else v} {text}")
    depth = [0] * n
    for k, a, b in zip(np.flatnonzero(split).tolist(), left[split].tolist(), right[split].tolist()):
        depth[a] = depth[b] = depth[k] + 1  # one pass in preorder: a parent comes before its children
    return Tree(feature, threshold, left, right, value, count, max(depth))


def teachers_from_doc(doc: dict) -> TeacherSet:
    concept_names, feature_names = (schema.array(doc, key, str, None) for key in ("concept_names", "feature_names"))
    forests = []
    for i, blob in enumerate(schema.array(doc, "forests", dict, len(concept_names))):
        params = schema.read(ForestParams, blob["params"], f"forests[{i}].params")
        n_features = blob["n_features"]
        if type(n_features) is not int or n_features != len(feature_names):  # 22.0 and true are not 22 or 1
            raise DataError(f"forests[{i}].n_features: is {n_features!r}, feature_names has {len(feature_names)}")
        trees = schema.array(blob, "trees", dict, params.n_trees, f"forests[{i}]")
        forests.append(Forest([_read_tree(t, n_features, f"forests[{i}].trees[{j}]") for j, t in enumerate(trees)],
                              params, n_features))
    return TeacherSet(forests, concept_names, feature_names)


def save_teachers(teachers: TeacherSet, path) -> None:
    schema.save_file(path, "concept_teachers", {
        "concept_names": list(teachers.concept_names),
        "feature_names": list(teachers.feature_names),
        "forests": [
            {"params": schema.write(f.params), "n_features": f.n_features,
             "trees": [{k: schema.as_list(getattr(t, k)) for k in _ARRAYS} for t in f.trees]}
            for f in teachers.forests
        ],
    })


def load_teachers(path) -> TeacherSet:
    return schema.load_file(path, "concept_teachers", teachers_from_doc)
