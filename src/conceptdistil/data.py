"""Dataset container, CSV round-tripping, splits, and a synthetic
fraud-like generator with known latent concepts.

The CSV layout is fixed: ``id`` first, then features ``f_*``, the
optional binary task label ``y``, hard concept labels ``c_<name>``, soft
concept labels ``c_<name>_soft``, black-box scores ``bb_score`` and
teacher-only enrichment columns ``t_*``. Floats are written with their
shortest round-trip representation, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .nn import derive_seed

SEQUENTIAL = "sequential"
RANDOM = "random"

GOLDEN_TRAIN_DEFAULT = 1934
GOLDEN_VALID_DEFAULT = 203
GOLDEN_TEST_DEFAULT = 506


@dataclass(frozen=True)
class Dataset:
    ids: np.ndarray  # unicode, unique
    feature_names: tuple[str, ...]
    x: np.ndarray  # (n, d) float64
    y: np.ndarray | None = None  # (n,) int 0/1 task labels
    concept_names: tuple[str, ...] = ()
    golden: np.ndarray | None = None  # (n, K) int 0/1 expert labels
    soft: np.ndarray | None = None  # (n, K) float in [0, 1]
    bb_scores: np.ndarray | None = None  # (n,) float in [0, 1]
    teacher_feature_names: tuple[str, ...] = ()
    teacher_x: np.ndarray | None = None  # (n, t) enrichment, never fed to surrogates

    def __post_init__(self):
        n = self.ids.shape[0]
        if len(np.unique(self.ids)) != n:
            raise DataError("instance ids must be unique")
        if self.x.shape != (n, len(self.feature_names)):
            raise DataError("feature matrix shape does not match ids/feature_names")
        if not np.isfinite(self.x).all():
            raise DataError("features must be finite")
        k = len(self.concept_names)
        for name, block, width in (
            ("y", self.y, 1),
            ("golden", self.golden, k),
            ("soft", self.soft, k),
            ("bb_scores", self.bb_scores, 1),
            ("teacher_x", self.teacher_x, len(self.teacher_feature_names)),
        ):
            if block is None:
                continue
            expected = (n,) if name in ("y", "bb_scores") else (n, width)
            if block.shape != expected:
                raise DataError(f"{name} shape {block.shape} does not match {expected}")
        for name, block in (("soft", self.soft), ("bb_scores", self.bb_scores), ("teacher_x", self.teacher_x)):
            if block is not None and not np.isfinite(block).all():  # NaN slips through range checks
                raise DataError(f"{name} must be finite")
        if (self.golden is not None or self.soft is not None) and k == 0:
            raise DataError("concept labels present but concept_names is empty")
        if self.y is not None and not np.isin(self.y, (0, 1)).all():
            raise DataError("y must be binary 0/1")
        if self.golden is not None and not np.isin(self.golden, (0, 1)).all():
            raise DataError("golden concept labels must be binary 0/1")
        for block, what in ((self.soft, "soft concept labels"), (self.bb_scores, "black-box scores")):
            if block is not None and block.size and (block.min() < 0 or block.max() > 1):  # no rows, no range
                raise DataError(f"{what} must lie in [0, 1]")
        if (self.teacher_x is None) != (len(self.teacher_feature_names) == 0):
            raise DataError("teacher columns and names must be present together")

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return len(self.concept_names)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        pick = lambda a: None if a is None else a[idx]
        return Dataset(
            ids=self.ids[idx],
            feature_names=self.feature_names,
            x=self.x[idx],
            y=pick(self.y),
            concept_names=self.concept_names,
            golden=pick(self.golden),
            soft=pick(self.soft),
            bb_scores=pick(self.bb_scores),
            teacher_feature_names=self.teacher_feature_names,
            teacher_x=pick(self.teacher_x),
        )

    def exclude_ids(self, ids) -> "Dataset":
        drop = set(map(str, ids))
        keep = np.array([i for i in range(self.n) if str(self.ids[i]) not in drop])
        return self.take(keep)

    def with_soft(self, soft, concept_names=None) -> "Dataset":
        names = self.concept_names if concept_names is None else tuple(concept_names)
        return replace(self, soft=np.asarray(soft, dtype=np.float64), concept_names=names)

    def with_scores(self, scores) -> "Dataset":
        return replace(self, bb_scores=np.asarray(scores, dtype=np.float64))


def concept_prevalences(dataset: Dataset) -> dict[str, float]:
    if dataset.golden is None:
        raise DataError("dataset has no hard concept labels")
    return {
        name: float(dataset.golden[:, i].mean())
        for i, name in enumerate(dataset.concept_names)
    }


# -- synthetic generator ------------------------------------------------------

@dataclass(frozen=True)
class ConceptRule:
    """Linear threshold rule: concept fires when the weighted feature sum
    exceeds a quantile calibrated to hit the target prevalence."""

    name: str
    feature_indices: tuple[int, ...]
    weights: tuple[float, ...]
    prevalence: float


# Default concept vocabulary. The oblique eight-feature rules (overlapping
# subsets, mixed signs) keep small-sample axis-aligned learners away from
# the ceiling, so the weak-supervision pipeline has headroom to improve on
# its teachers; a plain feedforward net still learns them cleanly.
_DEFAULT_CONCEPTS = (
    ConceptRule("good_customer_history", (0, 3, 5, 6, 7, 10, 11, 12),
                (-0.69, -0.9, 0.88, -0.8, -0.57, -0.68, 0.94, -0.99), 0.2445),
    ConceptRule("high_speed_ordering", (1, 3, 4, 5, 10, 11, 12, 13),
                (0.7, -0.5, -0.73, 0.54, -0.52, -0.91, 0.6, 0.91), 0.1133),
    ConceptRule("suspicious_delivery", (1, 2, 6, 8, 9, 12, 13, 15),
                (-0.72, -0.54, -0.74, -0.94, -0.88, 0.74, 0.96, 0.74), 0.2286),
    ConceptRule("suspicious_device", (1, 3, 7, 8, 10, 11, 12, 13),
                (0.72, 0.98, -0.97, 0.88, 0.89, 0.84, 0.88, -0.65), 0.1173),
    ConceptRule("suspicious_email", (1, 2, 3, 8, 9, 11, 12, 15),
                (-0.77, 0.93, -0.92, -0.97, 0.9, 0.52, 0.64, -0.65), 0.2107),
    ConceptRule("suspicious_items", (0, 2, 3, 5, 6, 9, 13, 14),
                (-0.53, 0.68, -0.73, 0.66, -0.55, 0.99, -0.54, -0.87), 0.1849),
)


@dataclass(frozen=True)
class GeneratorConfig:
    n_instances: int = 50_000
    d_features: int = 16
    concepts: tuple[ConceptRule, ...] = _DEFAULT_CONCEPTS
    fraud_weights: tuple[float, ...] = (-1.4, 1.5, 1.1, 1.5, 1.2, 0.9)
    fraud_intercept: float = -2.3
    noise_level: float = 0.6
    teacher_feature_count: int = 6
    teacher_flip_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_instances < 1 or self.d_features < 1:
            raise DataError("n_instances and d_features must be >= 1")
        if len(self.fraud_weights) != len(self.concepts):
            raise DataError("fraud_weights must have one entry per concept")
        for rule in self.concepts:
            if not 0.0 < rule.prevalence < 1.0:
                raise DataError(f"infeasible prevalence {rule.prevalence} for {rule.name!r}")
            if len(rule.feature_indices) != len(rule.weights):
                raise DataError(f"rule {rule.name!r}: indices and weights differ in length")
            idx = rule.feature_indices
            if not idx or min(idx) < 0 or max(idx) >= self.d_features:
                raise DataError(f"rule {rule.name!r}: feature_indices must be non-empty and in [0, d_features)")
            if not all(np.isfinite(rule.weights)):
                raise DataError(f"rule {rule.name!r} has non-finite weights")
        if not all(np.isfinite(self.fraud_weights)) or not np.isfinite(self.fraud_intercept):
            raise DataError("fraud link parameters must be finite")
        if not 0.0 <= self.teacher_flip_p < 0.5:
            raise DataError("teacher_flip_p must be in [0, 0.5)")
        if self.teacher_feature_count < 0:
            raise DataError("teacher_feature_count must be >= 0")
        if not 0.0 <= self.noise_level < np.inf:
            raise DataError(f"noise_level must be finite and >= 0, got {self.noise_level}")


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Draw a dataset with known latent concepts.

    Features are standard normal. Each concept fires when its linear rule
    score exceeds the empirical quantile matching the target prevalence.
    The fraud label thresholds a noisy linear function of the concepts,
    so with ``noise_level`` 0 the label is a deterministic function of
    the concept vector. Teacher-only columns are the concept indicators
    with labels flipped independently at ``teacher_flip_p``.
    """
    rng = np.random.default_rng(config.seed)
    n, d = config.n_instances, config.d_features
    x = rng.standard_normal((n, d))
    k = len(config.concepts)
    concepts = np.empty((n, k), dtype=np.int64)
    for i, rule in enumerate(config.concepts):
        score = x[:, list(rule.feature_indices)] @ np.asarray(rule.weights)
        tau = np.quantile(score, 1.0 - rule.prevalence)
        concepts[:, i] = score > tau
    latent = concepts @ np.asarray(config.fraud_weights) + config.fraud_intercept
    latent = latent + config.noise_level * rng.standard_normal(n)
    y = (latent > 0.0).astype(np.int64)
    t_count = config.teacher_feature_count
    teacher_x = None
    teacher_names: tuple[str, ...] = ()
    if t_count > 0:
        teacher_x = np.empty((n, t_count))
        for j in range(t_count):
            flips = rng.random(n) < config.teacher_flip_p
            teacher_x[:, j] = np.where(flips, 1 - concepts[:, j % k], concepts[:, j % k])
        teacher_names = tuple(f"t_{j}" for j in range(t_count))
    width = max(6, len(str(n - 1)))
    ids = np.array([str(i).zfill(width) for i in range(n)])
    return Dataset(
        ids=ids,
        feature_names=tuple(f"f_{j}" for j in range(d)),
        x=x,
        y=y,
        concept_names=tuple(r.name for r in config.concepts),
        golden=concepts,
        teacher_feature_names=teacher_names,
        teacher_x=teacher_x,
    )


# -- CSV ---------------------------------------------------------------------

ROW_BLOCK = 2048  # rows per CSV block; bounds the per-cell Python objects alive at once
_BINARY = {"0": 0, "1": 1}
_CELL_TYPES = {"x": np.float64, "y": np.int64, "golden": np.int64, "soft": np.float64, "bb_scores": np.float64,
               "teacher_x": np.float64}


def save_csv(dataset: Dataset, path) -> None:
    """Floats as ``repr``, 0/1 labels as digits, formatted a column at a time per row block."""
    names = dataset.concept_names
    headers = {
        "x": dataset.feature_names, "y": ("y",), "golden": [f"c_{n}" for n in names],
        "soft": [f"c_{n}_soft" for n in names], "bb_scores": ("bb_score",), "teacher_x": dataset.teacher_feature_names,
    }
    blocks = {field: cols for field, cols in headers.items() if getattr(dataset, field) is not None}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *itertools.chain(*blocks.values())])
        for a in range(0, dataset.n, ROW_BLOCK):
            rows = slice(a, a + ROW_BLOCK)
            columns = [map(str, dataset.ids[rows].tolist())]
            for field in blocks:
                kind = _CELL_TYPES[field]
                part = np.asarray(getattr(dataset, field)[rows], kind)
                columns += [map(repr if kind is np.float64 else str, col) for col in part.reshape(len(part), -1).T.tolist()]
            w.writerows(zip(*columns))


def _locate_error(path, header, rows, first_line: int, fields) -> None:
    """The row scan that names the line, and the column, of a block's first bad row or cell."""
    for line_no, row in enumerate(rows, start=first_line):
        if len(row) != len(header):
            raise DataError(f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}")
        for j, kind in ((j, kind) for _, idx, kind in fields for j in idx):
            cell, column = row[j], header[j]
            if kind is np.int64 and cell not in _BINARY:
                raise DataError(f"line {line_no}: expected 0/1 in column {column!r}, got {cell!r}")
            try:
                finite = kind is np.int64 or np.isfinite(float(cell))
            except ValueError:
                raise DataError(f"line {line_no}: non-numeric value {cell!r} in column {column!r}") from None
            if not finite:
                raise DataError(f"line {line_no}: non-finite value {cell!r} in column {column!r}")


def _read_block(rows, n_fields: int, fields, parts) -> tuple:
    """Append the block's array of each field to ``parts``; return its ids. ValueError/KeyError on a bad row or cell."""
    if any(len(row) != n_fields for row in rows):
        raise ValueError("ragged row")
    columns, m = list(zip(*rows)), len(rows)
    for (_, idx, kind), part in zip(fields, parts):
        block = np.empty((m, len(idx)), kind)
        for c, j in enumerate(idx):
            block[:, c] = np.fromiter(map(float if kind is np.float64 else _BINARY.__getitem__, columns[j]), kind, m)
        if kind is np.float64 and not np.isfinite(block).all():
            raise ValueError("non-finite value")
        part.append(block)
    return columns[0]


def load_csv(path) -> Dataset:
    """Read a dataset CSV a row block at a time; errors carry 1-based file line numbers."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != "id":
            raise DataError(f"{path}: first column must be 'id'")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names")
        columns = {name: [] for name in _CELL_TYPES}  # Dataset field -> its column indexes
        for j, name in enumerate(header[1:], start=1):
            if name in ("y", "bb_score"):
                columns["y" if name == "y" else "bb_scores"].append(j)
            elif name.startswith("f_"):
                columns["x"].append(j)
            elif name.startswith("t_"):
                columns["teacher_x"].append(j)
            elif name.startswith("c_"):
                columns["soft" if name.endswith("_soft") else "golden"].append(j)
            else:
                raise DataError(f"{path}: unrecognized column {name!r}")
        golden_names = [header[j][2:] for j in columns["golden"]]
        soft_names = [header[j][2:-5] for j in columns["soft"]]
        if golden_names and soft_names and golden_names != soft_names:
            raise DataError(f"{path}: hard and soft concept columns disagree")
        fields = [(name, idx, _CELL_TYPES[name]) for name, idx in columns.items() if idx or name == "x"]

        ids, parts = [], [[np.empty((0, len(idx)), kind)] for _, idx, kind in fields]
        line_no = 2
        while rows := list(itertools.islice(reader, ROW_BLOCK)):
            try:
                ids += _read_block(rows, len(header), fields, parts)
            except (ValueError, KeyError):
                _locate_error(path, header, rows, line_no, fields)
                raise  # the scan found nothing the cast rejected
            line_no += len(rows)

    ids_arr = np.asarray(ids)
    if len(np.unique(ids_arr)) != len(ids):
        raise DataError(f"{path}: duplicate instance ids")
    squeeze = lambda name, a: a[:, 0] if name in ("y", "bb_scores") else a  # one-column fields are (n,)
    arrays = {name: squeeze(name, np.concatenate(part)) for (name, _, _), part in zip(fields, parts)}
    return Dataset(
        ids=ids_arr,
        feature_names=tuple(header[j] for j in columns["x"]),
        concept_names=tuple(golden_names or soft_names),
        teacher_feature_names=tuple(header[j] for j in columns["teacher_x"]),
        **arrays,
    )


# -- splits -------------------------------------------------------------------

def split(
    dataset: Dataset,
    train_frac: float,
    valid_frac: float,
    test_frac: float,
    mode: str = SEQUENTIAL,
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Exact three-way partition; sequential mode preserves id order."""
    for name, frac in (("train", train_frac), ("valid", valid_frac), ("test", test_frac)):
        if not 0.0 < frac < 1.0:
            raise DataError(f"{name} fraction must be in (0, 1), got {frac}")
    if abs(train_frac + valid_frac + test_frac - 1.0) > 1e-9:
        raise DataError("split fractions must sum to 1")
    if mode not in (SEQUENTIAL, RANDOM):
        raise DataError(f"unknown split mode {mode!r}")
    n = dataset.n
    i1 = int(round(train_frac * n))
    i2 = int(round((train_frac + valid_frac) * n))
    if i1 == 0 or i2 == i1 or i2 == n:
        raise DataError("split produces an empty subset")
    order = np.arange(n) if mode == SEQUENTIAL else np.random.default_rng(seed).permutation(n)
    return dataset.take(order[:i1]), dataset.take(order[i1:i2]), dataset.take(order[i2:])


def golden_subset(
    dataset: Dataset,
    n_train: int = GOLDEN_TRAIN_DEFAULT,
    n_valid: int = GOLDEN_VALID_DEFAULT,
    n_test: int = GOLDEN_TEST_DEFAULT,
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Random disjoint expert-labelled subsets for teachers and evaluation."""
    if dataset.golden is None:
        raise DataError("golden_subset requires hard concept labels")
    total = n_train + n_valid + n_test
    if total > dataset.n:
        raise DataError(f"requested {total} golden rows but only {dataset.n} are available")
    if min(n_train, n_valid, n_test) < 1:
        raise DataError("golden subset sizes must be >= 1")
    perm = np.random.default_rng(derive_seed(seed, 3)).permutation(dataset.n)
    sel_train = np.sort(perm[:n_train])
    sel_valid = np.sort(perm[n_train : n_train + n_valid])
    sel_test = np.sort(perm[n_train + n_valid : total])
    return dataset.take(sel_train), dataset.take(sel_valid), dataset.take(sel_test)
