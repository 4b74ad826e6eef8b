"""Dataset container, CSV round-tripping, splits, and a synthetic
fraud-like generator with known latent concepts.

The CSV layout is fixed: ``id`` first, then features ``f_*``, the
optional binary task label ``y``, hard concept labels ``c_<name>``, soft
concept labels ``c_<name>_soft``, black-box scores ``bb_score`` and
teacher-only enrichment columns ``t_*``. Floats are written with their
shortest round-trip representation, so save -> load -> save is
byte-identical.

Files are written and read in blocks of ``ROW_BLOCK`` rows. The csv
module handles the header; rows are joined and split on ``,`` as plain
text, with an id quoted exactly as ``csv.writer`` would quote it. From
the first block holding a ``"`` on, ``csv.reader`` reads the rows. LF,
CR and CRLF line endings are all read.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import MISSING, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .nn import derive_seed
from .schema import Checked, bounded, each, ge, nonempty, within

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
        return replace(self, **{name: a[idx] for name, a in vars(self).items() if isinstance(a, np.ndarray)})

    def exclude_ids(self, ids) -> "Dataset":
        return self.take(np.flatnonzero(~np.isin(self.ids, [str(i) for i in ids])))

    def with_soft(self, soft, concept_names=None) -> "Dataset":
        """``soft`` attached under ``concept_names``, which must match any hard concept columns already here;
        soft columns are replaced along with their names."""
        names = self.concept_names if concept_names is None else tuple(concept_names)
        if self.golden is not None:
            check_concepts(self, names, "dataset")
        return replace(self, soft=np.asarray(soft, dtype=np.float64), concept_names=names)

    def with_scores(self, scores) -> "Dataset":
        return replace(self, bb_scores=np.asarray(scores, dtype=np.float64))


def check_concepts(dataset: Dataset, names: tuple[str, ...], what: str) -> None:
    """A dataset with concept columns must name ``names`` in their order; one without passes."""
    if dataset.k and dataset.concept_names != names:
        raise DataError(f"{what} concepts {dataset.concept_names} do not match {names}")


def concept_prevalences(dataset: Dataset) -> dict[str, float]:
    if dataset.golden is None:
        raise DataError("dataset has no hard concept labels")
    return {
        name: float(dataset.golden[:, i].mean())
        for i, name in enumerate(dataset.concept_names)
    }


# -- synthetic generator ------------------------------------------------------

@dataclass(frozen=True)
class ConceptRule(Checked):
    """Linear threshold rule: concept fires when the weighted feature sum
    exceeds a quantile calibrated to hit the target prevalence."""

    name: str
    feature_indices: tuple[int, ...] = bounded(MISSING, nonempty, each(ge(0)))
    weights: tuple[float, ...]
    prevalence: float = bounded(MISSING, within(0, 1, lo_open=True, hi_open=True))


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
class GeneratorConfig(Checked):
    n_instances: int = bounded(50_000, ge(1))
    d_features: int = bounded(16, ge(1))
    concepts: tuple[ConceptRule, ...] = bounded(_DEFAULT_CONCEPTS, nonempty)
    fraud_weights: tuple[float, ...] = (-1.4, 1.5, 1.1, 1.5, 1.2, 0.9)
    fraud_intercept: float = -2.3
    noise_level: float = bounded(0.6, ge(0))
    teacher_feature_count: int = bounded(6, ge(0))
    teacher_flip_p: float = bounded(0.1, within(0, 0.5, hi_open=True))
    seed: int = bounded(0, ge(0))

    def __post_init__(self):
        super().__post_init__()
        if len(self.fraud_weights) != len(self.concepts):
            raise DataError("fraud_weights must have one entry per concept")
        for rule in self.concepts:
            if len(rule.feature_indices) != len(rule.weights):
                raise DataError(f"rule {rule.name!r}: indices and weights differ in length")
            if max(rule.feature_indices) >= self.d_features:
                raise DataError(f"rule {rule.name!r}: feature_indices must be < d_features ({self.d_features})")


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
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # the characters that make csv.writer quote a field
_LINE_BREAK = re.compile("\r\n|\r|\n")  # what ends a line when a file is read with newline=""


def _id_cell(i: str) -> str:
    """``i`` quoted as ``csv.writer`` quotes a field (QUOTE_MINIMAL): in quotes, inner quotes doubled."""
    return '"' + i.replace('"', '""') + '"' if _NEEDS_QUOTES.search(i) else i


def save_csv(dataset: Dataset, path) -> None:
    """Floats as ``repr``, 0/1 labels as digits, formatted a column at a time and joined per row block."""
    names = dataset.concept_names
    headers = {
        "x": dataset.feature_names, "y": ("y",), "golden": [f"c_{n}" for n in names],
        "soft": [f"c_{n}_soft" for n in names], "bb_scores": ("bb_score",), "teacher_x": dataset.teacher_feature_names,
    }
    blocks = {field: cols for field, cols in headers.items() if getattr(dataset, field) is not None}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["id", *itertools.chain(*blocks.values())]
        w.writerow(header)
        for a in range(0, dataset.n, ROW_BLOCK):
            rows = slice(a, a + ROW_BLOCK)
            ids = list(map(str, dataset.ids[rows].tolist()))
            if len(header) == 1:  # csv.writer writes a lone empty field as '""'
                w.writerows(zip(ids))
                continue
            columns = [map(_id_cell, ids)]
            for field in blocks:
                kind = _CELL_TYPES[field]
                part = np.asarray(getattr(dataset, field)[rows], kind)
                columns += [map(repr if kind is np.float64 else str, col) for col in part.reshape(len(part), -1).T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _locate_error(path, header, rows, line_no: int, fields) -> None:
    """The row scan that names the line, and the column, of a block's first bad row or cell.

    ``line_no`` is the file line the block starts on; a record spans one more line per line break in its cells.
    """
    for row in rows:
        where = f"{path}: line {line_no}"
        if len(row) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
        for j, kind in ((j, kind) for _, idx, kind in fields for j in idx):
            cell, column = row[j], header[j]
            if kind is np.int64 and cell not in _BINARY:
                raise DataError(f"{where}: expected 0/1 in column {column!r}, got {cell!r}")
            try:
                finite = kind is np.int64 or np.isfinite(float(cell))
            except ValueError:
                raise DataError(f"{where}: non-numeric value {cell!r} in column {column!r}") from None
            if not finite:
                raise DataError(f"{where}: non-finite value {cell!r} in column {column!r}")
        line_no += 1 + sum(len(_LINE_BREAK.findall(cell)) for cell in row)


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
        try:
            header = next(csv.reader(fh))
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
        line_no, reader = 2, None  # reader: the csv module's, over the rest of the file from the first '"' on
        while True:
            if reader is None:
                lines = list(itertools.islice(fh, ROW_BLOCK))
                # in an id-only file, split would read a blank line as an empty id
                if len(header) == 1 or any('"' in line for line in lines):
                    reader = csv.reader(itertools.chain(lines, fh))
                    reader_start = line_no  # the file line of the reader's first line
            if reader is None:
                rows = [line.rstrip("\r\n").split(",") for line in lines]
            else:
                rows = list(itertools.islice(reader, ROW_BLOCK))
            if not rows:
                break
            try:
                ids += _read_block(rows, len(header), fields, parts)
            except (ValueError, KeyError):
                _locate_error(path, header, csv.reader(lines) if reader is None else rows, line_no, fields)
                raise  # the scan found nothing the cast rejected
            line_no = line_no + len(rows) if reader is None else reader_start + reader.line_num
            del rows  # one block's cells alive at a time, not two

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


def carve(full: Dataset, golden, fractions, mode: str = SEQUENTIAL, seed: int = 0):
    """``(golden subsets, (train, valid, test))``: :func:`golden_subset` of the three ``golden``
    sizes (``None`` when all are 0), then :func:`split` of the rows they leave by ``fractions``."""
    subsets, corpus = None, full
    if any(golden):
        subsets = golden_subset(full, *golden, seed=seed)
        corpus = full.exclude_ids(np.concatenate([s.ids for s in subsets]))
    return subsets, split(corpus, *fractions, mode=mode, seed=seed)
