"""Dataset container, CSV round-tripping, splits, and a synthetic
fraud-like generator with known latent concepts.

A dataset's arrays after ``id`` are declared once, in :data:`BLOCKS`:
their CSV columns in file order, their cell types and the rule every value
must pass. Floats are written with their shortest round-trip
representation, so save -> load -> save is byte-identical.

Files are written and read in blocks of ``ROW_BLOCK`` rows, each one a
work item of :func:`pool.ordered_results`, so a file of several blocks is
formatted or parsed on every usable CPU, with the same bytes and arrays at
any count. The csv module handles the header; rows are joined and split on
``,`` as plain text, with an id quoted exactly as ``csv.writer`` would
quote it. From the first block holding a ``"`` on, ``csv.reader`` reads
the rows. LF, CR and CRLF line endings are all read. On load, the caller
reads one block's lines or records at a time, only to find the block's
first line and its position in the text file; the worker seeks there,
reads the block again and holds its per-cell objects.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
import typing
from dataclasses import MISSING, dataclass, replace
from pathlib import Path

import numpy as np

from . import pool, schema
from .errors import DataError
from .nn import derive_seed
from .schema import Checked, Rule, bounded, each, ge, nonempty, within

SEQUENTIAL = "sequential"
RANDOM = "random"

GOLDEN_TRAIN_DEFAULT = 1934
GOLDEN_VALID_DEFAULT = 203
GOLDEN_TEST_DEFAULT = 506

# a cell type: the array's dtype, how save_csv writes a value, and how load_csv reads a cell (ValueError or KeyError)
_REAL = (np.float64, repr, float)
_BIT = (np.int64, str, {"0": 0, "1": 1}.__getitem__)


class Block(typing.NamedTuple):
    """One of a :class:`Dataset`'s arrays after ``ids``, as a CSV file holds it."""

    field: str  # the Dataset field
    names: str | None  # the Dataset field naming its columns, one column each; None: one column, a 1-D array
    column: str  # the pattern a column name fully matches; in a per-name block, its group is the name
    dtype: type  # with write and parse, a cell type (_REAL or _BIT)
    write: typing.Callable
    parse: typing.Callable
    rule: Rule  # what every value must be

    def columns(self, dataset) -> list[str]:
        if self.names is None:
            return [self.column]
        head, tail = re.split(r"\(.*\)", self.column)  # the text around the group
        return [head + name + tail for name in getattr(dataset, self.names)]

    def check(self, a: np.ndarray) -> np.ndarray:
        if not self.rule.test(a):
            raise DataError(f"{self.field} must be {self.rule.text}")
        return a


_FINITE = Rule("finite", lambda a: np.isfinite(a).all())
_BINARY = Rule("0/1", lambda a: ((a == 0) | (a == 1)).all())
_UNIT = Rule("finite in [0, 1]", lambda a: ((0 <= a) & (a <= 1)).all())  # NaN fails both comparisons

# In file order. A column name both ``golden`` and ``soft`` match, such as ``c_a_soft``, is soft's: the later block's.
# A Dataset's names are held to that reading (_check_names), so every dataset reads back as it was saved.
BLOCKS = (
    Block("x", "feature_names", "(f_.*)", *_REAL, _FINITE),
    Block("y", None, "y", *_BIT, _BINARY),
    Block("golden", "concept_names", "c_(.*)", *_BIT, _BINARY),
    Block("soft", "concept_names", "c_(.*)_soft", *_REAL, _UNIT),
    Block("bb_scores", None, "bb_score", *_REAL, _UNIT),
    Block("teacher_x", "teacher_feature_names", "(t_.*)", *_REAL, _FINITE),
)


def _block_of(column: str) -> tuple[Block, str | None] | None:
    """The block a CSV column is read into and the name the column gives (None in a one-column block), or
    None when no block's pattern matches it."""
    for block in reversed(BLOCKS):  # a column two blocks match is the later one's
        if m := re.fullmatch(block.column, column, re.DOTALL):
            return block, m[1] if block.names else None
    return None


def _check_names(block: Block, names: tuple[str, ...], columns: list[str]) -> None:
    """Each of ``block``'s ``names`` must come back from its column to this block, under itself, and once."""
    if len(set(names)) != len(names):
        duplicate = next(a for a, b in itertools.pairwise(sorted(names)) if a == b)
        raise DataError(f"{block.names} name {duplicate!r} twice")
    for name, column in zip(names, columns):
        if _block_of(column) != (block, name):
            raise DataError(f"{block.names} entry {name!r}: its column {column!r} does not read back as "
                            f"{block.field} {name!r}")


@dataclass(frozen=True)
class Dataset:
    """Rows under unique ``ids``, with the arrays :data:`BLOCKS` declares; ``x`` is the one required."""

    ids: np.ndarray  # unicode
    feature_names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray | None = None
    concept_names: tuple[str, ...] = ()
    golden: np.ndarray | None = None  # expert concept labels
    soft: np.ndarray | None = None  # teacher concept labels
    bb_scores: np.ndarray | None = None
    teacher_feature_names: tuple[str, ...] = ()
    teacher_x: np.ndarray | None = None  # enrichment, never fed to surrogates

    def __post_init__(self):
        ids, n = self.ids.tolist(), self.ids.shape[0]
        if len(set(ids)) != n:
            duplicate = next(a for a, b in itertools.pairwise(sorted(ids)) if a == b)
            raise DataError(f"instance ids must be unique: duplicate id {duplicate!r}")
        for block in BLOCKS:
            a = getattr(self, block.field)
            if a is None:
                continue
            expected = (n,) if block.names is None else (n, len(getattr(self, block.names)))
            if a.shape != expected:
                raise DataError(f"{block.field} shape {a.shape} does not match {expected}")
            block.check(a)
            if block.names is not None:
                _check_names(block, getattr(self, block.names), block.columns(self))
        if (self.golden is not None or self.soft is not None) and self.k == 0:
            raise DataError("concept labels present but concept_names is empty")
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

ROW_BLOCK = 2048  # rows per CSV block: a pool work item; bounds the lines the caller and the cells a worker hold
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # the characters that make csv.writer quote a field
_LINE_BREAK = re.compile("\r\n|\r|\n")  # what ends a line when a file is read with newline=""


def _id_cell(i: str) -> str:
    """``i`` quoted as ``csv.writer`` quotes a field (QUOTE_MINIMAL): in quotes, inner quotes doubled."""
    return '"' + i.replace('"', '""') + '"' if _NEEDS_QUOTES.search(i) else i


def _format_block(shared, rows: slice) -> str:
    """``rows`` of the dataset as CSV text, formatted a column at a time, each row ended by CRLF."""
    dataset, blocks, id_only = shared
    ids = list(map(str, dataset.ids[rows].tolist()))
    if id_only:  # csv.writer writes a lone empty field as '""'
        out = io.StringIO()
        csv.writer(out).writerows(zip(ids))
        return out.getvalue()
    columns = [map(_id_cell, ids)]
    for b in blocks:
        part = np.asarray(getattr(dataset, b.field)[rows], b.dtype)
        columns += [map(b.write, col) for col in part.reshape(len(part), -1).T.tolist()]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def save_csv(dataset: Dataset, path) -> None:
    """Floats as ``repr``, 0/1 labels as digits. The row blocks are formatted through
    :func:`pool.ordered_results`, whose workers have all started before the file is opened, and each block is
    written as it arrives."""
    blocks = [b for b in BLOCKS if getattr(dataset, b.field) is not None]
    header = ["id", *(column for b in blocks for column in b.columns(dataset))]
    rows = [slice(a, a + ROW_BLOCK) for a in range(0, dataset.n, ROW_BLOCK)]
    with (pool.ordered_results(_format_block, (dataset, blocks, len(header) == 1), rows) as texts,
          open(path, "w", newline="", encoding="utf-8") as fh):
        csv.writer(fh).writerow(header)
        fh.writelines(texts)


def _locate_error(path, header, rows, line_no: int, fields) -> None:
    """The row scan that names the line, and the column, of a block's first bad row or cell.

    ``line_no`` is the file line the block starts on; a record spans one more line per line break in its cells.
    """
    for row in rows:
        where = f"{path}: line {line_no}"
        if len(row) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
        for block, j in ((block, j) for block, idx in fields for j in idx):
            try:
                block.check(np.array([block.parse(row[j])], block.dtype))
            except (ValueError, KeyError, DataError):
                raise DataError(f"{where}: column {header[j]!r}: {block.field} must be {block.rule.text}, "
                                f"got {row[j]!r}") from None
        line_no += 1 + sum(len(_LINE_BREAK.findall(cell)) for cell in row)


def _read_block(rows, n_fields: int, fields) -> tuple:
    """The block's ids and its array of each field. Raises on a bad row or cell."""
    if any(len(row) != n_fields for row in rows):
        raise ValueError("ragged row")
    columns, m = list(zip(*rows)), len(rows)
    arrays = []
    for block, idx in fields:
        a = np.empty((m, len(idx)), block.dtype)
        for c, j in enumerate(idx):
            a[:, c] = block.check(np.fromiter(map(block.parse, columns[j]), block.dtype, m))
        arrays.append(a)
    return columns[0], arrays


def _parse_block(shared, item) -> tuple:
    """:func:`_read_block` of one ``(first file line, start, quoted)`` item: the ``ROW_BLOCK`` rows from file
    position ``start`` on, ``csv.reader`` records where ``quoted``, else lines split on ``,``. A bad row or cell
    raises the DataError that names its line and column."""
    path, header, fields = shared
    line_no, start, quoted = item
    with open(path, newline="", encoding="utf-8") as fh:
        fh.seek(start)
        block = list(itertools.islice(csv.reader(fh) if quoted else fh, ROW_BLOCK))  # records, or lines
    rows = block if quoted else [line.rstrip("\r\n").split(",") for line in block]
    try:
        return _read_block(rows, len(header), fields)
    except (ValueError, KeyError, DataError):
        _locate_error(path, header, rows if quoted else csv.reader(block), line_no, fields)
        raise  # the scan found nothing the cast rejected


def _row_blocks(fh, id_only: bool) -> list[tuple]:
    """The :func:`_parse_block` item of each block of ``ROW_BLOCK`` rows left in ``fh``, which stands at the end
    of the header: plain lines, and from the first block holding a ``"`` on, ``csv.reader`` records."""
    items, line_no, start = [], 2, fh.tell()
    quoted = id_only  # in an id-only file, split would read a blank line as an empty id
    lines = iter(fh.readline, "")  # not fh's own iterator, which turns tell() off
    while not quoted and (block := list(itertools.islice(lines, ROW_BLOCK))):
        if not (quoted := '"' in "".join(block)):
            items.append((line_no, start, False))
            line_no, start = line_no + len(block), fh.tell()
    if quoted:
        fh.seek(start)
        reader, first = csv.reader(iter(fh.readline, "")), line_no
        while sum(1 for _ in itertools.islice(reader, ROW_BLOCK)):
            items.append((line_no, start, True))
            line_no, start = first + reader.line_num, fh.tell()
    return items


def load_csv(path) -> Dataset:
    """Read a dataset CSV; errors name the file, and a bad row or cell its 1-based line. The file is read a row
    block at a time for each block's first line and file position, closed, and the blocks parsed through
    :func:`pool.ordered_map`."""
    path = Path(path)
    with schema.open_input(path) as fh:
        try:
            header = next(csv.reader(iter(fh.readline, "")))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != "id":
            raise DataError(f"{path}: first column must be 'id'")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names")
        columns = {b: [] for b in BLOCKS}  # block -> the index and name of each of its columns
        for j, column in enumerate(header[1:], start=1):
            hit = _block_of(column)
            if hit is None:
                raise DataError(f"{path}: unrecognized column {column!r}")
            columns[hit[0]].append((j, hit[1]))
        names = {}  # names field -> the names its first block with columns gives
        for b, found in columns.items():
            got = tuple(name for _, name in found) if b.names else ()
            if got and names.setdefault(b.names, got) != got:
                raise DataError(f"{path}: {b.field} columns {got} do not match {b.names} {names[b.names]}")
        fields = [(b, [j for j, _ in found]) for b, found in columns.items() if found or b.field == "x"]
        items = _row_blocks(fh, len(header) == 1)

    parsed = pool.ordered_map(_parse_block, (path, header, fields), items)
    ids, arrays = [i for block_ids, _ in parsed for i in block_ids], {}
    for f, (b, idx) in enumerate(fields):
        a = np.concatenate([np.empty((0, len(idx)), b.dtype), *(parts[f] for _, parts in parsed)])
        arrays[b.field] = a if b.names else a[:, 0]
    try:
        return Dataset(ids=np.asarray(ids), **({b.names: () for b in BLOCKS if b.names} | names), **arrays)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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
