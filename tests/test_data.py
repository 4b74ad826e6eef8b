import csv
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conceptdistil import data, schema
from conceptdistil.errors import DataError


@pytest.fixture(scope="module")
def small_dataset():
    return data.generate_synthetic(data.GeneratorConfig(n_instances=2000, seed=5))


class TestGenerator:
    def test_prevalences_match_targets(self, small_dataset):
        prev = data.concept_prevalences(small_dataset)
        for rule in data.GeneratorConfig().concepts:
            assert prev[rule.name] == pytest.approx(rule.prevalence, abs=2e-3)

    def test_zero_noise_one_hot_weights_make_label_equal_concept(self):
        cfg = data.GeneratorConfig(
            n_instances=500,
            noise_level=0.0,
            fraud_weights=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
            fraud_intercept=-0.5,
            seed=9,
        )
        ds = data.generate_synthetic(cfg)
        np.testing.assert_array_equal(ds.y, ds.golden[:, 2])

    def test_fixed_seed_regenerates_byte_identical_csv(self, tmp_path):
        cfg = data.GeneratorConfig(n_instances=300, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_csv(data.generate_synthetic(cfg), a)
        data.save_csv(data.generate_synthetic(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("noise_level", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_level_rejected(self, noise_level):
        with pytest.raises(DataError, match="noise_level"):
            data.GeneratorConfig(noise_level=noise_level)

    def test_infeasible_prevalence_rejected(self):
        bad = (data.ConceptRule("x", (0, 1, 2), (1.0, 1.0, 1.0), 1.0),)
        with pytest.raises(DataError, match="infeasible prevalence"):
            data.GeneratorConfig(concepts=bad, fraud_weights=(1.0,))

    def test_teacher_columns_track_concepts_with_flip_noise(self, small_dataset):
        ds = small_dataset
        for j in range(ds.teacher_x.shape[1]):
            agreement = (ds.teacher_x[:, j] == ds.golden[:, j % ds.k]).mean()
            assert 0.85 < agreement < 0.95  # flip probability 0.1

    def test_config_json_round_trip(self):
        cfg = data.GeneratorConfig(n_instances=123, seed=9)
        doc = json.loads(json.dumps(schema.write(cfg)))
        assert schema.read(data.GeneratorConfig, doc, "generator config") == cfg


class TestCsvRoundTrip:
    def test_save_load_save_is_byte_identical(self, small_dataset, tmp_path):
        ds = small_dataset.take(np.arange(200))
        rng = np.random.default_rng(0)
        ds = ds.with_soft(rng.random((200, ds.k))).with_scores(rng.random(200))
        first, second = tmp_path / "x.csv", tmp_path / "y.csv"
        data.save_csv(ds, first)
        loaded = data.load_csv(first)
        data.save_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_values_survive_round_trip_exactly(self, tmp_path):
        ds = data.generate_synthetic(data.GeneratorConfig(n_instances=1000, seed=8))
        path = tmp_path / "full.csv"
        data.save_csv(ds, path)
        loaded = data.load_csv(path)
        np.testing.assert_array_equal(loaded.x, ds.x)
        np.testing.assert_array_equal(loaded.y, ds.y)
        np.testing.assert_array_equal(loaded.golden, ds.golden)
        np.testing.assert_array_equal(loaded.teacher_x, ds.teacher_x)
        assert list(loaded.ids) == list(ds.ids)
        assert loaded.concept_names == ds.concept_names

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f_0,f_1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="line 3"):
            data.load_csv(path)

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f_0\n0,1.0\n1,abc\n")
        with pytest.raises(DataError, match="line 3.*f_0"):
            data.load_csv(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f_0\n7,1.0\n7,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            data.load_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f_0,weird\n0,1.0,2.0\n")
        with pytest.raises(DataError, match="weird"):
            data.load_csv(path)

    def test_duplicate_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f_0,y,y\n0,1.0,0,1\n")
        with pytest.raises(DataError, match="duplicate column"):
            data.load_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            data.load_csv(tmp_path / "nope.csv")


def ref_save_csv(dataset, path) -> None:
    """The row-at-a-time writer the columnar one replaced."""
    header = ["id", *dataset.feature_names]
    if dataset.y is not None:
        header.append("y")
    if dataset.golden is not None:
        header += [f"c_{n}" for n in dataset.concept_names]
    if dataset.soft is not None:
        header += [f"c_{n}_soft" for n in dataset.concept_names]
    if dataset.bb_scores is not None:
        header.append("bb_score")
    header += list(dataset.teacher_feature_names)
    fmt = lambda v: repr(float(v))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(dataset.n):
            row = [str(dataset.ids[i]), *(fmt(v) for v in dataset.x[i])]
            if dataset.y is not None:
                row.append(str(int(dataset.y[i])))
            if dataset.golden is not None:
                row += [str(int(v)) for v in dataset.golden[i]]
            if dataset.soft is not None:
                row += [fmt(v) for v in dataset.soft[i]]
            if dataset.bb_scores is not None:
                row.append(fmt(dataset.bb_scores[i]))
            if dataset.teacher_x is not None:
                row += [fmt(v) for v in dataset.teacher_x[i]]
            w.writerow(row)


def ref_load_csv(path) -> data.Dataset:
    """The row-at-a-time reader the block reader replaced (its error handling left out)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {"f_": [], "t_": [], "c_": [], "soft": []}
        y_col = score_col = None
        for j, name in enumerate(header[1:], start=1):
            if name == "y":
                y_col = j
            elif name == "bb_score":
                score_col = j
            elif name.startswith("c_") and name.endswith("_soft"):
                cols["soft"].append((j, name[2:-5]))
            else:
                cols[name[:2]].append((j, name[2:] if name.startswith("c_") else name))
        rows = list(reader)
    floats = lambda c: np.array([[float(r[j]) for j, _ in c] for r in rows], dtype=np.float64).reshape(len(rows), len(c))
    ints = lambda c: np.array([[int(r[j]) for j, _ in c] for r in rows], dtype=np.int64).reshape(len(rows), len(c))
    return data.Dataset(
        ids=np.asarray([r[0] for r in rows]),
        feature_names=tuple(n for _, n in cols["f_"]),
        x=floats(cols["f_"]),
        y=ints([(y_col, "y")])[:, 0] if y_col is not None else None,
        concept_names=tuple(n for _, n in cols["c_"] or cols["soft"]),
        golden=ints(cols["c_"]) if cols["c_"] else None,
        soft=floats(cols["soft"]) if cols["soft"] else None,
        bb_scores=floats([(score_col, "bb_score")])[:, 0] if score_col is not None else None,
        teacher_feature_names=tuple(n for _, n in cols["t_"]),
        teacher_x=floats(cols["t_"]) if cols["t_"] else None,
    )


def assert_bit_equal(a: data.Dataset, b: data.Dataset) -> None:
    for f in ("ids", "x", "y", "golden", "soft", "bb_scores", "teacher_x"):
        x, y = getattr(a, f), getattr(b, f)
        assert (x is None) == (y is None), f
        if x is not None:
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f
            assert x.tobytes() == y.tobytes(), f  # -0.0 and 0.0 differ here
    for f in ("feature_names", "concept_names", "teacher_feature_names"):
        assert getattr(a, f) == getattr(b, f), f


# ids that need quoting, look numeric, or leave ASCII; NUL is out, as numpy drops trailing NULs
ID_TEXT = st.lists(st.sampled_from(["a", ",", '"', "\r\n", "\n", "\r", " ", "\u00e9", "\U0001f600", "1", "-0", ".5",
                                    "e3", "nan", "inf", "'"]), max_size=4).map("".join)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)


@st.composite
def datasets(draw, max_rows):
    n = draw(st.integers(1, max_rows))
    d, k, t = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    block = lambda shape, elements, dtype=np.float64: draw(arrays(dtype, shape, elements=elements))
    maybe = lambda make: make() if draw(st.booleans()) else None
    golden = maybe(lambda: block((n, k), st.integers(0, 1), np.int64)) if k else None
    soft = maybe(lambda: block((n, k), UNIT)) if k else None
    return data.Dataset(
        ids=np.array(draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))),
        feature_names=tuple(f"f_{j}" for j in range(d)),
        x=block((n, d), FLOATS),
        y=maybe(lambda: block(n, st.integers(0, 1), np.int64)),
        concept_names=tuple("abc"[:k]) if golden is not None or soft is not None else (),  # a file names no others
        golden=golden,
        soft=soft,
        bb_scores=maybe(lambda: block(n, UNIT)),
        teacher_feature_names=tuple(f"t_{j}" for j in range(t)),
        teacher_x=block((n, t), FLOATS) if t else None,
    )


class TestCsvColumnar:
    BLOCK = 3

    @settings(max_examples=80)
    @given(ds=datasets(max_rows=2 * BLOCK + 1))
    def test_bytes_equal_the_row_writer_and_round_trip_bit_equal(self, ds):
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "ROW_BLOCK", self.BLOCK)  # row counts on both sides of a block boundary
            new, ref = Path(d) / "new.csv", Path(d) / "ref.csv"
            data.save_csv(ds, new)
            ref_save_csv(ds, ref)
            assert new.read_bytes() == ref.read_bytes()
            assert_bit_equal(data.load_csv(new), ds)
            assert_bit_equal(ref_load_csv(new), ds)

    @pytest.fixture(scope="class")
    def good_lines(self, tmp_path_factory):
        """A file with every block, one row past two full row blocks, as lines."""
        n, rng = 2 * data.ROW_BLOCK + 1, np.random.default_rng(3)
        ds = data.Dataset(
            ids=np.array([str(i) for i in range(n)]), feature_names=("f_0", "f_1"), x=rng.normal(size=(n, 2)),
            y=rng.integers(0, 2, n), concept_names=("a",), golden=rng.integers(0, 2, (n, 1)),
            soft=rng.random((n, 1)), bb_scores=rng.random(n), teacher_feature_names=("t_0",),
            teacher_x=rng.normal(size=(n, 1)),
        )
        path = tmp_path_factory.mktemp("csv") / "good.csv"
        data.save_csv(ds, path)
        assert_bit_equal(data.load_csv(path), ds)
        return path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("row", [0, data.ROW_BLOCK + 6, 2 * data.ROW_BLOCK])
    @pytest.mark.parametrize("column, cell, message", [
        ("f_1", "abc", "non-numeric value 'abc' in column 'f_1'"),
        ("y", "2", "expected 0/1 in column 'y', got '2'"),
        ("c_a", "1.0", "expected 0/1 in column 'c_a', got '1.0'"),
        ("f_0", "inf", "non-finite value 'inf' in column 'f_0'"),
        ("c_a_soft", "nan", "non-finite value 'nan' in column 'c_a_soft'"),
        ("bb_score", "-inf", "non-finite value '-inf' in column 'bb_score'"),
        ("t_0", "1e999", "non-finite value '1e999' in column 't_0'"),
        (None, None, "expected 8 fields, got 7"),  # a ragged row
    ])
    def test_bad_cell_names_its_line_and_column(self, good_lines, tmp_path, row, column, cell, message):
        header = good_lines[0].rstrip("\r\n").split(",")
        cells = good_lines[row + 1].rstrip("\r\n").split(",")
        if column is None:
            cells.pop()
        else:
            cells[header.index(column)] = cell
        path = tmp_path / "bad.csv"
        path.write_text("".join(good_lines[: row + 1]) + ",".join(cells) + "\r\n" + "".join(good_lines[row + 2:]))
        with pytest.raises(DataError, match=re.escape(f"line {row + 2}: {message}")):
            data.load_csv(path)


class TestSplit:
    def test_sequential_sizes_and_contiguity(self, small_dataset):
        ds = small_dataset.take(np.arange(100))
        tr, va, te = data.split(ds, 0.8, 0.1, 0.1)
        assert (tr.n, va.n, te.n) == (80, 10, 10)
        assert list(tr.ids) == list(ds.ids[:80])
        assert list(te.ids) == list(ds.ids[90:])

    def test_random_mode_is_seed_deterministic(self, small_dataset):
        a = data.split(small_dataset, 0.6, 0.2, 0.2, mode=data.RANDOM, seed=3)
        b = data.split(small_dataset, 0.6, 0.2, 0.2, mode=data.RANDOM, seed=3)
        for x, y in zip(a, b):
            assert list(x.ids) == list(y.ids)

    def test_partition_is_exact_and_disjoint(self):
        ds = data.generate_synthetic(data.GeneratorConfig(n_instances=997, seed=2))
        tr, va, te = data.split(ds, 0.7, 0.15, 0.15, mode=data.RANDOM, seed=1)
        union = sorted(list(tr.ids) + list(va.ids) + list(te.ids))
        assert union == sorted(ds.ids)
        assert not (set(tr.ids) & set(va.ids))
        assert not (set(va.ids) & set(te.ids))

    def test_bad_fractions_rejected(self, small_dataset):
        with pytest.raises(DataError):
            data.split(small_dataset, 0.5, 0.2, 0.2)

    def test_empty_split_rejected(self):
        ds = data.generate_synthetic(data.GeneratorConfig(n_instances=5, seed=0))
        with pytest.raises(DataError, match="empty"):
            data.split(ds, 0.9, 0.05, 0.05)


class TestGoldenSubset:
    def test_default_sizes_on_large_dataset(self):
        ds = data.generate_synthetic(data.GeneratorConfig(n_instances=5000, seed=1))
        g1, g2, g3 = data.golden_subset(ds, seed=0)
        assert (g1.n, g2.n, g3.n) == (1934, 203, 506)

    def test_request_exceeding_n_rejected(self, small_dataset):
        with pytest.raises(DataError):
            data.golden_subset(small_dataset, 1934, 203, 506)

    def test_disjoint_and_seed_sensitive(self, small_dataset):
        a = data.golden_subset(small_dataset, 300, 100, 100, seed=1)
        b = data.golden_subset(small_dataset, 300, 100, 100, seed=2)
        for g1, g2, g3 in (a, b):
            ids = set(g1.ids) | set(g2.ids) | set(g3.ids)
            assert len(ids) == 500
        assert list(a[0].ids) != list(b[0].ids)


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="unique"):
            data.Dataset(ids=np.array(["a", "a"]), feature_names=("f_0",), x=np.zeros((2, 1)))

    def test_score_range_checked(self):
        with pytest.raises(DataError):
            data.Dataset(
                ids=np.array(["a"]),
                feature_names=("f_0",),
                x=np.zeros((1, 1)),
                bb_scores=np.array([1.2]),
            )

    @pytest.mark.parametrize("field", ["soft", "bb_scores", "teacher_x"])
    def test_non_finite_values_rejected_by_name(self, field):
        blocks = {
            "soft": dict(soft=np.array([[0.5], [np.nan]]), concept_names=("c",)),
            "bb_scores": dict(bb_scores=np.array([0.5, np.nan])),
            "teacher_x": dict(teacher_x=np.array([[1.0], [np.inf]]), teacher_feature_names=("t_0",)),
        }
        with pytest.raises(DataError, match=field):
            data.Dataset(ids=np.array(["a", "b"]), feature_names=("f_0",), x=np.zeros((2, 1)), **blocks[field])

    @pytest.mark.parametrize("header, field", [("id,f_0,bb_score", "bb_scores"), ("id,f_0,c_a_soft", "soft")])
    def test_header_only_file_with_a_ranged_block_loads_empty(self, tmp_path, header, field):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        ds = data.load_csv(path)
        assert ds.n == 0 and getattr(ds, field).shape[0] == 0

    def test_take_and_exclude(self, small_dataset):
        subset = small_dataset.take([0, 3, 5])
        assert subset.n == 3
        rest = small_dataset.exclude_ids(subset.ids)
        assert rest.n == small_dataset.n - 3
        assert not (set(rest.ids) & set(subset.ids))
