import csv
import json
import multiprocessing
import re
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conceptdistil import data, pool, schema
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
        with pytest.raises(DataError, match=re.escape("prevalence must be in (0, 1)")):
            bad = (data.ConceptRule("x", (0, 1, 2), (1.0, 1.0, 1.0), 1.0),)
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
        ("f_1", "abc", "column 'f_1': x must be finite, got 'abc'"),
        ("y", "2", "column 'y': y must be 0/1, got '2'"),
        ("c_a", "1.0", "column 'c_a': golden must be 0/1, got '1.0'"),
        ("f_0", "inf", "column 'f_0': x must be finite, got 'inf'"),
        ("c_a_soft", "nan", "column 'c_a_soft': soft must be finite in [0, 1], got 'nan'"),
        ("bb_score", "-inf", "column 'bb_score': bb_scores must be finite in [0, 1], got '-inf'"),
        ("t_0", "1e999", "column 't_0': teacher_x must be finite, got '1e999'"),
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
        with pytest.raises(DataError, match=re.escape(f"{path}: line {row + 2}: {message}")):
            data.load_csv(path)


class TestCsvText:
    """Files the row writer never makes, or makes rarely: each loads as the row reader loads it."""

    BLOCK = 3

    @staticmethod
    def dataset(n, ids=None):
        rng = np.random.default_rng(n)
        return data.Dataset(
            ids=np.array(ids or [f"r{i}" for i in range(n)]), feature_names=("f_0", "f_1"), x=rng.normal(size=(n, 2)),
            y=rng.integers(0, 2, n), concept_names=("a",), soft=rng.random((n, 1)),
        )

    def load_both(self, path, text=None):
        """``load_csv`` with a short ROW_BLOCK, checked bit-equal to the row reader; ``text`` replaces the file."""
        if text is not None:
            path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "ROW_BLOCK", self.BLOCK)
            loaded = data.load_csv(path)
        assert_bit_equal(loaded, ref_load_csv(path))
        return loaded

    @pytest.mark.parametrize("row", range(2 * BLOCK + 1))
    @pytest.mark.parametrize("id_text", ["a\r\nb", "\r\n\r\n", 'q"\r\n"', "x\ny,\rz"])
    def test_quoted_line_breaks_straddle_a_block_boundary(self, tmp_path, row, id_text):
        n = 2 * self.BLOCK + 2
        ds = self.dataset(n, [id_text if i == row else f"r{i}" for i in range(n)])
        path = tmp_path / "ids.csv"
        data.save_csv(ds, path)
        assert_bit_equal(self.load_both(path), ds)

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_line_endings_and_no_final_newline(self, tmp_path, ending, final):
        ds = self.dataset(2 * self.BLOCK + 1)
        path = tmp_path / "eol.csv"
        data.save_csv(ds, path)
        text = path.read_bytes().decode().replace("\r\n", ending)
        assert_bit_equal(self.load_both(path, text if final else text[: -len(ending)]), ds)

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("row", [0, BLOCK - 1, BLOCK, 2 * BLOCK])
    def test_blank_line_is_a_row_of_no_fields(self, tmp_path, row, quoted):
        n = 2 * self.BLOCK + 1
        ds = self.dataset(n, ['"q"' if quoted and i == row else f"r{i}" for i in range(n)])
        path = tmp_path / "blank.csv"
        data.save_csv(ds, path)
        lines = path.read_bytes().decode().splitlines(keepends=True)
        path.write_bytes(("".join(lines[: row + 1]) + "\r\n" + "".join(lines[row + 1:])).encode())
        with pytest.raises(DataError, match=re.escape(f"line {row + 2}: expected 5 fields, got 0")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "ROW_BLOCK", self.BLOCK)
                data.load_csv(path)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_quoted_field_opened_after_a_stray_quote_spans_lines(self, tmp_path, block, monkeypatch):
        path = tmp_path / "stray.csv"  # the '"' in x"y is a plain character; the one before 1.0 opens a field
        path.write_bytes(b'id,f_0\r\nx"y,"1.0\r\nq",2.0\r\nz,3.0\r\n')
        monkeypatch.setattr(data, "ROW_BLOCK", block)
        with pytest.raises(DataError, match=re.escape("line 2: expected 2 fields, got 3")):
            data.load_csv(path)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("plain_rows", [0, 1])
    @pytest.mark.parametrize("last_row, message", [
        ("c,xyz", "column 'f_0': x must be finite, got 'xyz'"),
        ("c", "expected 2 fields, got 1"),
    ])
    def test_line_numbers_count_line_breaks_in_quoted_cells(self, tmp_path, monkeypatch, block, plain_rows, last_row,
                                                            message):
        path = tmp_path / "breaks.csv"  # the quoted id spans two lines, so the last row is on line 4 + plain_rows
        plain = "z,0.5\r\n" * plain_rows
        path.write_bytes(f'id,f_0\r\n{plain}"a\r\nb",1.0\r\n{last_row}\r\n'.encode())
        monkeypatch.setattr(data, "ROW_BLOCK", block)
        with pytest.raises(DataError, match=re.escape(f"{path}: line {4 + plain_rows}: {message}")):
            data.load_csv(path)

    def test_quoted_numeric_cells_load_as_numbers(self, tmp_path):
        text = 'id,f_0,y,bb_score\r\n"a","0.5","1","0.25"\r\nb,-1.5,0,1.0\r\n"c",2e-3,"0",0.0\r\n'
        loaded = self.load_both(tmp_path / "quoted.csv", text)
        assert loaded.ids.tolist() == ["a", "b", "c"]
        assert loaded.x[:, 0].tolist() == [0.5, -1.5, 0.002] and loaded.y.tolist() == [1, 0, 0]
        assert loaded.bb_scores.tolist() == [0.25, 1.0, 0.0]

    @pytest.mark.parametrize("ids", [["a", "", "b,c", 'd"'], ["only"]])
    def test_id_only_file(self, tmp_path, ids):
        ds = data.Dataset(ids=np.array(ids), feature_names=(), x=np.zeros((len(ids), 0)))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        data.save_csv(ds, new)
        ref_save_csv(ds, ref)
        assert new.read_bytes() == ref.read_bytes()
        assert_bit_equal(self.load_both(new), ds)

    @pytest.mark.parametrize("id_only", [False, True])
    def test_a_quoted_or_id_only_file_maps_one_item_per_block(self, tmp_path, monkeypatch, id_only):
        ids = ["a,b", *(f"r{i}" for i in range(1, 10))]  # row 0's id needs quotes: csv.reader reads every row
        ds = (data.Dataset(ids=np.array(ids), feature_names=(), x=np.zeros((10, 0))) if id_only
              else self.dataset(10, ids))
        path = tmp_path / "quoted.csv"
        data.save_csv(ds, path)
        mapped, ordered_map = [], pool.ordered_map

        def recording(fn, shared, items, jobs=None):
            mapped.append(items := list(items))
            return ordered_map(fn, shared, items, jobs)

        monkeypatch.setattr(pool, "ordered_map", recording)
        assert_bit_equal(self.load_both(path), ds)
        assert [len(items) for items in mapped] == [4]  # ceil(10 / 3), not one item per record

    def test_blank_line_in_an_id_only_file_is_no_empty_id(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("id\r\na\r\n\r\nb\r\n")
        with pytest.raises(DataError, match=re.escape("line 3: expected 1 fields, got 0")):
            data.load_csv(path)


class TestCsvCpuCount:
    """save_csv and load_csv map their row blocks over as many processes as the CPUs this process may use, and
    the count changes nothing: not the bytes, not the arrays, not an error's text."""

    BLOCK = 3
    N = 3 * BLOCK + 1  # four blocks, the last one short

    @pytest.fixture
    def pools(self, monkeypatch):
        """A short ROW_BLOCK; returns ``set_cpus(n)``, which forces the usable CPUs to ``n`` and returns the list
        that the start method of each pool started from then on is appended to."""
        monkeypatch.setattr(data, "ROW_BLOCK", self.BLOCK)
        started = []
        executor = pool.ProcessPoolExecutor

        def recording(*args, mp_context, **kwargs):
            started.append(mp_context.get_start_method())
            return executor(*args, mp_context=mp_context, **kwargs)

        def set_cpus(n):
            monkeypatch.setattr(pool, "usable_cpus", lambda: n)
            started.clear()
            return started

        monkeypatch.setattr(pool, "ProcessPoolExecutor", recording)
        return set_cpus

    @staticmethod
    def pools_at(cpus) -> list[str]:
        """The pools that one save or load of several blocks starts at ``cpus`` CPUs in this process."""
        return ["fork"] if cpus > 1 and "fork" in multiprocessing.get_all_start_methods() else []

    def dataset(self, ids=None):
        """Every block; by default, ids of 1 to 4 bytes a character, so that characters and bytes differ."""
        rng = np.random.default_rng(7)
        n = len(ids) if ids else self.N
        return data.Dataset(
            ids=np.array(ids or [f"r{i}" + "\u00e9\u20ac\U0001f600"[: i % 4] for i in range(n)]),
            feature_names=("f_0", "f_1"), x=rng.normal(size=(n, 2)),
            y=rng.integers(0, 2, n), concept_names=("a",), golden=rng.integers(0, 2, (n, 1)),
            soft=rng.random((n, 1)), bb_scores=rng.random(n), teacher_feature_names=("t_0",),
            teacher_x=rng.normal(size=(n, 1)),
        )

    def round_trips(self, pools, ds, tmp_path) -> list[bytes]:
        """The file bytes that ``ds`` saves to at 1 and at 2 CPUs; each file loads bit-equal to ``ds`` at both."""
        saved = []
        for cpus in (1, 2):
            path = tmp_path / f"saved_{cpus}.csv"
            started = pools(cpus)
            data.save_csv(ds, path)
            assert started == self.pools_at(cpus)
            saved.append(path.read_bytes())
            for load_cpus in (1, 2):
                started = pools(load_cpus)
                assert_bit_equal(data.load_csv(path), ds)
                assert started == self.pools_at(load_cpus)
        return saved

    def test_bytes_and_arrays_are_equal_at_one_and_two_cpus(self, pools, tmp_path):
        ds = self.dataset()
        one, two = self.round_trips(pools, ds, tmp_path)
        ref_save_csv(ds, tmp_path / "ref.csv")
        assert one == two == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("row", [BLOCK - 1, BLOCK, N - 1])
    @pytest.mark.parametrize("id_text", ["a\r\nb", 'q"\r\n"', "x\ny,\rz"])
    def test_a_quoted_id_straddling_a_block_edge(self, pools, tmp_path, row, id_text):
        ds = self.dataset([id_text if i == row else f"r{i}\u00e9" for i in range(self.N)])
        one, two = self.round_trips(pools, ds, tmp_path)
        ref_save_csv(ds, tmp_path / "ref.csv")
        assert one == two == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"])
    def test_line_endings(self, pools, tmp_path, ending):
        ds = self.dataset()
        path = tmp_path / "eol.csv"
        data.save_csv(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", ending.encode()))
        for cpus in (1, 2):
            started = pools(cpus)
            assert_bit_equal(data.load_csv(path), ds)
            assert started == self.pools_at(cpus)

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("ids", ["plain", "multi-byte", "quoted"])
    def test_line_endings_across_text_chunks(self, pools, tmp_path, monkeypatch, ending, ids):
        """A file of many 8 KiB chunks, the unit a text file decodes its bytes in: one line break straddles or ends
        at the first chunk edge, and one line starts at the second. Each block starts at a position the caller
        read with ``tell``, which the worker ``seek``s to."""
        chunk, n = 8192, 3000
        texts = [f"r{i}" + ("\u00e9\u20ac\U0001f600"[: i % 4] if ids == "multi-byte" else "") for i in range(n)]
        if ids == "quoted":
            texts[n // 2] = "x\ny\rz"
        path, brk = tmp_path / "eol.csv", ending.encode()

        def save():
            data.save_csv(ds := self.dataset(texts), path)
            path.write_bytes(raw := path.read_bytes().replace(b"\r\n", brk))
            return ds, raw

        _, raw = save()
        for target in (chunk - 1, 2 * chunk - len(brk)):  # where a line break's first byte is to go
            breaks = enumerate(m.start() for m in re.finditer(re.escape(brk), raw))
            line, at = max((j, at) for j, at in breaks if at <= target)
            texts[line - 1] += "_" * (target - at)  # line 0 is the header
            ds, raw = save()
        assert raw[chunk - 1: chunk - 1 + len(brk)] == raw[2 * chunk - len(brk): 2 * chunk] == brk
        for block in (1, 7, 64, 2048):
            monkeypatch.setattr(data, "ROW_BLOCK", block)
            started = pools(2)
            assert_bit_equal(data.load_csv(path), ds)
            assert started == self.pools_at(2)

    @pytest.mark.parametrize("quoted", [False, True])  # a quoted id in the first block: csv.reader reads every row
    @pytest.mark.parametrize("row", [BLOCK + 1, N - 1])  # in the second block, and in the last
    def test_a_bad_cell_gives_the_same_error_at_one_and_two_cpus(self, pools, tmp_path, quoted, row):
        ds = self.dataset(['"q"' if quoted and i == 0 else f"r{i}\u00e9" for i in range(self.N)])
        path = tmp_path / "bad.csv"
        data.save_csv(ds, path)
        lines = path.read_bytes().decode().splitlines(keepends=True)
        cells = lines[row + 1].split(",")
        cells[2] = "abc"  # f_1
        path.write_bytes(("".join(lines[: row + 1]) + ",".join(cells) + "".join(lines[row + 2:])).encode())
        errors = []
        for cpus in (1, 2):
            pools(cpus)
            with pytest.raises(DataError) as info:
                data.load_csv(path)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"{path}: line {row + 2}: column 'f_1': x must be finite, got 'abc'"

    def test_a_process_with_another_thread_saves_and_loads_serially(self, pools, tmp_path, monkeypatch):
        ds = self.dataset()
        pools(2)
        data.save_csv(ds, tmp_path / "unthreaded.csv")
        monkeypatch.setattr(pool, "ProcessPoolExecutor", lambda *args, **kwargs: pytest.fail("a pool started"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            data.save_csv(ds, tmp_path / "threaded.csv")
            loaded = data.load_csv(tmp_path / "threaded.csv")
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "unthreaded.csv").read_bytes()
        assert_bit_equal(loaded, ds)


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

    def test_with_soft_keeps_the_concepts_in_their_order(self, small_dataset):
        ds = small_dataset.take(np.arange(5))
        names, soft = ds.concept_names, np.full((5, ds.k), 0.5)
        assert ds.with_soft(soft, names).concept_names == names
        with pytest.raises(DataError, match=re.escape(f"dataset concepts {names} do not match {names[::-1]}")):
            ds.with_soft(soft, names[::-1])
        unlabelled = data.Dataset(ids=ds.ids, feature_names=ds.feature_names, x=ds.x)
        assert unlabelled.with_soft(soft, names[::-1]).concept_names == names[::-1]
        soft_only = replace(ds, golden=None, soft=np.zeros((5, ds.k)))  # soft block and names are both replaced
        relabelled = soft_only.with_soft(soft, names[::-1])
        assert relabelled.concept_names == names[::-1] and (relabelled.soft == 0.5).all()

    def test_take_and_exclude(self, small_dataset):
        subset = small_dataset.take([0, 3, 5])
        assert subset.n == 3
        rest = small_dataset.exclude_ids(subset.ids)
        assert rest.n == small_dataset.n - 3
        assert not (set(rest.ids) & set(subset.ids))

    def test_excluding_every_id_leaves_an_empty_dataset(self, small_dataset):
        rest = small_dataset.exclude_ids(small_dataset.ids)
        assert rest.n == 0 and rest.x.shape == (0, small_dataset.d) and rest.golden.shape == (0, small_dataset.k)
        assert small_dataset.exclude_ids([]).ids.tolist() == small_dataset.ids.tolist()


def every_block(n=4):
    """Dataset arguments for ``n`` valid rows with every block present."""
    rng = np.random.default_rng(11)
    return dict(
        ids=np.array([f"r{i}" for i in range(n)]), feature_names=("f_0", "f_1"), x=rng.normal(size=(n, 2)),
        y=rng.integers(0, 2, n), concept_names=("a", "b"), golden=rng.integers(0, 2, (n, 2)),
        soft=rng.random((n, 2)), bb_scores=rng.random(n), teacher_feature_names=("t_0",),
        teacher_x=rng.normal(size=(n, 1)),
    )


# a block, its first CSV column, a cell that breaks the block's rule, and the rule
BROKEN_RULES = {
    "x-non-finite": ("x", "f_0", "inf", "finite"),
    "y-not-0/1": ("y", "y", "2", "0/1"),
    "golden-not-0/1": ("golden", "c_a", "-1", "0/1"),
    "soft-non-finite": ("soft", "c_a_soft", "nan", "finite in [0, 1]"),
    "soft-outside-0-1": ("soft", "c_a_soft", "1.5", "finite in [0, 1]"),
    "bb_scores-non-finite": ("bb_scores", "bb_score", "-inf", "finite in [0, 1]"),
    "bb_scores-outside-0-1": ("bb_scores", "bb_score", "-0.5", "finite in [0, 1]"),
    "teacher_x-non-finite": ("teacher_x", "t_0", "nan", "finite"),
}
FIELDS = ("x", "y", "golden", "soft", "bb_scores", "teacher_x")


class TestBlockRules:
    """Each block's shape and value rule, broken in turn, through ``Dataset`` and through ``load_csv``."""

    @pytest.mark.parametrize("field, column, cell, rule", BROKEN_RULES.values(), ids=BROKEN_RULES)
    def test_broken_rule_through_the_dataset(self, field, column, cell, rule):
        blocks = every_block()
        a = blocks[field].copy()
        a.reshape(len(a), -1)[1, 0] = float(cell)
        with pytest.raises(DataError, match=re.escape(f"{field} must be {rule}")):
            data.Dataset(**{**blocks, field: a})

    @pytest.mark.parametrize("field, column, cell, rule", BROKEN_RULES.values(), ids=BROKEN_RULES)
    def test_broken_rule_through_load_csv_names_file_line_column_and_block(self, tmp_path, field, column, cell, rule):
        path = tmp_path / "broken.csv"
        data.save_csv(data.Dataset(**every_block()), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = cell
        path.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        message = f"{path}: line 3: column {column!r}: {field} must be {rule}, got {cell!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            data.load_csv(path)

    @pytest.mark.parametrize("field", FIELDS)
    def test_wrong_shape_through_the_dataset(self, field):
        blocks = every_block()
        short = blocks[field][:-1]
        expected = (4, *short.shape[1:])
        with pytest.raises(DataError, match=re.escape(f"{field} shape {short.shape} does not match {expected}")):
            data.Dataset(**{**blocks, field: short})

    @pytest.mark.parametrize("column, message", [
        ("c_b", "soft columns ('a', 'b') do not match concept_names ('a',)"),
        ("c_b_soft", "soft columns ('a',) do not match concept_names ('a', 'b')"),
    ])
    def test_concept_columns_that_disagree_through_load_csv(self, tmp_path, column, message):
        path = tmp_path / "short.csv"
        data.save_csv(data.Dataset(**every_block()), path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        j = rows[0].index(column)
        path.write_text("".join(",".join(row[:j] + row[j + 1:]) + "\n" for row in rows))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            data.load_csv(path)

    def test_a_duplicate_id_is_named_through_the_dataset_and_load_csv(self, tmp_path):
        message = "instance ids must be unique: duplicate id 'b'"
        with pytest.raises(DataError, match=re.escape(message)):
            data.Dataset(ids=np.array(["a", "b", "c", "b"]), feature_names=("f_0",), x=np.zeros((4, 1)))
        path = tmp_path / "ids.csv"
        path.write_text("id,f_0\na,1.0\nb,2.0\nc,3.0\nb,4.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            data.load_csv(path)


# names a Dataset may not hold, because the file save_csv writes would not read back to them
UNSAVEABLE_NAMES = {
    "feature-without-f_": ({"feature_names": ("f_0", "age")}, "feature_names entry 'age': its column 'age' does "
                                                              "not read back as x 'age'"),
    "teacher-without-t_": ({"teacher_feature_names": ("z",)}, "teacher_feature_names entry 'z': its column 'z'"),
    "feature-named-like-a-teacher": ({"feature_names": ("f_0", "t_1")}, "feature_names entry 't_1'"),
    "golden-concept-ending-_soft": ({"concept_names": ("a", "b_soft"), "soft": None},
                                    "concept_names entry 'b_soft': its column 'c_b_soft' does not read back as "
                                    "golden 'b_soft'"),
    "repeated-feature": ({"feature_names": ("f_0", "f_0")}, "feature_names name 'f_0' twice"),
    "repeated-concept": ({"concept_names": ("a", "a")}, "concept_names name 'a' twice"),
    "repeated-teacher": ({"teacher_feature_names": ("t_0", "t_0"), "teacher_x": np.zeros((4, 2))},
                         "teacher_feature_names name 't_0' twice"),
}


class TestNamesSurviveTheFile:
    """A Dataset's names are the ones load_csv reads back from the file save_csv writes of it."""

    @pytest.mark.parametrize("changes, message", UNSAVEABLE_NAMES.values(), ids=UNSAVEABLE_NAMES)
    def test_a_name_the_file_would_change_is_rejected(self, changes, message):
        with pytest.raises(DataError, match=re.escape(message)):
            data.Dataset(**{**every_block(), **changes})

    @pytest.mark.parametrize("changes", [
        {"concept_names": ("a_soft", "c_b"), "golden": None},  # a soft column's name may end in _soft
        {"feature_names": ("f_", "f_a,b\nc")},
        {"concept_names": ("", "x y")},
    ], ids=["soft-only-_soft", "odd-feature-names", "odd-concept-names"])
    def test_an_accepted_name_reads_back(self, tmp_path, changes):
        ds = data.Dataset(**{**every_block(), **changes})
        data.save_csv(ds, tmp_path / "d.csv")
        assert_bit_equal(data.load_csv(tmp_path / "d.csv"), ds)
