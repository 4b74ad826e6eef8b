import json

import numpy as np
import pytest

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

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            data.load_csv(tmp_path / "nope.csv")


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

    def test_take_and_exclude(self, small_dataset):
        subset = small_dataset.take([0, 3, 5])
        assert subset.n == 3
        rest = small_dataset.exclude_ids(subset.ids)
        assert rest.n == small_dataset.n - 3
        assert not (set(rest.ids) & set(subset.ids))
