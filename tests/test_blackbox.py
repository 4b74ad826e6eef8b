import math
from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import blackbox, data, metrics, nn, training
from conceptdistil.errors import DataError
from conceptdistil.nn import EVAL, TRAIN, derive_seed

import nn_reference as ref


# -- reference loop: the black box's own minibatch fit that training.fit_epochs replaced, with the
# reference kernels and a fresh gradient buffer every step

def ref_fit_mlp(params, x, targets, x_valid, targets_valid, *, learning_rate, epochs, batch_size, patience, seed):
    opt_cfg = nn.OptimizerConfig()
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    tv = np.asarray(targets_valid, dtype=np.float64).reshape(-1, 1)
    work = params.copy()
    state = nn.OptimizerState()
    draws = nn.draws_masks(work.specs, TRAIN)
    best = work.copy()
    best_loss = math.inf
    bad = 0
    history = []
    n = x.shape[0]
    for e in range(epochs):
        order = np.random.default_rng(derive_seed(seed, 51, e)).permutation(n)
        running = 0.0
        for b, lo in enumerate(range(0, n, batch_size)):
            idx = order[lo : lo + batch_size]
            seed_b = derive_seed(seed, 52, e, b) if draws else 0
            out, trace = nn.forward(work, x[idx], TRAIN, seed_b)
            loss, grad = ref.bce_loss(out, t[idx])
            grads, _ = ref.backward(work, trace, grad)
            nn.optimizer_step(work.flat, grads.flat, learning_rate, opt_cfg, state)
            nn.update_running_stats(work, trace)
            running += loss * len(idx)
        v_out, _ = nn.forward(work, x_valid, EVAL)
        v_loss, _ = ref.bce_loss(v_out, tv)
        history.append((running / n, v_loss))
        if v_loss < best_loss:
            best_loss = v_loss
            best = work.copy()
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                break
    return best, history


def linearly_separable(n=600, d=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.8 * x[:, 1] > 0.0).astype(np.int64)
    return data.Dataset(
        ids=np.array([f"{i:05d}" for i in range(n)]),
        feature_names=tuple(f"f_{j}" for j in range(d)),
        x=x,
        y=y,
    )


class TestFFNNBlackBox:
    def test_zero_weight_net_scores_half(self):
        specs = blackbox.default_blackbox_specs(3, hidden=(4,))
        params = nn.init_mlp(specs, seed=0)
        for layer in params.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        adapter = blackbox.FFNNBlackBox(params)
        out = adapter.score_batch(np.random.default_rng(1).normal(size=(5, 3)))
        np.testing.assert_array_equal(out, np.full(5, 0.5))

    def test_trained_on_separable_data_reaches_high_recall(self):
        full = linearly_separable()
        train, valid, test = data.split(full, 0.6, 0.2, 0.2)
        adapter = blackbox.train_ffnn_blackbox(train, valid, epochs=100, patience=20, seed=0)
        recall = metrics.recall_at_fpr(adapter.score_batch(test.x), test.y, 0.05)
        assert recall >= 0.95

    def test_scoring_is_deterministic(self):
        full = linearly_separable(n=200, seed=3)
        train, valid, _ = data.split(full, 0.6, 0.2, 0.2)
        adapter = blackbox.train_ffnn_blackbox(train, valid, epochs=5, seed=1)
        a = adapter.score_batch(train.x)
        b = adapter.score_batch(train.x)
        assert np.array_equal(a, b)

    def test_missing_labels_rejected(self):
        ds = linearly_separable(n=100)
        unlabeled = data.Dataset(ids=ds.ids, feature_names=ds.feature_names, x=ds.x)
        with pytest.raises(DataError):
            blackbox.train_ffnn_blackbox(unlabeled, unlabeled, epochs=1)

    @pytest.mark.parametrize("empty, name", [(0, "training"), (1, "validation")])
    def test_zero_row_set_rejected_naming_it(self, empty, name):
        sets = list(data.split(linearly_separable(n=100), 0.6, 0.2, 0.2)[:2])
        sets[empty] = sets[empty].take(np.arange(0))
        with pytest.raises(DataError, match=f"black-box {name} set has no rows"):
            blackbox.train_ffnn_blackbox(*sets, epochs=1)

    def test_save_load_round_trip_is_exact(self, tmp_path):
        full = linearly_separable(n=200, seed=4)
        train, valid, _ = data.split(full, 0.6, 0.2, 0.2)
        adapter = blackbox.train_ffnn_blackbox(train, valid, epochs=5, seed=2)
        path = tmp_path / "blackbox.json"
        blackbox.save_blackbox(adapter, path)
        restored = blackbox.load_blackbox(path)
        assert np.array_equal(adapter.score_batch(train.x), restored.score_batch(train.x))


class TestSharedLoop:
    @pytest.fixture(scope="class")
    def sets(self):
        train, valid, _ = data.split(linearly_separable(n=600, seed=8), 0.6, 0.2, 0.2)
        return train, valid

    @pytest.mark.parametrize("options, stops_early", [
        ({}, False),
        ({"batch_size": 100, "learning_rate": 3e-3}, False),
        ({"patience": 1, "learning_rate": 1e-2}, True),
    ])
    def test_black_box_equals_the_reference_loop(self, sets, options, stops_early):
        train, valid = sets
        cfg = blackbox.BlackBoxConfig(seed=3, **options)
        init = nn.init_mlp(blackbox.default_blackbox_specs(train.d, cfg.hidden), derive_seed(cfg.seed, 50))
        expected, history = ref_fit_mlp(init, train.x, train.y, valid.x, valid.y, learning_rate=cfg.learning_rate,
                                        epochs=cfg.epochs, batch_size=cfg.batch_size, patience=cfg.patience, seed=3)
        assert (len(history) < cfg.epochs) == stops_early
        got = blackbox.train_ffnn_blackbox(train, valid, seed=3, **options)
        assert nn.params_digest(got.params) == nn.params_digest(expected)

    def test_fit_epochs_with_dropout_and_batchnorm_equals_the_reference_loop(self, sets):
        train, valid = sets
        specs = [nn.LayerSpec(train.d, 8, "relu", 0.3, True), nn.LayerSpec(8, 1, "sigmoid")]
        init = nn.init_mlp(specs, 11)
        assert nn.draws_masks(specs, TRAIN)
        expected, ref_history = ref_fit_mlp(init, train.x, train.y, valid.x, valid.y, learning_rate=3e-3,
                                            epochs=12, batch_size=64, patience=3, seed=7)
        work = init.copy()
        t, tv = train.y.astype(np.float64).reshape(-1, 1), valid.y.astype(np.float64).reshape(-1, 1)

        def step(idx, grads, seed_b):
            out, trace = nn.forward(work, train.x[idx], TRAIN, seed_b)
            loss, grad = nn.bce_loss(out, t[idx])
            nn.backward(work, trace, grad, grads)
            nn.update_running_stats(work, trace)
            return (loss,)

        def validate(e, means):
            v_loss, _ = nn.bce_loss(nn.forward(work, valid.x, EVAL)[0], tv)
            return v_loss, (float(means[0]), v_loss)

        best, history, _, _ = training.fit_epochs(
            work, step, validate, trained=work, n=train.n, epochs=12, batch_size=64, patience=3,
            lr=3e-3, optimizer=nn.OptimizerConfig(), draws=True, shuffle_key=(7, 51), batch_key=(7, 52))
        assert history == ref_history
        assert nn.params_digest(best) == nn.params_digest(expected)


class TestBlackBoxConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch_size", 0), ("patience", 0), ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("learning_rate", float("nan")),
    ])
    def test_out_of_range_option_rejected_naming_it(self, field, value):
        with pytest.raises(DataError, match=field):
            blackbox.BlackBoxConfig(**{field: value})


class TestScoreFile:
    def dataset(self, ids):
        n = len(ids)
        return data.Dataset(
            ids=np.asarray(ids), feature_names=("f_0",), x=np.zeros((n, 1))
        )

    def test_scores_replayed_in_dataset_order(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\nb,0.9\na,0.1\n")
        ds = self.dataset(["a", "b"])
        np.testing.assert_array_equal(blackbox.load_score_file(path, ds), [0.1, 0.9])

    def test_missing_id_named_in_error(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.1\nb,0.9\n")
        with pytest.raises(DataError, match="'c'"):
            blackbox.load_score_file(path, self.dataset(["a", "b", "c"]))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.1\na,0.2\n")
        with pytest.raises(DataError, match="duplicate"):
            blackbox.load_score_file(path, self.dataset(["a"]))

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,1.5\n")
        with pytest.raises(DataError, match="outside"):
            blackbox.load_score_file(path, self.dataset(["a"]))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("identifier,value\na,0.5\n")
        with pytest.raises(DataError, match="header"):
            blackbox.load_score_file(path, self.dataset(["a"]))

    def test_export_reload_round_trip_is_exact(self, tmp_path):
        full = linearly_separable(n=150, seed=5)
        train, valid, _ = data.split(full, 0.6, 0.2, 0.2)
        adapter = blackbox.train_ffnn_blackbox(train, valid, epochs=5, seed=3)
        scores = adapter.score_batch(full.x)
        path = tmp_path / "scores.csv"
        blackbox.save_score_file(path, full.ids, scores)
        np.testing.assert_array_equal(blackbox.load_score_file(path, full), scores)


class TestUncertaintySample:
    def make(self, scores):
        n = len(scores)
        return data.Dataset(
            ids=np.array([f"{i:03d}" for i in range(n)]),
            feature_names=("f_0",),
            x=np.zeros((n, 1)),
            bb_scores=np.asarray(scores, dtype=float),
        )

    def test_full_fraction_returns_everything(self):
        ds = self.make([0.1, 0.2, 0.9])
        out = blackbox.uncertainty_sample(ds, 1.0)
        assert list(out.ids) == list(ds.ids)

    def test_middle_score_wins_at_one_third(self):
        ds = self.make([0.1, 0.5, 0.9])
        out = blackbox.uncertainty_sample(ds, 1 / 3)
        assert list(out.ids) == ["001"]

    def test_matches_sort_oracle_on_random_scores(self):
        rng = np.random.default_rng(6)
        scores = rng.random(1000)
        ds = self.make(scores)
        out = blackbox.uncertainty_sample(ds, 0.1)
        expected_n = math.ceil(0.1 * 1000)
        assert out.n == expected_n
        order = sorted(range(1000), key=lambda i: (abs(scores[i] - 0.5), ds.ids[i]))
        expected = {ds.ids[i] for i in order[:expected_n]}
        assert set(out.ids) == expected

    def test_selected_are_no_farther_than_rejected(self):
        rng = np.random.default_rng(7)
        scores = np.round(rng.random(200), 2)
        ds = self.make(scores)
        out = blackbox.uncertainty_sample(ds, 0.25)
        chosen = set(out.ids)
        dist = {i: abs(s - 0.5) for i, s in zip(ds.ids, scores)}
        worst_chosen = max(dist[i] for i in chosen)
        best_rejected = min(dist[i] for i in ds.ids if i not in chosen)
        assert worst_chosen <= best_rejected

    def test_bad_fraction_rejected(self):
        ds = self.make([0.5])
        with pytest.raises(DataError):
            blackbox.uncertainty_sample(ds, 0.0)

    def test_dataset_without_scores_rejected(self):
        ds = replace(self.make([0.5]), bb_scores=None)
        with pytest.raises(DataError, match="black-box scores"):
            blackbox.uncertainty_sample(ds, 1.0)
