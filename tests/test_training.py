import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import data, metrics, model, nn, training
from conceptdistil.errors import DataError, NumericError
from conceptdistil.nn import EVAL, TRAIN, derive_seed

import nn_reference as ref


def tiny_arch(d=4, k=3, batchnorm=False, dropout=0.0):
    return model.build_architecture(
        d, k, trunk_widths=(6, 5), head_widths=(4,), attention_widths=(4,),
        dropout_p=dropout, use_batchnorm=batchnorm,
    )


def make_sets(n=64, d=4, k=3, seed=0, with_scores=True, with_soft=True):
    rng = np.random.default_rng(seed)

    def one(m, offset):
        ds = data.Dataset(
            ids=np.array([f"{offset}_{i:04d}" for i in range(m)]),
            feature_names=tuple(f"f_{j}" for j in range(d)),
            x=rng.normal(size=(m, d)),
            concept_names=tuple(f"c{j}" for j in range(k)) if with_soft else (),
            soft=rng.random((m, k)) if with_soft else None,
            bb_scores=rng.random(m) if with_scores else None,
        )
        return ds

    return one(n, "tr"), one(max(16, n // 4), "va")


def quick_config(**kw):
    base = dict(lam=0.5, learning_rate=1e-2, epochs=3, batch_size=16, early_stop_patience=10, seed=0)
    base.update(kw)
    return training.TrainConfig(**base)


class TestConceptLoss:
    def test_half_predicted_second_concept(self):
        pred = np.array([[1.0 - 1e-7, 0.5]])
        target = np.array([[1.0, 1.0]])
        loss, _ = nn.bce_loss(pred, target)
        assert loss == pytest.approx(math.log(2) / 2, abs=1e-7)

    def test_soft_self_entropy(self):
        pred = np.full((5, 3), 0.5)
        loss, _ = nn.bce_loss(pred, pred)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred, target = rng.random((10, 4)), rng.random((10, 4))
        base, _ = nn.bce_loss(pred, target)
        perm = [2, 0, 3, 1]
        permuted, _ = nn.bce_loss(pred[:, perm], target[:, perm])
        assert permuted == pytest.approx(base, abs=1e-15)


class TestTotalLoss:
    def outputs(self, n=8, k=3, seed=2):
        rng = np.random.default_rng(seed)
        y_e = rng.uniform(0.05, 0.95, size=(n, k))
        alpha = nn.softmax_rowwise(rng.normal(size=(n, k)))
        return y_e, (y_e * alpha).sum(axis=1), rng.random((n, k)), rng.random(n)

    def test_lam_one_total_is_kd(self):
        y_e, y_kd, ye_t, kd_t = self.outputs()
        bd, _, d_ye = training.total_loss(y_e, y_kd, ye_t, kd_t, 1.0)
        assert bd.total == bd.kd_component
        assert not d_ye.any()

    def test_midpoint_arithmetic(self):
        y_e, y_kd, ye_t, kd_t = self.outputs()
        bd, _, _ = training.total_loss(y_e, y_kd, ye_t, kd_t, 0.5)
        assert bd.total == pytest.approx(0.5 * bd.kd_component + 0.5 * bd.concept_component, abs=1e-12)

    def test_breakdown_linearity_invariant(self):
        y_e, y_kd, ye_t, kd_t = self.outputs()
        for lam in (0.0, 0.17, 0.5, 0.83, 1.0):
            bd, _, _ = training.total_loss(y_e, y_kd, ye_t, kd_t, lam)
            assert bd.total == pytest.approx(
                lam * bd.kd_component + (1 - lam) * bd.concept_component, abs=1e-12
            )

    def test_missing_kd_target_rejected_when_weighted(self):
        y_e, y_kd, ye_t, _ = self.outputs()
        with pytest.raises(DataError, match="kd_target"):
            training.total_loss(y_e, y_kd, ye_t, None, 0.5)

    def test_parameter_grads_are_lambda_linear(self):
        # oracle: two single-task backward passes combined with the blend weight
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 4))
        ye_t, kd_t = rng.random((12, 3)), rng.random(12)
        lam = 0.3

        def grads_at(weight):
            out = model.forward_full(params, x, nn.TRAIN, rng_seed=5)
            bd, d_kd, d_ye = training.total_loss(out.y_e, out.y_kd, ye_t, kd_t, weight)
            return model.backward_full(params, out, d_kd, d_ye)

        g_kd, g_concept, g_mix = grads_at(1.0), grads_at(0.0), grads_at(lam)

        def check(mixed, kd_only, concept_only):
            for gm, gk, gc in zip(mixed.layers, kd_only.layers, concept_only.layers):
                np.testing.assert_allclose(
                    gm.weights, lam * gk.weights + (1 - lam) * gc.weights, atol=1e-12
                )

        check(g_mix.theta_c, g_kd.theta_c, g_concept.theta_c)
        check(g_mix.theta_a, g_kd.theta_a, g_concept.theta_a)
        for i in range(3):
            check(g_mix.theta_m[i], g_kd.theta_m[i], g_concept.theta_m[i])


class TestVariantContracts:
    def test_no_gradient_blocks_kd_into_concept_blocks(self):
        params = model.init_model(tiny_arch(), ("a", "b", "c"), seed=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(10, 4))
            kd_t = rng.random(10)
            out = model.forward_full(params, x, nn.TRAIN, rng_seed=int(rng.integers(1 << 30)))
            _, d_kd, d_ye = training.total_loss(out.y_e, out.y_kd, None, kd_t, 1.0)
            grads = model.backward_full(params, out, d_kd, d_ye, stop_concept_grad=True)
            for g in grads.theta_c.layers:
                assert not g.weights.any() and not g.bias.any()
            for head in grads.theta_m:
                for g in head.layers:
                    assert not g.weights.any() and not g.bias.any()

    def test_no_gradient_lam_one_leaves_concept_params_bit_identical(self):
        train_set, valid_set = make_sets(n=48, seed=7)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=2)
        before = params.concept_digest()
        cfg = quick_config(lam=1.0, variant=training.NO_GRADIENT, epochs=5)
        result = training.train(params, train_set, valid_set, cfg)
        assert result.params.concept_digest() == before
        assert result.params.digest() != params.digest()  # attention did move

    def test_no_gradient_lam_one_with_batchnorm_keeps_learnables(self):
        train_set, valid_set = make_sets(n=48, seed=8)
        params = model.init_model(tiny_arch(batchnorm=True), ("c0", "c1", "c2"), seed=2)
        before = params.concept_digest(include_running_stats=False)
        cfg = quick_config(lam=1.0, variant=training.NO_GRADIENT, epochs=4)
        result = training.train(params, train_set, valid_set, cfg)
        assert result.params.concept_digest(include_running_stats=False) == before

    def test_two_staged_freezes_concept_blocks(self):
        train_set, valid_set = make_sets(n=48, seed=9)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=3)
        cfg = quick_config(variant=training.TWO_STAGED, epochs=3)
        result = training.train(params, train_set, valid_set, cfg)
        stage1 = training.train(params, train_set, valid_set, replace(cfg, variant=training.BASELINE_CONCEPT))
        assert result.params.concept_digest() == stage1.params.concept_digest()

    def test_default_lam_zero_equals_baseline_concept_run(self):
        train_set, valid_set = make_sets(n=48, seed=10)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=4)
        for epochs in (1, 2, 3):  # digests agree at every epoch boundary
            a = training.train(params, train_set, valid_set,
                               quick_config(lam=0.0, variant=training.DEFAULT, epochs=epochs))
            b = training.train(params, train_set, valid_set,
                               quick_config(lam=0.0, variant=training.BASELINE_CONCEPT, epochs=epochs))
            assert a.params.digest() == b.params.digest()
            assert [r.total for r in a.history] == [r.total for r in b.history]

    def test_baseline_distill_works_without_concept_labels(self):
        train_set, valid_set = make_sets(n=48, seed=11, with_soft=False)
        arch = model.build_architecture(4, 2, trunk_widths=(5,), head_widths=(4,), attention_widths=(4,))
        params = model.init_model(arch, ("c0", "c1"), seed=5)
        cfg = quick_config(variant=training.BASELINE_DISTILL)
        result = training.train(params, train_set, valid_set, cfg)
        assert len(result.history) == cfg.epochs

    def test_baseline_concept_works_without_scores(self):
        train_set, valid_set = make_sets(n=48, seed=12, with_scores=False)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=6)
        cfg = quick_config(variant=training.BASELINE_CONCEPT)
        result = training.train(params, train_set, valid_set, cfg)
        assert all(r.kd_component == 0.0 for r in result.history)

    def test_reordered_concept_names_rejected(self):
        train_set, valid_set = make_sets(n=32, seed=14)
        params = model.init_model(tiny_arch(), ("c2", "c1", "c0"), seed=0)
        with pytest.raises(DataError, match=r"\('c0', 'c1', 'c2'\).*\('c2', 'c1', 'c0'\)"):
            training.train(params, train_set, valid_set, quick_config())

    @pytest.mark.parametrize("variant", training.VARIANTS)
    @pytest.mark.parametrize("empty, name", [(0, "training"), (1, "validation")])
    def test_zero_row_set_rejected_naming_it(self, variant, empty, name):
        sets = list(make_sets(n=32, seed=15))
        sets[empty] = sets[empty].take(np.arange(0))
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=0)
        with pytest.raises(DataError, match=f"{name} set has no rows"):
            training.train(params, *sets, quick_config(variant=variant))

    def test_default_requires_scores(self):
        train_set, valid_set = make_sets(n=32, seed=13, with_scores=False)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=0)
        with pytest.raises(DataError, match="scores"):
            training.train(params, train_set, valid_set, quick_config())


class TestTrainingLoop:
    def test_loss_is_effectively_non_increasing_with_tiny_sgd(self):
        train_set, valid_set = make_sets(n=40, seed=14)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=7)
        opt = nn.OptimizerConfig(algorithm="sgd")
        cfg = training.TrainConfig(
            lam=0.5, learning_rate=1e-4, epochs=12, batch_size=8,
            early_stop_patience=12, seed=1, optimizer=opt,
        )
        def evaluate_loss(p):
            out = model.forward_full(p, train_set.x, nn.EVAL)
            return training.total_loss(out.y_e, out.y_kd, train_set.soft, train_set.bb_scores, 0.5)[0].total

        work = params.copy()
        losses = [evaluate_loss(work)]
        for epoch in range(cfg.epochs):
            single = replace(cfg, epochs=1, seed=cfg.seed)
            result = training.train(work, train_set, train_set, single)
            work = result.params
            losses.append(evaluate_loss(work))
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.01

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_seeds_are_derived_only_for_dropout(self, monkeypatch, dropout):
        train_set, valid_set = make_sets(n=48, seed=15)
        params = model.init_model(tiny_arch(dropout=dropout), ("c0", "c1", "c2"), seed=8)
        calls = []

        def counting(*parts):
            calls.append(parts)
            return nn.derive_seed(*parts)

        monkeypatch.setattr(model, "derive_seed", counting)
        monkeypatch.setattr(training, "derive_seed", counting)
        training.train(params, train_set, valid_set, quick_config(epochs=2))
        per_step = 1 + 1 + 3 + 1  # batch, trunk, three heads, attention
        assert len(calls) == 2 + (2 * 3 * per_step if dropout else 0)  # one shuffle per epoch

    def test_seed_determinism(self):
        train_set, valid_set = make_sets(n=48, seed=15)
        params = model.init_model(tiny_arch(dropout=0.2), ("c0", "c1", "c2"), seed=8)
        cfg = quick_config(epochs=4)
        a = training.train(params, train_set, valid_set, cfg)
        b = training.train(params, train_set, valid_set, cfg)
        assert a.params.digest() == b.params.digest()
        assert [(r.total, r.valid_total) for r in a.history] == [(r.total, r.valid_total) for r in b.history]

    def test_input_params_are_not_mutated(self):
        train_set, valid_set = make_sets(n=32, seed=16)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=9)
        before = params.digest()
        training.train(params, train_set, valid_set, quick_config())
        assert params.digest() == before

    def test_early_stopping_restores_best_epoch(self):
        train_set, valid_set = make_sets(n=48, seed=17)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=10)
        cfg = quick_config(epochs=30, early_stop_patience=3, learning_rate=5e-2)
        result = training.train(params, train_set, valid_set, cfg)
        values = [r.valid_total for r in result.history]
        assert values[result.best_epoch] == min(values)
        if result.stopped_early:
            assert len(values) < cfg.epochs

    def test_history_csv_export(self, tmp_path):
        train_set, valid_set = make_sets(n=32, seed=18)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=11)
        result = training.train(params, train_set, valid_set, quick_config(epochs=2))
        path = tmp_path / "history.csv"
        training.history_to_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,stage,total,kd_component")
        assert len(lines) == 3

    def test_non_finite_loss_stops_the_fit_before_its_update(self):
        work = nn.init_mlp([nn.LayerSpec(2, 1, "sigmoid")], seed=3)
        x, t = np.random.default_rng(4).normal(size=(8, 2)), np.ones((8, 1))
        batch_grads = []

        def step(idx, grads, seed):  # batch 1 of epoch 0 turns the loss NaN
            out, trace = nn.forward(work, x[idx], TRAIN)
            loss, grad = nn.bce_loss(out, t[idx])
            nn.backward(work, trace, grad, grads, input_grad=False)
            batch_grads.append(grads.flat.copy())
            return (loss if len(batch_grads) == 1 else math.nan,)

        expected = work.copy()
        with pytest.raises(NumericError, match=re.escape("non-finite training loss at epoch 0, batch 1")):
            training.fit_epochs(work, step, lambda e, means: (0.0, None), trained=work, n=8, epochs=2, batch_size=4,
                                patience=2, lr=0.1, optimizer=nn.OptimizerConfig(), draws=False, shuffle_key=(0,),
                                batch_key=(1,))
        nn.optimizer_step(expected.flat, batch_grads[0], 0.1, nn.OptimizerConfig())  # batch 0's update alone
        assert len(batch_grads) == 2
        assert np.array_equal(work.flat, expected.flat) and not np.array_equal(work.flat, nn.init_mlp(work.specs, 3).flat)

    def test_fidelity_validation_metric(self):
        train_set, valid_set = make_sets(n=48, seed=19)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=12)
        cfg = quick_config(validation_metric=training.METRIC_FIDELITY, epochs=3)
        result = training.train(params, train_set, valid_set, cfg)
        fids = [r.valid_fidelity for r in result.history]
        assert result.best_epoch == int(np.argmax(fids))

    def test_fidelity_metric_without_valid_scores_fails_before_any_step(self, monkeypatch):
        train_set, _ = make_sets(n=32, seed=19)
        _, valid_set = make_sets(n=32, seed=19, with_scores=False)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=12)

        def no_stage(*args, **kwargs):
            raise AssertionError("a training stage started")

        monkeypatch.setattr(training, "fit_epochs", no_stage)
        cfg = quick_config(variant=training.BASELINE_CONCEPT, validation_metric=training.METRIC_FIDELITY)
        with pytest.raises(DataError, match="fidelity validation metric requires black-box scores on the validation"):
            training.train(params, train_set, valid_set, cfg)

    def test_two_staged_history_has_both_stages(self):
        train_set, valid_set = make_sets(n=48, seed=20)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=13)
        result = training.train(params, train_set, valid_set, quick_config(variant=training.TWO_STAGED, epochs=2))
        stages = {r.stage for r in result.history}
        assert stages == {1, 2}
        epochs = [r.epoch for r in result.history]
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)


# -- reference loop: training.train spelled out, with the reference kernels and fresh gradients every step

def ref_total_loss(y_e, y_kd, ye_t, kd_t, lam):
    kd, d_kd = 0.0, np.zeros(len(y_kd))
    if kd_t is not None:
        kd, g = ref.bce_loss(y_kd.reshape(-1, 1), kd_t.reshape(-1, 1))
        d_kd = lam * g[:, 0]
    concept, d_ye = 0.0, np.zeros_like(y_e)
    if ye_t is not None:
        concept, g = ref.bce_loss(y_e, ye_t)
        d_ye = (1.0 - lam) * g
    return (lam * kd + (1.0 - lam) * concept, kd, concept), d_kd, d_ye


def ref_fit(work, step, train_set, valid_set, config, *, stage, lam, start):
    arch = work.config
    lr, opt = config.learning_rate, config.optimizer
    state = nn.OptimizerState()
    draws = nn.draws_masks(arch.trunk + arch.head_template + arch.attention, TRAIN)
    n = train_set.n
    best, best_value, best_epoch, bad, stopped, history = work.copy(), math.inf, 0, 0, False, []
    for e in range(config.epochs):
        order = np.random.default_rng(derive_seed(config.seed, 101, stage, e)).permutation(n)
        sums = np.zeros(3)
        for b, lo in enumerate(range(0, n, config.batch_size)):
            idx = order[lo : lo + config.batch_size]
            seed = derive_seed(config.seed, 102, stage, e, b) if draws else 0
            sums += len(idx) * np.array(step(idx, lr, opt, state, seed))
        out = model.forward_full(work, valid_set.x, EVAL)
        (total, kd, concept), _, _ = ref_total_loss(out.y_e, out.y_kd, valid_set.soft, valid_set.bb_scores, lam)
        fid = metrics.fidelity(out.y_kd, valid_set.bb_scores)
        history.append(training.EpochRecord(start + e, stage, *map(float, sums / n), total, kd, concept, fid))
        value = {training.METRIC_COMBINED: total, training.METRIC_CONCEPT_BCE: concept,
                 training.METRIC_FIDELITY: -fid}[config.validation_metric]
        if value < best_value:
            best, best_value, best_epoch, bad = work.copy(), value, e, 0
        else:
            bad += 1
            if bad >= config.early_stop_patience:
                stopped = True
                break
    return training.TrainResult(best, history, start + best_epoch, stopped)


def ref_train(params, train_set, valid_set, config):
    work = params.copy()
    kd_t, ye_t = train_set.bb_scores, train_set.soft
    if config.variant == training.TWO_STAGED:
        first = ref_train(work, train_set, valid_set, replace(config, variant=training.BASELINE_CONCEPT))
        work = first.params

        def stage2(idx, lr, opt, state, seed):
            y_e, _ = model.concept_forward(work, train_set.x[idx], EVAL)
            alpha, trace_a = model.attention_forward(work, train_set.x[idx], TRAIN, seed)
            kd, g = ref.bce_loss((y_e * alpha).sum(axis=1).reshape(-1, 1), kd_t[idx].reshape(-1, 1))
            grads, _ = ref.backward(work.theta_a, trace_a, nn.softmax_backward(alpha, g[:, 0].reshape(-1, 1) * y_e))
            nn.optimizer_step(work.theta_a.flat, grads.flat, lr, opt, state)
            nn.update_running_stats(work.theta_a, trace_a)
            return kd, kd, 0.0

        stage2_config = replace(config, validation_metric=training.METRIC_COMBINED)
        second = ref_fit(work, stage2, train_set, valid_set, stage2_config, stage=2, lam=1.0, start=len(first.history))
        return replace(second, history=first.history + second.history)
    lam = {training.BASELINE_DISTILL: 1.0, training.BASELINE_CONCEPT: 0.0}.get(config.variant, config.lam)

    def joint(idx, lr, opt, state, seed):
        out = model.forward_full(work, train_set.x[idx], TRAIN, seed)
        terms, d_kd, d_ye = ref_total_loss(out.y_e, out.y_kd, ye_t[idx], kd_t[idx], lam)
        grads = ref.backward_full(work, out, d_kd, d_ye, config.variant == training.NO_GRADIENT)
        nn.optimizer_step(work.flat, grads.flat, lr, opt, state)
        nn.update_running_stats(work.theta_c, out.concept_traces.trunk)
        nn.update_running_stats(work.heads, out.concept_traces.stack)
        nn.update_running_stats(work.theta_a, out.attention_trace)
        return terms

    return ref_fit(work, joint, train_set, valid_set, config, stage=1, lam=lam, start=0)


class TestOneGradientBufferPerFit:
    @pytest.mark.parametrize("variant", training.VARIANTS)
    @pytest.mark.parametrize("regularised", [False, True], ids=["plain", "dropout-batchnorm"])
    def test_variant_equals_the_fresh_gradient_reference_loop(self, variant, regularised):
        train_set, valid_set = make_sets(n=48, seed=21)
        arch = tiny_arch(dropout=0.2, batchnorm=True) if regularised else tiny_arch()
        params = model.init_model(arch, ("c0", "c1", "c2"), seed=14)
        cfg = quick_config(variant=variant, epochs=3)
        got, want = training.train(params, train_set, valid_set, cfg), ref_train(params, train_set, valid_set, cfg)
        assert got.params.digest() == want.params.digest()
        assert (got.history, got.best_epoch, got.stopped_early) == (want.history, want.best_epoch, want.stopped_early)

    def test_early_stopped_fit_equals_the_fresh_gradient_reference_loop(self):
        train_set, valid_set = make_sets(n=48, seed=22)
        params = model.init_model(tiny_arch(), ("c0", "c1", "c2"), seed=15)
        cfg = quick_config(epochs=30, early_stop_patience=1, learning_rate=5e-2,
                           validation_metric=training.METRIC_FIDELITY)
        got, want = training.train(params, train_set, valid_set, cfg), ref_train(params, train_set, valid_set, cfg)
        assert want.stopped_early
        assert got.params.digest() == want.params.digest()
        assert (got.history, got.best_epoch) == (want.history, want.best_epoch)


class TestFitVariants:
    @pytest.mark.parametrize("regularised", [False, True], ids=["plain", "dropout-batchnorm"])
    def test_equals_one_train_call_per_variant_in_five_stages(self, monkeypatch, regularised):
        train_set, valid_set = make_sets(n=48, seed=23)
        arch = tiny_arch(dropout=0.2, batchnorm=True) if regularised else tiny_arch()
        params = model.init_model(arch, ("c0", "c1", "c2"), seed=16)
        cfg = quick_config(epochs=12, early_stop_patience=1, learning_rate=5e-2)
        want = {v: training.train(params, train_set, valid_set, replace(cfg, variant=v)) for v in training.VARIANTS}
        assert any(r.stopped_early for r in want.values())
        stages, fit_epochs = [], training.fit_epochs

        def counted(*args, **kwargs):
            stages.append(kwargs["shuffle_key"][2])
            return fit_epochs(*args, **kwargs)

        monkeypatch.setattr(training, "fit_epochs", counted)
        got = training.fit_variants(params, train_set, valid_set, cfg)
        assert stages == [1, 1, 1, 1, 2]  # baseline-concept is fitted once: 2-staged runs only its stage 2
        assert list(got) == list(training.VARIANTS)
        for v in training.VARIANTS:  # baseline-concept's equality shows that 2-staged left its result as it was
            g, w = got[v], want[v]
            assert g.params.digest() == w.params.digest(), v
            assert (g.history, g.best_epoch, g.stopped_early) == (w.history, w.best_epoch, w.stopped_early), v
