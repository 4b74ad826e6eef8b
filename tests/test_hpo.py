import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import data, hpo, model, pool, training
from conceptdistil.errors import DataError

from oracles import dominance_flags


@pytest.fixture(scope="module")
def bundle():
    """Tiny but complete dataset bundle for fast end-to-end trials."""
    cfg = data.GeneratorConfig(n_instances=1200, seed=31)
    full = data.generate_synthetic(cfg)
    g_train, _, g_test = data.golden_subset(full, 300, 60, 150, seed=31)
    corpus = full.exclude_ids(np.concatenate([g_train.ids, g_test.ids]))
    tr, va, te = data.split(corpus, 0.6, 0.2, 0.2)
    rng = np.random.default_rng(0)

    def fake_scores(ds):
        raw = 0.15 + 0.7 * ds.golden.mean(axis=1) + 0.05 * rng.random(ds.n)
        return ds.with_scores(np.clip(raw, 0, 1))

    from conceptdistil import teachers

    tset = teachers.fit_teachers(g_train, teachers.ForestParams(n_trees=10, seed=31))
    tr = fake_scores(tr).with_soft(teachers.teach_labels(tset, tr))
    va = fake_scores(va).with_soft(teachers.teach_labels(tset, va))
    te = fake_scores(te)
    return hpo.SweepData(train=tr, valid=va, test=te, golden_test=g_test)


def tiny_space():
    return hpo.SearchSpace(
        trunk_depth=(1, 2), head_depth=(2, 3), attention_depth=(1, 2),
        width=(4, 16), learning_rate=(1e-3, 1e-2), dropout=(0.0, 0.1),
        l2=(0.0, 0.01), batchnorm=(False,),
    )


def quick_base():
    return training.TrainConfig(epochs=2, batch_size=64, early_stop_patience=5)


class TestSampleConfig:
    def test_degenerate_space_is_constant(self):
        space = hpo.SearchSpace(
            trunk_depth=(3, 3), head_depth=(4, 4), attention_depth=(2, 2),
            width=(8, 8), lam=(0.5, 0.5), learning_rate=(1e-3, 1e-3),
            dropout=(0.1, 0.1), l2=(0.01, 0.01), batchnorm=(True,),
        )
        draws = [hpo.sample_config(space, np.random.default_rng(i), 5, 2) for i in range(4)]
        archs = {tuple((s.in_dim, s.out_dim, s.dropout_p, s.use_batchnorm) for s in a.trunk) for a, _ in draws}
        assert len(archs) == 1
        assert {c.lam for _, c in draws} == {0.5}
        assert {c.learning_rate for _, c in draws} == {1e-3}

    def test_bounds_respected_over_many_samples(self):
        space = hpo.SearchSpace()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            arch, cfg = hpo.sample_config(space, rng, 6, 3)
            assert 3 <= len(arch.trunk) <= 5
            assert 3 <= len(arch.head_template) <= 7
            assert 1 <= len(arch.attention) <= 4
            for spec in arch.trunk + arch.head_template[:-1] + arch.attention[:-1]:
                assert 2 <= spec.out_dim <= 2048
            assert 0.2 <= cfg.lam <= 0.8
            assert 0.0005 <= cfg.learning_rate <= 0.01
            assert 0.0 <= arch.trunk[0].dropout_p <= 0.4
            assert 0.0 <= cfg.optimizer.l2_penalty <= 0.1

    def test_every_sampled_config_validates(self):
        space = hpo.SearchSpace(width=(2, 64))
        rng = np.random.default_rng(2)
        for _ in range(50):
            arch, cfg = hpo.sample_config(space, rng, 7, 4)
            params = model.init_model(arch, ("a", "b", "c", "d"), seed=0)
            out = model.forward_full(params, np.zeros((3, 7)))
            assert out.y_kd.shape == (3,)

    def test_lambda_distribution_is_uniform(self):
        # KS statistic against U(0,1) over 10k draws
        space = hpo.SearchSpace(lam=(0.0, 1.0))
        rng = np.random.default_rng(3)
        draws = np.sort([hpo.sample_config(space, rng, 4, 2)[1].lam for _ in range(10_000)])
        n = len(draws)
        upper = np.max(np.arange(1, n + 1) / n - draws)
        lower = np.max(draws - np.arange(0, n) / n)
        assert max(upper, lower) < 0.02


class TestRunSearch:
    def test_single_trial_equals_direct_run(self, bundle):
        space = tiny_space()
        report = hpo.run_search(space, 1, bundle, base=quick_base(), master_seed=5)
        trial = report.trials[0]
        assert trial.status == "completed"
        seed = hpo.derive_seed(5, hpo._TRIAL, 0)
        rng = np.random.default_rng(seed)
        from dataclasses import replace

        arch, cfg = hpo.sample_config(space, rng, bundle.train.d, bundle.train.k, quick_base())
        cfg = replace(cfg, seed=seed)
        params = model.init_model(arch, bundle.train.concept_names, seed)
        result = training.train(params, bundle.train, bundle.valid, cfg)
        fid, auc = hpo.evaluate_params(result.params, bundle.test, bundle.golden_test)
        assert trial.fidelity == fid and trial.mean_auc == auc

    def test_evaluate_params_rejects_renamed_concepts(self, bundle):
        arch = model.build_architecture(bundle.train.d, bundle.train.k)
        params = model.init_model(arch, [f"other_{n}" for n in bundle.train.concept_names], 0)
        with pytest.raises(DataError, match="golden test set concepts"):
            hpo.evaluate_params(params, bundle.test, bundle.golden_test)

    def test_same_master_seed_reproduces_report(self, bundle):
        a = hpo.run_search(tiny_space(), 3, bundle, base=quick_base(), master_seed=9)
        b = hpo.run_search(tiny_space(), 3, bundle, base=quick_base(), master_seed=9)
        for ta, tb in zip(a.trials, b.trials):
            assert (ta.fidelity, ta.mean_auc, ta.history_digest) == (tb.fidelity, tb.mean_auc, tb.history_digest)

    def test_pareto_flags_match_brute_force(self, bundle):
        report = hpo.run_search(tiny_space(), 6, bundle, base=quick_base(), master_seed=11)
        pts = [(t.fidelity, t.mean_auc) for t in report.trials]
        np.testing.assert_array_equal(report.on_frontier, dominance_flags(pts))

    def test_csv_and_summary_outputs(self, bundle, tmp_path):
        report = hpo.run_search(tiny_space(), 2, bundle, base=quick_base(), master_seed=13)
        csv_path, summary_path = tmp_path / "sweep.csv", tmp_path / "summary.json"
        report.to_csv(csv_path)
        report.save_summary(summary_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("trial_id,lambda")
        import json

        summary = json.loads(summary_path.read_text())
        assert summary["n_trials"] == 2 and summary["n_completed"] == 2


class TestLambdaSweep:
    def test_row_bookkeeping(self, bundle):
        report = hpo.lambda_sweep([0.0, 0.5, 1.0], 2, bundle, base=quick_base(), master_seed=17)
        assert len(report.trials) == 6
        assert sorted({t.lam for t in report.trials}) == [0.0, 0.5, 1.0]

    def test_repeats_share_seeds_across_lambdas(self, bundle):
        report = hpo.lambda_sweep([0.2, 0.8], 2, bundle, base=quick_base(), master_seed=19)
        seeds = {}
        for t in report.trials:
            seeds.setdefault(t.lam, []).append(t.seed)
        assert seeds[0.2] == seeds[0.8]

    def test_endpoint_gradient_routing(self, bundle):
        # lam endpoints: concept blocks get no loss at lam=1, attention none at lam=0
        params = model.init_model(
            model.build_architecture(bundle.train.d, bundle.train.k, trunk_widths=(6,), head_widths=(4,), attention_widths=(4,)),
            bundle.train.concept_names,
            seed=0,
        )
        x = bundle.train.x[:16]
        ye_t = bundle.train.soft[:16]
        kd_t = bundle.train.bb_scores[:16]
        out = model.forward_full(params, x, "train", rng_seed=0)
        _, d_kd, d_ye = training.total_loss(out.y_e, out.y_kd, ye_t, kd_t, 0.0)
        grads = model.backward_full(params, out, d_kd, d_ye)
        assert all(not g.weights.any() for g in grads.theta_a.layers)
        _, d_kd, d_ye = training.total_loss(out.y_e, out.y_kd, ye_t, kd_t, 1.0)
        assert not d_ye.any()

    def test_out_of_range_lambda_rejected(self, bundle):
        with pytest.raises(DataError):
            hpo.lambda_sweep([0.5, 1.2], 1, bundle)

    def test_empty_grid_rejected_by_name_before_any_trial(self, bundle, monkeypatch):
        monkeypatch.setattr(pool, "ordered_map", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(DataError, match="the lambda grid is empty"):
            hpo.lambda_sweep([], 1, bundle)

    def test_out_of_range_lambda_fails_before_any_trial(self, bundle, monkeypatch):
        monkeypatch.setattr(pool, "ordered_map", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(DataError, match=r"lam must be in \[0, 1\], got 1.5"):
            hpo.lambda_sweep([0.5, 1.5], 1, bundle)


class TestIsolation:
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_fail_before_any_trial(self, bundle, monkeypatch, jobs):
        monkeypatch.setattr(hpo, "_run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(DataError, match=f"jobs must be >= 1, got {jobs}"):
            hpo.run_search(tiny_space(), 2, bundle, base=quick_base(), jobs=jobs)
        with pytest.raises(DataError, match=f"jobs must be >= 1, got {jobs}"):
            hpo.lambda_sweep([0.5], 1, bundle, base=quick_base(), jobs=jobs)

    def test_parallel_execution_matches_sequential(self, bundle):
        seq = hpo.run_search(tiny_space(), 4, bundle, base=quick_base(), master_seed=23, jobs=1)
        par = hpo.run_search(tiny_space(), 4, bundle, base=quick_base(), master_seed=23, jobs=2)
        for a, b in zip(seq.trials, par.trials):
            assert (a.index, a.fidelity, a.mean_auc, a.history_digest) == (b.index, b.fidelity, b.mean_auc, b.history_digest)

    def test_parallel_lambda_sweep_matches_sequential(self, bundle):
        base = replace(quick_base(), optimizer=replace(quick_base().optimizer, l2_penalty=0.01))
        arch = model.build_architecture(bundle.train.d, bundle.train.k, dropout_p=0.1, use_batchnorm=True)
        seq, par = (hpo.lambda_sweep([0.25, 0.75], 2, bundle, arch=arch, base=base, master_seed=5, jobs=jobs)
                    for jobs in (1, 2))
        assert len(seq.trials) == len(par.trials) == 4
        assert [(t.index, t.seed, t.lam, t.fidelity, t.mean_auc, t.history_digest) for t in seq.trials] == \
            [(t.index, t.seed, t.lam, t.fidelity, t.mean_auc, t.history_digest) for t in par.trials]
        assert seq.on_frontier.tolist() == par.on_frontier.tolist()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_lambda_sweep_runs_on_every_cpu_and_writes_the_same_csv(self, bundle, monkeypatch, tmp_path):
        executor, started = pool.ProcessPoolExecutor, []

        def recording(workers, **kwargs):
            started.append(workers)
            return executor(workers, **kwargs)

        monkeypatch.setattr(pool, "ProcessPoolExecutor", recording)
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            hpo.lambda_sweep([0.0, 1.0], 1, bundle, base=quick_base(), master_seed=5).to_csv(tmp_path / f"{cpus}.csv")
        assert started == [2]
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
