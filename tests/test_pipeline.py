"""The library desk pipeline equals the same steps composed by hand."""

from dataclasses import replace

import numpy as np
import pytest

from conceptdistil import blackbox, data, hpo, model, pipeline, teachers, training
from conceptdistil.errors import DataError


def by_hand(seed, n, epochs, lam):
    """The acceptance suite's desk run for one seed, with the golden sizes scaled to ``n``."""
    full = data.generate_synthetic(data.GeneratorConfig(n_instances=n, seed=seed))
    sizes = [max(50, round(s * n / 29_643)) for s in (1934, 203, 506)]
    g_train, g_valid, g_test = data.golden_subset(full, *sizes, seed=seed)
    corpus = full.exclude_ids(np.concatenate([g_train.ids, g_valid.ids, g_test.ids]))
    tr, va, te = data.split(corpus, 20000 / 27000, 2000 / 27000, 5000 / 27000)

    teacher_set = teachers.fit_teachers(g_train, teachers.ForestParams(seed=seed))
    _, teachers_auc = teachers.evaluate_teachers(teacher_set, g_test)

    bb = blackbox.train_ffnn_blackbox(tr, va, seed=seed)
    tr = tr.with_scores(bb.score_batch(tr.x))
    va = va.with_scores(bb.score_batch(va.x))
    te = te.with_scores(bb.score_batch(te.x))
    tr = tr.with_soft(teachers.teach_labels(teacher_set, tr))
    va = va.with_soft(teachers.teach_labels(teacher_set, va))

    arch = model.build_architecture(full.d, full.k)
    base = training.TrainConfig(lam=lam, epochs=epochs, early_stop_patience=8, seed=seed)
    init = model.init_model(arch, full.concept_names, seed=seed)
    results = {"teachers": (None, teachers_auc)}
    for variant in training.VARIANTS:
        result = training.train(init, tr, va, replace(base, variant=variant))
        results[variant] = hpo.evaluate_params(result.params, te, g_test)
    return results


def test_run_desk_equals_the_steps_composed_by_hand():
    got = pipeline.run_desk(3, 3000, 1, 0.4)
    assert list(got) == ["teachers", *training.VARIANTS]
    assert got == by_hand(3, 3000, 1, 0.4)


def test_desk_data_labels_train_and_valid_and_scores_every_split():
    bundle, teachers_auc = pipeline.desk_data(4, 1200, (300, 60, 150), (0.7, 0.1, 0.2))
    assert (bundle.train.n, bundle.valid.n, bundle.test.n, bundle.golden_test.n) == (483, 69, 138, 150)
    assert bundle.train.soft is not None and bundle.valid.soft is not None and bundle.test.soft is None
    assert all(s.bb_scores is not None for s in (bundle.train, bundle.valid, bundle.test))
    assert 0.5 < teachers_auc <= 1.0


def _same(a, b):
    pairs = zip(vars(a).values(), vars(b).values())
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@pytest.mark.parametrize("golden, mode", [((300, 60, 150), data.SEQUENTIAL), ((300, 60, 150), data.RANDOM),
                                          ((0, 0, 0), data.SEQUENTIAL), ((0, 0, 0), data.RANDOM)])
def test_carve_equals_golden_subset_exclude_ids_split(golden, mode):
    full = data.generate_synthetic(data.GeneratorConfig(n_instances=1500, seed=5))
    subsets, splits = data.carve(full, golden, (0.8, 0.1, 0.1), mode=mode, seed=5)
    corpus = full
    if any(golden):
        expected = data.golden_subset(full, *golden, seed=5)
        assert all(_same(a, b) for a, b in zip(subsets, expected, strict=True))
        corpus = full.exclude_ids(np.concatenate([g.ids for g in expected]))
    else:
        assert subsets is None
    assert all(_same(a, b) for a, b in zip(splits, data.split(corpus, 0.8, 0.1, 0.1, mode=mode, seed=5), strict=True))


@pytest.mark.parametrize("golden", [(10, 0, 5), (1000, 400, 100)])
def test_carve_rejects_what_golden_subset_rejects(golden):
    full = data.generate_synthetic(data.GeneratorConfig(n_instances=1500, seed=5))
    with pytest.raises(DataError):
        data.carve(full, golden, (0.8, 0.1, 0.1))


def test_desk_data_without_golden_sets_fails_before_generating(monkeypatch):
    def generate(*_):
        raise AssertionError("data was generated")

    monkeypatch.setattr(data, "generate_synthetic", generate)
    with pytest.raises(DataError, match=r"every golden size is 0: \(0, 0, 0\)"):
        pipeline.desk_data(1, 600, (0, 0, 0), (0.7, 0.1, 0.2))
