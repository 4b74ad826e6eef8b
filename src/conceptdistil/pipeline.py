"""The desk pipeline in one call: synthetic data -> concept teachers and
black box -> soft labels and scores -> the five surrogate variants ->
fidelity and mean concept AUC.
"""

from . import blackbox, data, hpo, model, teachers, training
from .errors import DataError

REFERENCE_N = 29_643  # the source protocol's corpus, golden rows included
REFERENCE_GOLDEN = (data.GOLDEN_TRAIN_DEFAULT, data.GOLDEN_VALID_DEFAULT, data.GOLDEN_TEST_DEFAULT)
DESK_FRACTIONS = (20 / 27, 2 / 27, 5 / 27)  # 20,000 / 2,000 / 5,000 of the reference's other 27,000 rows


def desk_data(seed: int, n: int, golden, fractions) -> tuple[hpo.SweepData, float]:
    """``n`` synthetic rows carved into golden subsets and splits; teachers fitted on golden-train
    label train and valid, a black box fitted on train scores all three splits.

    Returns the labelled bundle (golden-test as its golden set) and the teachers' golden-test mean AUC.
    """
    if not any(golden):
        raise DataError(f"the teachers need golden sets, and every golden size is 0: {tuple(golden)}")
    full = data.generate_synthetic(data.GeneratorConfig(n_instances=n, seed=seed))
    (g_train, _, g_test), (tr, va, te) = data.carve(full, golden, fractions, seed=seed)
    teacher_set = teachers.fit_teachers(g_train, teachers.ForestParams(seed=seed))
    try:
        _, teachers_auc = teachers.evaluate_teachers(teacher_set, g_test)
    except DataError as exc:  # a golden-test set too small to hold both classes of a concept
        raise DataError(f"golden-test set of {g_test.n} rows: {exc}") from None
    bb = blackbox.train_ffnn_blackbox(tr, va, seed=seed)
    tr, va = (s.with_scores(bb.score_batch(s.x)).with_soft(teachers.teach_labels(teacher_set, s)) for s in (tr, va))
    te = te.with_scores(bb.score_batch(te.x))
    return hpo.SweepData(train=tr, valid=va, test=te, golden_test=g_test), teachers_auc


def run_desk(seed: int, n: int, epochs: int, lam: float) -> dict[str, tuple[float | None, float]]:
    """The five variants fitted from one init by :func:`training.fit_variants` on :func:`desk_data`, golden
    sizes scaled down (to at least 50 each) when ``n`` is below the reference corpus.

    Returns ``{"teachers": (None, auc), <variant>: (fidelity, mean concept AUC)}``.
    """
    base = training.TrainConfig(lam=lam, epochs=epochs, early_stop_patience=8, seed=seed)  # checked before any fit
    scale = min(1.0, n / REFERENCE_N)
    bundle, teachers_auc = desk_data(seed, n, [max(50, round(s * scale)) for s in REFERENCE_GOLDEN], DESK_FRACTIONS)
    tr = bundle.train
    init = model.init_model(model.build_architecture(tr.d, tr.k), tr.concept_names, seed=seed)
    fits = training.fit_variants(init, tr, bundle.valid, base)
    return {"teachers": (None, teachers_auc),
            **{v: hpo.evaluate_params(fit.params, bundle.test, bundle.golden_test) for v, fit in fits.items()}}
