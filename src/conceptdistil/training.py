"""Joint, gradient-blocked and two-stage fitting of the surrogate.

The objective is a convex blend of two binary cross-entropies: ``lam``
weights the mimicry term (surrogate score vs. black-box score) and
``1 - lam`` the concept term (mean per-concept BCE against soft or hard
concept labels). The variants differ only in gradient routing:

* ``default``        joint training, both terms reach every block;
* ``no-gradient``    the mimicry term is stopped at the concept outputs,
                     so trunk and heads learn from the concept term only
                     while the attention stack learns from the mimicry
                     term, simultaneously;
* ``2-staged``       a baseline-concept fit, whose concept blocks are then
                     frozen bit-exactly while the attention stack is
                     fitted against their eval-mode predictions (lam 1);
* ``baseline-distill``  single-task run with lam forced to 1;
* ``baseline-concept``  single-task run with lam forced to 0.

The two baselines share the joint code path, so a ``default`` run with
the same pinned lam reproduces them step for step. :func:`fit_variants`
fits all five in four fits: its 2-staged continues its baseline-concept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import metrics, model, nn
from .data import check_concepts
from .errors import DataError, NumericError
from .nn import EVAL, TRAIN, OptimizerConfig, derive_seed
from .schema import Checked, bounded, ge, gt, one_of, within

DEFAULT = "default"
NO_GRADIENT = "no-gradient"
TWO_STAGED = "2-staged"
BASELINE_DISTILL = "baseline-distill"
BASELINE_CONCEPT = "baseline-concept"
VARIANTS = (DEFAULT, NO_GRADIENT, TWO_STAGED, BASELINE_DISTILL, BASELINE_CONCEPT)
# the joint variants: their lam (None: the configured one) and whether the mimicry gradient stops at the
# concept outputs; 2-staged continues a baseline-concept fit (see _continue_two_staged)
_JOINT = {DEFAULT: (None, False), NO_GRADIENT: (None, True),
          BASELINE_DISTILL: (1.0, False), BASELINE_CONCEPT: (0.0, False)}

METRIC_COMBINED = "combined_loss"
METRIC_FIDELITY = "fidelity"
METRIC_CONCEPT_BCE = "mean_concept_bce"
VALIDATION_METRICS = (METRIC_COMBINED, METRIC_FIDELITY, METRIC_CONCEPT_BCE)

# seed-stream tags
_SHUFFLE = 101
_BATCH = 102


@dataclass(frozen=True)
class TrainConfig(Checked):
    lam: float = bounded(0.5, within(0, 1))
    learning_rate: float = bounded(1e-3, gt(0))
    epochs: int = bounded(100, ge(1))
    batch_size: int = bounded(256, ge(1))
    early_stop_patience: int = bounded(10, ge(1))
    seed: int = bounded(0, ge(0))
    variant: str = bounded(DEFAULT, one_of(VARIANTS))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    validation_metric: str = bounded(METRIC_COMBINED, one_of(VALIDATION_METRICS))


class LossBreakdown(NamedTuple):
    total: float
    kd_component: float
    concept_component: float


def total_loss(
    y_e: np.ndarray,
    y_kd: np.ndarray,
    y_e_target: np.ndarray | None,
    kd_target: np.ndarray | None,
    lam: float,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Blended loss and its gradients w.r.t. the model outputs.

    Returns ``(breakdown, d_y_kd, d_y_e)`` where the gradients already
    carry the lam / (1 - lam) weights. Missing targets are only allowed
    when their weight is zero.
    """
    n = y_e.shape[0]
    if kd_target is None:
        if lam > 0.0:
            raise DataError("kd_target (black-box scores) required when lam > 0")
        kd_component, d_y_kd = 0.0, np.zeros(n)
    else:
        kd_target = np.asarray(kd_target, dtype=np.float64)
        if kd_target.shape != (n,):
            raise DataError("kd_target must have one score per batch row")
        kd_component, g = nn.bce_loss(y_kd.reshape(-1, 1), kd_target.reshape(-1, 1))
        d_y_kd = lam * g[:, 0]
    if y_e_target is None:
        if lam < 1.0:
            raise DataError("concept targets required when lam < 1")
        concept_component, d_y_e = 0.0, np.zeros_like(y_e)
    else:
        # the mean of the K per-concept batch means is the plain mean over all entries
        concept_component, g = nn.bce_loss(y_e, y_e_target)
        d_y_e = (1.0 - lam) * g
    total = lam * kd_component + (1.0 - lam) * concept_component
    return LossBreakdown(total, kd_component, concept_component), d_y_kd, d_y_e


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    total: float
    kd_component: float
    concept_component: float
    valid_total: float
    valid_kd: float
    valid_concept: float
    valid_fidelity: float  # nan when no scores are attached


@dataclass
class TrainResult:
    params: model.ConceptDistilParams
    history: list[EpochRecord]
    best_epoch: int
    stopped_early: bool


def history_to_csv(history, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields(EpochRecord))
        w.writerows(map(repr, astuple(r)) for r in history)


def _concept_targets(dataset) -> np.ndarray | None:
    if dataset.soft is not None:
        return dataset.soft
    if dataset.golden is not None:
        return dataset.golden.astype(np.float64)
    return None


def fit_epochs(work, step, validate, *, trained, n, epochs, batch_size, patience, lr, optimizer, draws, shuffle_key,
               batch_key):
    """Minibatch fit of ``trained``, a part of ``work`` or all of it, with early stopping; returns ``(best copy
    of work, records, best epoch, stopped early)``.

    Epoch ``e`` visits the ``n`` rows in the order drawn from ``derive_seed(*shuffle_key, e)``.
    ``step(idx, grads, seed)`` runs forward, loss, backward into ``grads`` (the fit's one
    ``nn.zero_grads(trained)`` buffer) and the running-statistics fold on the rows ``idx``, and returns
    its loss terms, total first; ``seed`` is ``derive_seed(*batch_key, e, b)`` when the model ``draws``
    dropout masks, else 0. A finite total is followed by the fit's one ``optimizer`` update at rate ``lr``.
    ``validate(e, train_means)`` turns the row-weighted means of the terms into ``(value, record)``. The
    copy with the lowest value is kept, and the fit stops after ``patience`` epochs without a lower one.
    """
    grads, state = nn.zero_grads(trained), nn.OptimizerState()
    history = []
    best_value, best, best_epoch, bad, stopped = math.inf, work.copy(), 0, 0, False
    for e in range(epochs):
        order = np.random.default_rng(derive_seed(*shuffle_key, e)).permutation(n)
        sums = 0.0
        for b, lo in enumerate(range(0, n, batch_size)):
            idx = order[lo : lo + batch_size]
            terms = step(idx, grads, derive_seed(*batch_key, e, b) if draws else 0)
            if not math.isfinite(terms[0]):
                raise NumericError(f"non-finite training loss at epoch {e}, batch {b}")
            nn.optimizer_step(trained.flat, grads.flat, lr, optimizer, state)
            sums = sums + len(idx) * np.array(terms)
        value, record = validate(e, sums / n)
        history.append(record)
        if value < best_value:
            best_value, best, best_epoch, bad = value, work.copy(), e, 0
        else:
            bad += 1
            if bad >= patience:
                stopped = True
                break
    return best, history, best_epoch, stopped


def _fit_stage(work, train_set, valid_set, config, step, *, trained, stage, lam, start_epoch=0) -> TrainResult:
    """:func:`fit_epochs` of ``trained`` in ``work`` by ``step`` under ``config``, each epoch validated by the
    loss at ``lam`` and judged by ``config.validation_metric``; the records number epochs from ``start_epoch``."""
    arch = work.config
    ye_valid, kd_valid = _concept_targets(valid_set), valid_set.bb_scores

    def validate(e, means):
        out = model.forward_full(work, valid_set.x, EVAL)
        vb, _, _ = total_loss(out.y_e, out.y_kd, ye_valid, kd_valid, lam)
        fid = float("nan") if kd_valid is None else metrics.fidelity(out.y_kd, kd_valid)
        value = {METRIC_COMBINED: vb.total, METRIC_CONCEPT_BCE: vb.concept_component, METRIC_FIDELITY: -fid}
        return value[config.validation_metric], EpochRecord(start_epoch + e, stage, *map(float, means), *vb, fid)

    best, history, best_e, stopped = fit_epochs(
        work, step, validate, trained=trained, n=train_set.n, epochs=config.epochs, batch_size=config.batch_size,
        patience=config.early_stop_patience, lr=config.learning_rate, optimizer=config.optimizer,
        draws=nn.draws_masks(arch.trunk + arch.head_template + arch.attention, TRAIN),
        shuffle_key=(config.seed, _SHUFFLE, stage), batch_key=(config.seed, _BATCH, stage),
    )
    return TrainResult(best, history, start_epoch + best_e, stopped)


def _continue_two_staged(stage1: TrainResult, train_set, valid_set, config: TrainConfig) -> TrainResult:
    """2-staged from its stage 1, a baseline-concept fit under ``config``: on a copy of it, the attention
    stack alone is fitted (lam 1) against the concept blocks' eval-mode predictions, which stay frozen."""
    work = stage1.params.copy()
    frozen = work.concept_digest()
    kd_train = train_set.bb_scores

    def step(idx, grads_a, seed_b):
        xb = train_set.x[idx]
        y_e, _ = model.concept_forward(work, xb, EVAL)
        alpha, trace_a = model.attention_forward(work, xb, TRAIN, seed_b)
        breakdown, d_kd, _ = total_loss(y_e, (y_e * alpha).sum(axis=1), None, kd_train[idx], 1.0)
        d_e = nn.softmax_backward(alpha, d_kd.reshape(-1, 1) * y_e)
        nn.backward(work.theta_a, trace_a, d_e, grads_a, input_grad=False)
        nn.update_running_stats(work.theta_a, trace_a)
        return breakdown

    stage2 = _fit_stage(work, train_set, valid_set, replace(config, validation_metric=METRIC_COMBINED), step,
                        trained=work.theta_a, stage=2, lam=1.0, start_epoch=len(stage1.history))
    if stage2.params.concept_digest() != frozen:
        raise NumericError("stage 2 modified frozen concept parameters")
    return replace(stage2, history=stage1.history + stage2.history)


def _require(condition, message):
    if not condition:
        raise DataError(message)


def train(params: model.ConceptDistilParams, train_set, valid_set, config: TrainConfig) -> TrainResult:
    """Fit the surrogate under the configured variant.

    The input params are not mutated; the best-validation-epoch copy is
    returned. Identical (params, data, config) reproduce the history and
    the final parameters bit for bit.
    """
    check_concepts(train_set, params.concept_names, "training set")
    check_concepts(valid_set, params.concept_names, "validation set")
    _require(train_set.n > 0, "training set has no rows")
    _require(valid_set.n > 0, "validation set has no rows")  # its loss would be nan, and no epoch the best
    variant = config.variant
    if variant != BASELINE_DISTILL:
        _require(_concept_targets(train_set) is not None, f"{variant} training requires concept labels")
        _require(_concept_targets(valid_set) is not None, f"{variant} validation requires concept labels")
    if variant != BASELINE_CONCEPT:
        _require(train_set.bb_scores is not None, f"{variant} training requires black-box scores")
        _require(valid_set.bb_scores is not None, f"{variant} validation requires black-box scores")
    _require(config.validation_metric != METRIC_FIDELITY or valid_set.bb_scores is not None,
             "fidelity validation metric requires black-box scores on the validation set")
    if variant == TWO_STAGED:
        stage1 = train(params, train_set, valid_set, replace(config, variant=BASELINE_CONCEPT))
        return _continue_two_staged(stage1, train_set, valid_set, config)

    lam, stop = _JOINT[variant]
    lam = config.lam if lam is None else lam
    work = params.copy()
    ye_train, kd_train = _concept_targets(train_set), train_set.bb_scores

    def step(idx, grads, seed_b):
        out = model.forward_full(work, train_set.x[idx], TRAIN, seed_b)
        breakdown, d_kd, d_ye = total_loss(out.y_e, out.y_kd, None if ye_train is None else ye_train[idx],
                                           None if kd_train is None else kd_train[idx], lam)
        model.backward_full(work, out, d_kd, d_ye, stop_concept_grad=stop, grads=grads)
        nn.update_running_stats(work.theta_c, out.concept_traces.trunk)
        nn.update_running_stats(work.heads, out.concept_traces.stack)
        nn.update_running_stats(work.theta_a, out.attention_trace)
        return breakdown

    return _fit_stage(work, train_set, valid_set, config, step, trained=work, stage=1, lam=lam)


def fit_variants(init: model.ConceptDistilParams, train_set, valid_set, base: TrainConfig) -> dict[str, TrainResult]:
    """Every variant fitted from ``init`` under ``base``, in :data:`VARIANTS` order, each equal to
    :func:`train` of that variant; 2-staged continues the baseline-concept fit instead of repeating it."""
    fits = {v: train(init, train_set, valid_set, replace(base, variant=v)) for v in _JOINT}
    fits[TWO_STAGED] = _continue_two_staged(fits[BASELINE_CONCEPT], train_set, valid_set, base)
    return {v: fits[v] for v in VARIANTS}
