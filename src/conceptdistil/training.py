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
* ``2-staged``       concept blocks are fitted first (lam forced to 0),
                     frozen bit-exactly, then the attention stack is
                     fitted against their eval-mode predictions (lam 1);
* ``baseline-distill``  single-task run with lam forced to 1;
* ``baseline-concept``  single-task run with lam forced to 0.

The two baselines share the joint code path, so a ``default`` run with
the same pinned lam reproduces them step for step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import metrics, model, nn
from .errors import DataError, NumericError
from .nn import EVAL, TRAIN, OptimizerConfig, derive_seed

DEFAULT = "default"
NO_GRADIENT = "no-gradient"
TWO_STAGED = "2-staged"
BASELINE_DISTILL = "baseline-distill"
BASELINE_CONCEPT = "baseline-concept"
VARIANTS = (DEFAULT, NO_GRADIENT, TWO_STAGED, BASELINE_DISTILL, BASELINE_CONCEPT)

METRIC_COMBINED = "combined_loss"
METRIC_FIDELITY = "fidelity"
METRIC_CONCEPT_BCE = "mean_concept_bce"
VALIDATION_METRICS = (METRIC_COMBINED, METRIC_FIDELITY, METRIC_CONCEPT_BCE)

# seed-stream tags
_SHUFFLE = 101
_BATCH = 102


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 256
    early_stop_patience: int = 10
    seed: int = 0
    variant: str = DEFAULT
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    validation_metric: str = METRIC_COMBINED

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DataError(f"lam must be in [0, 1], got {self.lam}")
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.validation_metric not in VALIDATION_METRICS:
            raise DataError(f"unknown validation metric {self.validation_metric!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.early_stop_patience < 1:
            raise DataError("epochs, batch_size and early_stop_patience must be >= 1")
        if not self.learning_rate > 0:
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")

    def effective_optimizer(self) -> OptimizerConfig:
        return replace(self.optimizer, lr=self.learning_rate)


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
        w.writerow(
            ["epoch", "stage", "total", "kd_component", "concept_component",
             "valid_total", "valid_kd", "valid_concept", "valid_fidelity"]
        )
        for r in history:
            w.writerow(
                [r.epoch, r.stage, repr(r.total), repr(r.kd_component), repr(r.concept_component),
                 repr(r.valid_total), repr(r.valid_kd), repr(r.valid_concept), repr(r.valid_fidelity)]
            )


def _concept_targets(dataset) -> np.ndarray | None:
    if dataset.soft is not None:
        return dataset.soft
    if dataset.golden is not None:
        return dataset.golden.astype(np.float64)
    return None


def _joint_step(params, grads, xb, ye_t, kd_t, lam, stop_concept_grad, opt_cfg, state, rng_seed):
    out = model.forward_full(params, xb, TRAIN, rng_seed)
    breakdown, d_kd, d_ye = total_loss(out.y_e, out.y_kd, ye_t, kd_t, lam)
    model.backward_full(params, out, d_kd, d_ye, stop_concept_grad=stop_concept_grad, grads=grads)
    nn.optimizer_step(params.flat, grads.flat, opt_cfg, state)
    nn.update_running_stats(params.theta_c, out.concept_traces.trunk)
    nn.update_running_stats(params.heads, out.concept_traces.stack)
    nn.update_running_stats(params.theta_a, out.attention_trace)
    return breakdown


def _attention_step(params, grads_a, xb, kd_t, opt_cfg, state, rng_seed):
    # stage 2: concept predictions frozen at their deployment-time values
    y_e, _ = model.concept_forward(params, xb, EVAL)
    alpha, trace_a = model.attention_forward(params, xb, TRAIN, rng_seed)
    y_kd = (y_e * alpha).sum(axis=1)
    kd_component, g = nn.bce_loss(y_kd.reshape(-1, 1), kd_t.reshape(-1, 1))
    d_kd = g[:, 0].reshape(-1, 1)
    d_alpha = d_kd * y_e
    d_e = nn.softmax_backward(alpha, d_alpha)
    nn.backward(params.theta_a, trace_a, d_e, grads_a, input_grad=False)
    nn.optimizer_step(params.theta_a.flat, grads_a.flat, opt_cfg, state)
    nn.update_running_stats(params.theta_a, trace_a)
    return LossBreakdown(kd_component, kd_component, 0.0)


def _validation_record(params, valid_set, lam):
    out = model.forward_full(params, valid_set.x, EVAL)
    breakdown, _, _ = total_loss(out.y_e, out.y_kd, _concept_targets(valid_set), valid_set.bb_scores, lam)
    fid = float("nan")
    if valid_set.bb_scores is not None:
        fid = metrics.fidelity(out.y_kd, valid_set.bb_scores)
    return breakdown, fid


def _metric_value(metric, breakdown, fid):
    if metric == METRIC_COMBINED:
        return breakdown.total
    if metric == METRIC_CONCEPT_BCE:
        return breakdown.concept_component
    if math.isnan(fid):
        raise DataError("fidelity validation metric requires black-box scores on the validation set")
    return -fid  # maximized metric, minimized internally


def fit_epochs(work, step, validate, *, n, epochs, batch_size, patience, opt_cfg, draws, shuffle_key, batch_key):
    """Minibatch fit of ``work`` with early stopping; returns ``(best copy, records, best epoch, stopped early)``.

    Epoch ``e`` visits the ``n`` rows in the order drawn from ``derive_seed(*shuffle_key, e)``.
    ``step(idx, opt_cfg, state, seed)`` updates ``work`` on the rows ``idx`` and returns its loss
    terms, total first; ``seed`` is ``derive_seed(*batch_key, e, b)`` when the model ``draws``
    dropout masks, else 0. ``validate(e, train_means)`` turns the row-weighted means of the terms
    into ``(value, record)``. The copy of ``work`` with the lowest value is kept, and the fit
    stops after ``patience`` epochs without a lower one.
    """
    state = nn.OptimizerState()
    history = []
    best_value, best, best_epoch, bad, stopped = math.inf, work.copy(), 0, 0, False
    for e in range(epochs):
        order = np.random.default_rng(derive_seed(*shuffle_key, e)).permutation(n)
        sums = 0.0
        for b, lo in enumerate(range(0, n, batch_size)):
            idx = order[lo : lo + batch_size]
            terms = step(idx, opt_cfg, state, derive_seed(*batch_key, e, b) if draws else 0)
            if not math.isfinite(terms[0]):
                raise NumericError(f"non-finite training loss at epoch {e}, batch {b}")
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


def _run_stage(params, train_set, valid_set, config, *, stage, lam, step_fn, start_epoch):
    arch = params.config

    def validate(e, means):
        vb, vfid = _validation_record(params, valid_set, lam)
        record = EpochRecord(start_epoch + e, stage, float(means[0]), float(means[1]), float(means[2]),
                             vb.total, vb.kd_component, vb.concept_component, vfid)
        return _metric_value(config.validation_metric, vb, vfid), record

    best, history, best_e, stopped = fit_epochs(
        params, step_fn, validate, n=train_set.n, epochs=config.epochs, batch_size=config.batch_size,
        patience=config.early_stop_patience, opt_cfg=config.effective_optimizer(),
        draws=nn.draws_masks(arch.trunk + arch.head_template + arch.attention, TRAIN),
        shuffle_key=(config.seed, _SHUFFLE, stage), batch_key=(config.seed, _BATCH, stage),
    )
    return best, history, start_epoch + best_e, stopped


def _require(condition, message):
    if not condition:
        raise DataError(message)


def train(params: model.ConceptDistilParams, train_set, valid_set, config: TrainConfig) -> TrainResult:
    """Fit the surrogate under the configured variant.

    The input params are not mutated; the best-validation-epoch copy is
    returned. Identical (params, data, config) reproduce the history and
    the final parameters bit for bit.
    """
    model.check_concepts(params, train_set, "training set")
    model.check_concepts(params, valid_set, "validation set")
    work = params.copy()
    variant = config.variant
    ye_train = _concept_targets(train_set)
    needs_concepts = variant != BASELINE_DISTILL
    needs_scores = variant != BASELINE_CONCEPT
    if needs_concepts:
        _require(ye_train is not None, f"{variant} training requires concept labels")
        _require(_concept_targets(valid_set) is not None, f"{variant} validation requires concept labels")
    if needs_scores:
        _require(train_set.bb_scores is not None, f"{variant} training requires black-box scores")
        _require(valid_set.bb_scores is not None, f"{variant} validation requires black-box scores")

    if variant == TWO_STAGED:
        stage1 = replace(config, variant=BASELINE_CONCEPT)
        res1 = train(work, train_set, valid_set, stage1)
        work = res1.params
        frozen = work.concept_digest()
        kd_t = train_set.bb_scores
        grads_a = nn.new_grads([work.theta_a])[1][0]  # one buffer for the stage, overwritten every step

        def stage2_step(idx, opt_cfg, state, seed_b):
            return _attention_step(work, grads_a, train_set.x[idx], kd_t[idx], opt_cfg, state, seed_b)

        stage2_cfg = replace(config, validation_metric=METRIC_COMBINED)
        best, hist2, best_epoch, stopped = _run_stage(
            work, train_set, valid_set, stage2_cfg,
            stage=2, lam=1.0, step_fn=stage2_step, start_epoch=len(res1.history),
        )
        if best.concept_digest() != frozen:
            raise NumericError("stage 2 modified frozen concept parameters")
        return TrainResult(best, res1.history + hist2, best_epoch, stopped)

    if variant in (DEFAULT, NO_GRADIENT):
        lam = config.lam
    elif variant == BASELINE_DISTILL:
        lam = 1.0
    else:
        lam = 0.0
    stop = variant == NO_GRADIENT
    kd_t = train_set.bb_scores
    x_train = train_set.x
    grads = model.new_grads(work)  # one buffer for the stage, overwritten every step

    def joint(idx, opt_cfg, state, seed_b):
        ye_b = None if ye_train is None else ye_train[idx]
        kd_b = None if kd_t is None else kd_t[idx]
        return _joint_step(work, grads, x_train[idx], ye_b, kd_b, lam, stop, opt_cfg, state, seed_b)

    best, history, best_epoch, stopped = _run_stage(
        work, train_set, valid_set, config, stage=1, lam=lam, step_fn=joint, start_epoch=0
    )
    return TrainResult(best, history, best_epoch, stopped)
