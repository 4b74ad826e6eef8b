"""Random hyperparameter search and the loss-blend sweep.

Trials are isolated: each derives its own seed from (master seed, trial
index), so execution order and parallelism cannot change any outcome.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics, model, pool, training
from .data import Dataset
from .errors import ConceptDistilError, DataError
from .nn import derive_seed
from .schema import Checked, bounded, each, ge, gt, nonempty, within

_TRIAL = 41
_REPEAT = 42


@dataclass(frozen=True)
class SearchSpace(Checked):
    """Bounds for random sampling; widths and learning rate are log-uniform."""

    trunk_depth: tuple[int, int] = bounded((3, 5), each(ge(1)))
    head_depth: tuple[int, int] = bounded((3, 7), each(ge(1)))
    attention_depth: tuple[int, int] = bounded((1, 4), each(ge(1)))
    width: tuple[int, int] = bounded((2, 2048), each(ge(1)))
    lam: tuple[float, float] = bounded((0.2, 0.8), each(within(0, 1)))
    learning_rate: tuple[float, float] = bounded((0.0005, 0.01), each(gt(0)))
    dropout: tuple[float, float] = bounded((0.0, 0.4), each(within(0, 1, hi_open=True)))
    l2: tuple[float, float] = bounded((0.0, 0.1), each(ge(0)))
    batchnorm: tuple[bool, ...] = bounded((False, True), nonempty)

    def __post_init__(self):
        super().__post_init__()
        for name in ("trunk_depth", "head_depth", "attention_depth", "width", "lam", "learning_rate", "dropout", "l2"):
            if len(pair := getattr(self, name)) != 2:
                raise DataError(f"{name} has length {len(pair)}, not 2")
            lo, hi = pair
            if lo > hi:
                raise DataError(f"{name} bounds out of order: {lo} > {hi}")


def _log_uniform(rng, lo, hi):
    return lo if lo == hi else float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _log_uniform_int(rng, lo, hi):
    return int(np.clip(round(_log_uniform(rng, lo, hi)), lo, hi))


def sample_config(
    space: SearchSpace,
    rng: np.random.Generator,
    n_features: int,
    k_concepts: int,
    base: training.TrainConfig | None = None,
) -> tuple[model.ArchitectureConfig, training.TrainConfig]:
    """Draw one in-bounds (architecture, training) configuration.

    Depths are uniform integers, per-layer widths and the learning rate
    log-uniform, the remaining continuous knobs uniform. Epochs, batch
    size, patience, seed and variant are carried over from ``base``.
    """
    base = base or training.TrainConfig()
    depths = [int(rng.integers(lo, hi + 1)) for lo, hi in (space.trunk_depth, space.head_depth, space.attention_depth)]
    trunk, head, attention = ([_log_uniform_int(rng, *space.width) for _ in range(n)]
                              for n in (depths[0], depths[1] - 1, depths[2] - 1))  # drawn in this order
    lam = float(rng.uniform(*space.lam))
    lr = _log_uniform(rng, *space.learning_rate)
    dropout = float(rng.uniform(*space.dropout))
    l2 = float(rng.uniform(*space.l2))
    batchnorm = bool(space.batchnorm[int(rng.integers(0, len(space.batchnorm)))])
    arch = model.build_architecture(n_features, k_concepts, trunk_widths=trunk, head_widths=head,
                                    attention_widths=attention, dropout_p=dropout, use_batchnorm=batchnorm)
    return arch, replace(base, lam=lam, learning_rate=lr, optimizer=replace(base.optimizer, l2_penalty=l2))


@dataclass
class Trial:
    index: int
    seed: int
    lam: float
    trunk_widths: tuple[int, ...]
    head_widths: tuple[int, ...]
    attention_widths: tuple[int, ...]
    learning_rate: float
    dropout: float
    l2: float
    batchnorm: bool
    status: str = "completed"
    fidelity: float | None = None
    mean_auc: float | None = None
    history_digest: str | None = None
    error: str | None = None


@dataclass
class SweepReport:
    trials: list[Trial]
    on_frontier: np.ndarray  # aligned with trials; failed trials are never flagged

    def completed(self) -> list[Trial]:
        return [t for t in self.trials if t.status == "completed"]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["trial_id", "lambda", "trunk_widths", "head_widths", "attention_widths",
                 "learning_rate", "dropout", "l2", "batchnorm", "fidelity", "mean_auc",
                 "on_frontier", "status"]
            )
            for t, flag in zip(self.trials, self.on_frontier):
                w.writerow(
                    [t.index, repr(t.lam), "|".join(map(str, t.trunk_widths)),
                     "|".join(map(str, t.head_widths)), "|".join(map(str, t.attention_widths)),
                     repr(t.learning_rate), repr(t.dropout), repr(t.l2), int(t.batchnorm),
                     "" if t.fidelity is None else repr(t.fidelity),
                     "" if t.mean_auc is None else repr(t.mean_auc),
                     int(bool(flag)), t.status]
                )

    def summary(self) -> dict:
        """Trial counts, and the first completed trial of the highest fidelity and of the highest mean AUC."""
        done = self.completed()

        def best(metric):
            t = max(done, key=lambda t: getattr(t, metric), default=None)
            return None if t is None else {"trial_id": t.index, metric: getattr(t, metric)}

        return {"n_trials": len(self.trials), "n_completed": len(done), "n_on_frontier": int(self.on_frontier.sum()),
                "best_fidelity": best("fidelity"), "best_mean_auc": best("mean_auc")}

    def save_summary(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SweepData:
    """Read-only dataset bundle shared by every trial."""

    train: Dataset
    valid: Dataset
    test: Dataset
    golden_test: Dataset


def evaluate_params(params: model.ConceptDistilParams, test: Dataset, golden_test: Dataset) -> tuple[float, float]:
    """(fidelity on the score set, mean concept AUC on the golden set)."""
    fid = metrics.score_fidelity(model.predict_scores(params, test.x), test, "test set")
    _, mean_auc = metrics.golden_auc(model.predict_concepts(params, golden_test.x), golden_test,
                                     params.concept_names, "golden test set")
    return fid, mean_auc


def _run_trial(data: SweepData, item: tuple[int, model.ArchitectureConfig, training.TrainConfig]) -> Trial:
    """Trial ``index`` of one ``(index, arch, cfg)`` item, trained on ``data``."""
    index, arch, cfg = item
    trial = Trial(
        index=index,
        seed=cfg.seed,
        lam=cfg.lam,
        trunk_widths=tuple(s.out_dim for s in arch.trunk),
        head_widths=tuple(s.out_dim for s in arch.head_template[:-1]),
        attention_widths=tuple(s.out_dim for s in arch.attention[:-1]),
        learning_rate=cfg.learning_rate,
        dropout=arch.trunk[0].dropout_p,
        l2=cfg.optimizer.l2_penalty,
        batchnorm=arch.trunk[0].use_batchnorm,
    )
    try:
        params = model.init_model(arch, data.train.concept_names, cfg.seed)
        result = training.train(params, data.train, data.valid, cfg)
        trial.fidelity, trial.mean_auc = evaluate_params(result.params, data.test, data.golden_test)
        trial.history_digest = _history_digest(result)
    except (ConceptDistilError, FloatingPointError) as exc:
        trial.status = "failed"
        trial.error = str(exc)
    return trial


def _history_digest(result) -> str:
    h = hashlib.sha256()
    for r in result.history:
        h.update(repr((r.epoch, r.stage, r.total, r.kd_component, r.concept_component, r.valid_total)).encode())
    h.update(result.params.digest().encode())
    return h.hexdigest()


def _assemble(trials: list[Trial]) -> SweepReport:
    done = np.array([t.status == "completed" for t in trials], dtype=bool)
    if not done.any():
        raise DataError(f"all trials failed; trial {trials[0].index}: {trials[0].error}")
    flags = np.zeros(len(trials), dtype=bool)
    flags[done] = metrics.pareto_frontier([[t.fidelity, t.mean_auc] for t in trials if t.status == "completed"])
    return SweepReport(trials, flags)


def run_search(
    space: SearchSpace,
    n_trials: int,
    data: SweepData,
    *,
    base: training.TrainConfig | None = None,
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Independent sample-train-evaluate trials over the search space."""
    if n_trials < 1:
        raise DataError("n_trials must be >= 1")
    base = base or training.TrainConfig()
    items = []
    for i in range(n_trials):
        seed = derive_seed(master_seed, _TRIAL, i)
        arch, cfg = sample_config(space, np.random.default_rng(seed), len(data.train.feature_names), data.train.k, base)
        items.append((i, arch, replace(cfg, seed=seed)))
    return _assemble(pool.ordered_map(_run_trial, data, items, jobs))


def sweep_configs(lambdas, n_repeats: int, base: training.TrainConfig | None = None, master_seed: int = 0) -> list:
    """The len(lambdas) * n_repeats trial configs of :func:`lambda_sweep`, lambda-major: ``base`` under each lambda
    and repeat r's derived seed, the same for every lambda so the comparison is paired. Needs no data, so a bad
    grid or repeat count is refused before any is made."""
    lambdas = [float(v) for v in lambdas]
    if not lambdas:
        raise DataError("the lambda grid is empty")
    if n_repeats < 1:
        raise DataError("n_repeats must be >= 1")
    base = base or training.TrainConfig()
    return [replace(base, lam=v, seed=derive_seed(master_seed, _REPEAT, r)) for v in lambdas for r in range(n_repeats)]


def lambda_sweep(
    lambdas,
    n_repeats: int,
    data: SweepData,
    *,
    arch: model.ArchitectureConfig | None = None,
    base: training.TrainConfig | None = None,
    master_seed: int = 0,
    jobs: int | None = None,
) -> SweepReport:
    """Grid of blend weights x repeat seeds (:func:`sweep_configs`) on one fixed architecture.

    Each trial draws only from its own seed, so the report does not depend
    on ``jobs``, which :func:`pool.ordered_map` chooses when it is None.
    """
    configs = sweep_configs(lambdas, n_repeats, base, master_seed)
    arch = arch or model.build_architecture(len(data.train.feature_names), data.train.k)
    return _assemble(pool.ordered_map(_run_trial, data, [(i, arch, cfg) for i, cfg in enumerate(configs)], jobs))
