"""Model-agnostic scoring boundary.

Anything that turns a feature matrix into scores in [0, 1] can be
distilled: a black box is one score per row. This module provides a
built-in feedforward classifier trained on the task labels, a reader for
the score files of models trained elsewhere (export their scores to CSV,
join on instance id), and uncertainty sampling over attached scores.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn, schema, training
from .data import Dataset
from .errors import DataError
from .nn import EVAL, TRAIN, LayerSpec, MLPParams, OptimizerConfig, derive_seed
from .schema import Checked, bounded, each, ge, gt

_SHUFFLE = 51
_BATCH = 52


class FFNNBlackBox:
    """Frozen feedforward classifier scored through its sigmoid output."""

    def __init__(self, params: MLPParams, descriptor: str = "ffnn"):
        if params.out_dim != 1 or params.specs[-1].activation != "sigmoid":
            raise DataError("black-box network must end in a single sigmoid unit")
        self.params = params
        self.descriptor = descriptor

    def score_batch(self, x) -> np.ndarray:
        out, _ = nn.forward(self.params, x, EVAL)
        return out[:, 0]


@dataclass(frozen=True)
class BlackBoxConfig(Checked):
    """The options of :func:`train_ffnn_blackbox` and their defaults."""

    hidden: tuple[int, ...] = bounded((32, 16), each(ge(1)))
    learning_rate: float = bounded(1e-3, gt(0))
    epochs: int = bounded(60, ge(1))
    batch_size: int = bounded(256, ge(1))
    patience: int = bounded(8, ge(1))
    seed: int = bounded(0, ge(0))


def default_blackbox_specs(n_features: int, hidden) -> list[LayerSpec]:
    dims = [n_features, *hidden]
    specs = [LayerSpec(dims[i], dims[i + 1], "relu") for i in range(len(dims) - 1)]
    specs.append(LayerSpec(dims[-1], 1, "sigmoid"))
    return specs


def train_ffnn_blackbox(train_set: Dataset, valid_set: Dataset, **options) -> FFNNBlackBox:
    """BCE-trained classifier on the task labels, returned frozen.

    ``options`` are :class:`BlackBoxConfig` fields. The copy with the lowest
    validation loss is kept (see :func:`training.fit_epochs`).
    """
    cfg = BlackBoxConfig(**options)
    if train_set.y is None or valid_set.y is None:
        raise DataError("black-box training requires binary task labels")
    for ds, name in ((train_set, "training"), (valid_set, "validation")):
        if ds.n == 0:
            raise DataError(f"black-box {name} set has no rows")
    work = nn.init_mlp(default_blackbox_specs(train_set.d, cfg.hidden), derive_seed(cfg.seed, 50))
    x, t = train_set.x, train_set.y.astype(np.float64).reshape(-1, 1)
    tv = valid_set.y.astype(np.float64).reshape(-1, 1)

    def step(idx, grads, seed_b):
        out, trace = nn.forward(work, x[idx], TRAIN, seed_b)
        loss, grad = nn.bce_loss(out, t[idx])
        nn.backward(work, trace, grad, grads, input_grad=False)
        nn.update_running_stats(work, trace)
        return (loss,)

    def validate(e, means):
        v_loss, _ = nn.bce_loss(nn.forward(work, valid_set.x, EVAL)[0], tv)
        return v_loss, None

    fitted, _, _, _ = training.fit_epochs(
        work, step, validate, trained=work, n=train_set.n, epochs=cfg.epochs, batch_size=cfg.batch_size,
        patience=cfg.patience, lr=cfg.learning_rate, optimizer=OptimizerConfig(),
        draws=nn.draws_masks(work.specs, TRAIN), shuffle_key=(cfg.seed, _SHUFFLE), batch_key=(cfg.seed, _BATCH),
    )
    return FFNNBlackBox(fitted, descriptor="ffnn trained on task labels")


def save_blackbox(adapter: FFNNBlackBox, path) -> None:
    schema.save_file(path, "ffnn_blackbox", {"descriptor": adapter.descriptor,
                                             "network": nn.mlp_to_doc(adapter.params)})


def load_blackbox(path) -> FFNNBlackBox:
    return schema.load_file(path, "ffnn_blackbox", lambda doc: FFNNBlackBox(
        nn.mlp_from_doc(doc["network"], "network"), descriptor=str(doc.get("descriptor", "ffnn"))))


# -- score files ---------------------------------------------------------------

def save_score_file(path, ids, scores) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "score"])
        for i, s in zip(ids, scores):
            w.writerow([str(i), repr(float(s))])


def load_score_file(path, dataset: Dataset) -> np.ndarray:
    """The scores of ``path`` in ``dataset`` row order.

    Every dataset id must be covered exactly once and every score must
    lie in [0, 1].
    """
    path = Path(path)
    mapping: dict[str, float] = {}
    with schema.open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "score"]:
            raise DataError(f"{path}: expected header 'id,score', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}: line {line_no}: expected 2 fields, got {len(row)}")
            key, raw = row
            if key in mapping:
                raise DataError(f"{path}: duplicate id {key!r}")
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{path}: line {line_no}: non-numeric score {raw!r}") from None
            if not 0.0 <= value <= 1.0:
                raise DataError(f"{path}: line {line_no}: score {value} outside [0, 1]")
            mapping[key] = value
    missing = [str(i) for i in dataset.ids if str(i) not in mapping]
    if missing:
        raise DataError(f"{path}: missing scores for ids {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return np.array([mapping[str(i)] for i in dataset.ids])


def uncertainty_sample(dataset: Dataset, fraction: float) -> Dataset:
    """Rows whose attached black-box score sits nearest 0.5, ties broken by id.

    Returns the ceil(fraction * n) most uncertain instances in their
    original dataset order.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    if dataset.n == 0:
        raise DataError("cannot sample from an empty dataset")
    if dataset.bb_scores is None:
        raise DataError("uncertainty sampling needs black-box scores attached to the dataset")
    n_sel = int(math.ceil(fraction * dataset.n))
    order = np.lexsort((dataset.ids, np.abs(dataset.bb_scores - 0.5)))
    return dataset.take(np.sort(order[:n_sel]))
