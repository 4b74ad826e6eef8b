"""Model-agnostic scoring boundary.

Anything that turns a feature matrix into scores in [0, 1] can be
distilled: a black box is one score per row. This module provides a
built-in feedforward classifier trained on the task labels, the id join
of a score file (a dataset CSV holding a model's scores as ``bb_score``),
and uncertainty sampling over attached scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data, nn, schema, training
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
    def from_doc(doc):
        schema.keys(doc, (*schema.ENVELOPE, "descriptor", "network"))
        return FFNNBlackBox(nn.mlp_from_doc(schema.value(doc, "network", dict), "network"),
                            descriptor=schema.value(doc, "descriptor", str))
    return schema.load_file(path, "ffnn_blackbox", from_doc)


# -- score files ---------------------------------------------------------------

def load_score_file(path, dataset: Dataset) -> np.ndarray:
    """The ``bb_score`` column of the dataset CSV at ``path`` in ``dataset`` row order. Every dataset id must be in
    the file; its other ids and columns are ignored."""
    scored = data.load_csv(path)
    if scored.bb_scores is None:
        raise DataError(f"{path}: no bb_score column")
    by_id = dict(zip(scored.ids.tolist(), scored.bb_scores.tolist()))
    missing = [i for i in dataset.ids.tolist() if i not in by_id]
    if missing:
        raise DataError(f"{path}: missing scores for ids {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return np.array([by_id[i] for i in dataset.ids.tolist()])


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
