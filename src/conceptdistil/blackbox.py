"""Model-agnostic scoring boundary.

Anything that turns a feature matrix into scores in [0, 1] can be
distilled. Two adapters are provided: a built-in feedforward classifier
trained on the task labels, and a replayed score file for models trained
elsewhere (export their scores to CSV, join on instance id).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn, schema, training
from .data import Dataset
from .errors import DataError
from .nn import EVAL, TRAIN, LayerSpec, MLPParams, OptimizerConfig, derive_seed

FORMAT_VERSION = 1

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


class ScoreFileBlackBox:
    """Replays externally computed scores, aligned to one dataset's rows."""

    def __init__(self, scores: np.ndarray, n_rows: int, descriptor: str):
        self._scores = np.asarray(scores, dtype=np.float64)
        self._n = n_rows
        self.descriptor = descriptor

    def score_batch(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self._n:
            raise DataError(
                f"score file covers {self._n} rows, got a batch of {x.shape[0]}; "
                "score-file adapters only serve the dataset they were loaded against"
            )
        return self._scores.copy()


@dataclass(frozen=True)
class BlackBoxConfig:
    """The options of :func:`train_ffnn_blackbox` and their defaults."""

    hidden: tuple[int, ...] = (32, 16)
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 256
    patience: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:  # NaN too
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")


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
    work = nn.init_mlp(default_blackbox_specs(train_set.d, cfg.hidden), derive_seed(cfg.seed, 50))
    x, t = train_set.x, train_set.y.astype(np.float64).reshape(-1, 1)
    tv = valid_set.y.astype(np.float64).reshape(-1, 1)
    grads = nn.new_grads([work])[1][0]  # one buffer for the fit, overwritten every step

    def step(idx, opt_cfg, state, seed_b):
        out, trace = nn.forward(work, x[idx], TRAIN, seed_b)
        loss, grad = nn.bce_loss(out, t[idx])
        nn.backward(work, trace, grad, grads, input_grad=False)
        nn.optimizer_step(work.flat, grads.flat, opt_cfg, state)
        nn.update_running_stats(work, trace)
        return (loss,)

    def validate(e, means):
        v_loss, _ = nn.bce_loss(nn.forward(work, valid_set.x, EVAL)[0], tv)
        return v_loss, None

    fitted, _, _, _ = training.fit_epochs(
        work, step, validate, n=train_set.n, epochs=cfg.epochs, batch_size=cfg.batch_size,
        patience=cfg.patience, opt_cfg=OptimizerConfig(lr=cfg.learning_rate),
        draws=nn.draws_masks(work.specs, TRAIN), shuffle_key=(cfg.seed, _SHUFFLE), batch_key=(cfg.seed, _BATCH),
    )
    return FFNNBlackBox(fitted, descriptor="ffnn trained on task labels")


def save_blackbox(adapter: FFNNBlackBox, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "ffnn_blackbox",
        "descriptor": adapter.descriptor,
        "network": nn.mlp_to_doc(adapter.params),
    }
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def load_blackbox(path) -> FFNNBlackBox:
    return schema.load_file(path, "ffnn_blackbox", lambda doc: FFNNBlackBox(
        nn.mlp_from_doc(doc["network"]), descriptor=str(doc.get("descriptor", "ffnn"))))


# -- score files ---------------------------------------------------------------

def save_score_file(path, ids, scores) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "score"])
        for i, s in zip(ids, scores):
            w.writerow([str(i), repr(float(s))])


def load_score_file(path, dataset: Dataset) -> ScoreFileBlackBox:
    """Score adapter replaying ``path`` in ``dataset`` row order.

    Every dataset id must be covered exactly once and every score must
    lie in [0, 1].
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    mapping: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
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
    aligned = np.array([mapping[str(i)] for i in dataset.ids])
    return ScoreFileBlackBox(aligned, dataset.n, descriptor=f"score file {path.name}")


def uncertainty_sample(adapter, dataset: Dataset, fraction: float, band_center: float = 0.5) -> Dataset:
    """Rows whose score sits nearest ``band_center``, ties broken by id.

    Returns the ceil(fraction * n) most uncertain instances in their
    original dataset order.
    """
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    if dataset.n == 0:
        raise DataError("cannot sample from an empty dataset")
    scores = adapter.score_batch(dataset.x)
    n_sel = int(math.ceil(fraction * dataset.n))
    dist = np.abs(np.asarray(scores, dtype=np.float64) - band_center)
    order = np.lexsort((dataset.ids, dist))
    return dataset.take(np.sort(order[:n_sel]))
