"""Evaluation measures: score fidelity, ranking AUC, recall at a fixed
false-positive rate, and Pareto dominance flags for trade-off reports.
Surrogates and teachers alike are evaluated against a dataset through
:func:`score_fidelity` and :func:`golden_auc`, which check what it carries."""

from __future__ import annotations

import numpy as np

from .data import Dataset, check_concepts
from .errors import DataError


def _as_vector(a, name) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64).ravel()
    if out.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.isfinite(out).all():
        raise DataError(f"{name} must be finite")
    return out


def _binary_labels(labels, scores: np.ndarray) -> np.ndarray:
    """``labels`` as a vector of 0/1 values, one per score."""
    y = np.asarray(labels).ravel()
    if scores.shape != y.shape:
        raise DataError("scores and labels must have equal length")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be binary 0/1")
    return y


def fidelity(y_kd_pred, y_kd_true) -> float:
    """1 - mean absolute error between surrogate and reference scores."""
    pred = _as_vector(y_kd_pred, "predictions")
    true = _as_vector(y_kd_true, "references")
    if pred.shape != true.shape:
        raise DataError("fidelity inputs must have equal length")
    for name, v in (("predictions", pred), ("references", true)):
        if v.min() < 0.0 or v.max() > 1.0:
            raise DataError(f"{name} must lie in [0, 1]")
    return float(1.0 - np.abs(pred - true).mean())


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    mid = (starts + ends) / 2.0
    return mid[inverse]


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC with midrank tie handling.

    Equals the pairwise probability that a positive outranks a negative,
    counting ties as one half.
    """
    s = _as_vector(scores, "scores")
    y = _binary_labels(labels, s)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined: input contains a single class")
    ranks = _midranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mean_concept_auc(pred, golden, concept_names=None) -> tuple[np.ndarray, float]:
    """Per-concept AUC columns and their unweighted mean."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(golden)
    if p.ndim != 2 or p.shape != g.shape:
        raise DataError("pred and golden must be matching 2-D matrices")
    k = p.shape[1]
    names = list(concept_names) if concept_names is not None else [f"concept {i}" for i in range(k)]
    if len(names) != k:
        raise DataError("concept_names length does not match the column count")
    per = np.empty(k)
    for i in range(k):
        try:
            per[i] = roc_auc(p[:, i], g[:, i])
        except DataError as exc:
            raise DataError(f"AUC undefined for concept {names[i]!r}: {exc}") from exc
    return per, float(per.mean())


def score_fidelity(pred, score_set: Dataset, what: str) -> float:
    """:func:`fidelity` of ``pred`` to the black-box scores ``score_set`` carries."""
    if score_set.bb_scores is None:
        raise DataError(f"{what} must carry bb_score for fidelity")
    return fidelity(pred, score_set.bb_scores)


def golden_auc(pred, golden_set: Dataset, names: tuple[str, ...], what: str) -> tuple[np.ndarray, float]:
    """:func:`mean_concept_auc` of ``pred``, whose columns are the concepts ``names``, against the hard
    labels ``golden_set`` carries under the same names in the same order."""
    if golden_set.golden is None:
        raise DataError(f"{what} must carry hard concept labels")
    check_concepts(golden_set, names, what)
    return mean_concept_auc(pred, golden_set.golden, golden_set.concept_names)


def recall_at_fpr(scores, labels, fpr_level: float) -> float:
    """Recall at the lowest score threshold whose FPR stays within the level. Instances sharing a score cross the
    threshold together; if even the highest score's FPR is over the level, the recall is 0."""
    if not 0.0 < fpr_level < 1.0:
        raise DataError(f"fpr_level must be in (0, 1), got {fpr_level}")
    s = _as_vector(scores, "scores")
    y = _binary_labels(labels, s)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("recall_at_fpr needs both classes")
    thresholds = np.unique(s)  # predicted positive = score >= t
    fpr = (n_neg - np.searchsorted(np.sort(s[y == 0]), thresholds)) / n_neg  # the share of each class at or above t
    tpr = (n_pos - np.searchsorted(np.sort(s[y == 1]), thresholds)) / n_pos
    return float(tpr[fpr <= fpr_level].max(initial=0.0))


def pareto_frontier(points) -> np.ndarray:
    """Boolean flags: True where no other point dominates in both metrics.

    A point is dominated when another is >= in both coordinates and
    strictly greater in at least one; exact duplicates defend each other.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=bool)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError("points must be an (n, 2) sequence")
    p, q = pts[:, None, :], pts[None, :, :]  # [i, j]: does point j dominate point i?
    return ~((q >= p).all(2) & (q > p).any(2)).any(1)
