"""Threshold-free classifier evaluation: AUC-ROC and Average Precision.

Both metrics, and ``ensemble.choose_threshold``, read the cumulative
counts of one descending sort with tied scores grouped. AUC uses midrank
tie handling (the Mann-Whitney statistic); AP is the recall-weighted
average of precisions at each distinct score threshold, with no
interpolation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, check_real


def _finite_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ParameterError("scores must be finite")
    return scores


def _check_inputs(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = _finite_scores(scores)
    if labels.ndim != 1 or labels.shape != scores.shape:
        raise ParameterError("labels and scores must be 1-D and equal length")
    if not np.all((labels == 0) | (labels == 1)):
        raise ParameterError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    if not (np.any(labels == 1) and np.any(labels == 0)):
        raise ParameterError("both classes must be present")
    return labels, scores


def _tie_groups(
    labels: np.ndarray, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One descending sweep over checked inputs (Fawcett 2006, Alg. 1).

    Returns the distinct scores in descending order and, at each one, the
    cumulative (tp, fp) counts: the rows scoring >= that score.
    """
    order = np.argsort(-scores)
    ranked = scores[order]
    last = np.append(ranked[1:] != ranked[:-1], True)  # last row of each tie group
    tp = np.cumsum(labels[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    return ranked[last], tp, fp


def roc_auc(labels, scores) -> float:
    """P(random positive outranks random negative), ties counting half."""
    _, tp, fp = _tie_groups(*_check_inputs(labels, scores))
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    # twice each group's midrank: 2 * rows below + group size + 1
    above = tp + fp
    twice_ranks = 2 * (n_pos + n_neg - above) + np.diff(above, prepend=0) + 1
    twice_rank_sum = int(np.sum(np.diff(tp, prepend=0) * twice_ranks))
    return (twice_rank_sum - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)


def average_precision(labels, scores) -> float:
    """Sum of precision * recall-increment over descending distinct scores;
    tied scores form one threshold step."""
    _, tp, fp = _tie_groups(*_check_inputs(labels, scores))
    recall = tp / tp[-1]
    precision = tp / (tp + fp)
    # a running sum, so the terms are added in threshold order
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def confusion_at(labels, scores, threshold: float) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) when predicting positive iff score >= threshold."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = _finite_scores(scores)
    if labels.shape != scores.shape:
        raise ParameterError("labels and scores must be equal length")
    pred = scores >= check_real("threshold", threshold)
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    return tp, fp, tn, fn


@dataclass
class EvalReport:
    """Evaluation summary at a fixed threshold plus threshold-free metrics."""

    auc_roc: float
    average_precision: float
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if self.tp + self.fn != self.n_pos or self.fp + self.tn != self.n_neg:
            raise ParameterError("confusion counts do not add up to class counts")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_scores(cls, labels, scores, threshold: float) -> "EvalReport":
        auc = roc_auc(labels, scores)  # checks both arrays before confusion_at reads them
        tp, fp, tn, fn = confusion_at(labels, scores, threshold)
        return cls(
            auc_roc=auc,
            average_precision=average_precision(labels, scores),
            threshold=float(threshold),
            tp=tp, fp=fp, tn=tn, fn=fn,
            n_pos=tp + fn, n_neg=fp + tn,
        )
