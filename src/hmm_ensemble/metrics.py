"""Threshold-free classifier evaluation: AUC-ROC and Average Precision.

Both metrics are computed from a single sort. AUC uses midrank tie
handling (the Mann-Whitney statistic); AP is the recall-weighted average
of precisions at each distinct score threshold, with no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def _check_inputs(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.ndim != 1 or labels.shape != scores.shape:
        raise ParameterError("labels and scores must be 1-D and equal length")
    if not np.all(np.isfinite(scores)):
        raise ParameterError("scores must be finite")
    if not (np.any(labels == 1) and np.any(labels == 0)):
        raise ParameterError("both classes must be present")
    return labels, scores


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied scores sharing their average rank."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.shape[0])
    i = 0
    while i < scores.shape[0]:
        j = i
        while j + 1 < scores.shape[0] and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(labels, scores) -> float:
    """P(random positive outranks random negative), ties counting half."""
    labels, scores = _check_inputs(labels, scores)
    ranks = _midranks(scores)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.shape[0] - n_pos
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(labels, scores) -> float:
    """Sum of precision * recall-increment over descending distinct scores.

    Rows are visited in score-descending order with ties broken by the
    original index; tied scores form one threshold step.
    """
    labels, scores = _check_inputs(labels, scores)
    n = labels.shape[0]
    order = np.lexsort((np.arange(n), -scores))
    n_pos = int(np.sum(labels == 1))
    ap = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            if labels[order[k]] == 1:
                tp += 1
            else:
                fp += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return ap


def confusion_at(labels, scores, threshold: float) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) when predicting positive iff score >= threshold."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ParameterError("labels and scores must be equal length")
    pred = scores >= threshold
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
        return {
            "auc_roc": self.auc_roc,
            "average_precision": self.average_precision,
            "threshold": self.threshold,
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
        }

    @classmethod
    def from_scores(cls, labels, scores, threshold: float) -> "EvalReport":
        labels_arr, scores_arr = _check_inputs(labels, scores)
        tp, fp, tn, fn = confusion_at(labels_arr, scores_arr, threshold)
        return cls(
            auc_roc=roc_auc(labels_arr, scores_arr),
            average_precision=average_precision(labels_arr, scores_arr),
            threshold=float(threshold),
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            n_pos=int(np.sum(labels_arr == 1)),
            n_neg=int(np.sum(labels_arr == 0)),
        )
