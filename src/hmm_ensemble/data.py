"""Labeled sequence corpora: CSV ingestion, imbalance construction, splits.

The canonical interchange format is a UTF-8 CSV with a header row and the
columns ``sequence`` (a string of single-character tokens) and ``label``
(0 or 1, 1 being the positive/minority class). Lines starting with ``#``
are treated as provenance comments and skipped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ParameterError
from .hmm import TokenSequence, Vocabulary


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from and how it was transformed."""

    source: str
    seed: int | None = None
    imbalance_ratio: float | None = None

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "seed": self.seed,
            "imbalance_ratio": self.imbalance_ratio,
        }


@dataclass
class LabeledDataset:
    sequences: list[TokenSequence]
    labels: np.ndarray
    vocabulary: Vocabulary
    provenance: Provenance

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.sequences) != self.labels.shape[0]:
            raise DataError("sequence and label counts differ")
        m = self.vocabulary.size
        for i, seq in enumerate(self.sequences):
            if seq.ndim != 1 or seq.shape[0] < 1:
                raise DataError(f"sequence {i} is empty")
            if seq.min() < 0 or seq.max() >= m:
                raise DataError(f"sequence {i} has token ids outside [0, {m})")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.labels == 0))

    def take(self, indices) -> "LabeledDataset":
        """New dataset restricted to the given indices (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            sequences=[self.sequences[i] for i in indices],
            labels=self.labels[indices],
            vocabulary=self.vocabulary,
            provenance=self.provenance,
        )


def read_csv_rows(
    path, seq_column: str = "sequence", label_column: str | None = "label"
) -> tuple[list[str], list[int] | None]:
    """Read raw (text, label) rows; label_column=None skips labels.

    Errors name the offending 1-based line number.
    """
    texts: list[str] = []
    labels: list[int] | None = [] if label_column is not None else None
    with open(path, newline="", encoding="utf-8") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if seq_column not in header:
            raise DataError(f"{path}: missing column {seq_column!r}")
        seq_i = header.index(seq_column)
        label_i = None
        if label_column is not None:
            if label_column not in header:
                raise DataError(f"{path}: missing column {label_column!r}")
            label_i = header.index(label_column)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= max(seq_i, label_i or 0):
                raise DataError(f"{path}:{lineno}: too few fields")
            text = row[seq_i].strip()
            if not text:
                raise DataError(f"{path}:{lineno}: empty sequence")
            texts.append(text)
            if labels is not None:
                raw = row[label_i].strip()
                if raw not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {raw!r}")
                labels.append(int(raw))
    if not texts:
        raise DataError(f"{path}: no data rows")
    return texts, labels


def load_csv(
    path, seq_column: str = "sequence", label_column: str = "label"
) -> LabeledDataset:
    """Load a labeled corpus, building the vocabulary in first-seen order."""
    texts, labels = read_csv_rows(path, seq_column, label_column)
    vocab = Vocabulary.from_texts(texts)
    return LabeledDataset(
        sequences=[vocab.encode(t) for t in texts],
        labels=np.asarray(labels, dtype=np.int64),
        vocabulary=vocab,
        provenance=Provenance(source=str(path)),
    )


def subsample_imbalance(dataset: LabeledDataset, ratio: float, seed: int) -> LabeledDataset:
    """Shrink the positive class to floor(n_neg / ratio) random sequences.

    Negatives are untouched; the retained positive subset is a pure
    function of the seed, so imbalanced variants stay fixed across runs.
    """
    if ratio < 1:
        raise ParameterError("imbalance ratio must be >= 1")
    pos_idx = np.flatnonzero(dataset.labels == 1)
    neg_idx = np.flatnonzero(dataset.labels == 0)
    n_keep = math.floor(neg_idx.size / ratio)
    if n_keep < 1:
        raise ParameterError(f"ratio {ratio} leaves no positives ({neg_idx.size} negatives)")
    if n_keep > pos_idx.size:
        raise ParameterError(
            f"ratio {ratio} needs {n_keep} positives but only {pos_idx.size} exist"
        )
    rng = np.random.default_rng(seed)
    keep = rng.choice(pos_idx, size=n_keep, replace=False)
    kept = np.sort(np.concatenate([keep, neg_idx]))
    out = dataset.take(kept)
    out.provenance = replace(dataset.provenance, seed=seed, imbalance_ratio=float(ratio))
    return out


def split_indices(labels, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of row indices: one generator permutes class 0 and
    then class 1, and each class puts its first round-half-up(fraction * n)
    rows in part A and the rest in part B. Both parts come back sorted."""
    if not 0.0 < fraction < 1.0:
        raise ParameterError("split fraction must be in (0, 1)")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    a_parts, b_parts = [], []
    for label in (0, 1):
        class_idx = np.flatnonzero(labels == label)
        n_a = math.floor(class_idx.size * fraction + 0.5)
        if n_a < 1 or n_a >= class_idx.size:
            raise ParameterError(
                f"fraction {fraction} leaves class {label} empty on one side"
            )
        perm = rng.permutation(class_idx)
        a_parts.append(perm[:n_a])
        b_parts.append(perm[n_a:])
    return np.sort(np.concatenate(a_parts)), np.sort(np.concatenate(b_parts))


def split(
    dataset: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split of a dataset by split_indices. Original order is kept."""
    a_idx, b_idx = split_indices(dataset.labels, fraction, seed)
    return dataset.take(a_idx), dataset.take(b_idx)
