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

from .errors import DataError, ParameterError, check_int, check_real
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
        bad = np.flatnonzero((self.labels != 0) & (self.labels != 1))
        if bad.size:
            raise DataError(f"sequence {bad[0]} has label {self.labels[bad[0]]}, not 0 or 1")
        m = self.vocabulary.size
        for i, seq in enumerate(self.sequences):
            if seq.ndim != 1 or seq.shape[0] < 1:
                raise DataError(f"sequence {i} is empty")
            if seq.min() < 0 or seq.max() >= m:
                raise DataError(f"sequence {i} has token ids outside [0, {m})")

    def __len__(self) -> int:
        return len(self.sequences)

    def take(self, indices) -> "LabeledDataset":
        """New dataset restricted to the given indices (order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            sequences=[self.sequences[i] for i in indices],
            labels=self.labels[indices],
            vocabulary=self.vocabulary,
            provenance=self.provenance,
        )


def csv_rows(path):
    """Yield (1-based line number, fields) for each non-empty row, header
    first. Lines starting with ``#`` are provenance comments and skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        for row in reader:
            if row:
                yield reader.line_num, row


def read_csv_rows(path, with_labels: bool = True) -> tuple[list[str], list[int] | None]:
    """Read the ``sequence`` column and, if asked, the ``label`` column.

    Errors name the offending 1-based line number.
    """
    texts: list[str] = []
    labels: list[int] | None = [] if with_labels else None
    rows = csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    columns = ("sequence", "label") if with_labels else ("sequence",)
    for name in columns:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    where = [header.index(name) for name in columns]
    for lineno, row in rows:
        if len(row) <= max(where):
            raise DataError(f"{path}:{lineno}: too few fields")
        text = row[where[0]].strip()
        if not text:
            raise DataError(f"{path}:{lineno}: empty sequence")
        texts.append(text)
        if labels is not None:
            raw = row[where[1]].strip()
            if raw not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {raw!r}")
            labels.append(int(raw))
    if not texts:
        raise DataError(f"{path}: no data rows")
    return texts, labels


def load_csv(path) -> LabeledDataset:
    """Load a labeled corpus, building the vocabulary in first-seen order."""
    texts, labels = read_csv_rows(path)
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
    check_real("imbalance ratio", ratio, "[1, inf)")
    seed = check_int("seed", seed, 0)
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
    check_real("split fraction", fraction, "(0, 1)")
    seed = check_int("seed", seed, 0)
    labels = np.asarray(labels)
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ParameterError(f"row {bad[0]} has label {labels[bad[0]]}, not 0 or 1")
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
