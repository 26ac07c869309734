"""Input generator owned by the benchmark.

A vectorized sampler for the synthetic generator pair the test suite uses
(tests/synth.py): a 5-state ring that advances one state per step with
probability 0.575 for positives and 0.425 for negatives, where state i emits
tokens i, i+1, i+2 (mod 5) with weights 0.4, 0.3, 0.3. It shares no code with
the program, so a change to the program cannot change the inputs. Every draw
comes from one generator seeded by the benchmark's --seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

TOKENS = "abcde"
N_STATES = 5
POS_ADVANCE = 0.575
NEG_ADVANCE = 0.425
EMIT_CDF = np.array([0.4, 0.7])  # offsets 0, 1, 2 with weights 0.4, 0.3, 0.3


def generator_params(advance: float):
    """(pi, A, B) of one ring generator, for the reference checks."""
    n = N_STATES
    A = np.zeros((n, n))
    B = np.zeros((n, len(TOKENS)))
    for i in range(n):
        A[i, i] = 1.0 - advance
        A[i, (i + 1) % n] += advance
        for k, w in enumerate((0.4, 0.3, 0.3)):
            B[i, (i + k) % len(TOKENS)] += w
    return np.full(n, 1.0 / n), A, B


def sample_ring(rng: np.random.Generator, advance: float, lengths) -> list[np.ndarray]:
    """One token-id sequence per requested length, all drawn in one block.

    Each row is a walk of the longest requested length; shorter sequences are
    its prefixes, which are exact samples of the shorter chain.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    S, T = lengths.shape[0], int(lengths.max())
    start = rng.integers(N_STATES, size=S)
    steps = (rng.random((S, T - 1)) < advance).astype(np.int64)
    states = (start[:, None] + np.concatenate(
        [np.zeros((S, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)) % N_STATES
    offsets = np.searchsorted(EMIT_CDF, rng.random((S, T)), side="right")
    tokens = (states + offsets) % len(TOKENS)
    return [tokens[i, : lengths[i]] for i in range(S)]


def make_corpus(rng: np.random.Generator, n_pos: int, n_neg: int, lengths_of):
    """(sequences, labels) with positives first; lengths_of(k) gives k lengths."""
    pos = sample_ring(rng, POS_ADVANCE, lengths_of(n_pos))
    neg = sample_ring(rng, NEG_ADVANCE, lengths_of(n_neg))
    return pos + neg, np.array([1] * n_pos + [0] * n_neg, dtype=np.int64)


def write_csv(path, sequences, labels) -> None:
    lut = np.array(list(TOKENS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sequence,label\n")
        for seq, label in zip(sequences, labels):
            fh.write("".join(lut[seq]) + f",{int(label)}\n")


def digest(paths) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
