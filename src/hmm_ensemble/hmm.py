"""Discrete-emission hidden Markov models.

Log-space forward likelihood (``forward_batch``, which scoring uses) and
Viterbi decoding; multi-sequence Baum-Welch training on a scaled
forward-backward pass (Rabiner 1989, Sec. V.A); and generative sampling.
Everything here is pure with respect to the model: parameters are immutable
after construction, training returns a new model, and random state is
always passed in explicitly.

Scoring and training run their recursions over ``_length_blocks``: rows in
descending length order, cut into blocks whose rows are all longer than
half the block's longest. A block is one padded S x T array, so padding at
most doubles its cells and memory follows the tokens, never the row count
times the longest row; step t advances only the rows longer than t, so a
corpus of many lengths takes a few recursions instead of one per length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ParameterError

# A token sequence is a 1-D integer array of token ids in [0, m).
TokenSequence = np.ndarray


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, tolerating -inf entries."""
    amax = np.max(a, axis=axis, keepdims=True)
    # Rows that are entirely -inf must come out as -inf, not nan.
    safe = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis))
    return out + np.squeeze(safe, axis=axis)


class Vocabulary:
    """Ordered token alphabet with a bijective token <-> id mapping."""

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if len(tokens) < 2:
            raise ParameterError("vocabulary needs at least 2 distinct tokens")
        if len(set(tokens)) != len(tokens):
            raise ParameterError("vocabulary tokens must be distinct")
        self.tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_texts(cls, texts) -> "Vocabulary":
        """Build a vocabulary from single-character tokens in first-seen order."""
        seen: dict[str, None] = {}
        for text in texts:
            for ch in text:
                seen.setdefault(ch, None)
        return cls(seen.keys())

    def encode(self, text: str) -> TokenSequence:
        try:
            return np.array([self._ids[ch] for ch in text], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"token {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.size):
            raise DataError("token id out of vocabulary range")
        return "".join(self.tokens[i] for i in ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary({''.join(self.tokens)!r})"


@dataclass(frozen=True)
class HmmParams:
    """One model: initial distribution pi, transitions A, emissions B.

    pi has length n, A is n x n and B is n x m, all row-stochastic. Arrays
    are locked read-only so models can be shared across workers.
    """

    pi: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        pi = np.ascontiguousarray(self.pi, dtype=np.float64)
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        B = np.ascontiguousarray(self.B, dtype=np.float64)
        n = pi.shape[0] if pi.ndim == 1 else -1
        if n < 1 or A.shape != (n, n) or B.ndim != 2 or B.shape[0] != n:
            raise ParameterError(
                f"inconsistent shapes: pi {pi.shape}, A {A.shape}, B {B.shape}"
            )
        for name, arr in (("pi", pi[None, :]), ("A", A), ("B", B)):
            # written so that NaN fails it, since NaN also passes the row sum test
            if not np.all(arr >= 0):
                raise ParameterError(f"{name} has negative or non-finite entries")
            if np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
                raise ParameterError(f"rows of {name} must sum to 1")
        for arr in (pi, A, B):
            arr.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pi": self.pi.tolist(),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HmmParams":
        params = cls(pi=np.array(d["pi"]), A=np.array(d["A"]), B=np.array(d["B"]))
        if params.n != d["n"] or params.m != d["m"]:
            raise DataError("serialized n/m do not match array shapes")
        return params


@dataclass(frozen=True)
class TrainConfig:
    """Baum-Welch settings for a single model."""

    n_states: int
    max_iters: int = 25
    tol: float = 1e-4
    seed: int = 0
    floor: float = 1e-10

    def __post_init__(self):
        if self.n_states < 1:
            raise ParameterError("n_states must be >= 1")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if self.tol < 0:
            raise ParameterError("tol must be >= 0")
        if self.floor < 0:
            raise ParameterError("floor must be >= 0")

    def validate_floor(self, n_symbols: int) -> None:
        # A floor of 0 disables flooring; otherwise flooring then
        # renormalizing must leave valid distributions.
        limit = 1.0 / max(self.n_states, n_symbols)
        if self.floor >= limit:
            raise ParameterError(f"floor must be < {limit} for this model size")


def init_random(n: int, m: int, rng: np.random.Generator) -> HmmParams:
    """Draw a model with uniform(0,1) entries, rows normalized.

    Draw order is pi, then A, then B, so a given generator state yields a
    reproducible model.
    """
    if n < 1:
        raise ParameterError("state count must be >= 1")
    if m < 2:
        raise ParameterError("vocabulary size must be >= 2")
    pi = rng.random(n)
    A = rng.random((n, n))
    B = rng.random((n, m))
    return HmmParams(
        pi=pi / pi.sum(),
        A=A / A.sum(axis=1, keepdims=True),
        B=B / B.sum(axis=1, keepdims=True),
    )


def _check_sequence(seq, m: int) -> TokenSequence:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ParameterError("sequence must be a non-empty 1-D array of ids")
    if arr.min() < 0 or arr.max() >= m:
        raise DataError(f"token id out of range [0, {m})")
    return arr


def _log_params(model: HmmParams):
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.A), np.log(model.B.T)


def forward_batch(model: HmmParams, obs: np.ndarray, lengths=None) -> np.ndarray:
    """Log-likelihood of each row of ``obs`` (an S x T id array).

    ``lengths`` gives each row's own length, in non-increasing order; ids
    past a row's end are padding and are never read. Without it every row
    is T long.
    """
    if lengths is None:
        lengths = np.full(obs.shape[0], obs.shape[1])
    log_pi, log_A, log_Bt = _log_params(model)
    alpha = log_pi[None, :] + log_Bt[obs[:, 0]]
    for k, t0, t1 in _live_runs(lengths):
        a, o = alpha[:k], obs[:k]
        for t in range(t0, t1):
            a = logsumexp(a[:, :, None] + log_A[None, :, :], axis=1)
            a += log_Bt[o[:, t]]
        alpha[:k] = a
    return logsumexp(alpha, axis=1)


def log_likelihood(model: HmmParams, seq) -> float:
    """ln p(sequence | model) by the forward recursion in log space."""
    seq = _check_sequence(seq, model.m)
    return float(forward_batch(model, seq[None, :])[0])


def viterbi(model: HmmParams, seq) -> tuple[np.ndarray, float]:
    """Most probable state path and its joint log-probability.

    Ties are broken toward the lower state id at every step.
    """
    seq = _check_sequence(seq, model.m)
    log_pi, log_A, log_Bt = _log_params(model)
    T, n = seq.shape[0], model.n
    delta = log_pi + log_Bt[seq[0]]
    back = np.zeros((T, n), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + log_A
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(n)] + log_Bt[seq[t]]
    path = np.zeros(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 2, -1, -1):
        path[t] = back[t + 1, path[t + 1]]
    return path, float(delta[path[-1]])


def _length_blocks(
    sequences: list[TokenSequence],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(row indices, S x T padded ids, lengths) for each block of similar lengths.

    Rows go in descending length order (a stable sort, so equal lengths
    keep input order), and a block ends before the first row no longer than
    half its first. So every row of a block is longer than T/2, and padding
    at most doubles its cells. The blocks depend on the lengths alone, so
    accumulation order, and hence the floating-point result, is fixed.
    """
    lengths = np.array([seq.shape[0] for seq in sequences])
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    blocks, lo = [], 0
    while lo < order.size:
        # the block ends before the first row with 2 * length <= its first length
        hi = int(np.searchsorted(-2 * ranked, -ranked[lo], side="left"))
        idx = order[lo:hi]
        obs = np.zeros((idx.size, ranked[lo]), dtype=np.int64)
        for row, k in enumerate(idx):
            obs[row, : lengths[k]] = sequences[k]
        blocks.append((idx, obs, ranked[lo:hi]))
        lo = hi
    return blocks


def _live_runs(lengths) -> list[tuple[int, int, int]]:
    """(k, t0, t1): steps t0..t1-1 advance only the first k rows.

    Those are the rows longer than t, given rows in non-increasing length
    order. One run covers every step of a single-length block.
    """
    last = np.flatnonzero(np.diff(lengths)).tolist() + [len(lengths) - 1]
    runs, t0 = [], 1
    for i in reversed(last):  # the last row of each length, shortest first
        t1 = int(lengths[i])
        if t1 > t0:
            runs.append((i + 1, t0, t1))
            t0 = t1
    return runs


def _e_step(model: HmmParams, blocks):
    """Pooled expected counts and total log-likelihood over all sequences.

    Scaled forward-backward (Rabiner 1989, Sec. V.A), time-major per
    ``_length_blocks`` block: alpha[t] sums to 1 per row with normalizer
    c[t], ln p = sum_t ln c[t], beta shares the scaling, and
    gamma = alpha * beta. Past a row's end alpha and beta stay 0 and c stays
    1, so padding adds nothing. A row with a c[t] of 0 is impossible: its
    log-likelihood is -inf and it adds no counts.
    """
    n, m = model.n, model.m
    A, Bt = model.A, model.B.T
    ones = np.ones(n)  # a @ ones sums rows faster than a.sum(axis=1) at n <= 5
    pi_counts, trans_counts, emit_counts = np.zeros(n), np.zeros((n, n)), np.zeros((n, m))
    total_ll = 0.0
    for _, obs, lengths in blocks:
        obs = obs.T
        T, S = obs.shape
        runs = _live_runs(lengths)
        Bo = Bt[obs]
        alpha, c = np.zeros((T, S, n)), np.ones((T, S))
        a = model.pi * Bo[0]
        c[0] = s = a @ ones
        alpha[0] = a / np.where(s > 0, s, 1.0)[:, None]
        for k, t0, t1 in runs:
            al, cl, bo = alpha[:, :k], c[:, :k], Bo[:, :k]
            for t in range(t0, t1):
                a = (al[t - 1] @ A) * bo[t]
                cl[t] = s = a @ ones
                al[t] = a / np.where(s > 0, s, 1.0)[:, None]
        with np.errstate(divide="ignore"):
            total_ll += float(np.log(c).sum())

        # dividing by c gives beta the scaling of alpha; inf zeroes impossible rows
        Bo /= np.where(c > 0, c, np.inf)[:, :, None]
        beta = np.zeros((T, S, n))
        beta[lengths - 1, np.arange(S)] = 1.0
        for k, t0, t1 in reversed(runs):
            be, bo = beta[:, :k], Bo[:, :k]
            for t in range(t1 - 1, t0 - 1, -1):
                be[t - 1] = (bo[t] * be[t]) @ A.T
        gamma = alpha * beta
        pi_counts += gamma[0].sum(axis=0)
        xi_right = (Bo[1:] * beta[1:]).reshape(-1, n)
        trans_counts += A * (alpha[:-1].reshape(-1, n).T @ xi_right)
        flat_obs, flat_gamma = obs.reshape(-1), gamma.reshape(-1, n)
        for j in range(n):
            emit_counts[j] += np.bincount(flat_obs, weights=flat_gamma[:, j], minlength=m)
    return (pi_counts, trans_counts, emit_counts), total_ll


def _floor_normalize(mat: np.ndarray, floor: float) -> np.ndarray:
    """Counts -> distributions; zero rows go uniform; floor then renormalize."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    sums = mat.sum(axis=1, keepdims=True)
    out = np.where(sums > 0, mat / np.where(sums > 0, sums, 1.0), 1.0 / mat.shape[1])
    if floor > 0:
        out = np.maximum(out, floor)
        out = out / out.sum(axis=1, keepdims=True)
    return out


def _m_step(counts, floor: float) -> HmmParams:
    pi_counts, trans_counts, emit_counts = counts
    return HmmParams(
        pi=_floor_normalize(pi_counts, floor)[0],
        A=_floor_normalize(trans_counts, floor),
        B=_floor_normalize(emit_counts, floor),
    )


def baum_welch(
    sequences,
    n_symbols: int,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[HmmParams, list[float]]:
    """Multi-sequence EM from a random start.

    Returns the trained model and the per-iteration total log-likelihood
    history; entry k is the likelihood of the parameters *before* update k,
    so the history is non-decreasing up to flooring perturbations. Stops
    after ``max_iters`` updates or once the improvement drops below ``tol``.
    """
    config.validate_floor(n_symbols)
    sequences = [_check_sequence(s, n_symbols) for s in sequences]
    if not sequences:
        raise ParameterError("need at least one training sequence")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    blocks = _length_blocks(sequences)
    model = init_random(config.n_states, n_symbols, rng)
    history: list[float] = []
    for _ in range(config.max_iters):
        counts, total_ll = _e_step(model, blocks)
        if not math.isfinite(total_ll):
            raise NumericError("total log-likelihood is not finite")
        if history and total_ll - history[-1] < config.tol:
            history.append(total_ll)
            break
        history.append(total_ll)
        model = _m_step(counts, config.floor)
    return model, history


def sample(model: HmmParams, length: int, rng: np.random.Generator) -> TokenSequence:
    """Draw one observation sequence of the given length.

    Uses inverse-CDF draws in the fixed order state, emission, state,
    emission, ... so output is reproducible for a given generator state.
    """
    if length < 1:
        raise ParameterError("sample length must be >= 1")
    cum_pi = np.cumsum(model.pi)
    cum_A = np.cumsum(model.A, axis=1)
    cum_B = np.cumsum(model.B, axis=1)
    u = rng.random(2 * length)
    obs = np.empty(length, dtype=np.int64)
    state = min(int(np.searchsorted(cum_pi, u[0], side="right")), model.n - 1)
    obs[0] = min(int(np.searchsorted(cum_B[state], u[1], side="right")), model.m - 1)
    for t in range(1, length):
        state = min(int(np.searchsorted(cum_A[state], u[2 * t], side="right")), model.n - 1)
        obs[t] = min(int(np.searchsorted(cum_B[state], u[2 * t + 1], side="right")), model.m - 1)
    return obs
