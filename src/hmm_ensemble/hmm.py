"""Discrete-emission hidden Markov models.

Forward likelihood (``_forward_scaled`` for stacked models of one state
count, which scoring uses, and ``forward_batch`` for one model);
multi-sequence Baum-Welch training on a scaled forward-backward pass; and
generative sampling. Both recursions are scaled (Rabiner 1989, Sec. V.A).
Scoring's step uses no BLAS, so each row gets the same bits whatever it is
scored with; EM keeps BLAS products, which are faster, since its units are
fixed by the job plan. Scoring keeps alpha as J x n x rows (J stacked
models of n states), so each elementwise op of a step runs numpy's
innermost loop along the rows, not along 3-5 states. Everything here is
pure with respect to the model: parameters are immutable after
construction, training returns a new model, and random state is always
passed in explicitly.

Scoring and training run their recursions over ``_length_blocks``: rows in
descending length order, cut into blocks whose rows are all longer than
half the block's longest. A block is one padded S x T array, so padding at
most doubles its cells and memory follows the tokens, never the row count
times the longest row; a corpus of many lengths takes a few recursions
instead of one per length. Scoring counts once per row chunk the rows
longer than each t, a prefix of the chunk, and step t advances just those.

Training has one EM path, ``_baum_welch_unit``: the jobs of one state
count run in lockstep, each block laid out as T x J x R (J jobs, up to R
rows each), with one batched matrix product per step for all of them. The
forward-backward pass stores alpha and xi's right factor job-major, so each
job's transition counts are one matrix product over views, summed in the
order the job alone would sum them. ``baum_welch`` is its one-job case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ParameterError, check_int, check_real, check_rows

# A token sequence is a 1-D integer array of token ids in [0, m).
TokenSequence = np.ndarray

# A step of ``_forward_scaled`` holds at most this many J x n x rows cells
# per array (2 MB of float64), whatever the corpus and ensemble size.
FORWARD_CELLS = 2**18


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
        for name, arr in (("pi", pi), ("A", A), ("B", B)):
            check_rows(name, arr)
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
        if params.n != check_int("n", d["n"], 1) or params.m != check_int("m", d["m"], 1):
            raise DataError("serialized n/m do not match array shapes")
        return params


@dataclass(frozen=True)
class TrainConfig:
    """Baum-Welch settings; the state count and random start are per call."""

    max_iters: int = 25
    tol: float = 1e-4
    floor: float = 1e-10

    def __post_init__(self):
        check_int("max_iters", self.max_iters, 1)
        check_real("tol", self.tol, "[0, inf)")
        check_real("floor", self.floor, "[0, inf)")

    def validate_floor(self, n_states: int, n_symbols: int) -> None:
        # A floor of 0 disables flooring; otherwise flooring then
        # renormalizing must leave valid distributions.
        limit = 1.0 / max(n_states, n_symbols)
        if self.floor >= limit:
            raise ParameterError(f"floor must be < {limit} for this model size")


def init_random(n: int, m: int, rng: np.random.Generator) -> HmmParams:
    """Draw a model with uniform(0,1) entries, rows normalized.

    Draw order is pi, then A, then B, so a given generator state yields a
    reproducible model.
    """
    n, m = check_int("state count", n, 1), check_int("vocabulary size", m, 2)
    pi = rng.random(n)
    A = rng.random((n, n))
    B = rng.random((n, m))
    return HmmParams(
        pi=pi / pi.sum(),
        A=A / A.sum(axis=1, keepdims=True),
        B=B / B.sum(axis=1, keepdims=True),
    )


def _check_sequence(seq, m: int) -> TokenSequence:
    """``seq`` as an int64 id array if it is a non-empty 1-D array of integer
    ids in [0, m); floats, strings and bools are not ids and raise DataError."""
    try:
        arr = np.asarray(seq)
    except ValueError:  # ragged nesting, which has no array shape
        arr = None
    if arr is None or arr.ndim != 1 or arr.shape[0] < 1:
        raise ParameterError("sequence must be a non-empty 1-D array of ids")
    if arr.dtype.kind not in "iu":
        raise DataError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= m:
        raise DataError(f"token id out of range [0, {m})")
    return arr.astype(np.int64, copy=False)


def forward_batch(model: HmmParams, obs: np.ndarray) -> np.ndarray:
    """Log-likelihood of each row of ``obs`` (an S x T id array), every row
    T long. This is the one-model case of ``_forward_scaled``."""
    return _forward_scaled(*_stack([model]), obs, np.full(obs.shape[0], obs.shape[1]))[0]


def log_likelihood(model: HmmParams, seq) -> float:
    """ln p(sequence | model) by the scaled forward recursion."""
    seq = _check_sequence(seq, model.m)
    return float(forward_batch(model, seq[None, :])[0])


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


def _stack(models) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pi, A, B) of J models with one state count, stacked on a leading job axis."""
    return tuple(np.stack([getattr(p, name) for p in models]) for name in ("pi", "A", "B"))


def _state_sum(x: np.ndarray) -> np.ndarray:
    """Sum of J x n x rows ``x`` over its states, one state at a time in
    ascending order. ``x.sum(axis=1)`` would sum the states of a one-row
    call pairwise from 8 states on (numpy does so along a contiguous axis),
    so a row's bits would depend on how many rows share the call."""
    c = x[:, 0].copy()
    for i in range(1, x.shape[1]):
        c += x[:, i]
    return c


def _forward_scaled(pi, A, B, obs: np.ndarray, lengths) -> np.ndarray:
    """(J, S) log-likelihoods of the S rows of ``obs`` under J stacked models.

    ``pi``, ``A`` and ``B`` are the stacked parameters of ``_stack``;
    ``lengths`` gives each row's length, in non-increasing order, and ids
    past a row's end are never read. Scaled forward recursion (Rabiner 1989,
    Sec. V.A): a <- (a A) * B[:, o_t], then c = sum(a), a /= c and
    ln p += ln c. A row with a c of 0 is impossible and gets -inf. Rows go
    in chunks of at most ``FORWARD_CELLS`` J x n x rows cells per step.
    Each chunk counts in one search the k rows longer than each t, a prefix
    since lengths descend; step t advances those, and a and the row
    log-likelihoods narrow to them only when k drops.

    alpha is laid out J x n x rows, so every op of a step (the multiply-adds,
    the emission product, the sum over states, the divide) runs numpy's
    innermost loop along the chunk's contiguous rows rather than along the
    3-5 states: each call of that loop covers hundreds of numbers, not a
    few. Both the multiply-adds and the sum over states run in ascending
    state order, one state at a time.

    a A is n multiply-adds over the source states in a fixed order, not a
    matrix product: BLAS picks its kernel by the operand shapes, so a row's
    bits would depend on the rows scored with it. Elementwise steps give
    each row the bits it gets alone.
    """
    J, n = pi.shape
    out = np.empty((J, obs.shape[0]))
    step = max(1, FORWARD_CELLS // (J * n))
    with np.errstate(divide="ignore"):  # ln 0 = -inf for an impossible row
        for r0 in range(0, obs.shape[0], step):
            o, lens = obs[r0 : r0 + step], lengths[r0 : r0 + step]
            a = pi[:, :, None] * np.take(B, o[:, 0], axis=2)
            c = _state_sum(a)
            a /= np.where(c > 0, c, 1.0)[:, None, :]
            ll = lk = np.log(c)
            live = np.searchsorted(-lens, -np.arange(1, lens[0]), side="left").tolist()
            for t, k in enumerate(live, 1):
                if k < a.shape[2]:
                    a, lk = a[..., :k], ll[:, :k]
                nxt = a[:, 0, None, :] * A[:, 0, :, None]
                for i in range(1, n):
                    nxt += a[:, i, None, :] * A[:, i, :, None]
                nxt *= np.take(B, o[:k, t], axis=2)
                c = _state_sum(nxt)
                nxt /= np.where(c > 0, c, 1.0)[:, None, :]
                lk += np.log(c)
                a = nxt
            out[:, r0 : r0 + step] = ll
    return out


def _job_blocks(job_sequences, n_symbols: int) -> list:
    """The ``_length_blocks`` blocks of all jobs' rows, laid out job-major.

    Each block is (jobs, keys, pad, ends). ``jobs`` are the positions of the
    J jobs with rows in the block. ``keys`` is T x J x R, where R is the
    most rows any job has in the block: slot j holds job ``jobs[j]``'s rows
    in block order, and a key is j * (m + 1) + id, with the id m past a
    row's end and in the slots a job leaves empty. ``pad`` marks those
    positions. ``ends[L]`` indexes the (slot, row) pairs of the rows of
    length L.
    """
    rows = [seq for seqs in job_sequences for seq in seqs]
    owner = np.repeat(np.arange(len(job_sequences)), [len(seqs) for seqs in job_sequences])
    blocks = []
    for idx, obs, lengths in _length_blocks(rows):
        present = np.bincount(owner[idx], minlength=len(job_sequences))
        jobs, counts = np.flatnonzero(present), present[present > 0]
        slot = (np.cumsum(present > 0) - 1)[owner[idx]]
        # a row's rank among its job's rows; a stable sort keeps block order
        order = np.argsort(slot, kind="stable")
        rank = np.empty_like(slot)
        rank[order] = np.arange(slot.size) - np.repeat(np.cumsum(counts) - counts, counts)
        T = obs.shape[1]
        ids = obs.T.copy()
        ids[np.arange(T)[:, None] >= lengths[None, :]] = n_symbols
        keys = np.full((T, jobs.size, counts.max()), n_symbols, dtype=np.int64)
        keys[:, slot, rank] = ids
        pad = keys == n_symbols
        keys += (n_symbols + 1) * np.arange(jobs.size)[None, :, None]
        ends = {L: (slot[lengths == L], rank[lengths == L]) for L in set(lengths.tolist())}
        blocks.append((jobs, keys, pad, ends))
    return blocks


def _e_step(params, blocks):
    """Expected counts and log-likelihood of each of J jobs, in one pass.

    ``params`` is the stacked (pi, A, B) of the jobs (``_stack``) and
    ``blocks`` come from ``_job_blocks``. Scaled forward-backward (Rabiner
    1989, Sec. V.A), time-major, with one batched matrix product per step
    over the T x J x R x n block: alpha[t] sums to 1 per row with
    normalizer c[t], ln p = sum_t ln c[t], beta shares the scaling, and
    gamma = alpha * beta. Past a row's end the emission factor is 0, so
    alpha and beta stay 0, and c is set to 1 there: padding adds nothing.
    A row with a c[t] of 0 is impossible: its job's log-likelihood is -inf
    and the row adds no counts. Returns ((pi, A, B) counts with a leading
    job axis, log-likelihoods of shape (J,)).

    alpha and xi's right factor Bo[t] * beta[t] are kept job-major,
    J x T x R x n, so each job's transition counts are one matrix product
    over views of them, while the steps compute on contiguous time slices.
    beta goes into Bo as the backward pass reads it, so a block peaks at
    three arrays of its size.
    """
    pi, A, B = params
    (J, n), m = pi.shape, B.shape[2]
    # each job's emission columns, then a zero row for the padding id m
    Bt = np.zeros((J, m + 1, n))
    Bt[:, :m] = B.transpose(0, 2, 1)
    ones = np.ones(n)  # a @ ones sums rows faster than a.sum(axis=-1) at n <= 5
    pi_counts, trans_counts = np.zeros((J, n)), np.zeros((J, n, n))
    emit_counts, total_ll = np.zeros((J, n, m)), np.zeros(J)
    for jobs, keys, pad, ends in blocks:
        T, Jb, R = keys.shape
        Ab, At = A[jobs], A[jobs].transpose(0, 2, 1)
        alpha, c = np.empty((Jb, T, R, n)), np.empty(keys.shape)
        Bo = Bt[jobs].reshape(-1, n)[keys]
        a = pi[jobs][:, None, :] * Bo[0]
        for t in range(T):
            if t:
                a = (a @ Ab) * Bo[t]
            c[t] = s = a @ ones
            alpha[:, t] = a = a / np.where(s > 0, s, 1.0)[..., None]
        c[pad] = 1.0
        with np.errstate(divide="ignore"):
            # each job's terms contiguous and time-major, so each sums as it would alone
            logc = np.log(np.ascontiguousarray(c.transpose(1, 0, 2)))
            total_ll[jobs] += logc.reshape(Jb, -1).sum(axis=1)

        # dividing by c gives beta the scaling of alpha; inf zeroes impossible rows
        Bo /= np.where(c > 0, c, np.inf)[..., None]
        del c, logc  # so the peak is alpha, Bo and xi_right
        xi_right, b = np.empty(alpha.shape), np.zeros((Jb, R, n))
        b[ends[T]] = 1.0
        for t in range(T - 1, 0, -1):
            xi_right[:, t] = x = Bo[t] * b
            Bo[t] = b  # beta[t]
            b = x @ At
            if t in ends:  # rows of length t end here; Bo[t] = 0 zeroed them
                b[ends[t]] = 1.0
        Bo[0] = b
        xi_left = alpha[:, :-1].reshape(Jb, -1, n).transpose(0, 2, 1)
        trans_counts[jobs] += Ab * (xi_left @ xi_right[:, 1:].reshape(Jb, -1, n))
        del xi_left, xi_right
        Bo *= alpha.swapaxes(0, 1)  # gamma
        del alpha
        pi_counts[jobs] += Bo[0].sum(axis=1)
        flat_keys, flat_gamma = keys.reshape(-1), Bo.reshape(-1, n)
        for j in range(n):
            emitted = np.bincount(flat_keys, weights=flat_gamma[:, j], minlength=Jb * (m + 1))
            emit_counts[jobs, j] += emitted.reshape(Jb, m + 1)[:, :m]
    return (pi_counts, trans_counts, emit_counts), total_ll


def _floor_normalize(mat: np.ndarray, floor: float) -> np.ndarray:
    """Counts -> distributions over the last axis; zero rows go uniform; floor then renormalize."""
    sums = mat.sum(axis=-1, keepdims=True)
    out = np.where(sums > 0, mat / np.where(sums > 0, sums, 1.0), 1.0 / mat.shape[-1])
    if floor > 0:
        out = np.maximum(out, floor)
        out = out / out.sum(axis=-1, keepdims=True)
    return out


def _baum_welch_unit(
    job_sequences, n_symbols: int, n_states: int, config: TrainConfig, rngs, job_ids=None
):
    """Baum-Welch for J jobs of one state count in lockstep (Rabiner 1989, Sec. V.B).

    Job j trains an ``n_states``-state model on ``job_sequences[j]`` from
    ``init_random`` drawn with ``rngs[j]``; ``config`` gives the EM settings
    of all jobs. The stacked (pi, A, B) hold every job for the whole run:
    each iteration runs one ``_e_step`` on the live jobs and writes the
    M-step into those that go on. A job stops by its own test, keeping the
    parameters it was scored with, and the blocks are rebuilt for the rest.
    Returns one (model, history) per job, as ``baum_welch`` gives for that
    job alone up to the order of floating-point sums.

    With ``job_ids``, a package error is raised again naming a job: the one
    whose sequences or likelihood failed, or the unit's first job for a
    setting that fails them all.
    """
    job = 0
    try:
        config.validate_floor(n_states, n_symbols)
        checked = []
        for job, seqs in enumerate(job_sequences):
            checked.append([_check_sequence(s, n_symbols) for s in seqs])
            if not checked[-1]:
                raise ParameterError("need at least one training sequence")
        params = _stack([init_random(n_states, n_symbols, rng) for rng in rngs])
        histories: list[list[float]] = [[] for _ in checked]
        live = np.arange(len(checked))
        blocks = _job_blocks(checked, n_symbols)
        for _ in range(config.max_iters):
            counts, lls = _e_step(tuple(p[live] for p in params), blocks)
            stop = np.zeros(live.size, dtype=bool)
            for i, (job, ll) in enumerate(zip(live.tolist(), lls.tolist())):
                if not math.isfinite(ll):
                    raise NumericError("total log-likelihood is not finite")
                history = histories[job]
                stop[i] = bool(history) and ll - history[-1] < config.tol
                history.append(ll)
            # a stopped job keeps the parameters it was scored with
            for p, x in zip(params, counts):
                p[live[~stop]] = _floor_normalize(x[~stop], config.floor)
            live = live[~stop]
            if not live.size:
                break
            if stop.any():
                blocks = _job_blocks([checked[k] for k in live], n_symbols)
        return [(HmmParams(*(p[j] for p in params)), h) for j, h in enumerate(histories)]
    except (ParameterError, DataError, NumericError) as exc:
        if job_ids is None:
            raise
        # name the job, keeping the package error type that sets the CLI exit code
        raise type(exc)(f"training job {job_ids[job]} failed: {exc}") from exc


def baum_welch(
    sequences,
    n_symbols: int,
    n_states: int,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[HmmParams, list[float]]:
    """Multi-sequence EM for an ``n_states``-state model from a random start
    drawn with ``rng``.

    Returns the trained model and the per-iteration total log-likelihood
    history; entry k is the likelihood of the parameters *before* update k,
    so the history is non-decreasing up to flooring perturbations. Stops
    after ``max_iters`` updates or once the improvement drops below ``tol``.
    This is the one-job case of ``_baum_welch_unit``.
    """
    return _baum_welch_unit([sequences], n_symbols, n_states, config, [rng])[0]


def sample(model: HmmParams, length: int, rng: np.random.Generator) -> TokenSequence:
    """Draw one observation sequence of the given length.

    Uses inverse-CDF draws in the fixed order state, emission, state,
    emission, ... so output is reproducible for a given generator state.
    """
    length = check_int("sample length", length, 1)
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
