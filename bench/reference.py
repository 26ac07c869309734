"""Reference computations for checking the program's outputs.

Plain numpy, written from the definitions and sharing no code with the
program: a scaled forward pass in probability space, matchup recounts,
pairwise AUC, Average Precision from its definition, and validity checks for
models, EM histories, similarity matrices and feature rows. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

LL_RTOL = 1e-9  # log-space and scaled recursions agree to ~1e-12 relative
STOCHASTIC_ATOL = 1e-9
EM_SLACK = 1e-6  # relative drop allowed per EM step (probability flooring)


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity literals."""

    def reject(token):
        raise ValueError(f"non-finite literal {token}")

    return json.loads(text, parse_constant=reject)


def forward_loglik(models, sequences) -> np.ndarray:
    """(len(sequences), len(models)) matrix of ln p(sequence | model).

    ``models`` holds (pi, A, B) triples. Models of different sizes are padded
    to a common state count with unreachable states (zero initial and
    incoming probability), which leaves every likelihood unchanged. The
    recursion is Rabiner's scaled forward pass (1989, section V.A): alpha is
    renormalized at each step and the log of the scale factors summed. A zero
    scale factor makes the likelihood -inf and keeps it there.
    """
    K = len(models)
    n = max(np.asarray(pi).shape[0] for pi, _, _ in models)
    m = np.asarray(models[0][2]).shape[1]
    PI = np.zeros((K, n))
    A = np.zeros((K, n, n))
    BT = np.zeros((K, m, n))
    for k, (pi, a, b) in enumerate(models):
        nk = len(pi)
        PI[k, :nk] = pi
        A[k, :nk, :nk] = a
        BT[k, :, :nk] = np.asarray(b).T
    lengths = np.array([len(s) for s in sequences])
    obs = np.zeros((len(sequences), lengths.max()), dtype=np.int64)
    for i, seq in enumerate(sequences):
        obs[i, : len(seq)] = seq
    ll = np.zeros((K, len(sequences)))
    alpha = PI[:, None, :] * BT[:, obs[:, 0], :]
    for t in range(obs.shape[1]):
        if t > 0:
            alpha = (alpha @ A) * BT[:, obs[:, t], :]
        live = lengths > t
        c = alpha.sum(axis=2)
        with np.errstate(divide="ignore"):
            ll += np.where(live, np.log(c), 0.0)
        alpha = alpha / np.where(c > 0, c, 1.0)[:, :, None]
    return ll.T


def compare_loglik(program: np.ndarray, reference: np.ndarray) -> list[str]:
    program = np.asarray(program, dtype=np.float64)
    if program.shape != reference.shape:
        return [f"log-likelihood block shape {program.shape} != {reference.shape}"]
    if np.isnan(program).any():
        return ["program log-likelihoods contain NaN"]
    both_inf = np.isneginf(program) & np.isneginf(reference)
    with np.errstate(invalid="ignore"):
        err = np.abs(program - reference) / np.maximum(1.0, np.abs(reference))
    bad = ~both_inf & ~(err <= LL_RTOL)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [
            f"{int(bad.sum())} log-likelihoods differ from the scaled reference, "
            f"e.g. sequence {i} model {j}: {program[i, j]!r} vs {reference[i, j]!r}"
        ]
    return []


def strict_wins(ll: np.ndarray, n_pos: int) -> np.ndarray:
    """Per row, the number of (positive, negative) pairs with pos > neg."""
    pos, neg = ll[:, :n_pos], ll[:, n_pos:]
    return (pos[:, :, None] > neg[:, None, :]).sum(axis=(1, 2))


def check_scores(scores, n_pos: int, n_neg: int) -> list[str]:
    scores = np.asarray(scores)
    if scores.dtype.kind not in "iu":
        return ["composite scores are not integers"]
    if scores.min() < 0 or scores.max() > n_pos * n_neg:
        return [f"a composite score lies outside [0, {n_pos * n_neg}]"]
    return []


def check_recount(scores, ll_program, ll_reference, n_pos: int) -> list[str]:
    """Scores recounted with strict > from the program's own likelihoods must
    match exactly; from the reference likelihoods they must match up to pairs
    whose two likelihoods lie within the comparison tolerance."""
    scores = np.asarray(scores)
    problems = []
    recount = strict_wins(np.asarray(ll_program, dtype=np.float64), n_pos)
    if not np.array_equal(recount, scores):
        problems.append("composite scores differ from a strict recount of their likelihoods")
    pos, neg = ll_reference[:, :n_pos, None], ll_reference[:, None, n_pos:]
    tol = LL_RTOL * np.maximum(1.0, np.maximum(np.abs(pos), np.abs(neg)))
    with np.errstate(invalid="ignore"):
        gap = pos - neg
    sure = (gap > tol).sum(axis=(1, 2))
    near = (np.abs(gap) <= tol).sum(axis=(1, 2))
    if np.any(scores < sure) or np.any(scores > sure + near):
        problems.append("composite scores differ from a recount of reference likelihoods")
    return problems


def pairwise_auc(labels, scores) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def definition_ap(labels, scores) -> float:
    """Sum over distinct thresholds t (descending) of precision(t) times the
    recall gained at t, where a sequence is flagged iff its score >= t."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    thresholds = np.unique(scores)[::-1]
    pos_sorted = np.sort(scores[labels == 1])
    all_sorted = np.sort(scores)
    tp = pos_sorted.size - np.searchsorted(pos_sorted, thresholds, side="left")
    flagged = all_sorted.size - np.searchsorted(all_sorted, thresholds, side="left")
    recall = tp / pos_sorted.size
    return float(np.sum(np.diff(recall, prepend=0.0) * tp / flagged))


def evaluation_split(labels, seed: int, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(calibration, held-out) indices of ``hmm-ensemble evaluate --seed``.

    Its documented split: one ``numpy.random.default_rng(seed)`` stream
    permutes the indices of class 0 and then of class 1; the first
    round(size * fraction) of each (at least 1) calibrate the threshold and
    the rest are held out. Both index arrays are sorted.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    calib, held_out = [], []
    for label in (0, 1):
        idx = np.flatnonzero(labels == label)
        n_cal = max(1, int(np.floor(idx.size * fraction + 0.5)))
        perm = rng.permutation(idx)
        calib.extend(perm[:n_cal])
        held_out.extend(perm[n_cal:])
    return np.sort(np.array(calib)), np.sort(np.array(held_out))


def f1_threshold(labels, scores) -> float:
    """The threshold t among the distinct scores and max + 1 whose rule
    "flag iff score >= t" has the largest F1 = 2TP / (2TP + FP + FN); the
    larger t wins a tie. F1 values are compared as exact fractions."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    candidates = np.append(np.unique(scores), scores.max() + 1)
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    tp = pos.size - np.searchsorted(pos, candidates, side="left")
    fp = neg.size - np.searchsorted(neg, candidates, side="left")
    num, den = 2 * tp, tp + fp + pos.size  # 2TP + FP + FN, FN = P - TP
    best = 0
    for k in range(1, candidates.size):
        if num[k] * den[best] >= num[best] * den[k]:
            best = k
    return float(candidates[best])


def check_metric(name: str, program, reference: float, tol: float = 1e-12) -> list[str]:
    if not isinstance(program, (int, float)) or not abs(program - reference) <= tol:
        return [f"{name} {program!r} != recomputed {reference!r}"]
    return []


def check_models(models, state_counts, n_symbols: int) -> list[str]:
    """Every model finite and row-stochastic, with the state count its job
    index gives it (state counts cycle over the job index)."""
    for k, (pi, A, B) in enumerate(models):
        pi, A, B = (np.asarray(x, dtype=np.float64) for x in (pi, A, B))
        n = state_counts[k % len(state_counts)]
        if pi.shape != (n,) or A.shape != (n, n) or B.shape != (n, n_symbols):
            return [f"model {k}: shapes {pi.shape} {A.shape} {B.shape}, expected n={n}"]
        for name, arr in (("pi", pi[None, :]), ("A", A), ("B", B)):
            if not np.isfinite(arr).all() or (arr < 0).any():
                return [f"model {k}: {name} has a non-finite or negative entry"]
            if np.abs(arr.sum(axis=1) - 1.0).max() > STOCHASTIC_ATOL:
                return [f"model {k}: rows of {name} do not sum to 1"]
    return []


def check_histories(histories, max_iters: int) -> list[str]:
    """Each EM history has 1..max_iters finite entries and never drops by
    more than a small share of its magnitude."""
    for k, h in enumerate(histories):
        h = np.asarray(h, dtype=np.float64)
        if not 1 <= h.size <= max_iters or not np.isfinite(h).all():
            return [f"history {k}: {h.size} entries or a non-finite value"]
        drops = h[:-1] - h[1:]
        if np.any(drops > EM_SLACK * np.maximum(1.0, np.abs(h[:-1]))):
            return [f"history {k}: log-likelihood drops by {drops.max():.3g}"]
    return []


def check_similarity(values, k: int) -> list[str]:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (k, k):
        return [f"similarity matrix shape {v.shape}, expected ({k}, {k})"]
    if not np.isfinite(v).all():
        return ["similarity matrix has a non-finite entry"]
    if not np.array_equal(v, v.T):
        return ["similarity matrix is not symmetric"]
    if not np.all(np.diag(v) == 1.0):
        return ["similarity matrix diagonal is not 1"]
    if v.min() < 0.0 or v.max() > 1.0:
        return ["similarity entry outside [0, 1]"]
    return []


def check_features(features, ll) -> list[str]:
    """Feature rows are the log-likelihood rows scaled to unit L2 norm."""
    f = np.asarray(features, dtype=np.float64)
    ll = np.asarray(ll, dtype=np.float64)
    if f.shape != ll.shape:
        return [f"feature block shape {f.shape} != {ll.shape}"]
    expect = ll / np.linalg.norm(ll, axis=1, keepdims=True)
    if not np.all(np.abs(f - expect) <= 1e-12):
        return ["feature rows differ from unit-normalized log-likelihood rows"]
    return []
