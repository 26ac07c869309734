"""Brute-force reference implementations used only by the test suite.

Everything here works by exhaustive enumeration (paths, sequences, score
pairs, thresholds) in plain probability space, deliberately sharing no
code path with the library's dynamic programs. There are two exceptions,
each a previous kernel of the program kept as a bit-for-bit reference:
per_pair_similarity, the similarity matrix computed one pair at a time,
calls the library's exact assignment and stationary distribution, and fixes
the orientation and sum order the batched matrix must reproduce;
rows_last_forward, the stacked scaled forward pass with the states on the
last axis, calls the library's _live_runs and fixes the sum order of each
step.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def enumerate_tuples(n_values, length):
    """All length-`length` tuples over {0..n_values-1} as an array of rows."""
    grids = np.meshgrid(*([np.arange(n_values)] * length), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def path_probs(model, seq):
    """(paths, joint probability of each path with the observations)."""
    seq = np.asarray(seq)
    paths = enumerate_tuples(model.n, len(seq))
    p = model.pi[paths[:, 0]] * model.B[paths[:, 0], seq[0]]
    for t in range(1, len(seq)):
        p = p * model.A[paths[:, t - 1], paths[:, t]] * model.B[paths[:, t], seq[t]]
    return paths, p


def brute_likelihood(model, seq):
    return float(path_probs(model, seq)[1].sum())


def brute_em_counts(model, sequences):
    """Posterior expected counts via full path enumeration, pooled over
    sequences: initial-state, transition, and emission counts."""
    n, m = model.n, model.m
    pi_counts = np.zeros(n)
    trans = np.zeros((n, n))
    emit = np.zeros((n, m))
    for seq in sequences:
        seq = np.asarray(seq)
        paths, p = path_probs(model, seq)
        w = p / p.sum()
        np.add.at(pi_counts, paths[:, 0], w)
        for t in range(len(seq) - 1):
            np.add.at(trans, (paths[:, t], paths[:, t + 1]), w)
        for t in range(len(seq)):
            np.add.at(emit, (paths[:, t], np.full(len(w), seq[t])), w)
    return pi_counts, trans, emit


def floor_renormalize(counts, floor):
    """Counts -> distribution with the same floor-then-renormalize rule the
    library documents (re-derived here from that contract)."""
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    sums = counts.sum(axis=1, keepdims=True)
    out = np.where(sums > 0, counts / np.where(sums > 0, sums, 1.0), 1.0 / counts.shape[1])
    if floor > 0:
        out = np.maximum(out, floor)
        out = out / out.sum(axis=1, keepdims=True)
    return out


def brute_matchups(pos_loglik, neg_loglik):
    wins = 0
    for a in pos_loglik:
        for b in neg_loglik:
            if a > b:
                wins += 1
    return wins


def brute_roc_auc(labels, scores):
    """Pairwise concordance count, ties worth half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


def brute_average_precision(labels, scores):
    """Threshold scan: precision/recall recomputed from scratch at every
    distinct score, recall steps weighted."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(labels == 1))
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def brute_best_f1_threshold(scores, labels):
    """Exhaustive threshold scan; ties to the larger threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    candidates = sorted(set(scores.tolist())) + [float(scores.max()) + 1.0]
    best_t, best_f1 = None, -1.0
    for t in candidates:
        pred = scores >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        if f1 >= best_f1:
            best_t, best_f1 = t, f1
    return best_t, best_f1


def hellinger(p, q):
    """Hellinger distance sqrt(sum_k (sqrt p_k - sqrt q_k)^2 / 2), term by term."""
    return math.sqrt(sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q)) / 2)


def brute_assignment(cost, tol=1e-12):
    """Least total cost over every injective map of the rows of cost into its
    columns, and every map within tol of it (all of them when costs tie).
    Each map is a tuple holding the column of each row."""
    cost = np.asarray(cost, dtype=float)
    r, c = cost.shape
    maps = list(itertools.permutations(range(c), r))
    totals = [sum(cost[i, j] for i, j in enumerate(m)) for m in maps]
    best = min(totals)
    return best, [m for m, t in zip(maps, totals) if t <= best + tol]


def brute_stationary(A):
    """Exact stationary distribution of a chain with a unique one, as Fractions.

    Gauss-Jordan elimination over the rationals on v (A - I) = 0 with the
    last equation replaced by sum(v) = 1; float entries convert exactly.
    """
    A = [[Fraction(x) for x in row] for row in np.asarray(A, dtype=float).tolist()]
    n = len(A)
    # row j of the augmented system is equation j: sum_i v_i (A_ij - [i == j]) = 0
    rows = [[A[i][j] - (i == j) for i in range(n)] + [Fraction(0)] for j in range(n - 1)]
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def random_model(rng, n, m):
    """Uniform-entry normalized model, independent of the library initializer."""
    from hmm_ensemble import HmmParams

    pi = rng.random(n)
    A = rng.random((n, n))
    B = rng.random((n, m))
    return HmmParams(pi / pi.sum(), A / A.sum(1, keepdims=True), B / B.sum(1, keepdims=True))


def _hellinger_matrix(P, Q):
    """Hellinger distances between every row of P and every row of Q."""
    diff = np.sqrt(P)[:, None, :] - np.sqrt(Q)[None, :, :]
    return np.minimum(np.sqrt(np.sum(diff**2, axis=2)) / math.sqrt(2.0), 1.0)


def _hmm_distance_weighted(B_a, B_b, v_a, v_b):
    """Distance in [0, 1]: the smaller model's emission rows are matched into
    the larger's at least total Hellinger cost, each pair (i, j) weighing
    (v_a[i] + v_b[j]) / 2 with v the stationary distributions, and each
    unmatched state adds its own mass at cost 1. Matched terms are summed in
    ascending state order of a, the unmatched mass in ascending state order."""
    from hmm_ensemble.diversity import _assignment

    cost = _hellinger_matrix(B_a, B_b)
    if len(v_a) <= len(v_b):
        rows = np.arange(len(v_a))
        cols = np.array(_assignment(cost.tolist()))
        v_big, taken = v_b, cols
    else:
        to_a = np.array(_assignment(cost.T.tolist()))
        rows, cols = np.sort(to_a), np.argsort(to_a)
        v_big, taken = v_a, rows
    weights = (v_a[rows] + v_b[cols]) / 2.0
    total = float(np.sum(weights * cost[rows, cols]))
    weight_sum = float(weights.sum())
    unmatched = float(np.delete(v_big, taken).sum())
    return (total + unmatched) / (weight_sum + unmatched)


def per_pair_similarity(ensemble):
    """The similarity matrix one pair at a time: each pair's own Hellinger
    cost matrix and exact assignment, with the orientation and sum order
    the batched similarity_matrix must reproduce bit for bit."""
    from hmm_ensemble import stationary_distribution

    models = ensemble.models
    stationary = [stationary_distribution(mod.A).dist for mod in models]
    k = len(models)
    values = np.zeros((k, k))
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            sim = 1.0 - _hmm_distance_weighted(
                models[i].B, models[j].B, stationary[i], stationary[j]
            )
            values[i, j] = sim
            values[j, i] = sim
    return values


def rows_last_forward(pi, A, B, obs, lengths):
    """The program's previous stacked scaled forward kernel, with alpha laid
    out J x rows x n: (J, S) log-likelihoods of the S rows of obs under the
    J stacked models (pi, A, B), each step's multiply-adds running over the
    source states in ascending order. Its sum over a row's states is numpy's
    contiguous sum, pairwise from 8 states, so hmm._forward_scaled must give
    the same bits below 8 states and may differ in the last bit from 8."""
    from hmm_ensemble.hmm import FORWARD_CELLS, _live_runs

    J, n = pi.shape
    Bt = np.ascontiguousarray(B.transpose(0, 2, 1))  # J x m x n: one emission row per id
    out = np.empty((J, obs.shape[0]))
    step = max(1, FORWARD_CELLS // (J * n))
    with np.errstate(divide="ignore"):  # ln 0 = -inf for an impossible row
        for r0 in range(0, obs.shape[0], step):
            o, lens = obs[r0 : r0 + step], lengths[r0 : r0 + step]
            a = pi[:, None, :] * Bt[:, o[:, 0]]
            c = a.sum(axis=-1)
            a /= np.where(c > 0, c, 1.0)[..., None]
            ll = np.log(c)
            for k, t0, t1 in _live_runs(lens):
                a, lk = a[:, :k], ll[:, :k]
                for t in range(t0, t1):
                    nxt = a[..., 0, None] * A[:, None, 0]
                    for i in range(1, n):
                        nxt += a[..., i, None] * A[:, None, i]
                    nxt *= Bt[:, o[:k, t]]
                    c = nxt.sum(axis=-1)
                    nxt /= np.where(c > 0, c, 1.0)[..., None]
                    lk += np.log(c)
                    a = nxt
            out[:, r0 : r0 + step] = ll
    return out
