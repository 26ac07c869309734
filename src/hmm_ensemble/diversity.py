"""Ensemble diversity diagnostics.

The distance between two models is the assignment-matched sum of Hellinger
distances between their emission rows, weighted by how much stationary
mass each matched state pair carries. A redundant ensemble shows up as
blocks of near-1 entries in the pairwise similarity matrix.

The matrix is built by state-count class (n_i, n_j), in chunks of pairs:
one broadcast gives every Hellinger cost matrix of a chunk, and each pair
takes the injective map of the smaller model's states into the larger's
with least total cost, found by summing every map at once. A pair whose
two least totals are within TIE_GAP, and every pair of a class with more
than MAP_LIMIT maps, takes the exact Kuhn-Munkres assignment instead, so
ties are broken as the assignment breaks them. One function assembles
every distance from its matching, in one fixed sum order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensemble import EnsembleModel
from .errors import ParameterError, check_rows

_DAMPING = 1e-8
MAP_LIMIT = 720  # a class with more injective maps takes the exact assignment
TIE_GAP = 1e-9  # enumerated least totals this close take the exact assignment
SIMILARITY_CELLS = 2**17  # cost and map-total cells per chunk of pairs


class StationaryResult(NamedTuple):
    dist: np.ndarray
    degenerate: bool


def _is_primitive(A: np.ndarray) -> bool:
    """Wielandt bound: A is primitive iff bool(A)^((n-1)^2 + 1) is all-ones."""
    return bool(np.linalg.matrix_power(A > 0, (A.shape[0] - 1) ** 2 + 1).all())


def stationary_distribution(A) -> StationaryResult:
    """The distribution v with v @ A = v, by state reduction (Grassmann,
    Taksar & Heyman 1985).

    State k = n-1, ..., 1 is censored out in turn: its row, scaled to the
    mass it sends to lower states, is folded into the rows that reach it.
    Then v[0] = 1, each v[k] is v[:k] times the censored column k, and v is
    normalized. Only sums and products enter, never a difference, so the
    result is accurate to rounding however slowly the chain mixes, in n - 1
    steps. A chain that is not primitive (reducible or periodic) comes back
    flagged degenerate, with the stationary vector of the chain damped
    toward uniform, (1 - d) A + d / n, which is unique.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ParameterError("transition matrix must be square")
    check_rows("transition matrix", A)
    n = A.shape[0]
    degenerate = not _is_primitive(A)
    # both chains are irreducible, and so is each censored one: state k sends
    # mass to some lower state, and no sum below is 0
    P = (1.0 - _DAMPING) * A + _DAMPING / n if degenerate else A.copy()
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    v = np.ones(n)
    for k in range(1, n):
        v[k] = v[:k] @ P[:k, k]
    return StationaryResult(v / v.sum(), degenerate)


def _hellinger(root_p: np.ndarray, root_q: np.ndarray) -> np.ndarray:
    """Hellinger distances between every row of each p and every row of the
    matching q, from the rows' square roots: (..., r, m) and (..., c, m)
    give (..., r, c)."""
    diff = root_p[..., :, None, :] - root_q[..., None, :, :]
    np.square(diff, out=diff)
    dist = np.sqrt(diff.sum(axis=-1))
    dist /= math.sqrt(2.0)
    return np.minimum(dist, 1.0, out=dist)


def _assignment(cost: list[list[float]]) -> list[int]:
    """Distinct columns for the rows of an r x c cost (r <= c) at least total cost.

    Kuhn-Munkres by shortest augmenting paths with row and column potentials
    (Kuhn 1955; Munkres 1957), O(r^2 c). Rows join in ascending order, each
    growing a shortest path tree over the columns. The scan starts at the
    highest column and drops each settled column by swapping in the last
    unsettled one; an exact tie goes to an unassigned column, else to the
    column scanned first. Tied similarity cells depend on this order.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col = [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        dist, path = [math.inf] * n_cols, [-1] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, low = cur, 0.0
        while True:
            seen_rows.append(i)
            lowest, best = math.inf, -1
            for k, j in enumerate(remaining):
                d = low + cost[i][j] - u[i] - v[j]
                if d < dist[j]:
                    dist[j], path[j] = d, i
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, best = dist[j], k
            low, j = lowest, remaining[best]
            remaining[best] = remaining[-1]
            remaining.pop()
            seen_cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += low
        for i in seen_rows[1:]:
            u[i] += low - dist[col4row[i]]
        for k in seen_cols:
            v[k] -= low - dist[k]
        i = -1
        while i != cur:  # flip the path from the free column j back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def _maps(r: int, c: int) -> np.ndarray:
    """Every injective map of r states into c states, one per row."""
    return np.array(list(itertools.permutations(range(c), r)), dtype=np.intp).reshape(-1, r)


def _distances(
    cost: np.ndarray, v_a: np.ndarray, v_b: np.ndarray, to_big: np.ndarray
) -> np.ndarray:
    """Distances in [0, 1] of a batch of pairs (a, b), from their (P, n_a, n_b)
    Hellinger costs, stationary distributions v_a (P, n_a) and v_b (P, n_b),
    and matchings: to_big[p, s] is the state of the larger model that state s
    of the smaller one is matched to (a counts as the smaller when n_a <= n_b).

    Each matched pair (i, j) weighs (v_a[i] + v_b[j]) / 2, and each unmatched
    state adds its own mass at cost 1. Matched terms are summed in ascending
    state order of a, the unmatched mass in ascending state order."""
    n_pairs, n_a, n_b = cost.shape
    pair = np.arange(n_pairs)[:, None]
    if n_a <= n_b:
        states_a, states_b, v_big = np.arange(n_a)[None, :], to_big, v_b
    else:
        states_b = np.argsort(to_big, axis=1)
        states_a, v_big = np.take_along_axis(to_big, states_b, axis=1), v_a
    weights = (v_a[pair, states_a] + v_b[pair, states_b]) / 2.0
    total = (weights * cost[pair, states_a, states_b]).sum(axis=1)
    free = np.ones(v_big.shape, dtype=bool)
    free[pair, to_big] = False
    unmatched = v_big[free].reshape(n_pairs, -1).sum(axis=1)
    return (total + unmatched) / (weights.sum(axis=1) + unmatched)


def _matchings(cost: np.ndarray, maps: np.ndarray | None) -> np.ndarray:
    """Least-cost matchings of a batch of (P, r, c) costs, r <= c: the column
    of each row. The map of least total among maps wins; a pair whose two
    least totals are within TIE_GAP, and every pair when maps is None, takes
    the exact _assignment, so its tie choice is the assignment's."""
    n_pairs, r, _ = cost.shape
    if maps is None:
        cols, exact = np.empty((n_pairs, r), dtype=np.intp), np.arange(n_pairs)
    else:
        totals = cost[:, 0, maps[:, 0]]
        for s in range(1, r):
            totals += cost[:, s, maps[:, s]]
        cols = maps[totals.argmin(axis=1)]
        if len(maps) == 1:
            return cols
        least = np.partition(totals, 1, axis=1)
        exact = np.flatnonzero(least[:, 1] - least[:, 0] <= TIE_GAP)
    for p in exact:
        cols[p] = _assignment(cost[p].tolist())
    return cols


@dataclass
class SimilarityMatrix:
    """Symmetric matrix of pairwise model similarities 1 - D(model_i, model_j)."""

    labels: list[str]
    values: np.ndarray
    damped: int = 0  # models whose chain was damped toward uniform

    def intra_block_mean(self, prefix: str) -> float:
        """Mean off-diagonal similarity among models whose label starts with prefix."""
        idx = [i for i, lab in enumerate(self.labels) if lab.startswith(prefix)]
        if len(idx) < 2:
            raise ParameterError(f"need at least two {prefix!r} models")
        block = self.values[np.ix_(idx, idx)]
        n = len(idx)
        return float((block.sum() - np.trace(block)) / (n * (n - 1)))

    def to_rows(self) -> list[list[str]]:
        rows = [["model"] + self.labels]
        for label, row in zip(self.labels, self.values):
            rows.append([label] + [repr(v) for v in row.tolist()])
        return rows


def similarity_matrix(ensemble: EnsembleModel) -> SimilarityMatrix:
    """Pairwise similarities over the concatenated model list (positive block
    first). Cells are computed once for i < j and mirrored.

    The pairs go by their (n_i, n_j) class, in chunks of at most
    SIMILARITY_CELLS cost and map-total cells. The smaller model's states map
    into the larger's, i's into j's when n_i <= n_j."""
    models = ensemble.models
    labels = [f"pos_{i}" for i in range(len(ensemble.positive_models))] + [
        f"neg_{j}" for j in range(len(ensemble.negative_models))
    ]
    stationary = [stationary_distribution(mod.A) for mod in models]
    counts = np.array([mod.n for mod in models])
    members = {int(n): np.flatnonzero(counts == n) for n in np.unique(counts)}
    roots = {n: np.sqrt(np.stack([models[i].B for i in idx])) for n, idx in members.items()}
    masses = {n: np.stack([stationary[i].dist for i in idx]) for n, idx in members.items()}
    m = ensemble.vocabulary.size
    values = np.eye(len(models))
    for n_a, idx_a in members.items():
        for n_b, idx_b in members.items():
            ga, gb = np.nonzero(idx_a[:, None] < idx_b[None, :])
            r, c = min(n_a, n_b), max(n_a, n_b)
            maps = _maps(r, c) if math.perm(c, r) <= MAP_LIMIT else None
            step = max(1, SIMILARITY_CELLS // (n_a * n_b * m + (0 if maps is None else len(maps))))
            for k0 in range(0, len(ga), step):
                a, b = ga[k0 : k0 + step], gb[k0 : k0 + step]
                cost = _hellinger(roots[n_a][a], roots[n_b][b])
                to_big = _matchings(cost if n_a <= n_b else cost.transpose(0, 2, 1), maps)
                sim = 1.0 - _distances(cost, masses[n_a][a], masses[n_b][b], to_big)
                i, j = idx_a[a], idx_b[b]
                values[i, j] = sim
                values[j, i] = sim
    damped = sum(res.degenerate for res in stationary)
    return SimilarityMatrix(labels=labels, values=values, damped=damped)
