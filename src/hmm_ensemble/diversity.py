"""Ensemble diversity diagnostics.

The distance between two models is the assignment-matched sum of Hellinger
distances between their emission rows, weighted by how much stationary
mass each matched state pair carries. A redundant ensemble shows up as
blocks of near-1 entries in the pairwise similarity matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensemble import EnsembleModel
from .errors import ParameterError, check_rows

_DAMPING = 1e-8


class StationaryResult(NamedTuple):
    dist: np.ndarray
    degenerate: bool


def _is_primitive(A: np.ndarray) -> bool:
    """Wielandt bound: A is primitive iff bool(A)^((n-1)^2 + 1) is all-ones."""
    n = A.shape[0]
    if n == 1:
        return True
    base = A > 0
    exp = (n - 1) ** 2 + 1
    result = np.eye(n, dtype=bool)
    power = base
    while exp:
        if exp & 1:
            result = result @ power
        power = power @ power
        exp >>= 1
    return bool(result.all())


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


def _hellinger_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Hellinger distances between every row of P and every row of Q."""
    diff = np.sqrt(P)[:, None, :] - np.sqrt(Q)[None, :, :]
    return np.minimum(np.sqrt(np.sum(diff**2, axis=2)) / math.sqrt(2.0), 1.0)


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


def _hmm_distance_weighted(
    B_a: np.ndarray, B_b: np.ndarray, v_a: np.ndarray, v_b: np.ndarray
) -> float:
    """Distance in [0, 1]: the smaller model's emission rows are matched into
    the larger's at least total Hellinger cost, each pair (i, j) weighing
    (v_a[i] + v_b[j]) / 2 with v the stationary distributions, and each
    unmatched state adds its own mass at cost 1. Matched terms are summed in
    ascending state order of a, the unmatched mass in ascending state order."""
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


@dataclass
class SimilarityMatrix:
    """Symmetric matrix of pairwise model similarities 1 - D(model_i, model_j)."""

    labels: list[str]
    values: np.ndarray

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
            rows.append([label] + [repr(float(v)) for v in row])
        return rows


def similarity_matrix(ensemble: EnsembleModel) -> SimilarityMatrix:
    """Pairwise similarities over the concatenated model list (positive block
    first). Cells are computed once for i <= j and mirrored."""
    models = ensemble.models
    labels = [f"pos_{i}" for i in range(len(ensemble.positive_models))] + [
        f"neg_{j}" for j in range(len(ensemble.negative_models))
    ]
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
    return SimilarityMatrix(labels=labels, values=values)
