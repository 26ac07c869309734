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
from .errors import ParameterError
from .hmm import HmmParams

_POWER_TOL = 1e-12
_POWER_CAP = 100_000
_DAMPING = 1e-8


class StationaryResult(NamedTuple):
    dist: np.ndarray
    degenerate: bool


def _check_stochastic(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ParameterError("transition matrix must be square")
    if np.any(A < 0) or np.any(np.abs(A.sum(axis=1) - 1.0) > 1e-8):
        raise ParameterError("transition matrix must be row-stochastic")
    return A


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
    """Fixed point of v @ A = v by power iteration from the uniform vector.

    Reducible or periodic chains cannot be iterated plainly; those (and any
    chain that fails to converge within the iteration cap) fall back to an
    iteration damped toward uniform and come back flagged degenerate.
    """
    A = _check_stochastic(A)
    n = A.shape[0]
    uniform = np.full(n, 1.0 / n)
    degenerate = not _is_primitive(A)
    v = uniform
    for _ in range(_POWER_CAP):
        if degenerate:
            nxt = (1.0 - _DAMPING) * (v @ A) + _DAMPING * uniform
        else:
            nxt = v @ A
        if np.abs(nxt - v).sum() < _POWER_TOL:
            v = nxt
            break
        v = nxt
    else:
        degenerate = True
    v = np.maximum(v, 0.0)
    return StationaryResult(v / v.sum(), degenerate)


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ParameterError(f"{name} must be a 1-D probability vector")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-8:
        raise ParameterError(f"{name} must be non-negative and sum to 1")
    return p


def hellinger(p, q) -> float:
    """Hellinger distance in [0, 1] between two categorical distributions."""
    p = _check_prob_vector(p, "p")
    q = _check_prob_vector(q, "q")
    if p.shape != q.shape:
        raise ParameterError("distributions must have equal length")
    return _hellinger_raw(p, q)


def _hellinger_raw(p: np.ndarray, q: np.ndarray) -> float:
    d = math.sqrt(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)) / math.sqrt(2.0)
    return min(d, 1.0)


def hmm_distance(a: HmmParams, b: HmmParams) -> float:
    """Assignment-matched, stationary-weighted emission distance in [0, 1].

    Emission rows are matched by minimum-cost assignment on pairwise
    Hellinger distances; each matched pair (i, j) weighs in at
    (v_a[i] + v_b[j]) / 2 where v is the model's stationary distribution.
    When state counts differ, every unmatched state of the larger model
    contributes its own stationary mass at the maximal cost of 1.
    """
    if a.m != b.m:
        raise ParameterError("models must share a vocabulary size")
    v_a = stationary_distribution(a.A).dist
    v_b = stationary_distribution(b.A).dist
    return _hmm_distance_weighted(a.B, b.B, v_a, v_b)


def _hmm_distance_weighted(
    B_a: np.ndarray, B_b: np.ndarray, v_a: np.ndarray, v_b: np.ndarray
) -> float:
    n_a, n_b = B_a.shape[0], B_b.shape[0]
    sqrt_a = np.sqrt(B_a)
    sqrt_b = np.sqrt(B_b)
    cost = np.empty((n_a, n_b))
    for i in range(n_a):
        d = np.sqrt(np.sum((sqrt_a[i][None, :] - sqrt_b) ** 2, axis=1)) / math.sqrt(2.0)
        cost[i] = np.minimum(d, 1.0)
    # scipy.optimize takes most of a second to import; only this step needs it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    weights = (v_a[rows] + v_b[cols]) / 2.0
    total = float(np.sum(weights * cost[rows, cols]))
    weight_sum = float(weights.sum())
    if n_a > n_b:
        unmatched = np.setdiff1d(np.arange(n_a), rows)
        total += float(v_a[unmatched].sum())
        weight_sum += float(v_a[unmatched].sum())
    elif n_b > n_a:
        unmatched = np.setdiff1d(np.arange(n_b), cols)
        total += float(v_b[unmatched].sum())
        weight_sum += float(v_b[unmatched].sum())
    return total / weight_sum


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
