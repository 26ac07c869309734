import itertools
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hmm_ensemble import (
    EnsembleConfig,
    EnsembleModel,
    HmmParams,
    ParameterError,
    Vocabulary,
    similarity_matrix,
    stationary_distribution,
    train_ensemble,
)
from hmm_ensemble.diversity import _assignment, _hellinger_matrix
from test_ensemble import small_config, synthetic_dataset


class TestStationary:
    def test_doubly_stochastic_is_uniform(self):
        res = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        assert res.dist == pytest.approx([0.5, 0.5], abs=1e-12)
        assert not res.degenerate

    def test_identity_flagged_degenerate(self):
        res = stationary_distribution(np.eye(2))
        assert res.degenerate
        assert res.dist == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_periodic_chain_flagged(self):
        res = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        assert res.degenerate
        assert res.dist == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_periodic_three_state_chain_is_stationary(self):
        A = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        res = stationary_distribution(A)
        assert res.degenerate
        assert res.dist == pytest.approx([0.25, 0.5, 0.25], abs=1e-7)
        assert np.abs(res.dist @ A - res.dist).sum() < 1e-7

    def test_analytic_two_state(self):
        # v A = v solves to [5/6, 1/6]
        res = stationary_distribution([[0.9, 0.1], [0.5, 0.5]])
        assert res.dist == pytest.approx([5 / 6, 1 / 6], abs=1e-10)
        assert not res.degenerate

    def test_is_fixed_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.random((n, n))
            A /= A.sum(1, keepdims=True)
            res = stationary_distribution(A)
            assert res.dist @ A == pytest.approx(res.dist, abs=1e-10)
            assert res.dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ParameterError):
            stationary_distribution([[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ParameterError):
            stationary_distribution([[1.5, -0.5], [0.5, 0.5]])

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            stationary_distribution([[np.nan, np.nan], [0.5, 0.5]])

    @pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9])
    def test_slowly_mixing_chain_is_exact(self, eps):
        # primitive, so not degenerate, however slowly it mixes: v = [2/3, 1/3]
        A = [[1 - eps, eps], [2 * eps, 1 - 2 * eps]]
        res = stationary_distribution(A)
        assert not res.degenerate
        assert np.abs(res.dist - [2 / 3, 1 / 3]).max() <= 1e-12
        assert min(timeit.repeat(lambda: stationary_distribution(A), number=1, repeat=3)) < 5e-3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(1, 1000), st.integers(1, 2**40 // 5)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_matches_exact_rational_solution(self, weights):
        # Entries are w / 2^40, so down to about 9e-13 and exact as floats.
        # The diagonal takes the rest of each row, so it is positive, and
        # the cycle 0 -> 1 -> ... -> 0 makes every chain irreducible: primitive.
        n = len(weights)
        W = np.array(weights, dtype=np.int64)
        W[np.arange(n), (np.arange(n) + 1) % n] += 1
        np.fill_diagonal(W, 0)
        W[np.arange(n), np.arange(n)] = 2**40 - W.sum(axis=1)
        A = W / 2.0**40
        res = stationary_distribution(A)
        assert not res.degenerate
        exact = oracles.brute_stationary(A)
        assert np.abs(res.dist - [float(x) for x in exact]).max() <= 1e-14


def hellinger(p, q):
    """The similarity matrix's Hellinger distance on one row of each."""
    return float(_hellinger_matrix(np.array([p], dtype=float), np.array([q], dtype=float))[0, 0])


class TestHellinger:
    def test_identity(self):
        assert hellinger([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_disjoint_support(self):
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_evaluation(self):
        # (1/sqrt2) * sqrt((sqrt .5 - sqrt .9)^2 + (sqrt .5 - sqrt .1)^2)
        expect = np.sqrt(
            ((np.sqrt(0.5) - np.sqrt(0.9)) ** 2 + (np.sqrt(0.5) - np.sqrt(0.1)) ** 2) / 2
        )
        got = hellinger([0.5, 0.5], [0.9, 0.1])
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(0.3249196962, abs=1e-9)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            p, q, r = rng.random((3, k)) + 1e-12
            p, q, r = p / p.sum(), q / q.sum(), r / r.sum()
            dpq = hellinger(p, q)
            assert dpq >= 0.0
            assert dpq == pytest.approx(hellinger(q, p), abs=1e-12)
            assert dpq <= hellinger(p, r) + hellinger(r, q) + 1e-12


def cost_matrices(elements):
    """r x c cost matrices as nested lists, 1 <= r <= c <= 6."""
    shape = st.integers(1, 6).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 6)))
    return shape.flatmap(lambda rc: st.lists(
        st.lists(elements, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]))


class TestAssignment:
    def check(self, cost):
        cols = _assignment(cost)
        assert len(cols) == len(cost)
        assert len(set(cols)) == len(cols)
        best, _ = oracles.brute_assignment(cost)
        return sum(cost[i][j] for i, j in enumerate(cols)), best

    # Among tied least-cost maps, the one the similarity matrix has always
    # used; a constant cost maps row i to column i.
    @pytest.mark.parametrize("cost, cols", [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 1, 2]),
        ([[1, 1, 1, 0], [1, 1, 1, 0], [0, 1, 0, 1]], [3, 1, 0]),
        ([[1, 1, 1, 1], [0, 0, 0, 0], [0, 1, 1, 1]], [2, 1, 0]),
        ([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]], [2, 0, 1]),
        ([[1, 1, 1, 0], [0, 1, 1, 0], [0, 1, 1, 1]], [3, 0, 2]),
    ])
    def test_tie_choice(self, cost, cols):
        assert _assignment([[float(c) for c in row] for row in cost]) == cols

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices(st.integers(0, 3).map(float)))
    def test_small_integer_costs_with_ties(self, cost):
        total, best = self.check(cost)
        assert total == best

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices(st.floats(0.0, 1.0)))
    def test_float_costs(self, cost):
        total, best = self.check(cost)
        assert total == pytest.approx(best, abs=1e-12)


def tied_model(rng, n, m):
    """Random model whose emission rows are often the same floored one-hot row."""
    model = oracles.random_model(rng, n, m)
    floored = oracles.floor_renormalize(np.eye(m), 1e-10)
    B = [floored[rng.integers(m)] if rng.random() < 0.5 else row for row in model.B]
    return HmmParams(model.pi, model.A, B)


def oracle_distances(a, b):
    """The distance built from each of the oracle's least-cost matchings."""
    v_a = stationary_distribution(a.A).dist
    v_b = stationary_distribution(b.A).dist
    cost = np.array([[oracles.hellinger(p, q) for q in b.B] for p in a.B])
    flip = a.n > b.n  # the smaller model's states go into the larger model's
    _, maps = oracles.brute_assignment(cost.T if flip else cost)
    for m in maps:
        pairs = [(j, i) if flip else (i, j) for i, j in enumerate(m)]
        matched = sum((v_a[i] + v_b[j]) / 2 * cost[i, j] for i, j in pairs)
        weight = sum((v_a[i] + v_b[j]) / 2 for i, j in pairs)
        v_big, used = (v_a, {i for i, _ in pairs}) if flip else (v_b, {j for _, j in pairs})
        rest = sum(v for k, v in enumerate(v_big) if k not in used)
        yield (matched + rest) / (weight + rest)


def two_state(B_rows, A=None):
    A = A if A is not None else [[0.5, 0.5], [0.5, 0.5]]
    return HmmParams(pi=[0.5, 0.5], A=A, B=B_rows)


def permute_states(model, perm):
    perm = np.asarray(perm)
    return HmmParams(
        pi=model.pi[perm],
        A=model.A[np.ix_(perm, perm)],
        B=model.B[perm],
    )


def hmm_distance(a, b):
    """1 - the off-diagonal cell of the similarity matrix of a 1+1 ensemble."""
    ensemble = EnsembleModel([a], [b], Vocabulary("abcdefgh"[: a.m]),
                             EnsembleConfig(n_pos_models=1, n_neg_models=1), seeds=[(0, 0)] * 2)
    return 1.0 - similarity_matrix(ensemble).values[0, 1]


class TestHmmDistance:
    def test_self_distance_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = oracles.random_model(rng, int(rng.integers(1, 5)), 4)
            assert hmm_distance(model, model) == 0.0

    def test_single_state_disjoint_emissions(self):
        a = HmmParams(pi=[1.0], A=[[1.0]], B=[[1.0, 0.0]])
        b = HmmParams(pi=[1.0], A=[[1.0]], B=[[0.0, 1.0]])
        assert hmm_distance(a, b) == 1.0

    def test_permuted_emissions_distance_zero(self):
        a = two_state([[0.9, 0.1], [0.2, 0.8]])
        b = two_state([[0.2, 0.8], [0.9, 0.1]])
        # oracle: best over both possible matchings
        costs = [
            oracles.hellinger(a.B[0], b.B[0]) + oracles.hellinger(a.B[1], b.B[1]),
            oracles.hellinger(a.B[0], b.B[1]) + oracles.hellinger(a.B[1], b.B[0]),
        ]
        assert min(costs) == 0.0
        assert hmm_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_assignment_two_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = two_state(oracles.random_model(rng, 2, 3).B)
            b = two_state(oracles.random_model(rng, 2, 3).B)
            # uniform stationary makes all weights 1/2: distance is the
            # mean cost of the best of the two matchings
            best = min(
                np.mean([oracles.hellinger(a.B[0], b.B[perm[0]]),
                         oracles.hellinger(a.B[1], b.B[perm[1]])])
                for perm in itertools.permutations(range(2))
            )
            assert hmm_distance(a, b) == pytest.approx(best, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = oracles.random_model(rng, int(rng.integers(1, 5)), 4)
            b = oracles.random_model(rng, int(rng.integers(1, 5)), 4)
            assert hmm_distance(a, b) == pytest.approx(hmm_distance(b, a), abs=1e-9)

    def test_state_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        a = oracles.random_model(rng, 4, 3)
        b = oracles.random_model(rng, 4, 3)
        base = hmm_distance(a, b)
        for perm in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 0, 3, 1)):
            assert hmm_distance(permute_states(a, perm), b) == pytest.approx(base, abs=1e-9)
            assert hmm_distance(a, permute_states(b, perm)) == pytest.approx(base, abs=1e-9)

    def test_unequal_state_counts_in_range(self):
        rng = np.random.default_rng(6)
        a = oracles.random_model(rng, 3, 4)
        b = oracles.random_model(rng, 5, 4)
        d = hmm_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(hmm_distance(b, a), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_matches_oracle_assignment(self, n_a, n_b, m, seed):
        rng = np.random.default_rng(seed)
        a, b = tied_model(rng, n_a, m), tied_model(rng, n_b, m)
        got = hmm_distance(a, b)
        assert min(abs(got - d) for d in oracle_distances(a, b)) <= 1e-12

    def test_vocabulary_mismatch(self):
        # EnsembleModel holds models of one vocabulary size only
        rng = np.random.default_rng(7)
        with pytest.raises(ParameterError, match="vocabulary size"):
            hmm_distance(oracles.random_model(rng, 2, 3), oracles.random_model(rng, 2, 4))


class TestSimilarityMatrix:
    def test_single_model_per_class(self):
        ds = synthetic_dataset()
        model = train_ensemble(
            ds, small_config(n_pos_models=1, n_neg_models=1, subset_fraction=1.0)
        )
        sim = similarity_matrix(model)
        assert sim.labels == ["pos_0", "neg_0"]
        assert sim.values.shape == (2, 2)
        assert np.allclose(np.diag(sim.values), 1.0, atol=1e-9)

    def test_duplicate_models_show_unit_similarity(self):
        ds = synthetic_dataset()
        model = train_ensemble(ds, small_config())
        model.positive_models[1] = model.positive_models[0]
        sim = similarity_matrix(model)
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_with_entries_in_range(self):
        ds = synthetic_dataset()
        sim = similarity_matrix(train_ensemble(ds, small_config()))
        assert np.allclose(sim.values, sim.values.T, atol=1e-9)
        assert np.all(sim.values >= -1e-12) and np.all(sim.values <= 1 + 1e-12)

    def test_intra_block_mean(self):
        ds = synthetic_dataset()
        sim = similarity_matrix(train_ensemble(ds, small_config()))
        pos_mean = sim.intra_block_mean("pos_")
        assert 0.0 <= pos_mean <= 1.0

    def test_csv_rows_shape(self):
        ds = synthetic_dataset()
        sim = similarity_matrix(train_ensemble(ds, small_config()))
        rows = sim.to_rows()
        assert rows[0] == ["model"] + sim.labels
        assert len(rows) == len(sim.labels) + 1
        assert float(rows[1][1]) == 1.0
