import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from hmm_ensemble import (
    DataError,
    EnsembleConfig,
    EnsembleModel,
    HmmParams,
    NumericError,
    ParameterError,
    TrainConfig,
    Vocabulary,
    baum_welch,
    init_random,
    log_likelihood,
    log_likelihood_matrix,
    sample,
)
from hmm_ensemble import hmm as hmm_mod
from hmm_ensemble.ensemble import UNIT_TOKENS
from hmm_ensemble.hmm import (
    _e_step,
    _forward_scaled,
    _job_blocks,
    _length_blocks,
    _stack,
    forward_batch,
)


TWO_STATE = HmmParams(
    pi=[0.6, 0.4], A=[[0.7, 0.3], [0.4, 0.6]], B=[[0.9, 0.1], [0.2, 0.8]]
)


class TestVocabulary:
    def test_roundtrip(self):
        vocab = Vocabulary.from_texts(["ACGT", "NNNN"])
        assert vocab.tokens == ("A", "C", "G", "T", "N")
        assert vocab.size == 5
        assert vocab.decode(vocab.encode("GATTAN")) == "GATTAN"

    def test_first_seen_order(self):
        assert Vocabulary.from_texts(["BA", "AC"]).tokens == ("B", "A", "C")

    def test_unknown_token(self):
        vocab = Vocabulary.from_texts(["AB"])
        with pytest.raises(DataError):
            vocab.encode("AXB")

    def test_too_small(self):
        with pytest.raises(ParameterError):
            Vocabulary(["A"])


class TestHmmParams:
    def test_invalid_rows_rejected(self):
        with pytest.raises(ParameterError):
            HmmParams(pi=[0.5, 0.4], A=np.eye(2), B=np.full((2, 2), 0.5))
        with pytest.raises(ParameterError):
            HmmParams(pi=[1.0], A=[[1.0]], B=[[1.2, -0.2]])

    def test_arrays_read_only(self):
        with pytest.raises(ValueError):
            TWO_STATE.A[0, 0] = 0.5

    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(123)
        model = init_random(4, 6, rng)
        blob = json.dumps(model.to_dict())
        back = HmmParams.from_dict(json.loads(blob))
        assert np.array_equal(back.pi, model.pi)
        assert np.array_equal(back.A, model.A)
        assert np.array_equal(back.B, model.B)


class TestInitRandom:
    def test_single_state_is_forced(self):
        model = init_random(1, 2, np.random.default_rng(0))
        assert model.pi.tolist() == [1.0]
        assert model.A.tolist() == [[1.0]]
        assert abs(model.B.sum() - 1.0) < 1e-12

    def test_deterministic_for_seed(self):
        a = init_random(3, 4, np.random.default_rng(99))
        b = init_random(3, 4, np.random.default_rng(99))
        assert np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)

    def test_rows_normalized(self):
        model = init_random(3, 5, np.random.default_rng(7))
        assert np.all(np.abs(model.A.sum(1) - 1) < 1e-12)
        assert np.all(np.abs(model.B.sum(1) - 1) < 1e-12)
        assert abs(model.pi.sum() - 1) < 1e-12

    def test_invalid_sizes(self):
        # numpy raised a bare TypeError for a float size, and True passed as 1 state
        for n, m in [(0, 3), (2, 1), (2.0, 3), (True, 3), (2, 3.0), (2, True)]:
            with pytest.raises(ParameterError):
                init_random(n, m, np.random.default_rng(0))


class TestLogLikelihood:
    def test_single_state_product_of_emissions(self):
        model = HmmParams(pi=[1.0], A=[[1.0]], B=[[0.5, 0.5]])
        assert log_likelihood(model, [0, 0]) == pytest.approx(np.log(0.25), abs=1e-12)

    def test_two_state_hand_enumeration(self):
        # sum over the 4 paths of pi * B * A * B
        expect = sum(
            TWO_STATE.pi[a1]
            * TWO_STATE.B[a1, 0]
            * TWO_STATE.A[a1, a2]
            * TWO_STATE.B[a2, 1]
            for a1 in range(2)
            for a2 in range(2)
        )
        assert log_likelihood(TWO_STATE, [0, 1]) == pytest.approx(np.log(expect), rel=1e-12)

    def test_matches_brute_force_small_models(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 5))
            T = int(rng.integers(1, 9))
            model = oracles.random_model(rng, n, m)
            seq = rng.integers(0, m, size=T)
            expect = oracles.brute_likelihood(model, seq)
            got = np.exp(log_likelihood(model, seq))
            assert got == pytest.approx(expect, rel=1e-10)

    def test_total_probability_sums_to_one(self):
        rng = np.random.default_rng(5)
        model = oracles.random_model(rng, 3, 2)
        seqs = oracles.enumerate_tuples(2, 6)
        total = sum(np.exp(log_likelihood(model, s)) for s in seqs)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_forward_memory_is_per_step_not_per_transition(self):
        # 80 rows x 20 steps at n = 300: a step holds 80 x 300 cells (0.2 MB),
        # where an S x n x n step would hold 58 MB
        rng = np.random.default_rng(0)
        model = init_random(300, 4, rng)
        obs = rng.integers(0, 4, size=(80, 20))
        tracemalloc.start()
        try:
            forward_batch(model, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_out_of_range_token(self):
        with pytest.raises(DataError):
            log_likelihood(TWO_STATE, [0, 2])

    @pytest.mark.parametrize(
        "seq", [[0.9, 1.6], [0.0, 1.0], ["1", "0"], [math.nan], [True, False]],
        ids=["fractions", "whole-floats", "numeric-strings", "nan", "bools"],
    )
    def test_non_integer_ids_rejected(self, seq):
        with pytest.raises(DataError, match="token ids must be integers"):
            log_likelihood(TWO_STATE, seq)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_narrow_integer_ids_accepted(self, dtype):
        seq = [0, 1, 1, 0]
        assert log_likelihood(TWO_STATE, np.array(seq, dtype=dtype)) == log_likelihood(
            TWO_STATE, seq
        )

    def test_empty_sequence(self):
        with pytest.raises(ParameterError):
            log_likelihood(TWO_STATE, [])

    @pytest.mark.parametrize("seq", [[[0, 1], [1]], [[0, 1], [1, 0]]], ids=["ragged", "2-D"])
    def test_sequence_must_be_1d(self, seq):
        with pytest.raises(ParameterError):
            log_likelihood(TWO_STATE, seq)


class TestBaumWelch:
    @pytest.mark.parametrize("n_states", [2.0, True])
    def test_state_count_must_be_an_integer(self, n_states):
        seqs = [np.array([0, 1, 2])]
        with pytest.raises(ParameterError):
            baum_welch(seqs, 3, n_states, TrainConfig(), np.random.default_rng(0))

    def test_single_token_converges_to_floored_point_mass(self):
        cfg = TrainConfig(max_iters=10, floor=1e-10)
        seqs = [np.zeros(5, dtype=np.int64) for _ in range(3)]
        model, _ = baum_welch(seqs, 3, 1, cfg, np.random.default_rng(0))
        floored = oracles.floor_renormalize(np.array([[1.0, 0.0, 0.0]]), 1e-10)[0]
        assert model.B[0] == pytest.approx(floored, rel=1e-12)

    def test_one_iteration_matches_brute_force_posteriors(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            m = int(rng.integers(2, 4))
            n_seqs = int(rng.integers(1, 4))
            seqs = [rng.integers(0, m, size=int(rng.integers(2, 7))) for _ in range(n_seqs)]
            cfg = TrainConfig(max_iters=1, floor=1e-10)
            model, _ = baum_welch(seqs, m, 2, cfg, np.random.default_rng(trial))
            # replicate the random start, then re-estimate via enumeration
            start = init_random(2, m, np.random.default_rng(trial))
            pi_c, trans_c, emit_c = oracles.brute_em_counts(start, seqs)
            assert model.pi == pytest.approx(
                oracles.floor_renormalize(pi_c, cfg.floor)[0], abs=1e-8
            )
            assert model.A == pytest.approx(
                oracles.floor_renormalize(trans_c, cfg.floor), abs=1e-8
            )
            assert model.B == pytest.approx(
                oracles.floor_renormalize(emit_c, cfg.floor), abs=1e-8
            )

    def test_history_non_decreasing(self):
        rng = np.random.default_rng(4)
        generator = oracles.random_model(rng, 2, 2)
        seqs = [sample(generator, 6, rng) for _ in range(20)]
        _, history = baum_welch(seqs, 2, 2, TrainConfig(max_iters=25), np.random.default_rng(1))
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-6)

    def test_history_non_decreasing_floor_zero(self):
        rng = np.random.default_rng(8)
        generator = oracles.random_model(rng, 3, 3)
        seqs = [sample(generator, 8, rng) for _ in range(15)]
        _, history = baum_welch(
            seqs, 3, 2, TrainConfig(max_iters=25, floor=0.0), np.random.default_rng(2)
        )
        assert np.all(np.diff(history) >= -1e-8)

    def test_stochastic_invariants_after_training(self):
        rng = np.random.default_rng(6)
        seqs = [rng.integers(0, 4, size=10) for _ in range(8)]
        model, _ = baum_welch(seqs, 4, 3, TrainConfig(max_iters=5), np.random.default_rng(3))
        assert np.all(model.A >= 0) and np.all(model.B >= 0)
        assert np.all(np.abs(model.A.sum(1) - 1) < 1e-9)
        assert np.all(np.abs(model.B.sum(1) - 1) < 1e-9)
        assert abs(model.pi.sum() - 1) < 1e-9

    def test_empty_sequence_list(self):
        with pytest.raises(ParameterError):
            baum_welch([], 3, 2, TrainConfig(), np.random.default_rng(0))

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 3, size=t) for t in (4, 7, 4, 5, 7)]
        cfg = TrainConfig(max_iters=3)
        a, hist_a = baum_welch(seqs, 3, 2, cfg, np.random.default_rng(5))
        b, hist_b = baum_welch(seqs, 3, 2, cfg, np.random.default_rng(5))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
        assert hist_a == hist_b

    def test_input_order_does_not_change_result(self):
        rng = np.random.default_rng(9)
        seqs = [rng.integers(0, 3, size=t) for t in (4, 7, 4, 5, 7)]
        cfg = TrainConfig(max_iters=3)
        a, _ = baum_welch(seqs, 3, 2, cfg, np.random.default_rng(5))
        b, _ = baum_welch(list(reversed(seqs)), 3, 2, cfg, np.random.default_rng(5))
        assert np.allclose(a.A, b.A, rtol=1e-9) and np.allclose(a.B, b.B, rtol=1e-9)

    def test_recovers_generator_likelihood(self):
        # well-separated 2-state generator; trained model should explain
        # held-out data nearly as well per token
        generator = HmmParams(
            pi=[0.5, 0.5], A=[[0.9, 0.1], [0.1, 0.9]], B=[[0.95, 0.05], [0.05, 0.95]]
        )
        rng = np.random.default_rng(10)
        train = [sample(generator, 20, rng) for _ in range(5000)]
        heldout = [sample(generator, 20, rng) for _ in range(300)]
        model, _ = baum_welch(train, 2, 2, TrainConfig(max_iters=25), np.random.default_rng(0))
        tokens = sum(len(s) for s in heldout)
        got = sum(log_likelihood(model, s) for s in heldout) / tokens
        want = sum(log_likelihood(generator, s) for s in heldout) / tokens
        assert abs(got - want) < 0.05


class TestSample:
    def test_point_mass_model_is_deterministic(self):
        model = HmmParams(pi=[0, 1.0], A=[[0, 1.0], [1.0, 0]], B=[[1.0, 0], [0, 1.0]])
        seq = sample(model, 6, np.random.default_rng(0))
        assert seq.tolist() == [1, 0, 1, 0, 1, 0]

    def test_same_seed_same_sequence(self):
        rng = np.random.default_rng(12)
        model = oracles.random_model(rng, 3, 4)
        a = sample(model, 50, np.random.default_rng(42))
        b = sample(model, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_marginal_frequency(self):
        model = HmmParams(pi=[1.0], A=[[1.0]], B=[[0.3, 0.7]])
        rng = np.random.default_rng(2024)
        draws = np.array([sample(model, 1, rng)[0] for _ in range(100_000)])
        assert np.mean(draws == 0) == pytest.approx(0.3, abs=0.01)

    def test_zero_length_rejected(self):
        with pytest.raises(ParameterError):
            sample(TWO_STATE, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("length", [2.5, True])
    def test_length_must_be_an_integer(self, length):
        with pytest.raises(ParameterError):
            sample(TWO_STATE, length, np.random.default_rng(0))


def _stochastic_rows(n_rows, width):
    """Row-stochastic (n_rows, width) arrays where any entry may be exactly 0."""
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    row = st.lists(entry, min_size=width, max_size=width).filter(lambda r: sum(r) > 0)
    return st.lists(row, min_size=n_rows, max_size=n_rows).map(
        lambda rows: np.array(rows) / np.sum(rows, axis=1, keepdims=True)
    )


@st.composite
def sparse_model_and_corpus(draw):
    """A model with n, m <= 3 and zero entries, plus 1-5 sequences of lengths 1-6."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    model = HmmParams(
        pi=draw(_stochastic_rows(1, n))[0],
        A=draw(_stochastic_rows(n, n)),
        B=draw(_stochastic_rows(n, m)),
    )
    token = st.integers(0, m - 1)
    seqs = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=5))
    return model, [np.array(seq, dtype=np.int64) for seq in seqs]


def e_step(model, seqs):
    counts, ll = _e_step(_stack([model]), _job_blocks([seqs], model.m))
    return tuple(x[0] for x in counts), ll[0]


class TestEStepProperties:
    @settings(max_examples=150, deadline=None)
    @given(sparse_model_and_corpus())
    def test_counts_match_enumeration(self, case):
        model, seqs = case
        counts, _ = e_step(model, seqs)
        # a sequence impossible under the model adds nothing
        possible = [seq for seq in seqs if oracles.brute_likelihood(model, seq) > 0]
        for got, want in zip(counts, oracles.brute_em_counts(model, possible)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(sparse_model_and_corpus())
    def test_total_matches_scaled_forward(self, case):
        model, seqs = case
        _, total = e_step(model, seqs)
        want = sum(
            float(_forward_scaled(*_stack([model]), obs, lengths).sum())
            for _, obs, lengths in _length_blocks(seqs)
        )
        if math.isinf(want):
            assert total == want
        else:  # abs covers totals near 0, e.g. a one-symbol vocabulary
            assert total == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(sparse_model_and_corpus())
    def test_impossible_sequence_gives_minus_inf_and_finite_counts(self, case):
        model, seqs = case
        assume(any(oracles.brute_likelihood(model, seq) == 0 for seq in seqs))
        counts, total = e_step(model, seqs)
        assert total == -math.inf
        for arr in counts:
            assert np.all(np.isfinite(arr))

    @settings(max_examples=100, deadline=None)
    @given(sparse_model_and_corpus())
    def test_length_one_groups_give_no_transitions(self, case):
        model, seqs = case
        (_, trans, _), _ = e_step(model, [seq[:1] for seq in seqs])
        assert not trans.any()

    def test_impossible_sequence_stops_baum_welch(self, monkeypatch):
        start = HmmParams(pi=[1.0], A=[[1.0]], B=[[1.0, 0.0]])
        monkeypatch.setattr(hmm_mod, "init_random", lambda n, m, rng: start)
        with pytest.raises(NumericError):
            baum_welch([np.array([0, 1])], 2, 1, TrainConfig(floor=0.0), np.random.default_rng(0))


def _sparse_model(rng, n, m):
    """A random n-state model where about half of the entries are exactly 0."""
    def rows(k, width):
        x = rng.random((k, width)) * (rng.random((k, width)) > 0.5)
        x[np.arange(k), rng.integers(0, width, size=k)] += 0.05  # no zero row
        return x / x.sum(axis=1, keepdims=True)

    return HmmParams(pi=rows(1, n)[0], A=rows(n, n), B=rows(n, m))


@st.composite
def sparse_models_and_mixed_corpus(draw):
    """Two models with n <= 3, m in {2, 3} and zero entries, plus 1-8 sequences of lengths 1-9."""
    m = draw(st.integers(2, 3))
    models = []
    for _ in range(2):
        n = draw(st.integers(1, 3))
        models.append(HmmParams(
            pi=draw(_stochastic_rows(1, n))[0],
            A=draw(_stochastic_rows(n, n)),
            B=draw(_stochastic_rows(n, m)),
        ))
    token = st.integers(0, m - 1)
    seqs = draw(st.lists(st.lists(token, min_size=1, max_size=9), min_size=1, max_size=8))
    return models, m, [np.array(seq, dtype=np.int64) for seq in seqs]


class TestLengthBlocks:
    @settings(max_examples=150, deadline=None)
    @given(sparse_models_and_mixed_corpus())
    def test_matrix_rows_equal_each_sequence_scored_alone(self, case):
        models, m, seqs = case
        ensemble = EnsembleModel(
            models[:1], models[1:], Vocabulary("abc"[:m]),
            EnsembleConfig(n_pos_models=1, n_neg_models=1), seeds=[(0, 0)] * 2,
        )
        ll = log_likelihood_matrix(ensemble, seqs)
        for i, seq in enumerate(seqs):
            for j, model in enumerate(models):
                alone = log_likelihood(model, seq)
                assert ll[i, j] == alone  # -inf included
                want = oracles.brute_likelihood(model, seq)
                assert math.exp(alone) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("cells", [None, 30])
    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_cells_equal_each_sequence_scored_alone_at_five_states(
        self, seed, cells, monkeypatch
    ):
        # Two 5-state models share each step, and with 30 cells a step holds
        # 10, 7 or 3 rows, so chunks of one row occur. A matrix product in the
        # step would give such rows other bits than a row scored alone.
        if cells is not None:
            monkeypatch.setattr(hmm_mod, "FORWARD_CELLS", cells)
        rng = np.random.default_rng(seed)
        m = 4
        models = [_sparse_model(rng, n, m) for n in (3, 4, 5, 5)]
        ensemble = EnsembleModel(
            models[:2], models[2:], Vocabulary("abcd"),
            EnsembleConfig(n_pos_models=2, n_neg_models=2), seeds=[(0, 0)] * 4,
        )
        seqs = [rng.integers(0, m, size=rng.integers(1, 31)) for _ in range(rng.integers(2, 41))]
        ll = log_likelihood_matrix(ensemble, seqs)
        alone = [[log_likelihood(model, seq) for model in models] for seq in seqs]
        assert ll.tolist() == alone  # -inf included

    @settings(max_examples=150, deadline=None)
    @given(sparse_models_and_mixed_corpus())
    def test_blocks_hold_each_row_once_with_at_most_double_padding(self, case):
        _, _, seqs = case
        blocks = _length_blocks(seqs)
        rows = np.concatenate([idx for idx, _, _ in blocks])
        assert sorted(rows.tolist()) == list(range(len(seqs)))
        ranked = np.concatenate([lengths for _, _, lengths in blocks])
        assert np.all(np.diff(ranked) <= 0)
        for idx, obs, lengths in blocks:
            assert obs.shape == (idx.size, lengths[0])
            assert obs.size <= 2 * lengths.sum()
            for row, i in enumerate(idx):
                assert lengths[row] == seqs[i].shape[0]
                assert np.array_equal(obs[row, : lengths[row]], seqs[i])
        # a stable sort: rows of equal length keep their input order
        for length in set(ranked.tolist()):
            assert np.all(np.diff(rows[ranked == length]) > 0)

    def test_e_step_memory_follows_tokens_not_rows_times_longest(self):
        rng = np.random.default_rng(0)
        model = init_random(5, 4, rng)
        seqs = [rng.integers(0, 4, size=3000)] + [rng.integers(0, 4, size=2) for _ in range(999)]
        tracemalloc.start()
        try:
            _e_step(_stack([model]), _job_blocks([seqs], model.m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestForwardKernel:
    @pytest.mark.parametrize(
        "one_row_chunks", [False, True], ids=["default-chunks", "1-row-chunks"]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 64])
    def test_cells_equal_the_rows_last_kernel_and_each_row_alone(
        self, n, one_row_chunks, monkeypatch
    ):
        # Below 8 states the states-by-rows step runs the old step's operations
        # in the old order, so every cell has the old bits. From 8 states numpy
        # summed the old layout's contiguous states pairwise, so a cell may move
        # in its last bit. At every n a row has the same bits alone as in its
        # block, which numpy's own sum over the states would break from 8 states.
        if one_row_chunks:
            monkeypatch.setattr(hmm_mod, "FORWARD_CELLS", 1)
        rng = np.random.default_rng(n)
        m = 4
        models = [_sparse_model(rng, n, m) for _ in range(3)]
        # a model that never emits the last token makes every row holding it -inf
        mute = _sparse_model(rng, n, m).B.copy()
        mute[:, -1], mute[:, 0] = 0.0, mute[:, 0] + 0.05
        models.append(HmmParams(models[0].pi, models[0].A, mute / mute.sum(1, keepdims=True)))
        params = _stack(models)
        seqs = [rng.integers(0, m, size=rng.integers(1, 41)) for _ in range(30)]
        impossible = 0
        for _, obs, lengths in _length_blocks(seqs):
            got = hmm_mod._forward_scaled(*params, obs, lengths)
            want = oracles.rows_last_forward(*params, obs, lengths)
            impossible += int(np.isneginf(want).sum())
            for row, length in enumerate(lengths):
                one = slice(row, row + 1)
                alone = hmm_mod._forward_scaled(*params, obs[one, :length], lengths[one])
                assert alone[:, 0].tolist() == got[:, row].tolist()
            if n < 8:
                assert got.tolist() == want.tolist()  # -inf included
            else:
                assert np.array_equal(np.isneginf(got), np.isneginf(want))
                assert np.all(np.isfinite(want) | np.isneginf(want))
                finite = np.isfinite(want)
                np.testing.assert_allclose(got[finite], want[finite], rtol=1e-15, atol=0)
        assert impossible > 0

    def test_stacked_call_memory_is_held_by_the_chunking(self, monkeypatch):
        # 250 five-state models over 2000 rows x 50 steps: the 3.8 MB output and
        # a few 2 MB step arrays; unchunked, one step array is 250 x 5 x 2000
        # cells (19 MB)
        rng = np.random.default_rng(0)
        params = _stack([init_random(5, 4, rng) for _ in range(250)])
        obs = rng.integers(0, 4, size=(2000, 50))
        lengths = np.full(2000, 50)

        def peak():
            tracemalloc.start()
            try:
                hmm_mod._forward_scaled(*params, obs, lengths)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 16 * 2**20
        monkeypatch.setattr(hmm_mod, "FORWARD_CELLS", 2**40)
        assert peak() > 16 * 2**20


@st.composite
def sparse_jobs(draw):
    """1-4 jobs of one state count, each a model with n, m <= 3 and zero
    entries and 1-5 sequences of lengths 1-9."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    token = st.integers(0, m - 1)
    models, job_seqs = [], []
    for _ in range(draw(st.integers(1, 4))):
        models.append(HmmParams(
            pi=draw(_stochastic_rows(1, n))[0],
            A=draw(_stochastic_rows(n, n)),
            B=draw(_stochastic_rows(n, m)),
        ))
        seqs = draw(st.lists(st.lists(token, min_size=1, max_size=9), min_size=1, max_size=5))
        job_seqs.append([np.array(seq, dtype=np.int64) for seq in seqs])
    return models, m, job_seqs


class TestJobAxis:
    @settings(max_examples=100, deadline=None)
    @given(sparse_jobs())
    def test_each_job_equals_its_one_job_e_step_and_the_oracle(self, case):
        models, m, job_seqs = case
        counts, lls = _e_step(_stack(models), _job_blocks(job_seqs, m))
        for j, (model, seqs) in enumerate(zip(models, job_seqs)):
            alone, ll_alone = _e_step(_stack([model]), _job_blocks([seqs], m))
            possible = [seq for seq in seqs if oracles.brute_likelihood(model, seq) > 0]
            # an impossible row makes only its own job -inf
            assert (lls[j] == -math.inf) == (len(possible) < len(seqs))
            if math.isinf(ll_alone[0]):
                assert lls[j] == ll_alone[0]
            else:
                assert lls[j] == pytest.approx(ll_alone[0], rel=1e-12, abs=1e-12)
            for got, one, want in zip(counts, alone, oracles.brute_em_counts(model, possible)):
                assert np.all(np.isfinite(got[j]))
                np.testing.assert_allclose(got[j], one[0], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(got[j], want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_of_equal_row_counts_equals_each_job_alone(self, seed):
        # every job has one row of each length, so each block gives every job
        # the same row count, and each job's sums run as they would alone
        rng = np.random.default_rng(seed)
        lengths = rng.integers(5, 80, size=6)
        job_seqs = [[rng.integers(0, 4, size=L) for L in lengths] for _ in range(5)]
        config = TrainConfig(max_iters=30, tol=0.1)
        rngs = [np.random.default_rng(k) for k in range(len(job_seqs))]
        unit = hmm_mod._baum_welch_unit(job_seqs, 4, 3, config, rngs)
        # jobs leave the unit at different iterations, so its blocks are rebuilt
        assert len({len(history) for _, history in unit}) > 1
        for k, (seqs, (model, history)) in enumerate(zip(job_seqs, unit)):
            alone, want = baum_welch(seqs, 4, 3, config, np.random.default_rng(k))
            assert history == want
            for name in ("pi", "A", "B"):
                assert np.array_equal(getattr(model, name), getattr(alone, name))

    def test_full_unit_memory_per_token(self):
        # jobs of 10 rows of 200 tokens filling a unit at n = 5: alpha, xi's right
        # factor and the emission factors (which then take beta) hold 120 B a
        # token, and no copy is made of them
        rng = np.random.default_rng(0)
        n_jobs = UNIT_TOKENS // 2000
        job_seqs = [[rng.integers(0, 8, size=200) for _ in range(10)] for _ in range(n_jobs)]
        rngs = [np.random.default_rng(k) for k in range(n_jobs)]
        tracemalloc.start()
        try:
            hmm_mod._baum_welch_unit(job_seqs, 8, 5, TrainConfig(max_iters=2), rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 170 * n_jobs * 2000

    @pytest.mark.parametrize("lengths", [[50] * 160, np.linspace(20, 120, 116).round()])
    def test_unit_memory_follows_tokens(self, lengths):
        # a unit of about 2**13 tokens: at n = 5, one float per token and state is 0.3 MB
        rng = np.random.default_rng(0)
        job_seqs = [[rng.integers(0, 8, size=int(length))] for length in lengths]
        rngs = [np.random.default_rng(k) for k in range(len(job_seqs))]
        tracemalloc.start()
        try:
            hmm_mod._baum_welch_unit(job_seqs, 8, 5, TrainConfig(max_iters=2), rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
