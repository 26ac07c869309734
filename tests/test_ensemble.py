import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hmm_ensemble import (
    DataError,
    EnsembleConfig,
    EnsembleModel,
    HmmParams,
    LabeledDataset,
    NumericError,
    ParameterError,
    Provenance,
    TrainConfig,
    TrainingJob,
    Vocabulary,
    baum_welch,
    choose_threshold,
    classify,
    expected_unsampled_fraction,
    feature_vectors,
    log_likelihood,
    log_likelihood_matrix,
    make_training_jobs,
    matchup_count,
    sample,
    score_corpus,
    train_ensemble,
    train_jobs,
)
from hmm_ensemble import ensemble as ensemble_mod
from hmm_ensemble import hmm as hmm_mod
from hmm_ensemble.ensemble import UNIT_TOKENS, _ceil_fraction, _plan_units


def synthetic_dataset(n_pos=30, n_neg=30, length=12, seed=0):
    rng = np.random.default_rng(seed)
    gen_pos = HmmParams(
        pi=[0.9, 0.1], A=[[0.8, 0.2], [0.2, 0.8]], B=[[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]
    )
    gen_neg = HmmParams(
        pi=[0.1, 0.9], A=[[0.5, 0.5], [0.5, 0.5]], B=[[0.1, 0.8, 0.1], [0.3, 0.4, 0.3]]
    )
    seqs = [sample(gen_pos, length, rng) for _ in range(n_pos)]
    seqs += [sample(gen_neg, length, rng) for _ in range(n_neg)]
    labels = np.array([1] * n_pos + [0] * n_neg)
    return LabeledDataset(
        sequences=seqs,
        labels=labels,
        vocabulary=Vocabulary("abc"),
        provenance=Provenance(source="synthetic"),
    )


def small_config(**kwargs):
    defaults = dict(
        n_pos_models=3,
        n_neg_models=2,
        subset_fraction=0.5,
        state_counts=(2, 3),
        train=TrainConfig(max_iters=3),
        master_seed=1234,
    )
    defaults.update(kwargs)
    return EnsembleConfig(**defaults)


class TestTrainingJobs:
    def test_full_fraction_uses_whole_class(self):
        ds = synthetic_dataset()
        jobs = make_training_jobs(ds, small_config(subset_fraction=1.0))
        pos_idx = np.flatnonzero(ds.labels == 1)
        for job in jobs[:3]:
            assert np.array_equal(job.indices, pos_idx)

    def test_ceil_subset_size(self):
        assert _ceil_fraction(0.01, 10_000) == 100
        assert _ceil_fraction(0.01, 10) == 1
        assert _ceil_fraction(1.0, 7) == 7
        assert _ceil_fraction(0.35, 10) == 4

    def test_deterministic_for_master_seed(self):
        ds = synthetic_dataset()
        jobs_a = make_training_jobs(ds, small_config())
        jobs_b = make_training_jobs(ds, small_config())
        for a, b in zip(jobs_a, jobs_b):
            assert np.array_equal(a.indices, b.indices)
            assert (a.subset_seed, a.model_seed, a.n_states, a.label) == (
                b.subset_seed,
                b.model_seed,
                b.n_states,
                b.label,
            )

    def test_state_counts_cycle_over_job_index(self):
        ds = synthetic_dataset()
        jobs = make_training_jobs(ds, small_config())
        assert [j.n_states for j in jobs] == [2, 3, 2, 3, 2]

    def test_labels_and_counts(self):
        ds = synthetic_dataset()
        jobs = make_training_jobs(ds, small_config())
        assert [j.label for j in jobs] == [1, 1, 1, 0, 0]

    def test_subsets_within_class(self):
        ds = synthetic_dataset()
        jobs = make_training_jobs(ds, small_config())
        for job in jobs:
            assert np.all(ds.labels[job.indices] == job.label)
            assert len(set(job.indices.tolist())) == len(job.indices)

    def test_single_class_dataset_rejected(self):
        ds = synthetic_dataset(n_neg=1)
        ds.labels[:] = 1
        with pytest.raises(DataError):
            make_training_jobs(ds, small_config())


class TestUnsampledFraction:
    def test_full_coverage(self):
        assert expected_unsampled_fraction(1.0, 5) == 0.0

    def test_single_draw(self):
        assert expected_unsampled_fraction(0.5, 1) == 0.5

    def test_paper_scale_point(self):
        assert expected_unsampled_fraction(0.01, 250) == pytest.approx(0.08106, abs=5e-5)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            expected_unsampled_fraction(0.0, 5)
        with pytest.raises(ParameterError):
            expected_unsampled_fraction(1.5, 5)


class TestMatchups:
    def test_worked_example(self):
        assert matchup_count([-10, -12], [-11, -13]) == 3

    def test_bounds(self):
        assert matchup_count([-1, -1], [-0.5, -0.5]) == 0
        assert matchup_count([-0.5, -0.5], [-1, -1]) == 4

    def test_exact_ties_contribute_zero(self):
        # pairs: (-2,-2) tie, (-2,-3) win, (-3,-2) loss, (-3,-3) tie
        assert matchup_count([-2.0, -3.0], [-2.0, -3.0]) == 1

    def test_matches_double_loop_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_p = int(rng.integers(1, 8))
            n_n = int(rng.integers(1, 8))
            pos = np.round(rng.normal(size=n_p), 1) * 10
            neg = np.round(rng.normal(size=n_n), 1) * 10
            assert matchup_count(pos, neg) == oracles.brute_matchups(pos, neg)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=5)
        neg = rng.normal(size=4)
        base = matchup_count(pos, neg)
        for c in (-100.0, 3.5, 1e6):
            assert matchup_count(pos + c, neg + c) == base

    def test_raising_positive_never_decreases(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=4)
        neg = rng.normal(size=4)
        base = matchup_count(pos, neg)
        for i in range(4):
            bumped = pos.copy()
            bumped[i] += 0.5
            assert matchup_count(bumped, neg) >= base


class TestTrainEnsemble:
    def test_shapes_and_invariants(self):
        ds = synthetic_dataset()
        model = train_ensemble(ds, small_config())
        assert len(model.positive_models) == 3
        assert len(model.negative_models) == 2
        for hmm in model.models:
            assert hmm.m == 3
            assert np.all(np.abs(hmm.A.sum(1) - 1) < 1e-9)
            assert np.all(np.abs(hmm.B.sum(1) - 1) < 1e-9)
        assert len(model.histories) == 5

    def test_serial_equals_parallel(self):
        ds = synthetic_dataset()
        serial = train_ensemble(ds, small_config(), n_workers=1)
        parallel = train_ensemble(ds, small_config(), n_workers=2)
        assert json.dumps(serial.to_dict()) == json.dumps(parallel.to_dict())

    def test_rerun_identical(self):
        ds = synthetic_dataset()
        a = train_ensemble(ds, small_config())
        b = train_ensemble(ds, small_config())
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_json_roundtrip(self):
        ds = synthetic_dataset()
        model = train_ensemble(ds, small_config())
        back = EnsembleModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert json.dumps(back.to_dict()) == json.dumps(model.to_dict())

    def test_failure_names_job(self):
        ds = synthetic_dataset()
        bad = small_config(train=TrainConfig(max_iters=3, floor=0.4))
        with pytest.raises(ParameterError, match="job 0"):
            train_ensemble(ds, bad)

    def test_foreign_exception_propagates_unchanged(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        def fail(*args):
            raise TwoArgError(7, "boom")

        monkeypatch.setattr(ensemble_mod, "_baum_welch_unit", fail)
        with pytest.raises(TwoArgError) as info:
            train_ensemble(synthetic_dataset(), small_config(), n_workers=1)
        assert info.value.args == (7, "boom")


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records its size and maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(ensemble_mod, "_process_pool", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "sizes", [])
    return FakeExecutor.sizes


def mixed_length_dataset(rng, n_pos, n_neg):
    gen = HmmParams(pi=[0.5, 0.5], A=[[0.9, 0.1], [0.3, 0.7]], B=[[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    seqs = [sample(gen, int(rng.integers(1, 30)), rng) for _ in range(n_pos + n_neg)]
    return LabeledDataset(
        sequences=seqs,
        labels=np.array([1] * n_pos + [0] * n_neg),
        vocabulary=Vocabulary("abc"),
        provenance=Provenance(source="synthetic"),
    )


def test_serial_training_loads_no_pool_or_openssl():
    # the pool and hashlib are imported where they are used: importing the
    # package maps neither multiprocessing nor OpenSSL, and serial training
    # adds no pool (numpy.random itself loads _hashlib, through secrets and hmac)
    src = str(Path(ensemble_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hmm_ensemble import cli, config, data, diversity, ensemble, hmm, metrics, mlp\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "if loaded(*pool, '_hashlib'):\n"
        "    sys.exit(f'loaded at import: {loaded(*pool, \"_hashlib\")}')\n"
        "rng = np.random.default_rng(0)\n"
        "ds = data.LabeledDataset([rng.integers(0, 3, size=20) for _ in range(12)],\n"
        "                         np.array([1, 0] * 6), hmm.Vocabulary('abc'),\n"
        "                         data.Provenance(source='synthetic'))\n"
        "cfg = ensemble.EnsembleConfig(n_pos_models=2, n_neg_models=2, subset_fraction=0.5,\n"
        "                              train=hmm.TrainConfig(max_iters=3))\n"
        "ensemble.train_ensemble(ds, cfg, n_workers=1)\n"
        "sys.exit(f'loaded by training: {loaded(*pool)}' if loaded(*pool) else 0)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestTrainingUnits:
    @pytest.mark.parametrize("seed", range(3))
    def test_each_job_matches_baum_welch_on_its_subset(self, seed):
        rng = np.random.default_rng(seed)
        ds = mixed_length_dataset(rng, 20, 30)
        cfg = small_config(
            n_pos_models=int(rng.integers(4, 10)),
            n_neg_models=int(rng.integers(4, 10)),
            subset_fraction=float(rng.uniform(0.05, 0.3)),
            train=TrainConfig(max_iters=10, tol=1e-2),
            master_seed=seed,
        )
        jobs = make_training_jobs(ds, cfg)
        assert len(_plan_units(ds, jobs)) < len(jobs)
        models, histories = train_jobs(ds, jobs, cfg.train)
        # jobs leave their units at different iterations
        assert len({len(h) for h in histories}) > 1
        for job, model, history in zip(jobs, models, histories):
            alone, want = baum_welch([ds.sequences[i] for i in job.indices], 3, job.n_states,
                                     cfg.train, np.random.default_rng(job.model_seed))
            assert len(history) == len(want)
            np.testing.assert_allclose(history, want, rtol=1e-12, atol=0)
            for name in ("pi", "A", "B"):
                np.testing.assert_allclose(getattr(model, name), getattr(alone, name),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length, fraction", [(50, 0.2), (100, 1.0)])
    def test_unit_plan_is_the_same_for_any_worker_count(self, monkeypatch, fake_pool,
                                                       length, fraction):
        ds = synthetic_dataset(n_pos=100, n_neg=100, length=length)
        jobs = make_training_jobs(ds, small_config(n_pos_models=30, n_neg_models=30,
                                                   subset_fraction=fraction))
        calls = []

        def record(job_sequences, n_symbols, n_states, config, rngs, ids):
            calls.append(list(ids))
            return [(None, [])] * len(ids)

        monkeypatch.setattr(ensemble_mod, "_baum_welch_unit", record)
        plans = []
        for n_workers in (1, 2, 8):
            calls.clear()
            train_jobs(ds, jobs, small_config().train, n_workers)
            plans.append(list(calls))
        assert plans[0] == plans[1] == plans[2] == _plan_units(ds, jobs)
        units = plans[0]
        assert sorted(k for unit in units for k in unit) == list(range(len(jobs)))
        tokens = [sum(len(ds.sequences[i]) for i in job.indices) for job in jobs]
        key = [(job.label, job.n_states) for job in jobs]
        for i, unit in enumerate(units):
            assert unit == sorted(unit) and len({key[k] for k in unit}) == 1
            assert len(unit) == 1 or sum(tokens[k] for k in unit) <= UNIT_TOKENS
            # a unit closes only before the job that would take it past the budget
            later = [u for u in units[i + 1:] if key[u[0]] == key[unit[0]]]
            if later:
                assert sum(tokens[k] for k in unit) + tokens[later[0][0]] > UNIT_TOKENS
        assert max(len(unit) for unit in units) == (15 if length == 50 else 2)

    def test_pool_is_never_larger_than_its_units(self, fake_pool):
        ds = synthetic_dataset()
        cfg = small_config()
        jobs = make_training_jobs(ds, cfg)
        train_jobs(ds, jobs, cfg.train, n_workers=5000)
        assert fake_pool == [len(_plan_units(ds, jobs))]
        # one unit runs in-process, whatever the worker count
        train_jobs(ds, jobs[:1], cfg.train, n_workers=8)
        assert fake_pool == [len(_plan_units(ds, jobs))]

    def test_non_finite_total_names_its_job(self, monkeypatch):
        start = HmmParams(pi=[1.0], A=[[1.0]], B=[[1.0, 0.0, 0.0]])
        monkeypatch.setattr(hmm_mod, "init_random", lambda n, m, rng: start)
        ds = LabeledDataset(
            sequences=[np.array([0, 0]), np.array([0, 2]), np.array([0])],
            labels=np.array([1, 1, 0]),
            vocabulary=Vocabulary("abc"),
            provenance=Provenance(source="synthetic"),
        )
        jobs = [TrainingJob(label=1, indices=np.array([i]), subset_seed=0, model_seed=0,
                            n_states=1) for i in (0, 1)]
        assert _plan_units(ds, jobs) == [[0, 1]]
        with pytest.raises(NumericError, match="training job 1 failed"):
            train_jobs(ds, jobs, TrainConfig(floor=0.0))


@pytest.fixture(scope="module")
def trained():
    ds = synthetic_dataset(n_pos=40, n_neg=40)
    model = train_ensemble(ds, small_config())
    rng = np.random.default_rng(5)
    corpus = [rng.integers(0, 3, size=int(rng.integers(4, 12))) for _ in range(25)]
    return model, corpus


class TestScoring:

    def test_composite_in_range(self, trained):
        model, corpus = trained
        for seq in corpus:
            bound = model.config.n_pos_models * model.config.n_neg_models
            assert 0 <= score_corpus(model, [seq])[0] <= bound

    def test_composite_matches_double_loop(self, trained):
        model, corpus = trained
        ll = log_likelihood_matrix(model, corpus)
        n_pos = model.config.n_pos_models
        for row, seq in zip(ll, corpus):
            assert score_corpus(model, [seq])[0] == oracles.brute_matchups(
                row[:n_pos], row[n_pos:]
            )

    def test_score_corpus_orders_and_singletons(self, trained):
        model, corpus = trained
        scores = score_corpus(model, corpus)
        assert scores == [score_corpus(model, [s])[0] for s in corpus]
        assert score_corpus(model, corpus[:1]) == [scores[0]]
        perm = np.random.default_rng(0).permutation(len(corpus))
        permuted = score_corpus(model, [corpus[i] for i in perm])
        assert permuted == [scores[i] for i in perm]

    def test_out_of_vocabulary_token(self, trained):
        model, _ = trained
        with pytest.raises(DataError, match="sequence 1"):
            score_corpus(model, [np.array([0, 1]), np.array([0, 7])])

    def test_empty_corpus(self, trained):
        model, _ = trained
        with pytest.raises(ParameterError):
            score_corpus(model, [])

    @pytest.mark.parametrize(
        "bad", [[0.9, 1.6], ["1", "0"], [np.nan], [True, False]],
        ids=["fractions", "numeric-strings", "nan", "bools"],
    )
    def test_non_integer_ids_name_the_sequence(self, trained, bad):
        model, _ = trained
        with pytest.raises(DataError, match="sequence 1: token ids must be integers"):
            score_corpus(model, [np.array([0, 1]), np.array(bad)])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_narrow_integer_ids_accepted(self, trained, dtype):
        model, corpus = trained
        assert score_corpus(model, [seq.astype(dtype) for seq in corpus]) == score_corpus(
            model, corpus
        )

    def test_feature_vectors_normalized(self, trained):
        model, corpus = trained
        feats = feature_vectors(model, corpus)
        assert feats.shape == (len(corpus), 5)
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-9)

    def test_feature_vector_blocks_match_likelihoods(self, trained):
        model, corpus = trained
        feats = feature_vectors(model, corpus)
        ll = log_likelihood_matrix(model, corpus)
        norms = np.linalg.norm(ll, axis=1, keepdims=True)
        assert np.allclose(feats, ll / norms, atol=1e-12)

    def test_impossible_sequence_has_no_feature_vector(self):
        # the positive model never emits token 1, so sequence 1 has ln p = -inf under it
        mute = HmmParams(pi=[1.0], A=[[1.0]], B=[[1.0, 0.0]])
        other = HmmParams(pi=[1.0], A=[[1.0]], B=[[0.5, 0.5]])
        config = EnsembleConfig(n_pos_models=1, n_neg_models=1, state_counts=(1,))
        model = EnsembleModel([mute], [other], Vocabulary("ab"), config, seeds=[(0, 0)] * 2)
        with pytest.raises(NumericError, match="sequence 1: .* model column 0 "):
            feature_vectors(model, [np.array([0, 0]), np.array([0, 1]), np.array([1])])


class TestScoringProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_scores_ignore_model_order_within_class(self, data):
        # models drawn with repeats from a small pool, so log-likelihood ties occur
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = [oracles.random_model(rng, n, 3) for n in (1, 2, 3)]
        pick = st.lists(st.integers(0, 2), min_size=1, max_size=4)
        pos = [pool[i] for i in data.draw(pick)]
        neg = [pool[i] for i in data.draw(pick)]

        def ensemble(pos, neg):
            config = EnsembleConfig(n_pos_models=len(pos), n_neg_models=len(neg))
            return EnsembleModel(pos, neg, Vocabulary("abc"), config,
                                 seeds=[(0, 0)] * (len(pos) + len(neg)))

        pos_order = data.draw(st.permutations(range(len(pos))))
        neg_order = data.draw(st.permutations(range(len(neg))))
        reordered = ensemble([pos[i] for i in pos_order], [neg[i] for i in neg_order])
        corpus = [rng.integers(0, 3, size=int(rng.integers(1, 8))) for _ in range(6)]
        assert score_corpus(reordered, corpus) == score_corpus(ensemble(pos, neg), corpus)


class TestSingleton:
    """A 1+1 ensemble, criterion 8's baseline, flags a sequence iff the
    positive model gives it the strictly higher likelihood."""

    @staticmethod
    def singleton(pos, neg, seq):
        return int(log_likelihood(pos, seq) > log_likelihood(neg, seq))

    @staticmethod
    def pair(pos, neg):
        config = EnsembleConfig(n_pos_models=1, n_neg_models=1)
        return EnsembleModel([pos], [neg], Vocabulary("abc"[: pos.m]), config,
                             seeds=[(0, 0)] * 2)

    def test_identical_models_always_zero(self):
        model = oracles.random_model(np.random.default_rng(0), 2, 3)
        rng = np.random.default_rng(1)
        seqs = [rng.integers(0, 3, size=6) for _ in range(10)]
        assert score_corpus(self.pair(model, model), seqs) == [0] * 10

    def test_point_mass_vs_uniform(self):
        pos = HmmParams(pi=[1.0], A=[[1.0]], B=[[1.0, 0.0]])
        neg = HmmParams(pi=[1.0], A=[[1.0]], B=[[0.5, 0.5]])
        # p(00|pos) = 1 > p(00|neg) = 0.25
        assert score_corpus(self.pair(pos, neg), [[0, 0]]) == [1]
        assert self.singleton(pos, neg, [0, 0]) == 1

    def test_degenerates_to_composite_at_threshold_one(self):
        ds = synthetic_dataset(n_pos=25, n_neg=25)
        cfg = small_config(n_pos_models=1, n_neg_models=1, subset_fraction=1.0)
        model = train_ensemble(ds, cfg)
        rng = np.random.default_rng(2)
        corpus = [rng.integers(0, 3, size=8) for _ in range(20)]
        composite = classify(score_corpus(model, corpus), threshold=1)
        pos, neg = model.positive_models[0], model.negative_models[0]
        assert composite.tolist() == [self.singleton(pos, neg, s) for s in corpus]



class TestThreshold:
    def test_worked_example(self):
        assert choose_threshold([0, 1, 2, 3], [0, 0, 1, 1]) == 2.0

    def test_separable_scores_classify_cleanly(self):
        scores = [1, 2, 3, 10, 11, 12]
        labels = [0, 0, 0, 1, 1, 1]
        t = choose_threshold(scores, labels)
        assert classify(scores, t).tolist() == labels

    def test_all_equal_scores_matches_scan_oracle(self):
        scores = [5, 5, 5, 5]
        labels = [0, 1, 0, 1]
        expect_t, expect_f1 = oracles.brute_best_f1_threshold(scores, labels)
        assert choose_threshold(scores, labels) == expect_t

    def test_matches_scan_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            scores = rng.integers(0, 10, size=n)
            got = choose_threshold(scores, labels)
            want, _ = oracles.brute_best_f1_threshold(scores, labels)
            assert got == want

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            choose_threshold([1, 2], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_matches_scan_oracle_on_ties(self, data):
        n = data.draw(st.integers(2, 40))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)))
        top = data.draw(st.integers(0, 5))  # at most 6 distinct scores: many ties
        scores = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        want, _ = oracles.brute_best_f1_threshold(scores, labels)
        assert choose_threshold(scores, labels) == want


class TestClassify:
    def test_threshold_zero_flags_everything(self):
        assert classify([0, 1, 5], 0).tolist() == [1, 1, 1]

    def test_threshold_above_max_flags_nothing(self):
        assert classify([0, 1, 5], 6).tolist() == [0, 0, 0]

    def test_boundary_inclusive(self):
        assert classify([3, 5], 5).tolist() == [0, 1]


class TestSequenceLengthRobustness:
    def test_mixed_length_auc_close_to_fixed_length(self):
        # generators differ in transition structure; member models small
        from hmm_ensemble import roc_auc

        rng = np.random.default_rng(7)
        gen_pos = HmmParams(
            pi=[0.5, 0.5], A=[[0.9, 0.1], [0.1, 0.9]],
            B=[[0.75, 0.15, 0.1], [0.1, 0.15, 0.75]],
        )
        gen_neg = HmmParams(
            pi=[0.5, 0.5], A=[[0.3, 0.7], [0.7, 0.3]],
            B=[[0.55, 0.35, 0.1], [0.1, 0.35, 0.55]],
        )
        train_seqs = [sample(gen_pos, 200, rng) for _ in range(120)]
        train_seqs += [sample(gen_neg, 200, rng) for _ in range(120)]
        ds = LabeledDataset(
            sequences=train_seqs,
            labels=np.array([1] * 120 + [0] * 120),
            vocabulary=Vocabulary("abc"),
            provenance=Provenance(source="synthetic"),
        )
        cfg = EnsembleConfig(
            n_pos_models=8,
            n_neg_models=8,
            subset_fraction=0.25,
            state_counts=(2, 3),
            train=TrainConfig(max_iters=10),
            master_seed=99,
        )
        model = train_ensemble(ds, cfg)

        def auc_for(lengths):
            corpus, labels = [], []
            for i in range(90):
                t = lengths[i % len(lengths)]
                corpus.append(sample(gen_pos, t, rng))
                labels.append(1)
                corpus.append(sample(gen_neg, t, rng))
                labels.append(0)
            return roc_auc(labels, score_corpus(model, corpus))

        fixed = auc_for([200])
        mixed = auc_for([50, 200, 800])
        assert abs(fixed - mixed) < 0.05
