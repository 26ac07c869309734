"""Tests of the benchmark's reference computations against the brute-force
oracles of the test suite. Run: python3 -m pytest bench/test_reference.py"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402


def tiny_model(rng, n, m, zero_frac=0.0):
    """Random row-stochastic model; zero_frac of the entries forced to 0
    (keeping one positive entry per row)."""
    arrs = []
    for shape in ((1, n), (n, n), (n, m)):
        a = rng.random(shape)
        a[rng.random(shape) < zero_frac] = 0.0
        a[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] += 0.1
        arrs.append(a / a.sum(axis=1, keepdims=True))
    return SimpleNamespace(n=n, pi=arrs[0][0], A=arrs[1], B=arrs[2])


@pytest.mark.parametrize("zero_frac", [0.0, 0.4])
def test_forward_matches_brute_force(zero_frac):
    rng = np.random.default_rng(7)
    models = [tiny_model(rng, n, 3, zero_frac) for n in (1, 2, 3, 2)]
    seqs = [rng.integers(3, size=t) for t in (1, 2, 4, 5, 3)]
    got = ref.forward_loglik([(m.pi, m.A, m.B) for m in models], seqs)
    for i, seq in enumerate(seqs):
        for j, model in enumerate(models):
            p = oracles.brute_likelihood(model, seq)
            if p == 0.0:
                assert got[i, j] == -np.inf
            else:
                assert got[i, j] == pytest.approx(np.log(p), rel=1e-12, abs=1e-12)


def test_impossible_sequence_is_minus_inf_not_nan():
    never_b = SimpleNamespace(n=1, pi=np.array([1.0]), A=np.array([[1.0]]),
                              B=np.array([[1.0, 0.0]]))
    got = ref.forward_loglik([(never_b.pi, never_b.A, never_b.B)], [np.array([0, 1, 0])])
    assert got[0, 0] == -np.inf


def test_auc_and_ap_match_brute_force():
    rng = np.random.default_rng(3)
    labels = np.array([1, 0] * 20)
    scores = rng.integers(0, 6, size=40).astype(float)  # many ties
    assert ref.pairwise_auc(labels, scores) == pytest.approx(
        oracles.brute_roc_auc(labels, scores), abs=1e-15)
    assert ref.definition_ap(labels, scores) == pytest.approx(
        oracles.brute_average_precision(labels, scores), abs=1e-15)


def test_f1_threshold_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        labels = np.array([1] * 6 + [0] * 9)
        scores = rng.integers(0, 5, size=15).astype(float)  # many ties
        best_t, _ = oracles.brute_best_f1_threshold(scores, labels)
        assert ref.f1_threshold(labels, scores) == best_t


def test_evaluation_split_partitions_each_class():
    labels = np.array([1] * 7 + [0] * 13)
    calib, held_out = ref.evaluation_split(labels, 3, 0.2)
    assert sorted(np.concatenate([calib, held_out]).tolist()) == list(range(20))
    assert (labels[calib] == 1).sum() == 1 and (labels[calib] == 0).sum() == 3
    again = ref.evaluation_split(labels, 3, 0.2)
    assert np.array_equal(again[0], calib) and np.array_equal(again[1], held_out)


def test_recount_flags_a_wrong_score():
    ll = np.array([[-1.0, -3.0, -2.0, -2.0]])  # 2 pos, 2 neg models: pos wins 2 of 4
    assert ref.check_recount(np.array([2]), ll, ll, 2) == []
    assert ref.check_recount(np.array([3]), ll, ll, 2) != []


def test_generator_draws_the_ring_chain():
    rng = np.random.default_rng(0)
    seqs = gen.sample_ring(rng, gen.POS_ADVANCE, np.full(400, 300))
    tokens = np.concatenate(seqs)
    # every token appears at the stationary rate 1/5
    assert np.allclose(np.bincount(tokens, minlength=5) / tokens.size, 0.2, atol=0.01)
    # the sampler's sequences are likelier under their own generator
    pos = gen.generator_params(gen.POS_ADVANCE)
    neg = gen.generator_params(gen.NEG_ADVANCE)
    ll = ref.forward_loglik([pos, neg], seqs[:50])
    assert np.mean(ll[:, 0] > ll[:, 1]) > 0.9


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        ref.strict_json('{"pi": [NaN, 1.0]}')
