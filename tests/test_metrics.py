import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hmm_ensemble import (
    EvalReport,
    ParameterError,
    average_precision,
    choose_threshold,
    confusion_at,
    roc_auc,
)


FOUR_POINT_LABELS = [0, 0, 1, 1]
FOUR_POINT_SCORES = [0.1, 0.4, 0.35, 0.8]


class TestRocAuc:
    def test_worked_example(self):
        assert roc_auc(FOUR_POINT_LABELS, FOUR_POINT_SCORES) == 0.75

    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [1, 2, 3, 4]) == 1.0

    def test_all_tied(self):
        assert roc_auc([0, 1, 0, 1], [5, 5, 5, 5]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.normal(size=50)
        base = roc_auc(labels, scores)
        assert roc_auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, 3 * scores - 7) == pytest.approx(base, abs=1e-12)

    def test_label_flip_mirrors_auc(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        scores = rng.normal(size=60)  # continuous, tie-free
        assert roc_auc(1 - labels, scores) == pytest.approx(
            1 - roc_auc(labels, scores), abs=1e-12
        )

class TestAveragePrecision:
    def test_worked_example(self):
        assert average_precision(FOUR_POINT_LABELS, FOUR_POINT_SCORES) == pytest.approx(
            0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12
        )

    def test_perfect_ranking(self):
        assert average_precision([0, 0, 1, 1], [1, 2, 3, 4]) == 1.0

    def test_single_positive_ranked_last(self):
        k = 7
        labels = [0] * (k - 1) + [1]
        scores = list(range(k, 0, -1))
        assert average_precision(labels, scores) == pytest.approx(1 / k, abs=1e-12)

    def test_random_scores_ap_near_prevalence(self):
        rng = np.random.default_rng(3)
        n, prevalence = 500, 0.2
        labels = (rng.random(n) < prevalence).astype(int)
        labels[:2] = [0, 1]
        aps = [
            average_precision(labels, rng.random(n))
            for _ in range(1000)
        ]
        assert np.mean(aps) == pytest.approx(np.mean(labels), abs=0.05)


class TestOracleEquivalence:
    def test_both_metrics_match_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            n = int(rng.integers(5, 200))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            if trial % 2:
                scores = rng.normal(size=n)
            else:
                scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            assert roc_auc(labels, scores) == pytest.approx(
                oracles.brute_roc_auc(labels, scores), abs=1e-12
            )
            assert average_precision(labels, scores) == pytest.approx(
                oracles.brute_average_precision(labels, scores), abs=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property_matches_oracle(self, data):
        n = data.draw(st.integers(4, 40))
        labels = np.array(data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            )
        ))
        scores = np.array(data.draw(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        ), dtype=float)
        assert roc_auc(labels, scores) == pytest.approx(
            oracles.brute_roc_auc(labels, scores), abs=1e-12
        )
        assert average_precision(labels, scores) == pytest.approx(
            oracles.brute_average_precision(labels, scores), abs=1e-12
        )


class TestRejection:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_non_finite_scores_and_labels_outside_0_1_raise(self, data):
        n = data.draw(st.integers(2, 20))
        labels = [0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                             max_size=n - 2))
        scores = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        i = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            scores[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            labels[i] = data.draw(st.sampled_from([2, -1, 0.5, np.nan]))
        for metric in (roc_auc, average_precision,
                       lambda labels, scores: choose_threshold(scores, labels)):
            with pytest.raises(ParameterError):
                metric(labels, scores)


class TestConfusion:
    def test_threshold_below_everything(self):
        tp, fp, tn, fn = confusion_at([0, 0, 1], [1, 2, 3], threshold=0)
        assert (tp, fp, tn, fn) == (1, 2, 0, 0)

    def test_threshold_above_everything(self):
        tp, fp, tn, fn = confusion_at([0, 0, 1], [1, 2, 3], threshold=10)
        assert (tp, fp, tn, fn) == (0, 0, 2, 1)

    def test_boundary_is_inclusive(self):
        assert confusion_at([0, 1], [1, 2], threshold=2) == (1, 0, 1, 0)


class TestEvalReport:
    def test_counts_must_add_up(self):
        with pytest.raises(ParameterError):
            EvalReport(
                auc_roc=0.5, average_precision=0.5, threshold=1,
                tp=1, fp=0, tn=0, fn=0, n_pos=2, n_neg=1,
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_scores_equals_the_metrics_on_tied_scores(self, data):
        n = data.draw(st.integers(2, 30))
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n)
        )
        scores = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        threshold = data.draw(st.integers(-1, 4))
        report = EvalReport.from_scores(labels, scores, threshold)
        assert report.auc_roc == roc_auc(labels, scores)
        assert report.average_precision == average_precision(labels, scores)
        assert (report.tp, report.fp, report.tn, report.fn) == confusion_at(
            labels, scores, threshold
        )
        assert (report.n_pos, report.n_neg) == (sum(labels), n - sum(labels))

    def test_from_scores_roundtrip(self):
        report = EvalReport.from_scores([0, 0, 1, 1], [1, 2, 3, 4], threshold=3)
        assert report.tp == 2 and report.fp == 0 and report.tn == 2 and report.fn == 0
        d = report.to_dict()
        assert d["auc_roc"] == 1.0 and d["n_pos"] == 2
