import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakguard.metrics import (
    ConfusionMatrix,
    _average_ranks,
    accuracy,
    auc,
    compute_report,
    confusion,
    f1,
    mcc,
    precision,
    recall,
)
from roc_oracle import roc_curve


def tally_oracle(labels, predictions):
    """Naive per-row confusion tally, independent of the implementation."""
    tp = fp = tn = fn = 0
    for y, p in zip(labels, predictions):
        if y == 1 and p == 1:
            tp += 1
        elif y == 0 and p == 1:
            fp += 1
        elif y == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def trapezoid(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pairwise_auc_oracle(labels, scores):
    """P(random positive scored above random negative), ties counted half."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_direct_count(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)

    def test_perfect_predictions(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0

    def test_matches_tally_oracle_on_random_pairs(self):
        rng = np.random.default_rng(123)
        y = rng.integers(0, 2, size=1000)
        p = rng.integers(0, 2, size=1000)
        cm = confusion(y, p)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == tuple(
            tally_oracle(y.tolist(), p.tolist())[i] for i in (0, 1, 2, 3)
        )
        assert cm.total == 1000

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1, 0], [1])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            confusion([], [])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])


class TestScores:
    def test_perfect_classifier(self):
        cm = ConfusionMatrix(tp=5, fp=0, tn=10, fn=0)
        assert precision(cm) == recall(cm) == f1(cm) == accuracy(cm) == 1.0
        assert mcc(cm) == 1.0

    def test_all_negative_predictor_conventions(self):
        cm = confusion([1, 1, 0, 0, 0], [0, 0, 0, 0, 0])
        assert recall(cm) == 0.0
        assert precision(cm) == 0.0
        assert f1(cm) == 0.0
        assert mcc(cm) == 0.0
        assert accuracy(cm) == 0.6

    def test_mcc_hand_case(self):
        cm = ConfusionMatrix(tp=9, fp=1, tn=89, fn=1)
        assert abs(mcc(cm) - 800.0 / 900.0) < 1e-12

    def test_mcc_large_counts_no_overflow(self):
        cm = ConfusionMatrix(tp=10**9, fp=10**8, tn=10**9, fn=10**8)
        value = mcc(cm)
        assert -1.0 <= value <= 1.0

    @settings(deadline=None, max_examples=100)
    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        tn=st.integers(0, 500),
        fn=st.integers(0, 500),
    )
    def test_f1_algebraic_identity(self, tp, fp, tn, fn):
        cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        direct = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        assert abs(f1(cm) - direct) < 1e-12

    @settings(deadline=None, max_examples=100)
    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        tn=st.integers(0, 500),
        fn=st.integers(0, 500),
    )
    def test_mcc_symmetric_under_class_swap(self, tp, fp, tn, fn):
        cm = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        # Swapping 0 and 1 in both labels and predictions exchanges
        # tp with tn and fp with fn.
        swapped = ConfusionMatrix(tp=tn, fp=fn, tn=tp, fn=fp)
        assert abs(mcc(cm) - mcc(swapped)) < 1e-12

    @settings(deadline=None, max_examples=50)
    @given(n_pos=st.integers(1, 40), n_neg=st.integers(1, 40))
    def test_majority_predictor_accuracy_is_majority_fraction(self, n_pos, n_neg):
        labels = [1] * n_pos + [0] * n_neg
        majority = 1 if n_pos >= n_neg else 0
        cm = confusion(labels, [majority] * len(labels))
        assert abs(accuracy(cm) - max(n_pos, n_neg) / (n_pos + n_neg)) < 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed_scores(self):
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_all_tied_scores(self):
        assert auc([0, 1, 0, 1, 1], [0.5] * 5) == 0.5

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_nan_score_errors(self):
        for fn in (auc, roc_curve):
            with pytest.raises(ValueError, match="NaN"):
                fn([0, 1, 1], [0.2, np.nan, 0.5])

    @settings(deadline=None, max_examples=100)
    @given(values=st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_average_ranks_match_pairwise_definition(self, values):
        # Rank = rows strictly below + the mean position within the tie block.
        expected = [
            sum(w < v for w in values) + (sum(w == v for w in values) + 1) / 2
            for v in values
        ]
        ranks = _average_ranks(np.array(values, dtype=np.float64))
        assert ranks.tolist() == expected

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        scores = rng.random(60).round(1)  # force ties
        points = roc_curve(labels, scores)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_rank_auc_equals_trapezoid_with_ties(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(10, 200))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            scores = rng.random(n)
            if trial % 2:
                scores = scores.round(1)  # heavy ties
            assert abs(auc(labels, scores) - trapezoid(roc_curve(labels, scores))) < 1e-9

    def test_rank_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            scores = rng.random(n).round(1)
            expected = pairwise_auc_oracle(labels.tolist(), scores.tolist())
            assert abs(auc(labels, scores) - expected) < 1e-12

    @settings(deadline=None, max_examples=40)
    @given(
        data=st.lists(
            # Coarse score grid keeps the transforms strictly increasing
            # in float arithmetic (no underflow-induced ties).
            st.tuples(st.integers(0, 1), st.integers(-1000, 1000)),
            min_size=4,
            max_size=60,
        )
    )
    def test_auc_invariant_under_monotone_transform(self, data):
        labels = [y for y, _ in data]
        if len(set(labels)) < 2:
            return
        scores = np.array([s for _, s in data], dtype=np.float64) / 100.0
        base = auc(labels, scores)
        assert abs(auc(labels, 2.0 * scores + 1.0) - base) < 1e-12
        assert abs(auc(labels, scores**3) - base) < 1e-12


class TestReport:
    def test_threshold_boundary_is_positive(self):
        report = compute_report([1, 0], [0.5, 0.4], threshold=0.5)
        assert report.confusion.tp == 1
        assert report.confusion.fp == 0

    def test_zero_division_flags_recorded(self):
        report = compute_report([1, 1, 0], [0.1, 0.2, 0.05], threshold=0.5)
        assert "precision" in report.zero_division_flags
        assert report.precision == 0.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        scores = rng.random(200)
        report = compute_report(labels, scores, threshold=0.4)
        cm = report.confusion
        assert report.positive_count == cm.tp + cm.fn
        assert report.negative_count == cm.tn + cm.fp
        assert abs(report.accuracy - accuracy(cm)) < 1e-12
        assert abs(report.auc - auc(labels, scores)) < 1e-12
        assert report.to_dict()["convention"].startswith("positive-class")
        # The matrix is serialized through the report's asdict.
        assert list(report.to_dict()["confusion"].items()) == [
            ("tp", cm.tp), ("fp", cm.fp), ("tn", cm.tn), ("fn", cm.fn)
        ]

    def test_proba_monotone_in_margin_or_scores(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        order_by_scores = np.argsort(scores)
        assert abs(auc(labels, scores) - auc(labels, np.argsort(order_by_scores).astype(float))) < 1e-12
