"""Evaluation metrics against a slot-by-slot brute-force oracle."""

import numpy as np
import pytest

from nucontrast.linalg import DimensionError
from nucontrast.metrics import MetricsReport, average_precision, report


def brute_force_ap(scores, truth):
    """AP straight from the definition: stable descending rank, precision at
    each positive's rank, averaged over positives."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    n_pos = sum(1 for t in truth if t == 1)
    for rank, idx in enumerate(order, start=1):
        if truth[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def brute_force_report(probs, truth, threshold=0.5):
    n, c = len(probs), len(probs[0])
    precisions, recalls, aps = [], [], []
    for k in range(c):
        pos = [i for i in range(n) if truth[i][k] == 1]
        if not pos:
            continue
        pred = [i for i in range(n) if probs[i][k] >= threshold]
        tp = len([i for i in pred if truth[i][k] == 1])
        precisions.append(tp / len(pred) if pred else 0.0)
        recalls.append(tp / len(pos))
        aps.append(brute_force_ap([probs[i][k] for i in range(n)], [truth[i][k] for i in range(n)]))
    cp = sum(precisions) / len(precisions)
    cr = sum(recalls) / len(recalls)
    tp = fp = fn = 0
    for i in range(n):
        for k in range(c):
            predicted = probs[i][k] >= threshold
            actual = truth[i][k] == 1
            tp += predicted and actual
            fp += predicted and not actual
            fn += actual and not predicted
    op = tp / (tp + fp) if tp + fp else 0.0
    orr = tp / (tp + fn) if tp + fn else 0.0
    f1 = lambda p, r: 2 * p * r / (p + r) if p + r > 0 else 0.0
    return {
        "map": sum(aps) / len(aps),
        "cp": cp,
        "cr": cr,
        "cf1": f1(cp, cr),
        "op": op,
        "or": orr,
        "of1": f1(op, orr),
    }


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0

    def test_two_sample_case(self):
        assert average_precision([0.2, 0.9], [1, -1]) == 0.5

    def test_single_positive_sample(self):
        assert average_precision([0.3], [1]) == 1.0

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            average_precision([0.5, 0.4], [-1, -1])

    def test_rejects_a_non_finite_score(self):
        with pytest.raises(ValueError, match="^scores contains non-finite entries$"):
            average_precision([np.nan, 0.5], [1, -1])

    def test_rejects_a_label_other_than_plus_or_minus_one(self):
        with pytest.raises(ValueError, match=r"^truth entries must all be -1 or \+1$"):
            average_precision([0.2, 0.5], [1, 7])

    def test_rejects_lengths_that_differ(self):
        with pytest.raises(DimensionError, match=r"score shape \(3, 1\) does not match"):
            average_precision([0.2, 0.5, 0.1], [1, -1])

    def test_ties_stable_original_order(self):
        scores = [0.5, 0.5, 0.5]
        for truth in ([1, -1, -1], [-1, 1, -1], [-1, -1, 1]):
            assert average_precision(scores, truth) == brute_force_ap(scores, truth)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(20)
        truth = np.where(rng.random(20) < 0.4, 1, -1)
        if not (truth == 1).any():
            truth[0] = 1
        a = average_precision(scores, truth)
        b = average_precision(np.exp(3 * scores), truth)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            scores = np.round(rng.random(n), 2)  # rounded to force ties
            truth = np.where(rng.random(n) < 0.5, 1, -1)
            if not (truth == 1).any():
                truth[int(rng.integers(n))] = 1
            assert average_precision(scores, truth) == pytest.approx(
                brute_force_ap(list(scores), list(truth)), abs=1e-12
            )


class TestReport:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(2)
        truth = np.where(rng.random((10, 4)) < 0.5, 1, -1)
        truth[:, 0] = 1  # ensure every class has a positive somewhere
        probs = (truth + 1) / 2.0
        rep = report(probs, truth)
        for value in (rep.map, rep.cp, rep.cr, rep.cf1, rep.op, rep.or_, rep.of1):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_probs(self):
        truth = np.array([[1, -1], [1, 1]])
        rep = report(np.zeros((2, 2)), truth)
        assert rep.or_ == 0.0
        assert rep.of1 == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = rng.random((20, 5))
            truth = np.where(rng.random((20, 5)) < 0.4, 1, -1)
            truth[0] = 1
            rep = report(probs, truth)
            want = brute_force_report(probs.tolist(), truth.tolist())
            assert rep.map == pytest.approx(want["map"], abs=1e-12)
            assert rep.cp == pytest.approx(want["cp"], abs=1e-12)
            assert rep.cr == pytest.approx(want["cr"], abs=1e-12)
            assert rep.cf1 == pytest.approx(want["cf1"], abs=1e-12)
            assert rep.op == pytest.approx(want["op"], abs=1e-12)
            assert rep.or_ == pytest.approx(want["or"], abs=1e-12)
            assert rep.of1 == pytest.approx(want["of1"], abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        probs = rng.random((12, 4))
        truth = np.where(rng.random((12, 4)) < 0.5, 1, -1)
        truth[0] = 1
        perm = rng.permutation(12)
        a = report(probs, truth)
        b = report(probs[perm], truth[perm])
        assert a.map == pytest.approx(b.map, abs=1e-12)
        assert a.of1 == pytest.approx(b.of1, abs=1e-12)

    def test_threshold_is_inclusive(self):
        truth = np.array([[1, 1], [1, -1]])
        rep = report(np.full((2, 2), 0.5), truth, threshold=0.5)
        assert rep.or_ == 1.0  # everything predicted positive at exactly 0.5

    def test_skipped_class_signaled(self):
        truth = np.array([[1, -1], [1, -1]])
        rep = report(np.random.default_rng(5).random((2, 2)), truth)
        assert rep.skipped_classes == (1,)
        assert np.isnan(rep.per_class_ap[1])
        assert not np.isnan(rep.per_class_ap[0])

    def test_no_evaluable_class_raises(self):
        with pytest.raises(ValueError):
            report(np.zeros((1, 1)), np.array([[-1]]))
        with pytest.raises(ValueError):
            report(np.array([[1.2]]), np.array([[1]]))

    def test_zero_rows_have_nothing_to_evaluate(self):
        with pytest.raises(ValueError, match="no class has a positive label; nothing to evaluate"):
            report(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        probs = rng.random((15, 6))
        truth = np.where(rng.random((15, 6)) < 0.3, 1, -1)
        truth[0] = 1
        rep = report(probs, truth)
        for value in (rep.map, rep.cp, rep.cr, rep.cf1, rep.op, rep.or_, rep.of1):
            assert 0.0 <= value <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            report(np.zeros((2, 2)), np.ones((2, 3), dtype=int))


def test_report_serialization_format():
    rep = MetricsReport(
        map=0.5, cp=0.25, cr=1.0, cf1=0.4, op=0.125, or_=0.75, of1=0.2142857,
        per_class_ap=np.array([0.5]),
    )
    lines = rep.to_text().splitlines()
    assert lines == [
        "map 0.5000",
        "cp 0.2500",
        "cr 1.0000",
        "cf1 0.4000",
        "op 0.1250",
        "or 0.7500",
        "of1 0.2143",
    ]
