"""Exact-semantics tests for accuracy / AUC / KS against brute-force oracles."""

import numpy as np
import pytest

import creditnet.metrics as metrics
from creditnet.errors import ConfigError, DataError, ShapeError, UndefinedMetricError
from creditnet.metrics import (
    MetricsRecord,
    accuracy,
    auc,
    evaluate_scores,
    ks,
    roc_points,
)


def auc_pairwise_oracle(scores, labels):
    """O(n^2) Mann-Whitney count: concordant pairs + half the ties."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def ks_enumeration_oracle(scores, labels):
    """Max |TPR - FPR| by trying every distinct score as the threshold."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n_pos = np.sum(labels == 1)
    n_neg = np.sum(labels == 0)
    best = 0.0
    for t in np.unique(scores):
        tpr = np.sum(scores[labels == 1] >= t) / n_pos
        fpr = np.sum(scores[labels == 0] >= t) / n_neg
        best = max(best, abs(tpr - fpr))
    return best


def auc_rank_sum_reference(scores, labels):
    """The earlier rank-sum AUC: average ranks for ties, then Mann-Whitney U."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    n = scores.shape[0]
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    is_new[1:] = sorted_scores[1:] != sorted_scores[:-1]
    group = np.cumsum(is_new) - 1
    first = np.flatnonzero(is_new)
    counts = np.diff(np.append(first, n))
    ranks = np.empty(n)
    ranks[order] = (first + (counts + 1) / 2.0)[group]
    n_pos = int(np.sum(labels == 1))
    n_neg = n - n_pos
    u = np.sum(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ks_threshold_reference(scores, labels):
    """The earlier KS: its own descending sort and per-class cumulative rates."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    last = np.empty(scores.shape[0], dtype=bool)
    last[-1] = True
    last[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    tpr = np.cumsum(sorted_labels == 1)[last] / np.sum(labels == 1)
    fpr = np.cumsum(sorted_labels == 0)[last] / np.sum(labels == 0)
    return float(np.max(np.abs(tpr - fpr)))


def random_instance(rng, max_n=200):
    """Random scores/labels with both classes, sometimes heavily tied."""
    n = int(rng.integers(4, max_n + 1))
    style = rng.integers(0, 3)
    if style == 0:
        scores = rng.random(n)
    elif style == 1:
        scores = rng.integers(0, 5, n) / 4.0  # heavy ties
    else:
        scores = np.round(rng.random(n), 1)  # moderate ties
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


def tie_heavy_instance(rng):
    """Scores that stress tie handling: continuous, rounded to 0-2 decimals,
    drawn from {0.0, -0.0, 0.5, 1.0}, or all equal; n from 2 to 3,000, both
    classes present."""
    n = int(rng.integers(2, 3001)) if rng.random() < 0.5 else int(rng.integers(2, 20))
    style = rng.integers(0, 4)
    if style == 0:
        scores = rng.random(n)
    elif style == 1:
        scores = np.round(rng.random(n), int(rng.integers(0, 3)))
    elif style == 2:
        scores = rng.choice([0.0, -0.0, 0.5, 1.0], n)
    else:
        scores = np.full(n, rng.random())
    labels = rng.integers(0, 2, n)
    labels[rng.choice(n, 2, replace=False)] = (0, 1)
    return scores, labels


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0.9, 0.2], [1, 0]) == 1.0

    def test_inverted(self):
        assert accuracy([0.9, 0.2], [0, 1]) == 0.0

    def test_direct_count(self):
        assert accuracy([0.6, 0.6, 0.4], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_boundary_counts_as_positive(self):
        assert accuracy([0.5], [1]) == 1.0

    def test_threshold_zero_predicts_all_positive(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        assert accuracy(scores, labels, threshold=0.0) == pytest.approx(labels.mean())

    def test_empty_input(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_non_binary_labels_are_data_errors(self):
        with pytest.raises(DataError, match="labels must be 0/1"):
            accuracy([0.5, 0.5], [0, 2])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy([0.5], [1, 0])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.3, 0.3, 0.3], [0, 1, 0]) == 0.5

    def test_four_point_fixture(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auc_pairwise_oracle(scores, labels) == 0.75
        assert auc(scores, labels) == pytest.approx(0.75, abs=1e-15)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.9], [1, 1])

    def test_label_swap_duality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores, labels = random_instance(rng, max_n=60)
            assert auc(scores, 1 - labels) == pytest.approx(1 - auc(scores, labels),
                                                            abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores, labels = random_instance(rng, max_n=60)
            base = auc(scores, labels)
            assert auc(np.exp(scores), labels) == base
            assert auc(3.0 * scores + 11.0, labels) == base

    def test_matches_trapezoid_area_under_roc(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores, labels = random_instance(rng, max_n=100)
            area = roc_points(scores, labels).trapezoid_area()
            assert auc(scores, labels) == pytest.approx(area, abs=1e-12)


class TestKs:
    def test_perfect_separation(self):
        assert ks([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_identical_distributions(self):
        assert ks([0.4, 0.4, 0.4, 0.4], [0, 1, 0, 1]) == 0.0

    def test_four_point_fixture(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert ks_enumeration_oracle(scores, labels) == 0.5
        assert ks(scores, labels) == pytest.approx(0.5, abs=1e-15)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ks([0.1, 0.9], [0, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores, labels = random_instance(rng, max_n=60)
            assert ks(np.exp(scores), labels) == ks(scores, labels)


class TestRocPoints:
    def test_perfect_two_sample(self):
        curve = roc_points([0.9, 0.2], [1, 0])
        assert curve.points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_ties_single_diagonal_segment(self):
        curve = roc_points([0.5, 0.5, 0.5], [1, 0, 1])
        assert curve.points == [(0.0, 0.0), (1.0, 1.0)]

    def test_four_point_fixture_enumeration(self):
        curve = roc_points([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert curve.points == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5),
                                (0.5, 1.0), (1.0, 1.0)]

    def test_monotone_coordinates(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            scores, labels = random_instance(rng)
            curve = roc_points(scores, labels)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert curve.points[0] == (0.0, 0.0)
            assert curve.points[-1] == (1.0, 1.0)


class TestOracleEquivalence:
    """Bulk randomized equivalence against the O(n^2) oracles."""

    def test_auc_and_ks_match_oracles(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            scores, labels = random_instance(rng)
            assert auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12)
            assert ks(scores, labels) == pytest.approx(
                ks_enumeration_oracle(scores, labels), abs=1e-12)


class TestReferenceEquality:
    """The one-sort sweep reproduces the earlier rank-sum AUC and KS exactly."""

    @staticmethod
    def assert_exact(scores, labels):
        ref_auc = auc_rank_sum_reference(scores, labels)
        ref_ks = ks_threshold_reference(scores, labels)
        rec = evaluate_scores(scores, labels)
        assert auc(scores, labels) == ref_auc and rec.auc == ref_auc
        assert ks(scores, labels) == ref_ks and rec.ks == ref_ks

    def test_random_instances(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            self.assert_exact(*random_instance(rng, max_n=2000))

    def test_150k_rows(self):
        rng = np.random.default_rng(7)
        scores = np.round(rng.random(150_000), 4)
        labels = (rng.random(150_000) < 0.07).astype(np.int64)
        self.assert_exact(scores, labels)

    def test_one_validation_and_one_sort(self, monkeypatch):
        calls = {"validate": 0, "argsort": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(metrics, "_validate", counting("validate", metrics._validate))
        monkeypatch.setattr(np, "argsort", counting("argsort", np.argsort))
        evaluate_scores(np.linspace(0.0, 1.0, 50), np.arange(50) % 2)
        assert calls == {"validate": 1, "argsort": 1}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [accuracy, auc, ks, roc_points, evaluate_scores])
def test_non_finite_scores_are_data_errors(fn, bad):
    with pytest.raises(DataError, match="scores contain non-finite values"):
        fn([0.1, bad, 0.3, 0.2], [0, 1, 1, 0])


@pytest.mark.parametrize("fn", [accuracy, auc, ks, roc_points, evaluate_scores])
def test_non_numeric_scores_are_data_errors(fn):
    with pytest.raises(DataError, match="input is not a numeric array"):
        fn("ab", [0, 1])


@pytest.mark.parametrize("scores, labels", [
    ([[0.1, 0.9]], [[0, 1]]),
    ([0.1, 0.9], [[0, 1]]),
    ([[0.1], [0.9]], [0, 1]),
    (0.9, 1),
])
@pytest.mark.parametrize("fn", [accuracy, auc, ks, roc_points, evaluate_scores])
def test_scores_and_labels_must_be_one_dimensional(fn, scores, labels):
    with pytest.raises(ShapeError, match="scores and labels must be 1-D"):
        fn(scores, labels)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, "a", None, True])
@pytest.mark.parametrize("fn", [accuracy, evaluate_scores])
def test_threshold_must_be_a_finite_real(fn, threshold):
    with pytest.raises(ConfigError, match="^threshold must be finite Real, got "):
        fn([0.2, 0.7], [0, 1], threshold=threshold)


@pytest.mark.parametrize("threshold, acc", [(0, 0.5), (np.int64(1), 0.5),
                                            (np.float32(0.5), 1.0), (0.5, 1.0)])
def test_integer_and_numpy_thresholds_are_accepted(threshold, acc):
    assert accuracy([0.2, 0.7], [0, 1], threshold) == acc


class TestSweepIgnoresOrderWithinTies:
    """``_sweep`` reads its counts only at tie-group ends, so it does not
    depend on how its sort orders equal scores: any permutation of the input
    gives the same counts, bit for bit."""

    def test_permuted_input_gives_identical_counts(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            scores, labels = tie_heavy_instance(rng)
            fp, tp = metrics._sweep(scores, labels)
            for _ in range(3):
                p = rng.permutation(scores.shape[0])
                fp_p, tp_p = metrics._sweep(scores[p], labels[p])
                assert fp_p.dtype == fp.dtype and fp_p.tobytes() == fp.tobytes()
                assert tp_p.dtype == tp.dtype and tp_p.tobytes() == tp.tobytes()

    def test_single_class_stays_undefined(self):
        rng = np.random.default_rng(2025)
        for _ in range(50):
            scores, _ = tie_heavy_instance(rng)
            n = scores.shape[0]
            for cls, n_pos, n_neg in ((0, 0, n), (1, n, 0)):
                with pytest.raises(UndefinedMetricError,
                                   match=f"^metric undefined with n_pos={n_pos}, "
                                         f"n_neg={n_neg}$"):
                    metrics._sweep(scores, np.full(n, cls, dtype=np.int64))


class TestEvaluateScores:
    def test_record_fields(self):
        rec = evaluate_scores([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert isinstance(rec, MetricsRecord)
        assert rec.n_pos == 2 and rec.n_neg == 2
        assert rec.auc == pytest.approx(0.75)
        assert rec.ks == pytest.approx(0.5)
        assert 0.0 <= rec.acc <= 1.0

    def test_to_dict_roundtrip(self):
        rec = evaluate_scores([0.9, 0.1], [1, 0])
        d = rec.to_dict()
        assert set(d) == {"acc", "auc", "ks", "n_pos", "n_neg"}
