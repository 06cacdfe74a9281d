"""Conformal layer: splits, scores, p-value grid law, CSV ingestion."""

import math

import numpy as np
import pytest

from confcontam.conformal import (
    ConformalCalibration,
    Datapoint,
    classwise_trainer,
    conformal_pvalues,
    conformal_pvalues_from_scores,
    knn_distance_trainer,
    negative_norm_trainer,
    read_datapoints_csv,
    score_negative_norm,
    split_fit,
    split_sample,
)
from confcontam.errors import ConfigurationError, DataError


def _points(feats, labels=None):
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    if labels is None:
        return [Datapoint(f) for f in feats]
    return [Datapoint(f, label=l) for f, l in zip(feats, labels)]


class TestSplitFit:
    def test_no_fit_split(self):
        sample = _points(np.arange(10).reshape(5, 2))
        cal = split_fit(sample, 0, negative_norm_trainer)
        assert cal.n_cal == 5

    def test_paper_sized_split(self):
        sample = _points(np.random.default_rng(0).normal(size=(100, 2)))
        cal = split_fit(sample, 60, negative_norm_trainer)
        assert cal.n_cal == 40

    def test_degenerate_split_rejected(self):
        sample = _points(np.zeros((5, 2)))
        with pytest.raises(ConfigurationError):
            split_fit(sample, 5, negative_norm_trainer)
        with pytest.raises(ConfigurationError):
            split_sample(sample, -1)

    def test_calibration_order_preserved(self):
        sample = _points([[3, 4], [0, 1], [6, 8], [1, 0], [0, 0]])
        cal = split_fit(sample, 2, negative_norm_trainer)
        assert list(cal.cal_scores) == [-10.0, -1.0, 0.0]


class TestConformalPvalues:
    def test_trivial_ranks(self):
        assert conformal_pvalues_from_scores([1, 2, 3], [0])[0] == pytest.approx(0.25)
        assert conformal_pvalues_from_scores([1, 2, 3], [10])[0] == 1.0
        assert conformal_pvalues_from_scores([1, 2, 3], [2.5])[0] == pytest.approx(0.75)

    def test_tie_counts_as_leq(self):
        assert conformal_pvalues_from_scores([1, 2, 3], [2])[0] == pytest.approx(0.75)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataError):
            conformal_pvalues_from_scores(np.arange(10.0), [0.5, bad])
        with pytest.raises(DataError):
            conformal_pvalues_from_scores([1.0, bad, 3.0], [0.5])

    def test_empty_test_set(self):
        cal = ConformalCalibration(score=negative_norm_trainer([]), cal_scores=[1.0, 2.0])
        assert conformal_pvalues(cal, []).size == 0

    def test_grid_property(self):
        rng = np.random.default_rng(3)
        cal_scores = rng.normal(size=37)
        test_scores = rng.normal(size=200)
        p = conformal_pvalues_from_scores(cal_scores, test_scores)
        ranks = p * 38
        assert np.allclose(ranks, np.round(ranks), atol=1e-9)
        assert np.all((ranks >= 1 - 1e-9) & (ranks <= 38 + 1e-9))

    def test_monotone_in_score(self):
        rng = np.random.default_rng(4)
        cal_scores = rng.normal(size=25)
        grid = np.sort(rng.normal(size=50))
        p = conformal_pvalues_from_scores(cal_scores, grid)
        assert np.all(np.diff(p) >= 0)

    def test_calibration_permutation_invariance(self):
        rng = np.random.default_rng(5)
        cal_scores = rng.normal(size=30)
        test = rng.normal(size=20)
        p1 = conformal_pvalues_from_scores(cal_scores, test)
        p2 = conformal_pvalues_from_scores(rng.permutation(cal_scores), test)
        assert np.array_equal(p1, p2)

    def test_superuniform_for_null_test_points(self):
        # test points exchangeable with the calibration set, continuous
        # scores: floor(beta (n+1))/(n+1) <= P(p <= beta) <= beta
        rng = np.random.default_rng(6)
        reps, n_cal = 4000, 50
        hits = {0.05: 0, 0.1: 0, 0.25: 0}
        for _ in range(reps):
            scores = rng.normal(size=n_cal + 1)
            p = conformal_pvalues_from_scores(scores[:-1], scores[-1:])[0]
            for beta in hits:
                hits[beta] += p <= beta
        for beta, count in hits.items():
            se = math.sqrt(beta * (1 - beta) / reps)
            assert count / reps <= beta + 3 * se
            lower = math.floor(beta * (n_cal + 1)) / (n_cal + 1)
            assert count / reps >= lower - 3 * se


class TestScores:
    def test_negative_norm(self):
        assert score_negative_norm(Datapoint(np.array([0.0, 0.0]))) == 0.0
        assert score_negative_norm(Datapoint(np.array([3.0, 4.0]))) == -5.0
        assert score_negative_norm(Datapoint(np.array([1.0, 1.0]))) == pytest.approx(-math.sqrt(2))

    def test_knn_distance(self):
        fitted = _points([[0.0], [10.0]])
        score1 = knn_distance_trainer(1)(fitted)
        score2 = knn_distance_trainer(2)(fitted)
        q = _points([[1.0]])
        assert score1(q)[0] == pytest.approx(-1.0)
        assert score2(q)[0] == pytest.approx(-9.0)
        assert score1(_points([[0.0]]))[0] == 0.0

    def test_knn_needs_enough_fit_points(self):
        with pytest.raises(ConfigurationError):
            knn_distance_trainer(3)(_points([[0.0], [1.0]]))

    def test_classwise_dispatch(self):
        fit = _points([[1, 0], [5, 0], [0, 2], [0, 6]], labels=[0, 0, 1, 1])
        score = classwise_trainer(knn_distance_trainer(1))(fit)
        # class 0 neighbors live on the x-axis, class 1 on the y-axis
        vals = score(_points([[2, 0], [0, 3]], labels=[0, 1]))
        assert vals[0] == pytest.approx(-1.0)
        assert vals[1] == pytest.approx(-1.0)

    def test_classwise_single_class_matches_plain(self):
        fit = _points([[1.0], [2.0], [4.0]], labels=[7, 7, 7])
        plain = knn_distance_trainer(1)(fit)
        wrapped = classwise_trainer(knn_distance_trainer(1))(fit)
        queries = _points([[0.0], [3.0]], labels=[7, 7])
        assert np.allclose(plain(queries), wrapped(queries))

    def test_classwise_unseen_label(self):
        fit = _points([[1.0]], labels=[0])
        score = classwise_trainer(negative_norm_trainer)(fit)
        with pytest.raises(ValueError):
            score(_points([[1.0]], labels=[1]))


class TestCsvIngestion:
    def test_roundtrip_without_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n1.0,2.0\n-0.5,0.25\n")
        points = read_datapoints_csv(path)
        assert len(points) == 2
        assert np.allclose(points[1].features, [-0.5, 0.25])
        assert points[0].label is None

    def test_roundtrip_with_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        points = read_datapoints_csv(path)
        assert [p.label for p in points] == [0, 1]

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "x1,x2\n1.0,2.0\n",
            "f1,f2\n1.0\n",
            "f1,f2\n1.0,oops\n",
            "f1,f2,label\n1.0,2.0,1.5\n",
        ],
    )
    def test_malformed_inputs(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(DataError):
            read_datapoints_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_datapoints_csv(tmp_path / "nope.csv")
