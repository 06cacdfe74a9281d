"""Score fitting on a held-out split and conformal p-values.

The split-conformal workflow: fit a score function on the first ``ell``
points of the null sample, evaluate it on the remaining ``n - ell``
calibration points, then rank each test point's score against the
calibration scores:

    p_i = (1 + #{j : s_cal_j <= s_test_i}) / (n - ell + 1)

Large scores mean inlier-like; p-values land on the grid
{1, ..., n-ell+1}/(n-ell+1) and are superuniform for inliers when scores
are continuously distributed.  Ties in scores are broken deterministically
by the <= comparison (no randomization), so with genuinely discrete scores
the guarantee may degrade; the bundled Gaussian harness only ever produces
continuous scores.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError

__all__ = [
    "ConformalCalibration",
    "Datapoint",
    "ScoreSplit",
    "classwise_trainer",
    "conformal_pvalues",
    "conformal_pvalues_from_scores",
    "knn_distance_trainer",
    "negative_norm_trainer",
    "read_datapoints_csv",
    "split_fit",
    "split_sample",
    "stack_features",
]


@dataclass
class Datapoint:
    features: np.ndarray
    label: int | None = None


# feature differences the kNN score materializes at once (8 MB of floats)
KNN_BLOCK = 2**20

# Points are a sequence of datapoints or an unlabeled (rows, d) float
# feature matrix.  A fitted score maps points to one score per row; a
# trainer builds one from the fit split (which it may ignore).
Points = Sequence[Datapoint] | np.ndarray
ScoreFn = Callable[[Points], np.ndarray]
ScoreTrainer = Callable[[Points], ScoreFn]


def stack_features(points: Points) -> np.ndarray:
    """Feature matrix (len(points), d); dimensions must agree.

    A feature matrix is returned as it is.
    """
    if isinstance(points, np.ndarray):
        return points
    if len(points) == 0:
        return np.empty((0, 0))
    mat = np.stack([np.asarray(p.features, dtype=float).ravel() for p in points])
    return mat


def _negative_norm_batch(points: Points) -> np.ndarray:
    mat = stack_features(points)
    return -np.linalg.norm(mat, axis=1)


def negative_norm_trainer(fit_points: Points) -> ScoreFn:
    return _negative_norm_batch


def knn_distance_trainer(k_nn: int) -> ScoreTrainer:
    """Negated distance to the k_nn-th nearest fitted point.

    Larger is more inlier-like, matching the orientation of the negative
    norm score.  Requires at least k_nn fit points.
    """
    if k_nn < 1:
        raise ConfigurationError(f"k_nn must be >= 1, got {k_nn}")

    def train(fit_points: Points) -> ScoreFn:
        if len(fit_points) < k_nn:
            raise ConfigurationError(
                f"kNN score needs at least k_nn={k_nn} fit points, got {len(fit_points)}"
            )
        fitted = stack_features(fit_points)

        def score(points: Points) -> np.ndarray:
            queries = stack_features(points)
            if len(points) == 0:
                return np.empty(0)
            # brute-force (q, f) distances, fine at fit sizes here, a block of
            # queries at a time: scoring a whole study replicate at once then
            # holds no more than KNN_BLOCK differences
            step = max(1, KNN_BLOCK // fitted.size)
            kth = np.empty(len(queries))
            for start in range(0, len(queries), step):
                diffs = queries[start : start + step, None, :] - fitted[None, :, :]
                dists = np.sqrt(np.sum(diffs * diffs, axis=2))
                kth[start : start + step] = np.partition(dists, k_nn - 1, axis=1)[:, k_nn - 1]
            return -kth

        return score

    return train


def classwise_trainer(base_trainer: ScoreTrainer) -> ScoreTrainer:
    """Fit one sub-score per label present in the fit split.

    Each point is scored by the sub-score of its own class, one call per
    class; a label unseen at fit time is an out-of-vocabulary error.
    """

    def train(fit_points: Sequence[Datapoint]) -> ScoreFn:
        by_class: dict[int, list[Datapoint]] = {}
        for p in fit_points:
            if getattr(p, "label", None) is None:
                raise ConfigurationError("classwise score requires labeled fit points")
            by_class.setdefault(p.label, []).append(p)
        sub_scores = {lab: base_trainer(pts) for lab, pts in by_class.items()}

        def score(points: Sequence[Datapoint]) -> np.ndarray:
            rows: dict[int | None, list[int]] = {}
            for i, p in enumerate(points):
                rows.setdefault(p.label, []).append(i)
            out = np.empty(len(points))
            for label, idx in rows.items():  # first-seen order: the first unseen label raises
                if label not in sub_scores:
                    raise ValueError(f"unseen class label {label!r}")
                out[idx] = sub_scores[label]([points[i] for i in idx])
            return out

        return score

    return train


@dataclass
class ScoreSplit:
    """The null sample split into a fit part (ell) and calibration part (n-ell)."""

    fit_part: Points
    calibration_part: Points


def split_sample(null_sample: Points, ell: int) -> ScoreSplit:
    """The first ell points and the rest: lists for datapoints, views for a matrix."""
    n = len(null_sample)
    if ell < 0:
        raise ConfigurationError(f"ell must be >= 0, got {ell}")
    if ell >= n:
        raise ConfigurationError(
            f"ell={ell} leaves an empty calibration set (null sample has {n} points)"
        )
    if isinstance(null_sample, np.ndarray):
        return ScoreSplit(null_sample[:ell], null_sample[ell:])
    return ScoreSplit(list(null_sample[:ell]), list(null_sample[ell:]))


@dataclass
class ConformalCalibration:
    """A fitted score plus the calibration scores defining the empirical null."""

    score: ScoreFn
    cal_scores: np.ndarray

    def __post_init__(self):
        self.cal_scores = np.asarray(self.cal_scores, dtype=float)
        if self.cal_scores.size < 1:
            raise ConfigurationError("calibration requires at least one score")

    @property
    def n_cal(self) -> int:
        return int(self.cal_scores.size)


def split_fit(null_sample: Points, ell: int, trainer: ScoreTrainer) -> ConformalCalibration:
    """Fit the score on the first ell points, score the remaining n-ell.

    Calibration scores keep the order of the calibration part.
    """
    split = split_sample(null_sample, ell)
    score = trainer(split.fit_part)
    cal_scores = np.asarray(score(split.calibration_part), dtype=float)
    return ConformalCalibration(score=score, cal_scores=cal_scores)


def conformal_pvalues_from_scores(cal_scores, test_scores) -> np.ndarray:
    """p_i = (1 + #{j : cal_j <= test_i}) / (n_cal + 1), deterministic ties.

    A nan or infinite score raises DataError.
    """
    cal = np.sort(np.asarray(cal_scores, dtype=float))
    if cal.size < 1:
        raise ConfigurationError("calibration requires at least one score")
    test = np.asarray(test_scores, dtype=float)
    if not (np.all(np.isfinite(cal)) and np.all(np.isfinite(test))):
        raise DataError("scores must be finite, got nan or inf")
    counts = np.searchsorted(cal, test, side="right")
    return (1.0 + counts) / (cal.size + 1.0)


def conformal_pvalues(cal: ConformalCalibration, test_points: Points) -> np.ndarray:
    """One conformal p-value per test point; empty input gives empty output."""
    return conformal_pvalues_from_scores(cal.cal_scores, cal.score(test_points))


def read_datapoints_csv(path) -> list[Datapoint]:
    """Read a dataset CSV with header ``f1,...,fd[,label]``.

    Features are finite decimal floats; the label, when the column is
    present, is an integer.  Any malformed header or cell raises DataError.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            has_label = bool(header) and header[-1] == "label"
            feat_cols = header[:-1] if has_label else header
            if not feat_cols:
                raise DataError(f"{path}: no feature columns in header {header}")
            for i, name in enumerate(feat_cols):
                if name != f"f{i + 1}":
                    raise DataError(
                        f"{path}: expected feature column 'f{i + 1}', got {name!r}"
                    )
            points = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    feats = np.array([float(v) for v in row[: len(feat_cols)]])
                    label = int(row[-1]) if has_label else None
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not np.all(np.isfinite(feats)):
                    raise DataError(f"{path}:{lineno}: non-finite feature in {row}")
                points.append(Datapoint(features=feats, label=label))
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    return points
