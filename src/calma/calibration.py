"""Calibration errors, bucket discretization and recalibration.

The discretization splits [0, 1] into width-2*delta buckets ``I_j = [(2j)d,
(2j+2)d)`` and snaps predictions to the bucket midpoints ``(2j+1)d``.  Exact
recalibration replaces each bucket's output by the true conditional label
mean; the sampled variants estimate those means from fresh draws.  Empty
buckets keep their midpoint, which preserves discreteness and bounds the
perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .core import (
    BucketRecalPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    IsotonicStage,
    Predictor,
    bucket_index,
    bucket_midpoints,
    correlate,
    n_buckets,
    value_matrix,
)

__all__ = [
    "InsufficientSamplesError",
    "WeightFunction",
    "BucketStats",
    "Sampler",
    "DistributionSampler",
    "DatasetSampler",
    "ece",
    "weighted_ce",
    "discretize",
    "recalibrate_exact",
    "recalibrate_with_engine",
    "est_ece",
    "est_ece_samples_needed",
    "recal",
    "recal_samples_needed",
    "isotonic_fit",
]


class InsufficientSamplesError(RuntimeError):
    """Sampler cannot supply the number of rows an estimator needs."""


@dataclass(frozen=True)
class WeightFunction:
    """Weight on predicted values, with a declared sup-norm bound."""

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    tag: str = "w"

    def values(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(v, dtype=np.float64)), dtype=np.float64)


class Sampler(Protocol):
    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]: ...


class DistributionSampler:
    """Unlimited i.i.d. draws from an explicit finite distribution."""

    def __init__(self, dist: FiniteDistribution, seed: int = 0):
        self.dist = dist
        self.rng = np.random.default_rng(seed)

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.rng.choice(self.dist.n, size=n, p=self.dist.mass)
        y = (self.rng.random(n) < self.dist.bayes[idx]).astype(float)
        return self.dist.points[idx], y


class DatasetSampler:
    """Sequential, non-replacement consumption of a fixed dataset."""

    def __init__(self, data: Dataset, seed: int | None = None):
        order = np.arange(data.n)
        if seed is not None:
            np.random.default_rng(seed).shuffle(order)
        self._X = data.X[order]
        self._y = data.y[order]
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._y) - self._cursor

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n > self.remaining:
            raise InsufficientSamplesError(f"need {n} rows, {self.remaining} left")
        sl = slice(self._cursor, self._cursor + n)
        self._cursor += n
        return self._X[sl], self._y[sl]


# ---------------------------------------------------------------------------
# Calibration errors
# ---------------------------------------------------------------------------


def ece(pred: Predictor, engine: ExpectationEngine) -> float:
    """Expected calibration error over the predictor's exact level sets."""
    pv = pred.values(engine.X)
    _, level = np.unique(pv, return_inverse=True)
    return float(np.sum(np.abs(np.bincount(level, weights=engine.weights * (engine.ystar - pv)))))


def weighted_ce(pred: Predictor, weights: list[WeightFunction], engine: ExpectationEngine) -> float:
    """max_w |E[w(p(x)) (y* - p(x))]| over the supplied weight family."""
    pv = pred.values(engine.X)
    corr = correlate(engine.weights, engine.ystar - pv, value_matrix(weights, pv))
    return float(np.max(np.abs(corr), initial=0.0))


# ---------------------------------------------------------------------------
# Discretization and recalibration
# ---------------------------------------------------------------------------


def discretize(pred: Predictor, delta: float) -> BucketRecalPredictor:
    """Snap predictions to bucket midpoints; moves no value by more than delta."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return BucketRecalPredictor(pred, delta, bucket_midpoints(delta))


@dataclass(frozen=True)
class BucketStats:
    """Per-bucket mass/count and label mean for a discretized predictor."""

    delta: float
    count: np.ndarray
    label_mean: np.ndarray

    @property
    def midpoints(self) -> np.ndarray:
        return bucket_midpoints(self.delta)

    def to_dicts(self) -> list[dict]:
        out = []
        for j in range(n_buckets(self.delta)):
            out.append(
                {
                    "lo": 2 * j * self.delta,
                    "hi": min(2 * (j + 1) * self.delta, 1.0),
                    "midpoint": float(self.midpoints[j]),
                    "count": float(self.count[j]),
                    "label_mean": float(self.label_mean[j]) if self.count[j] > 0 else None,
                }
            )
        return out


def _bucket_stats(pv: np.ndarray, yv: np.ndarray, wv: np.ndarray, delta: float) -> BucketStats:
    m = n_buckets(delta)
    idx = bucket_index(pv, delta)
    w = np.bincount(idx, weights=wv, minlength=m)
    wy = np.bincount(idx, weights=wv * yv, minlength=m)
    means = np.divide(wy, w, out=np.zeros(m), where=w > 0)
    return BucketStats(delta, w, means)


def bucket_means(pv: np.ndarray, yv: np.ndarray, wv: np.ndarray, delta: float) -> np.ndarray:
    """Recalibrated bucket outputs: the weighted label mean of each nonempty
    bucket of predictions ``pv``, the bucket midpoint for empty ones."""
    stats = _bucket_stats(pv, yv, wv, delta)
    return np.where(stats.count > 0, stats.label_mean, stats.midpoints)


def recalibrate_with_engine(pred: Predictor, delta: float, engine: ExpectationEngine) -> BucketRecalPredictor:
    """Bucket-mean recalibration using the engine's label means per bucket."""
    values = bucket_means(pred.values(engine.X), engine.ystar, engine.weights, delta)
    return BucketRecalPredictor(pred, delta, values)


def recalibrate_exact(pred: Predictor, delta: float, dist: FiniteDistribution) -> BucketRecalPredictor:
    """Exact bucket-mean recalibration; perfectly calibrated on its level sets."""
    return recalibrate_with_engine(pred, delta, ExpectationEngine.exact(dist))


def est_ece_samples_needed(delta: float, mu: float, constant: float = 8.0) -> int:
    return int(math.ceil(constant * math.log(1.0 / delta) ** 2 / (delta * mu**3)))


def est_ece(
    pred: Predictor,
    delta: float,
    mu: float,
    sampler: Sampler,
    constant: float = 8.0,
    n_samples: int | None = None,
) -> float:
    """Sampled estimate of the discretized predictor's calibration error.

    Draws ``constant * log(1/delta)^2 / (delta mu^3)`` labeled points, bins
    them by the discretized prediction and returns the count-weighted absolute
    gap between bucket label means and bucket midpoints.  All nonempty buckets
    contribute.
    """
    if not 0 < delta <= 1 or not 0 < mu <= 1:
        raise ValueError("delta and mu must lie in (0, 1]")
    m = n_samples if n_samples is not None else est_ece_samples_needed(delta, mu, constant)
    X, y = sampler.draw(m)
    stats = _bucket_stats(pred.values(X), y, np.ones(len(y)), delta)
    live = stats.count > 0
    gaps = np.abs(stats.label_mean[live] - stats.midpoints[live])
    return float(np.sum(stats.count[live] / m * gaps))


def recal_samples_needed(delta: float, constant: float = 8.0) -> int:
    return int(math.ceil(constant * math.log(1.0 / delta) ** 2 / delta**4))


def recal(
    pred: Predictor,
    delta: float,
    source: Sampler | FiniteDistribution,
    constant: float = 8.0,
    n_samples: int | None = None,
) -> BucketRecalPredictor:
    """Bucket-mean recalibration from a fresh sample (or exactly, when the
    source is a finite distribution)."""
    if isinstance(source, FiniteDistribution):
        return recalibrate_exact(pred, delta, source)
    m = n_samples if n_samples is not None else recal_samples_needed(delta, constant)
    X, y = source.draw(m)
    return BucketRecalPredictor(pred, delta, bucket_means(pred.values(X), y, np.ones(len(y)), delta))


def bucket_stats(pred: Predictor, delta: float, engine: ExpectationEngine) -> BucketStats:
    """Bucket statistics of a predictor under an engine, for audit dumps."""
    return _bucket_stats(pred.values(engine.X), engine.ystar, engine.weights, delta)


# ---------------------------------------------------------------------------
# Isotonic regression (pool-adjacent-violators)
# ---------------------------------------------------------------------------


def isotonic_fit(scores, labels) -> IsotonicStage:
    """Least-squares monotone fit of labels ordered by score, clipped to [0, 1].

    Equal scores are pooled first; violating adjacent blocks are then merged
    until the block means are nondecreasing.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if len(scores) == 0 or len(scores) != len(labels):
        raise ValueError("scores and labels must be nonempty and equally long")
    order = np.argsort(scores, kind="stable")
    xs, inv = np.unique(scores[order], return_inverse=True)
    w = np.bincount(inv).astype(np.float64)
    ysum = np.bincount(inv, weights=labels[order])
    means = ysum / w

    # pool adjacent violators over (mean, weight) blocks
    blk_mean: list[float] = []
    blk_w: list[float] = []
    blk_end: list[int] = []  # inclusive index of the last score in the block
    for i in range(len(xs)):
        m, ww = means[i], w[i]
        blk_mean.append(m)
        blk_w.append(ww)
        blk_end.append(i)
        while len(blk_mean) > 1 and blk_mean[-2] >= blk_mean[-1]:
            m2 = (blk_mean[-2] * blk_w[-2] + blk_mean[-1] * blk_w[-1]) / (blk_w[-2] + blk_w[-1])
            w2 = blk_w[-2] + blk_w[-1]
            e2 = blk_end[-1]
            blk_mean = blk_mean[:-2] + [m2]
            blk_w = blk_w[:-2] + [w2]
            blk_end = blk_end[:-2] + [e2]

    fitted = np.empty(len(xs))
    start = 0
    for m, e in zip(blk_mean, blk_end):
        fitted[start : e + 1] = m
        start = e + 1
    return IsotonicStage(xs, np.clip(fitted, 0.0, 1.0))
