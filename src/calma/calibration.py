"""Calibration errors, bucket discretization and recalibration.

The discretization splits [0, 1] into width-2*delta buckets ``I_j = [(2j)d,
(2j+2)d)`` and snaps predictions to the bucket midpoints ``(2j+1)d``.
Recalibration replaces each bucket's output by its label mean under an
engine: the true conditional mean under an exact engine, a sample mean under
an empirical one.  A sampler's ``draw(n)`` is the engine of n fresh draws, so
a fresh sample is measured the same way.  Empty buckets keep their midpoint,
which preserves discreteness and bounds the perturbation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Protocol

import numpy as np

from .core import (
    BucketStage,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    IsotonicStage,
    PipelinePredictor,
    Predictor,
    bucket_index,
    bucket_midpoints,
    correlate,
    n_buckets,
)

__all__ = [
    "InsufficientSamplesError",
    "Sampler",
    "DistributionSampler",
    "DatasetSampler",
    "ece",
    "weighted_ce",
    "discretize",
    "recalibrate_with_engine",
    "est_ece_samples_needed",
    "recal_samples_needed",
    "isotonic_fit",
]


class InsufficientSamplesError(RuntimeError):
    """Sampler cannot supply the number of rows an estimator needs."""


class Sampler(Protocol):
    def draw(self, n: int) -> ExpectationEngine: ...


class DistributionSampler:
    """Unlimited i.i.d. draws from an explicit finite distribution.  A draw of
    n is their empirical distribution on ``dist.points``: weight count / n and
    label mean ones / count per point, both 0 for a point not drawn.  All
    draws share one member cache, built once per class."""

    def __init__(self, dist: FiniteDistribution, seed: int = 0):
        self.dist = dist
        self.rng = np.random.default_rng(seed)
        self._engine = ExpectationEngine.exact(dist)

    def draw(self, n: int) -> ExpectationEngine:
        if n < 1:
            raise ValueError(f"a draw takes at least 1 row, not {n}")
        counts = self.rng.multinomial(n, self.dist.mass)
        ones = self.rng.binomial(counts, self.dist.bayes)
        weights = counts / n
        ystar = np.divide(ones, counts, out=np.zeros(len(counts)), where=counts > 0)
        weights.flags.writeable = ystar.flags.writeable = False
        return self._engine.reweighted(weights, ystar)


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

    def draw(self, n: int) -> ExpectationEngine:
        if n < 1:
            raise ValueError(f"a draw takes at least 1 row, not {n}")
        if n > self.remaining:
            raise InsufficientSamplesError(f"need {n} rows, {self.remaining} left")
        sl = slice(self._cursor, self._cursor + n)
        self._cursor += n
        return ExpectationEngine.empirical(Dataset(self._X[sl], self._y[sl]))


# ---------------------------------------------------------------------------
# Calibration errors
# ---------------------------------------------------------------------------


def ece(pred: Predictor, engine: ExpectationEngine) -> float:
    """Expected calibration error over the predictor's exact level sets."""
    pv = pred.values(engine.X)
    _, level = np.unique(pv, return_inverse=True)
    return float(np.sum(np.abs(np.bincount(level, weights=engine.weights * (engine.ystar - pv)))))


def weighted_ce(pred: Predictor, weights: Iterable[Callable], engine: ExpectationEngine) -> float:
    """max_w |E[w(p(x)) (y* - p(x))]| over ``weights``, plain functions that map
    the array of predictions to an equally long array of weights; 0 for none."""
    pv = pred.values(engine.X)
    corr = [correlate(engine.weights, engine.ystar - pv, w(pv)) for w in weights]
    return float(np.max(np.abs(corr), initial=0.0))


# ---------------------------------------------------------------------------
# Discretization and recalibration
# ---------------------------------------------------------------------------


def discretize(pred: Predictor, delta: float) -> PipelinePredictor:
    """Snap predictions to bucket midpoints; moves no value by more than delta."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return PipelinePredictor.of(pred).extended(BucketStage(delta, bucket_midpoints(delta)))


def bucket_means(pv: np.ndarray, yv: np.ndarray, wv: np.ndarray, delta: float) -> np.ndarray:
    """Recalibrated bucket outputs: the weighted label mean of each nonempty
    bucket of predictions ``pv``, the bucket midpoint for empty ones."""
    m = n_buckets(delta)
    idx = bucket_index(pv, delta)
    w = np.bincount(idx, weights=wv, minlength=m)
    wy = np.bincount(idx, weights=wv * yv, minlength=m)
    return np.divide(wy, w, out=bucket_midpoints(delta), where=w > 0)


def recalibrate_with_engine(pred: Predictor, delta: float, engine: ExpectationEngine) -> PipelinePredictor:
    """Bucket-mean recalibration using the engine's label means per bucket."""
    values = bucket_means(pred.values(engine.X), engine.ystar, engine.weights, delta)
    return PipelinePredictor.of(pred).extended(BucketStage(delta, values))


def est_ece_samples_needed(delta: float, mu: float) -> int:
    """Fresh draws for an ECE estimate of a delta-discrete predictor within mu."""
    return int(math.ceil(8.0 * math.log(1.0 / delta) ** 2 / (delta * mu**3)))


def recal_samples_needed(delta: float) -> int:
    """Fresh draws for bucket means that recalibrate within the paper's bound."""
    return int(math.ceil(8.0 * math.log(1.0 / delta) ** 2 / delta**4))


# ---------------------------------------------------------------------------
# Isotonic regression (pool-adjacent-violators)
# ---------------------------------------------------------------------------


def isotonic_fit(scores, labels) -> IsotonicStage:
    """Least-squares monotone fit of labels ordered by score, clipped to [0, 1].

    Equal scores are pooled into their label mean first; scipy's
    pool-adjacent-violators then fits those means, weighted by their counts.
    """
    from scipy.optimize import isotonic_regression  # imported on demand to keep `import calma` light

    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if len(scores) == 0 or len(scores) != len(labels):
        raise ValueError("scores and labels must be nonempty and equally long")
    xs, inv = np.unique(scores, return_inverse=True)
    counts = np.bincount(inv).astype(np.float64)
    fitted = isotonic_regression(np.bincount(inv, weights=labels) / counts, weights=counts).x
    return IsotonicStage(xs, np.clip(fitted, 0.0, 1.0))
