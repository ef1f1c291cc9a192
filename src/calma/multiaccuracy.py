"""Multiaccuracy error, the weak-learner contract, additive boosting toward
multiaccuracy, and the L1-regularized GLM route to the same guarantee.

The boosting loop repeatedly asks a weak learner for a hypothesis correlated
with the residual y* - p(x), adds a small multiple of it and clips back into
[0, 1].  Each accepted update lowers the squared distance to the exact label
means by at least sigma^2, which bounds the number of updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .calibration import Sampler
from .core import (
    AddHypStage,
    Dataset,
    ExpectationEngine,
    Hypothesis,
    HypothesisClass,
    PipelinePredictor,
    Predictor,
    clip01,
    correlate,
    value_matrix,
)
from .losses import GlmLoss

__all__ = [
    "NonTerminationError",
    "NonConvergenceError",
    "mae",
    "ResidualAccess",
    "exact_residual_access",
    "ExhaustiveWeakLearner",
    "MAResult",
    "MAUpdate",
    "ma_algorithm",
    "GlmLinearPredictor",
    "L1GlmFit",
    "l1_glm_fit",
]


class NonTerminationError(RuntimeError):
    """Boosting exceeded its iteration cap; the weak learner is broken."""


class NonConvergenceError(RuntimeError):
    """Optimizer failed to reach its tolerance within the iteration budget."""


def mae(pred: Predictor, hypotheses: HypothesisClass | Iterable[Hypothesis], engine: ExpectationEngine) -> float:
    """Largest absolute correlation of any member with the residual y* - p."""
    if isinstance(hypotheses, HypothesisClass):
        G = engine.member_matrix(hypotheses)
    else:
        G = value_matrix(hypotheses, engine.X)
    corr = correlate(engine.weights, engine.ystar - pred.values(engine.X), G)
    return float(np.max(np.abs(corr), initial=0.0))


@dataclass(frozen=True)
class ResidualAccess:
    """Access to the residual function f via an engine's weighted points.

    Under an exact engine ``z`` is f(x) = p*(x) - p(x) itself; under an
    empirical one it is the real-valued label y - p(x), whose conditional
    mean is f(x).  Member values come from the engine's cached matrix.
    """

    engine: ExpectationEngine
    z: np.ndarray

    def correlation(self, h: Hypothesis) -> float:
        return float(correlate(self.engine.weights, self.z, h.values(self.engine.X)))


def exact_residual_access(engine: ExpectationEngine, pred_values: np.ndarray) -> ResidualAccess:
    return ResidualAccess(engine, engine.ystar - pred_values)


@dataclass(frozen=True)
class ExhaustiveWeakLearner:
    """(rho, sigma)-weak learner by exhaustive correlation search.

    Scans every member and returns the best one when its correlation reaches
    sigma.  Declining certifies that no member reaches sigma, hence none
    reaches rho >= sigma, which is exactly the contract's escape clause.
    """

    hclass: HypothesisClass
    rho: float
    sigma: float
    tol: float = 1e-12  # accept at sigma - tol so exact-arithmetic ties round up

    def __post_init__(self):
        if not 0 < self.sigma <= self.rho:
            raise ValueError("need 0 < sigma <= rho")

    def query(self, access: ResidualAccess) -> tuple[Hypothesis, float] | None:
        corr = correlate(access.engine.weights, access.z, access.engine.member_matrix(self.hclass))
        best = int(np.argmax(corr))
        if corr[best] >= self.sigma - self.tol:
            return self.hclass.members[best], float(corr[best])
        return None


@dataclass(frozen=True)
class MAUpdate:
    tag: str
    correlation: float
    potential_before: float
    potential_after: float


@dataclass(frozen=True)
class MAResult:
    predictor: Predictor
    updates: tuple[MAUpdate, ...]

    @property
    def wl_calls(self) -> int:
        # the final declined query also counts
        return len(self.updates) + 1


def ma_algorithm(
    p0: Predictor,
    alpha: float,
    wl: ExhaustiveWeakLearner,
    engine: ExpectationEngine,
    sampler: Sampler | None = None,
    batch_size: int = 2000,
    max_iters: int | None = None,
) -> MAResult:
    """Boost p0 until the weak learner declines; returns a multiaccurate
    predictor.

    Every update moves the predictor by sigma times the returned hypothesis
    and clips; the recorded potentials are E[(y*(x) - p(x))^2] under the
    engine, so in exact mode each update's drop is at least sigma^2.  The
    iteration cap of 4 / sigma^2 can only be hit by a broken weak learner.
    """
    if alpha + 1e-12 < wl.rho:
        raise ValueError("ma_algorithm requires alpha >= rho of the weak learner")
    sigma = wl.sigma
    cap = max_iters if max_iters is not None else int(math.ceil(4.0 / sigma**2))
    pred = PipelinePredictor.of(p0)
    cur = pred.values(engine.X)
    updates: list[MAUpdate] = []
    while True:
        if sampler is None:
            access = exact_residual_access(engine, cur)
        else:
            fresh = ExpectationEngine.empirical(sampler.draw(batch_size))
            access = exact_residual_access(fresh, pred.values(fresh.X))
        picked = wl.query(access)
        if picked is None:
            return MAResult(pred, tuple(updates))
        if len(updates) >= cap:
            raise NonTerminationError(f"no convergence within {cap} updates (sigma={sigma:g})")
        c, corr = picked
        before = engine.expect((engine.ystar - cur) ** 2)
        cur = clip01(cur + sigma * c.values(engine.X))
        pred = pred.extended(AddHypStage(c, sigma))
        after = engine.expect((engine.ystar - cur) ** 2)
        updates.append(MAUpdate(c.tag, corr, before, after))


# ---------------------------------------------------------------------------
# L1-regularized GLM fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmLinearPredictor(Predictor):
    """Transfer applied to a weighted combination of class members."""

    glm: GlmLoss
    hclass: HypothesisClass
    weights: dict
    kind = "glm_linear"

    def score(self, X: np.ndarray) -> np.ndarray:
        members = [self.hclass.member(tag) for tag in self.weights]
        return value_matrix(members, np.atleast_2d(X)) @ np.array(list(self.weights.values()))

    def values(self, X):
        return clip01(np.asarray(self.glm.gprime(self.score(X)), dtype=np.float64))

    def to_dict(self):
        return {"kind": self.kind, "transfer": self.glm.transfer_name, "weights": dict(self.weights)}


@dataclass(frozen=True)
class L1GlmFit:
    weights: dict
    predictor: GlmLinearPredictor
    iterations: int
    kkt_residual: float
    objectives: tuple


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def l1_glm_fit(
    hclass: HypothesisClass,
    glm: GlmLoss,
    alpha: float,
    data: Dataset,
    tol: float = 1e-6,
    max_iters: int = 100_000,
) -> L1GlmFit:
    """Minimize the empirical matching loss plus alpha * ||w||_1 by proximal
    gradient descent (ISTA with backtracking).

    Requires a transfer with range [0, 1] so the fitted score maps to a
    predictor.  At the returned point the stationarity condition bounds every
    member's residual correlation by alpha + tol, certifying multiaccuracy on
    the training sample.
    """
    if glm.im_gprime != (0.0, 1.0):
        raise ValueError("l1_glm_fit needs a transfer with range exactly [0, 1]")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    X, y, n = data.X, data.y, data.n
    members = list(hclass.members)
    M = value_matrix(members, X)
    w = np.zeros(len(members))

    def smooth_value(wv: np.ndarray) -> float:
        h = M @ wv
        return float(np.mean(glm.g(h) - y * h))

    def smooth_grad(wv: np.ndarray) -> np.ndarray:
        h = M @ wv
        return M.T @ (np.asarray(glm.gprime(h)) - y) / n

    def objective(wv: np.ndarray) -> float:
        return smooth_value(wv) + alpha * float(np.sum(np.abs(wv)))

    def kkt_residual(grad: np.ndarray, wv: np.ndarray) -> float:
        at_zero = np.maximum(np.abs(grad) - alpha, 0.0)
        active = np.abs(grad + alpha * np.sign(wv))
        return float(np.max(np.where(wv == 0.0, at_zero, active)))

    eta = 1.0
    objectives = [objective(w)]
    grad = smooth_grad(w)
    it = 0
    while kkt_residual(grad, w) > tol:
        if it >= max_iters:
            raise NonConvergenceError(
                f"ISTA did not reach tolerance {tol:g} within {max_iters} iterations "
                f"(kkt residual {kkt_residual(grad, w):.3g})"
            )
        f_w = smooth_value(w)
        while True:
            w_new = _soft_threshold(w - eta * grad, eta * alpha)
            step = w_new - w
            gain = float(grad @ step) + float(step @ step) / (2.0 * eta)
            if smooth_value(w_new) <= f_w + gain + 1e-15:
                break
            eta *= 0.5
            if eta < 1e-18:
                raise NonConvergenceError("backtracking step size underflow")
        w = w_new
        eta *= 1.2  # re-grow so the step size tracks the local curvature
        grad = smooth_grad(w)
        objectives.append(objective(w))
        it += 1

    weights = {h.tag: float(v) for h, v in zip(members, w)}
    pred = GlmLinearPredictor(glm, hclass, weights)
    return L1GlmFit(weights, pred, it, kkt_residual(grad, w), tuple(objectives))
