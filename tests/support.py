"""Shared builders for randomized exact instances used across the suite."""

from __future__ import annotations

import math

import numpy as np

from calma.bench import _fit_l2
from calma.core import (
    STAGES,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    TablePredictor,
    make_class,
)


def random_distribution(
    rng: np.random.Generator,
    n_points: int = 12,
    dim: int = 2,
    bayes_range: tuple[float, float] = (0.0, 1.0),
) -> FiniteDistribution:
    points = rng.normal(size=(n_points, dim))
    mass = rng.uniform(0.2, 1.0, size=n_points)
    mass = mass / mass.sum()
    mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
    bayes = rng.uniform(*bayes_range, size=n_points)
    return FiniteDistribution(points, mass, bayes)


def table_hypothesis(points: np.ndarray, values: np.ndarray, tag: str, bound: float = 1.0) -> Hypothesis:
    lookup = {row.tobytes(): v for row, v in zip(np.ascontiguousarray(points, dtype=np.float64), values)}

    def fn(X):
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        return np.array([lookup[row.tobytes()] for row in X])

    return Hypothesis(fn, bound, tag)


def random_class(
    rng: np.random.Generator,
    dist: FiniteDistribution,
    k: int = 3,
    values: str = "real",
) -> HypothesisClass:
    """Table-backed class over the support; 'real' in [-1,1], 'boolean' in {0,1},
    'ternary' in {-1,0,1}."""
    members = []
    for i in range(k):
        if values == "boolean":
            v = rng.integers(0, 2, size=dist.n).astype(float)
        elif values == "ternary":
            v = rng.integers(-1, 2, size=dist.n).astype(float)
        else:
            v = rng.uniform(-1, 1, size=dist.n)
        members.append(table_hypothesis(dist.points, v, f"h{i}"))
    return make_class(members)


def random_predictor(
    rng: np.random.Generator,
    dist: FiniteDistribution,
    lo: float = 0.0,
    hi: float = 1.0,
) -> TablePredictor:
    return TablePredictor(dist.points, rng.uniform(lo, hi, size=dist.n))


def random_instance(rng, n_points=12, dim=2, k=3, bayes_range=(0.0, 1.0), pred_range=(0.0, 1.0)):
    dist = random_distribution(rng, n_points, dim, bayes_range)
    engine = ExpectationEngine.exact(dist)
    cls = random_class(rng, dist, k)
    pred = random_predictor(rng, dist, *pred_range)
    return dist, engine, cls, pred


def bernoulli_dataset(rng: np.random.Generator, dist: FiniteDistribution, n: int) -> Dataset:
    idx = rng.choice(dist.n, size=n, p=dist.mass)
    y = (rng.random(n) < dist.bayes[idx]).astype(float)
    return Dataset(dist.points[idx], y)


def reference_isotonic(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference isotonic fit: equal scores pooled into their label mean, then a
    pool-adjacent-violators loop over (mean, weight, scores) blocks.  Returns the
    distinct scores and their fitted values clipped to [0, 1], which
    ``calibration.isotonic_fit`` must match."""
    xs, inv = np.unique(scores, return_inverse=True)
    w = np.bincount(inv).astype(np.float64)
    blocks: list[list] = []
    for m, ww in zip((np.bincount(inv, weights=labels) / w).tolist(), w.tolist()):
        blocks.append([m, ww, 1])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            m1, w1, c1 = blocks.pop()
            m0, w0, c0 = blocks[-1]
            blocks[-1] = [(m0 * w0 + m1 * w1) / (w0 + w1), w0 + w1, c0 + c1]
    fitted = np.repeat([b[0] for b in blocks], [b[2] for b in blocks])
    return xs, np.clip(fitted, 0.0, 1.0)


def reference_fit_l1(X: np.ndarray, y: np.ndarray, iters: int = 4000) -> tuple[np.ndarray, float]:
    """Reference l1 fit: subgradient descent with decaying steps from the
    least-squares start, keeping the best of ``iters`` iterates.  The exact
    vertex walk of ``bench._fit_l1`` must never score worse than it."""
    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)
    scale = np.maximum(np.sqrt(np.mean(X1**2, axis=0)), 1e-9)
    beta, _, _ = _fit_l2(X, y)

    def value(bv):
        return float(np.mean(np.abs(y - X1 @ bv)))

    best_beta, best_val = beta.copy(), value(beta)
    for k in range(1, iters + 1):
        g = X1.T @ (-np.sign(y - X1 @ beta)) / n
        beta = beta - (0.2 / math.sqrt(k)) * g / scale**2
        v = value(beta)
        if v < best_val:
            best_beta, best_val = beta.copy(), v
    g = X1.T @ (-np.sign(y - X1 @ best_beta)) / n
    return best_beta, float(np.linalg.norm(g))


def reference_l1_line_search(r: np.ndarray, q: np.ndarray) -> tuple[float, int]:
    """Reference l1 line search: sort every kink ahead, then take the first
    where the slope of sum(|r - a q|) turns nonnegative.  ``bench._l1_line_search``
    must return the same step, and the same point when no two kinks tie."""
    ahead = np.flatnonzero(r * q > 0)
    ahead = ahead[np.argsort(r[ahead] / q[ahead])]
    slope = 2.0 * np.cumsum(np.abs(q[ahead])) - float(np.dot(np.where(r == 0.0, -np.sign(q), np.sign(r)), q))
    i = ahead[min(int(np.searchsorted(slope, 0.0)), len(ahead) - 1)]
    return float(r[i] / q[i]), int(i)


def reference_fit_l1_lp(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Reference l1 fit: HiGHS on the least-absolute-deviations dual, max yᵀu
    subject to X1ᵀu = 0 and -1 <= u <= 1.  The coefficients are the negated
    marginals of its equality rows, and ``‖X1ᵀu‖ / n`` is the norm of the
    subgradient that u certifies.  The vertex walk of ``bench._fit_l1`` must
    reach the same train objective.

    The oracle is exact only to HiGHS's tolerances: on 2 of 7,500 scanned
    ``table`` cells (mixture seed 1 cycle 228 at (s, d) = (4, 10), seed 2
    cycle 72 at (4, 4)) it stops at a non-optimal vertex, 1.8e-11 and 9.2e-11
    (relative) above the walk's train objective, where an independent KKT
    check finds a multiplier of 5.5 and 2.6.  The tests compare with it only
    on fixed cells, where it agrees with the walk."""
    from scipy.optimize import linprog

    X1 = np.column_stack([X, np.ones(len(X))])
    res = linprog(-y, A_eq=X1.T, b_eq=np.zeros(X1.shape[1]), bounds=(-1.0, 1.0), options={"presolve": False})
    return -res.eqlin.marginals, float(np.linalg.norm(X1.T @ res.x)) / len(y), res.status == 0


def reference_fit_exp(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference exp fit: L-BFGS-B on mean exp(|y - X1 beta|) from the
    least-squares and the zero start, keeping the better.  The kink at a zero
    residual stops it short of the optimum, so the exact active-set fit of
    ``bench._fit_exp`` must never score worse than it."""
    from scipy.optimize import minimize

    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)

    def value_grad(bv):
        r = y - X1 @ bv
        e = np.exp(np.abs(r))
        return float(np.mean(e)), X1.T @ (-np.sign(r) * e) / n

    best = None
    for init in (_fit_l2(X, y)[0], np.zeros(X1.shape[1])):
        res = minimize(value_grad, init, jac=True, method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(np.linalg.norm(best.jac))


def record_stage_applications(monkeypatch) -> list:
    """From now on, append ``(op, X)`` for every stage application."""
    calls = []
    for cls in STAGES.values():
        def apply(self, X, p, original=cls.apply):
            calls.append((self.op, X))
            return original(self, X, p)

        monkeypatch.setattr(cls, "apply", apply)
    return calls
