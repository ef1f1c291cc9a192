"""Synthetic Gaussian-mixture benchmark: data generation, per-loss linear
baselines, a practical calibrated-multiaccuracy trainer, and the table
harness comparing the two.

The label-0 class is an equal-weight mixture of well separated unit-variance
Gaussians; the label-1 class is the same mixture shifted by a unit vector.
Cluster centers are placed in the shift's orthogonal complement, so the true
conditional label probability is a logistic function of the shift coordinate
and the per-loss linear optimum is a meaningful target.

Table columns: squared error, absolute error, exponential loss exp(|y - t|),
and the logistic matching loss (log-loss of the sigmoid of the score).  The
trained predictor is scored under each column by applying that loss's own
optimal decision to its predictions; the log-loss decision is truncated so
extreme predictions stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .calibration import bucket_means, discretize, ece, isotonic_fit
from .core import Dataset, ExpectationEngine, Hypothesis, PipelinePredictor, clip01
from .losses import exp_loss, lp_loss, sigmoid_glm, squared_loss, truncated_decision

__all__ = [
    "CenterPlacementError",
    "MixtureConfig",
    "gen_gaussian_mixture",
    "LinearBaseline",
    "fit_linear_baseline",
    "train_calma_bench",
    "BenchResult",
    "run_benchmark",
    "aggregate_results",
    "BENCH_COLUMNS",
]


class CenterPlacementError(RuntimeError):
    """Could not place mixture centers pairwise far apart; includes the seed."""


@dataclass(frozen=True)
class MixtureConfig:
    s: int = 2
    d: int = 2
    n_train: int = 3000
    n_cal: int = 1000
    n_test: int = 10000
    seed: int = 0
    shift: np.ndarray | None = None

    def __post_init__(self):
        if min(self.s, self.n_train, self.n_cal, self.n_test) <= 0:
            raise ValueError("cluster and sample counts must be positive")
        if self.d < 2:
            raise ValueError("need dimension >= 2")
        shift = np.zeros(self.d) if self.shift is None else np.asarray(self.shift, dtype=np.float64)
        if self.shift is None:
            shift[0] = 1.0
        if abs(np.linalg.norm(shift) - 1.0) > 1e-9:
            raise ValueError("shift must have unit norm")
        object.__setattr__(self, "shift", shift)


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis of the hyperplane orthogonal to u."""
    d = len(u)
    _, _, vt = np.linalg.svd(u.reshape(1, d))
    return vt[1:]


def _place_centers(cfg: MixtureConfig, rng: np.random.Generator) -> np.ndarray:
    basis = _orthonormal_complement(cfg.shift)
    span = max(4.0, 2.5 * cfg.s)
    for _ in range(500):
        raw = rng.uniform(-span, span, size=(cfg.s, cfg.d - 1))
        centers = raw @ basis
        ok = True
        for i in range(cfg.s):
            for j in range(i + 1, cfg.s):
                if np.linalg.norm(centers[i] - centers[j]) < 4.0:
                    ok = False
        if ok or cfg.s == 1:
            return centers
    raise CenterPlacementError(f"no admissible center placement after 500 tries (seed={cfg.seed})")


def gen_gaussian_mixture(cfg: MixtureConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic train/cal/test splits drawn from one seeded stream."""
    rng = np.random.default_rng(cfg.seed)
    centers = _place_centers(cfg, rng)

    def split(n: int) -> Dataset:
        k = rng.integers(0, cfg.s, size=n)
        y = np.zeros(n)
        y[: n // 2] = 1.0
        rng.shuffle(y)
        X = centers[k] + rng.standard_normal((n, cfg.d)) + np.outer(y, cfg.shift)
        return Dataset(X, y, seed=cfg.seed)

    return split(cfg.n_train), split(cfg.n_cal), split(cfg.n_test)


# ---------------------------------------------------------------------------
# Loss columns
# ---------------------------------------------------------------------------

BENCH_COLUMNS = ("l2", "l1", "exp", "log")

_SQ = squared_loss()
_L1 = lp_loss(1)
_EXP = exp_loss()
_LOGISTIC = sigmoid_glm()
_LOG_DECISION = truncated_decision(_LOGISTIC, 1e-3)

_COLUMN_LOSS = {"l2": _SQ, "l1": _L1, "exp": _EXP, "log": _LOGISTIC}


def _column_decision(column: str, p: np.ndarray) -> np.ndarray:
    if column == "log":
        return _LOG_DECISION(p)
    return _COLUMN_LOSS[column].decision(p)


def column_value_for_predictions(column: str, p: np.ndarray, y: np.ndarray) -> float:
    """Expected loss of acting optimally (for this column) on predictions p."""
    loss = _COLUMN_LOSS[column]
    return float(np.mean(loss.loss(y, _column_decision(column, np.asarray(p)))))


def column_value_for_score(column: str, t: np.ndarray, y: np.ndarray) -> float:
    """Expected loss of a raw score, as incurred by the per-loss baselines."""
    loss = _COLUMN_LOSS[column]
    return float(np.mean(loss.loss(y, np.asarray(t, dtype=np.float64))))


# ---------------------------------------------------------------------------
# Per-loss linear baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearBaseline:
    loss_name: str
    w: np.ndarray
    b: float
    grad_norm: float
    converged: bool

    def score(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=np.float64)) @ self.w + self.b

    def as_hypothesis(self) -> Hypothesis:
        bound = float(abs(self.b) + np.sum(np.abs(self.w)))  # loose, for bookkeeping
        return Hypothesis(lambda X: self.score(X), bound, f"baseline:{self.loss_name}")


def _fit_l2(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    X1 = np.column_stack([X, np.ones(len(X))])
    coef, *_ = np.linalg.lstsq(X1, y, rcond=None)
    return coef[:-1], float(coef[-1])


def _fit_logistic(X: np.ndarray, y: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, float, float]:
    X1 = np.column_stack([X, np.ones(len(X))])
    n, k = X1.shape
    beta = np.zeros(k)
    from scipy.special import expit

    def grad(bv):
        return X1.T @ (expit(X1 @ bv) - y) / n

    def value(bv):
        t = X1 @ bv
        return float(np.mean(np.logaddexp(0.0, t) - y * t))

    for _ in range(200):
        g = grad(beta)
        if np.linalg.norm(g) <= tol:
            break
        mu = expit(X1 @ beta)
        W = mu * (1.0 - mu) + 1e-10
        H = (X1.T * W) @ X1 / n
        step = np.linalg.solve(H, g)
        v0, t_step = value(beta), 1.0
        while value(beta - t_step * step) > v0 - 1e-12 and t_step > 1e-8:
            t_step *= 0.5
        beta = beta - t_step * step
    g = grad(beta)
    return beta, float(np.linalg.norm(g)), tol


def _fit_exp(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)

    def value_grad(bv):
        r = y - X1 @ bv
        e = np.exp(np.abs(r))
        return float(np.mean(e)), X1.T @ (-np.sign(r) * e) / n

    best = None
    w0, b0 = _fit_l2(X, y)
    for init in (np.concatenate([w0, [b0]]), np.zeros(X1.shape[1])):
        res = minimize(value_grad, init, jac=True, method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(np.linalg.norm(best.jac))


def _fit_l1(X: np.ndarray, y: np.ndarray, iters: int = 4000) -> tuple[np.ndarray, float]:
    """Subgradient descent with decaying steps; keeps the best iterate."""
    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)
    scale = np.maximum(np.sqrt(np.mean(X1**2, axis=0)), 1e-9)
    w0, b0 = _fit_l2(X, y)
    beta = np.concatenate([w0, [b0]])

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


def fit_linear_baseline(loss_name: str, data: Dataset) -> LinearBaseline:
    """Fit the per-loss optimal linear score on the dataset.

    Squared error uses least squares, the log column logistic regression
    (Newton), the exponential column L-BFGS with restarts, and the absolute
    error subgradient descent from the least-squares start.
    """
    X, y = data.X, data.y
    if loss_name == "l2":
        w, b = _fit_l2(X, y)
        return LinearBaseline(loss_name, w, b, 0.0, True)
    if loss_name == "log":
        beta, gnorm, tol = _fit_logistic(X, y)
        return LinearBaseline(loss_name, beta[:-1], float(beta[-1]), gnorm, gnorm <= tol)
    if loss_name == "exp":
        beta, gnorm = _fit_exp(X, y)
        return LinearBaseline(loss_name, beta[:-1], float(beta[-1]), gnorm, gnorm <= 1e-5)
    if loss_name == "l1":
        beta, gnorm = _fit_l1(X, y)
        return LinearBaseline(loss_name, beta[:-1], float(beta[-1]), gnorm, True)
    raise ValueError(f"unknown baseline loss {loss_name!r}")


# ---------------------------------------------------------------------------
# Practical calibrated-multiaccuracy trainer
# ---------------------------------------------------------------------------


def train_calma_bench(
    train: Dataset,
    cal: Dataset,
    alpha: float = 0.1,
    recal_backend: str = "isotonic",
    max_rounds: int = 10,
    bucket_delta: float = 0.05,
) -> tuple[PipelinePredictor, int]:
    """Alternate least-squares residual regression with recalibration.

    Each round fits a linear function to the training residual and adds it
    (clipped); the regression fully decorrelates the residual from the
    coordinate features, which is the multiaccuracy step.  If the calibration
    error of the discretized predictor on the held-out split still exceeds
    3 alpha / 4, the predictor is recalibrated there (isotonic step function
    or bucket means) and the loop continues.
    """
    if recal_backend not in ("isotonic", "bucket"):
        raise ValueError("recal_backend must be 'isotonic' or 'bucket'")
    pred = PipelinePredictor([("const", 0.5)])
    cal_engine = ExpectationEngine.empirical(cal)
    rounds = 0
    recals = 0
    for _ in range(max_rounds):
        resid = train.y - pred.values(train.X)
        w, b = _fit_l2(train.X, resid)
        update_rms = math.sqrt(float(np.mean((train.X @ w + b) ** 2)))
        if update_rms > 1e-6:
            pred = pred.extended(("add_linear", w, b))
            rounds += 1
        estimate = ece(discretize(pred, bucket_delta), cal_engine)
        if recals >= 1 and estimate <= 0.75 * alpha:
            break
        pv_cal = pred.values(cal.X)
        if recal_backend == "isotonic":
            fit = isotonic_fit(pv_cal, cal.y)
            pred = pred.extended(("isotonic", fit.thresholds, fit.fitted))
        else:
            vals = bucket_means(pv_cal, cal.y, np.ones(cal.n), bucket_delta)
            pred = pred.extended(("bucket", bucket_delta, vals))
        recals += 1
    return pred, rounds


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    config: MixtureConfig
    alpha: float
    recal_backend: str
    rows: dict
    iterations: int

    def to_dict(self) -> dict:
        return {
            "config": {
                "s": self.config.s,
                "d": self.config.d,
                "n_train": self.config.n_train,
                "n_cal": self.config.n_cal,
                "n_test": self.config.n_test,
                "seed": self.config.seed,
            },
            "alpha": self.alpha,
            "recal_backend": self.recal_backend,
            "iterations": self.iterations,
            "rows": self.rows,
        }

    def to_markdown(self) -> str:
        return markdown_table(self.rows, lambda v: f"{v:.3f}")


def markdown_table(rows: Mapping[str, Mapping], cell: Callable[[object], str]) -> str:
    """Markdown table with one line per algorithm and one column per loss;
    ``cell`` formats each row's entry for a column."""
    lines = ["| algorithm | " + " | ".join(BENCH_COLUMNS) + " |", "|" + "---|" * (len(BENCH_COLUMNS) + 1)]
    for name, row in rows.items():
        lines.append("| " + name + " | " + " | ".join(cell(row[c]) for c in BENCH_COLUMNS) + " |")
    return "\n".join(lines)


def run_benchmark(cfg: MixtureConfig, alpha: float = 0.1, recal_backend: str = "isotonic") -> BenchResult:
    """One seeded benchmark cell: per-loss baselines vs the trained predictor.

    The optimal row holds each loss's own fitted linear score; the trained
    predictor is evaluated by post-processing its predictions with each
    loss's decision rule; the linear-regression row post-processes the
    clipped squared-error score the same way.
    """
    train, cal, test = gen_gaussian_mixture(cfg)
    rows: dict[str, dict[str, float]] = {"optimal": {}, "calma": {}, "linear_regression": {}}

    baselines = {name: fit_linear_baseline(name, train) for name in BENCH_COLUMNS}
    for name in BENCH_COLUMNS:
        rows["optimal"][name] = column_value_for_score(name, baselines[name].score(test.X), test.y)

    pred, iterations = train_calma_bench(train, cal, alpha=alpha, recal_backend=recal_backend)
    pv = pred.values(test.X)
    p_lr = clip01(baselines["l2"].score(test.X))
    for name in BENCH_COLUMNS:
        rows["calma"][name] = column_value_for_predictions(name, pv, test.y)
        rows["linear_regression"][name] = column_value_for_predictions(name, p_lr, test.y)

    return BenchResult(cfg, alpha, recal_backend, rows, iterations)


def aggregate_results(results: Sequence[BenchResult]) -> dict:
    """Mean and spread per (algorithm, column) over seeds."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for algo in results[0].rows:
        out[algo] = {}
        for col in BENCH_COLUMNS:
            vals = np.array([r.rows[algo][col] for r in results])
            out[algo][col] = {
                "mean": float(np.mean(vals)),
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
            }
    return out
