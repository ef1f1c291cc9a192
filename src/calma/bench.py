"""Synthetic Gaussian-mixture benchmark: data generation, per-loss linear
baselines, a practical calibrated-multiaccuracy trainer, and the table
harness comparing the two.

The label-0 class is an equal-weight mixture of well separated unit-variance
Gaussians; the label-1 class is the same mixture shifted by the unit vector e_0.
Cluster centers are placed in the shift's orthogonal complement, so the true
conditional label probability is a logistic function of the shift coordinate
and the per-loss linear optimum is a meaningful target.

Table columns: squared error, absolute error, exponential loss exp(|y - t|),
and the logistic matching loss (log-loss of the sigmoid of the score).  The
trained predictor is scored under each column by applying that loss's own
optimal decision to its predictions; the log-loss decision is truncated so
extreme predictions stay finite.

Each column's linear optimum is fitted on the training split: least squares,
Newton steps for the logistic loss, and one exact active-set walk for the
exponential and absolute losses, which pins the points whose residual is 0 and
releases them by their multipliers.  Its steps are Newton steps for the
exponential loss; for least absolute deviations it walks the vertices where k
residuals are 0 (Barrodale and Roberts).  One SVD of the pinned rows per
pinned set gives the null space the steps keep to, the multipliers and the
vertex edges; a step that pins or releases nothing reuses it, and at an l1
vertex, where a pivot swaps one pinned row for another, a rank-one update of
the inverse of the k x k pinned matrix replaces it.  Each line search runs
over all n points, with a zero slope at the pinned ones, so no step gathers
the free points.  The exact fits report the subgradient norm their
multipliers certify.  The practical trainer alternates a least-squares update
with a recalibration on the held-out split (``calma.calibration``'s isotonic
fit or bucket means) and returns the predictor whose held-out calibration
error it checked, discretized to bucket midpoints.

Every baseline fit takes the training design [X, 1] (``_Design``), which one
SVD with ``lstsq``'s rank cut-off factors on first use: the least-squares fit,
the l1 and exp walk starts (and the directions a rank-deficient design cannot
move) and every trainer round solve through it, so a table cell factors once.
The log fit reads only the design's rows: on its own it factors nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .calibration import discretize, ece, isotonic_fit, recalibrate_with_engine
from .core import AddLinearStage, ConstantPredictor, Dataset, ExpectationEngine, PipelinePredictor, clip01
from .losses import _softplus, exp_loss, lp_loss, sigmoid_glm, squared_loss, truncated_decision

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
    """``s`` clusters in dimension ``d``, split sizes and the seed of the one
    stream that draws them; the label-1 class is shifted by ``shift`` = e_0."""

    s: int = 2
    d: int = 2
    n_train: int = 3000
    n_cal: int = 1000
    n_test: int = 10000
    seed: int = 0

    def __post_init__(self):
        if min(self.s, self.n_train, self.n_cal, self.n_test) <= 0:
            raise ValueError("cluster and sample counts must be positive")
        if self.d < 2:
            raise ValueError("need dimension >= 2")

    @property
    def shift(self) -> np.ndarray:
        return np.eye(1, self.d)[0]  # e_0 without building the d x d identity


def _factor(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From one SVD of the m x k matrix A: its pseudo-inverse (k x m), and
    columns forming an orthonormal basis of {x : A x = 0}.  Singular values
    at most ``max(m, k) eps`` times the largest count as 0, as in ``lstsq``."""
    if not len(A):
        return np.empty((A.shape[1], 0)), np.eye(A.shape[1])
    u, sv, vt = np.linalg.svd(A, full_matrices=len(A) <= A.shape[1])  # a tall A needs no m x m u
    rank = int(np.sum(sv > sv[0] * max(A.shape) * np.finfo(float).eps))
    return (vt[:rank].T / sv[:rank]) @ u[:, :rank].T, vt[rank:].T


def _place_centers(cfg: MixtureConfig, rng: np.random.Generator) -> np.ndarray:
    basis = _factor(cfg.shift[None, :])[1].T  # rows span the shift's orthogonal complement
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
        return Dataset(X, y)

    return split(cfg.n_train), split(cfg.n_cal), split(cfg.n_test)


# ---------------------------------------------------------------------------
# Loss columns
# ---------------------------------------------------------------------------

BENCH_COLUMNS = ("l2", "l1", "exp", "log")

_SQ = squared_loss()
_L1 = lp_loss(1)
_EXP = exp_loss()
_LOGISTIC = sigmoid_glm()

_COLUMN_LOSS = {"l2": _SQ, "l1": _L1, "exp": _EXP, "log": _LOGISTIC}
_BASELINE_TOL = 1e-9  # the (sub)gradient norm at which the log and exp fits have converged
# a log-fit Hessian whose eigenvalues span more than 1 / this is singular: on the mixtures a full-rank
# design's span stays under 1e5, and a dependent column's reads over 1e13 from rounding alone
_SINGULAR_H = 1e-10


@functools.cache
def _log_decision():
    """The log column's truncated decision, certified once on first use."""
    return truncated_decision(_LOGISTIC, 1e-3)


def column_value_for_predictions(column: str, p: np.ndarray, y: np.ndarray) -> float:
    """Expected loss of acting optimally (for this column) on predictions p."""
    decide = _log_decision() if column == "log" else _COLUMN_LOSS[column].decision
    return column_value_for_score(column, decide(np.asarray(p)), y)


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


class _Design:
    """The design X1 = [X, 1] of a training split, factored by ``_factor`` on first use.

    The pseudo-inverse gives ``lstsq``'s minimum-norm least-squares solution,
    with its rank cut-off, for any labels; the null space of X1 holds the
    directions that move no residual, which a rank-deficient design has.
    """

    def __init__(self, X: np.ndarray):
        self.X1t = np.vstack([X.T, np.ones(len(X))])  # rows are the coordinates and the intercept

    @functools.cached_property
    def _factored(self) -> tuple[np.ndarray, np.ndarray]:
        return _factor(self.X1t.T)

    def solve(self, y: np.ndarray) -> np.ndarray:
        return self._factored[0] @ y

    @property
    def moveless(self) -> np.ndarray:
        return self._factored[1].T


@dataclass(frozen=True)
class _FactoredDataset(Dataset):
    """A training split that carries its ``_Design``: ``run_benchmark`` hands
    one to every baseline fit and trainer round of a cell, so the cell factors
    its training design once."""

    design: _Design = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "design", _Design(self.X))


def _design(data: Dataset) -> _Design:
    """The design ``data`` carries, or a new one of its X, factored on first use."""
    return data.design if isinstance(data, _FactoredDataset) else _Design(data.X)


def _fit_l2(design: _Design, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Least squares through the factored design, and the gradient norm
    ``‖X1ᵀ(X1 beta - y)‖ / n`` that rounding leaves."""
    beta = design.solve(y)
    return beta, float(np.linalg.norm(design.X1t @ (beta @ design.X1t - y))) / len(y), True


def _fit_logistic(design: _Design, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Damped Newton steps until the gradient norm is at most ``_BASELINE_TOL``, 200 at most.

    Scores that strictly separate the labels are never a minimizer: scaling the
    coefficients up lowers the loss further, so such a fit reports
    ``converged=False`` whatever its gradient norm.  Quasi-complete separation
    (a score of exactly 0 on some rows) is not detected."""
    X1 = design.X1t.T.copy()  # C-ordered [X, 1]; the steps solve systems of their own and factor nothing
    n, k = X1.shape
    beta = np.zeros(k)
    from scipy.special import expit

    def value(t):
        return float(np.mean(_softplus(t) - y * t))

    for steps in range(201):
        t = X1 @ beta
        mu = expit(t)
        g = X1.T @ (mu - y) / n
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _BASELINE_TOL or steps == 200:
            break
        W = mu * (1.0 - mu) + 1e-10
        H = (X1.T * W) @ X1 / n
        ev = np.linalg.eigvalsh(H)
        # dependent columns make H singular: the minimum-norm step leaves the directions that move no score alone
        singular = ev[0] <= ev[-1] * _SINGULAR_H
        step = np.linalg.lstsq(H, g, rcond=_SINGULAR_H)[0] if singular else np.linalg.solve(H, g)
        v0, t_step = value(t), 1.0
        # a Newton decrement g'H^-1 g <= 2e-12 cannot buy the 1e-12 decrease: take the full step
        while g @ step > 2e-12 and value(X1 @ (beta - t_step * step)) > v0 - 1e-12 and t_step > 1e-8:
            t_step *= 0.5
        beta = beta - t_step * step
    separated = bool(np.all((t > 0) == (y == 1)))
    return beta, gnorm, gnorm <= _BASELINE_TOL and not separated


_ON_KINK = 1e-12  # a residual this small sits on its kink of |r| and exp(|r|)
# a vertex update whose pivot is this small, relative to its row and column, would scale the rounding
# error of the inverse it updates by the pivot's inverse; the walk refactors instead
_TINY_PIVOT = 1e-6
_L1_MAX_STEPS = 300  # passes of the active-set loop before the l1 fit reports converged=False
_EXP_MAX_STEPS = 300  # the same for the exp fit
_KINK_PREFIX = 32  # kinks the l1 line search sorts first; it takes 4 times as many per retry


def _exp_line_search(r: np.ndarray, q: np.ndarray) -> tuple[float, int]:
    """Exact minimizer a >= 0 of sum(exp(|r - a q|)), and the index of the
    point whose kink r_i / q_i it is (-1 when it lies between kinks).

    The function is convex with kinks where a residual reaches 0.  The first
    kink whose right slope is >= 0 is found by galloping and bisection; when
    its left slope is <= 0 it is the minimizer, and otherwise the minimizer
    lies in the smooth stretch before it, where Newton's method, safeguarded
    by the bracket's secant, solves for a zero slope.  A residual of exactly
    0 has left its kink already, in the direction -q_i.
    """

    front = r * q > 0
    ahead = np.flatnonzero(front)
    kinks = r[ahead] / q[ahead]
    order = np.argsort(kinks)
    ahead, kinks = ahead[order], kinks[order]
    # The points behind (r q <= 0) come first, then those ahead by kink.  With R = |r|, W = |q|
    # and Q = W ahead, -W behind, |r - a q| = |R - a Q|; on the j-th kink the right slope is the
    # sum of W exp(|R - a Q|) over the first len(behind) + j + 1 points (behind, passed or on
    # their kink) minus that sum over the rest, which have not reached theirs.
    behind = np.flatnonzero(~front)
    flipped = len(behind)
    idx = np.concatenate([behind, ahead])
    R, W = np.abs(r[idx]), np.abs(q[idx])
    Q, W2 = W.copy(), W * W
    Q[:flipped] *= -1.0
    e = np.empty(len(idx))

    def slope(a, plus, on=-1):
        """(signed sum, sum) of W exp(|R - a Q|), signed + on the first ``plus`` points and - on
        the rest; position ``on`` sits on its kink.  Leaves exp(|R - a Q|) in ``e``."""
        np.multiply(Q, a, out=e)
        np.subtract(R, e, out=e)
        np.abs(e, out=e)
        if on >= 0:
            e[on] = 0.0
        np.exp(e, out=e)
        up, down = float(W[:plus] @ e[:plus]), float(W[plus:] @ e[plus:])
        return up - down, up + down

    @functools.cache
    def kink_slope(j):
        return slope(kinks[j], flipped + j + 1, flipped + j)[0]

    lo, hi, width = 0, len(kinks), 1
    with np.errstate(over="ignore"):
        # on table cells the minimizer is the first kink ahead in 58 % of line searches, and among
        # the first 4 of about 1500 in 82 %: galloping finds it in a few slopes where bisection takes 11
        while lo < hi:
            j = min(lo + width, hi) - 1
            if kink_slope(j) >= 0:
                hi = j
                break
            lo, width = j + 1, 2 * width
        while lo < hi:
            mid = (lo + hi) // 2
            if kink_slope(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        a, da = (kinks[lo - 1], kink_slope(lo - 1)) if lo else (0.0, slope(0.0, flipped)[0])
        b, db = np.inf, np.inf
        if lo < len(kinks):
            b, db = kinks[lo], kink_slope(lo) - 2.0 * abs(q[ahead[lo]])
            if db <= 0:
                return float(b), int(ahead[lo])

        def inside():  # a point strictly inside (a, b), for when Newton's is not
            if b == np.inf:
                return 2.0 * a
            secant = a - da * (b - a) / (db - da)
            return secant if a < secant < b else 0.5 * (a + b)

        x = 1.0 if a < 1.0 < b else inside()
        for _ in range(100):
            d1, total = slope(x, flipped + lo)
            if abs(d1) <= 1e-13 * total < np.inf:  # zero up to rounding
                break
            if d1 < 0:
                a, da = x, d1
            else:
                b, db = x, d1
            x = x - d1 / float(W2 @ e)
            if not a < x < b:
                x = inside()
    return float(x), -1


def _l1_line_search(r: np.ndarray, q: np.ndarray, sign: np.ndarray) -> tuple[float, int]:
    """Exact minimizer a >= 0 of sum(|r - a q|), and the index of the point
    whose kink r_i / q_i it is.

    The slope at a = 0 is -sign . q, where ``sign`` holds sign(r_i), or
    -sign(q_i) where r_i is exactly 0 (a point that has left its kink
    already, in the direction -q_i); its entries at q_i = 0 are free.  The
    walk passes its own sign array.  The slope is constant between kinks and
    rises by 2 |q_i| at each kink ahead, so the minimizer is the first kink
    where it turns nonnegative: a weighted median of the kinks.  Only a
    growing prefix of the nearest kinks is sorted, until the slope turns
    within it.
    """
    ahead = np.flatnonzero(r * q > 0)
    kinks = r[ahead] / q[ahead]
    tilt = float(np.dot(sign, q))
    size = _KINK_PREFIX
    while True:
        if size >= len(kinks):
            order = np.argsort(kinks)
        else:
            nearest = np.argpartition(kinks, size - 1)[:size]
            order = nearest[np.argsort(kinks[nearest])]
        slope = 2.0 * np.cumsum(np.abs(q[ahead[order]])) - tilt
        turn = int(np.searchsorted(slope, 0.0))
        if turn < len(order) or size >= len(kinks):
            i = ahead[order[min(turn, len(order) - 1)]]
            return float(r[i] / q[i]), int(i)
        size *= 4


def _kink_walk(design: _Design, y: np.ndarray, l1: bool) -> tuple[np.ndarray, float, bool]:
    """The exact minimizer of mean exp(|y - X1 beta|), or with ``l1`` of the
    mean absolute deviation: an active-set walk whose steps are Newton steps
    on the free points' smooth part for exp and their steepest descent for
    l1.  For l1 it is Barrodale and Roberts' vertex walk (SIAM J. Numer.
    Anal. 10, 1973): once k residuals are 0 it is at a vertex, a release moves
    along the edge that keeps the other k - 1 pinned, and the line search
    stops at a weighted median of the kinks.

    From the least-squares start, points whose residual is 0 stay pinned
    there.  Each step keeps the pinned residuals at 0 and ends in an exact
    line search that pins a point when it stops on its kink.  When no step is
    left, the pinned points' multipliers sigma balance the free gradient; the
    one with |sigma| > 1 largest is released toward sign(sigma).  Returns the
    coefficients, the norm of the subgradient that sigma (clipped to
    [-1, 1]) certifies, and whether it reaches ``_BASELINE_TOL`` within
    ``_L1_MAX_STEPS`` or ``_EXP_MAX_STEPS`` passes.

    The start and the directions that move no residual come from the factored
    design.  The pinned rows B (stacked over those directions) are factored
    once per pinned set by ``_factor``: its null-space basis gives the steps,
    and its pseudo-inverse P the multipliers sigma = n gᵀP and, when B is
    k x k and invertible (an l1 vertex), the edge -sign P e_j that releases
    row j.  The exp Newton system
    is formed in that basis, whose products with every point are kept with the
    factor, and solved by ``np.linalg.solve`` (``lstsq`` if it is singular).
    After a vertex pivot, which replaces row j by the joining point's row a,
    P is updated as P - P e_j (aᵀP - e_jᵀ) / (aᵀP e_j); a pivot at most
    ``_TINY_PIVOT`` times |a| |P e_j| refactors from scratch.  The pinned
    points are kept as an index array in the order of B's rows.  The line
    searches run over all n points, with the step's slope q = Xd set to 0 at
    the pinned ones: a point with q = 0 is never ahead and adds nothing to a
    slope, so the step is the one the free points alone give.  The
    certificate solves for sigma afresh.
    """
    X1t = design.X1t
    k, n = X1t.shape
    beta = design.solve(y)
    r = y - beta @ X1t
    pinned = np.flatnonzero(np.abs(r) <= _ON_KINK)  # in the order of the factor's rows
    sign = np.sign(r)
    sign[pinned] = 0.0
    max_steps = _L1_MAX_STEPS if l1 else _EXP_MAX_STEPS
    P = None  # the pseudo-inverse of the pinned rows; None once the pinned set changed
    for steps in range(max_steps + 1):
        e = 1.0 if l1 else np.exp(np.abs(r))
        g = -(X1t @ (sign * e)) / n
        if steps == max_steps:
            break
        if P is None:
            pinned.sort()  # a new factor takes the pinned rows in index order
            P, basis = _factor(np.vstack([X1t[:, pinned].T, design.moveless]))
            Xb = None if l1 else basis.T @ X1t  # 0 up to rounding at pinned points: no weight to mask
        if l1:
            d = -(basis @ (basis.T @ g))
        else:
            H, rhs = (Xb * e) @ Xb.T / n, -(basis.T @ g)
            try:
                d = basis @ np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                d = basis @ np.linalg.lstsq(H, rhs, rcond=None)[0]
        released = -1
        if -(g @ d) <= 1e-24:
            sigma = (n * g) @ P[:, : len(pinned)]
            if not len(sigma) or np.max(np.abs(sigma)) <= 1.0:
                break
            j = int(np.argmax(np.abs(sigma)))
            i = pinned[j]
            # its residual counts as exactly 0, so the line search sees it leave the kink
            sign[i], r[i] = np.sign(sigma[j]), 0.0
            pinned = np.concatenate([pinned[:j], pinned[j + 1 :]])
            if not (l1 and P.shape == (k, k) and not basis.size):
                P = None
                continue
            # at an l1 vertex, the edge that keeps the other pinned points at 0 moves r_i toward sign(sigma)
            released, d = j, -sign[i] * P[:, j]
        q = d @ X1t
        q[pinned] = 0.0  # 0 up to rounding already: the pinned points stay on their kinks
        alpha, at = _l1_line_search(r, q, sign) if l1 else _exp_line_search(r, q)
        beta = beta + alpha * d
        r = y - beta @ X1t
        near = np.abs(r) <= _ON_KINK
        if at >= 0:
            near[at] = True
        near[pinned] = False
        joined = np.flatnonzero(near)
        np.sign(r, out=sign)
        sign[pinned] = sign[joined] = 0.0
        if released >= 0 and len(joined) == 1:
            # the joining point's row replaces the released one's: a rank-one update of P = B^-1
            a, col = X1t[:, joined[0]], P[:, released]
            pivot = a @ col
            if abs(pivot) > _TINY_PIVOT * np.linalg.norm(a) * np.linalg.norm(col):
                w = a @ P
                w[released] -= 1.0
                P = P - np.outer(col / pivot, w)
                pinned = np.concatenate([pinned[:released], joined, pinned[released:]])
                continue
        if released >= 0 or len(joined):
            pinned = np.concatenate([pinned, joined])
            P = None
    u = sign * e
    u[pinned] = np.clip(np.linalg.lstsq(X1t[:, pinned], n * g, rcond=None)[0], -1.0, 1.0)
    gnorm = float(np.linalg.norm(X1t @ u)) / n
    return beta, gnorm, gnorm <= _BASELINE_TOL and steps < max_steps


_FITS = {"l2": _fit_l2, "l1": functools.partial(_kink_walk, l1=True),
         "exp": functools.partial(_kink_walk, l1=False), "log": _fit_logistic}  # each takes (design, y)


def fit_linear_baseline(loss_name: str, data: Dataset) -> LinearBaseline:
    """Fit the per-loss optimal linear score on the dataset.

    Squared error uses least squares, the log column logistic regression
    (Newton), and the exponential and absolute-error columns one exact
    active-set walk over the kinks at zero residuals: Newton steps for exp,
    Barrodale and Roberts' vertex walk for l1.  Every fit reports the norm of
    its (sub)gradient at the returned coefficients: the least-squares
    residual's correlation with the features, and for the exp and l1 fits the
    multipliers on their zero residuals, clipped to [-1, 1], certify theirs.
    The log, exp and l1 fits have converged when that norm is at most 1e-9
    within their step caps, and the log fit only when its scores do not
    strictly separate the labels.
    """
    if loss_name not in _FITS:
        raise ValueError(f"unknown baseline loss {loss_name!r}")
    beta, gnorm, converged = _FITS[loss_name](_design(data), data.y)
    return LinearBaseline(loss_name, beta[:-1], float(beta[-1]), gnorm, converged)


# ---------------------------------------------------------------------------
# Practical calibrated-multiaccuracy trainer
# ---------------------------------------------------------------------------


_MAX_ROUNDS = 10  # rounds after which the trainer returns its last recalibrated predictor
_BUCKET_DELTA = 0.05  # half-width of the discretization and bucket-recalibration buckets


def train_calma_bench(
    train: Dataset, cal: Dataset, alpha: float = 0.1, recal_backend: str = "isotonic"
) -> tuple[PipelinePredictor, int]:
    """Alternate least-squares residual regression with recalibration.

    Each round fits a linear function to the training residual and adds it
    (clipped); the regression fully decorrelates the residual from the
    coordinate features, which is the multiaccuracy step.  After the first
    recalibration, once the predictor discretized to bucket midpoints has
    calibration error at most 3 alpha / 4 on the held-out split, that
    discretized predictor is returned: the one whose error was estimated.
    Otherwise the predictor is recalibrated there (isotonic step function or
    bucket means) and the loop continues; after ``_MAX_ROUNDS`` rounds the
    last recalibrated predictor is returned.
    """
    if recal_backend not in ("isotonic", "bucket"):
        raise ValueError("recal_backend must be 'isotonic' or 'bucket'")
    pred = PipelinePredictor.of(ConstantPredictor(0.5))
    cal_engine = ExpectationEngine.empirical(cal)
    design = _design(train)
    rounds = 0
    for recals in range(_MAX_ROUNDS):
        beta = design.solve(train.y - pred.values(train.X))
        w, b = beta[:-1], float(beta[-1])
        update_rms = math.sqrt(float(np.mean((train.X @ w + b) ** 2)))
        if update_rms > 1e-6:
            pred = pred.extended(AddLinearStage(w, b))
            rounds += 1
        disc = discretize(pred, _BUCKET_DELTA)
        if recals >= 1 and ece(disc, cal_engine) <= 0.75 * alpha:
            return disc, rounds
        if recal_backend == "isotonic":
            pred = pred.extended(isotonic_fit(pred.values(cal.X), cal.y))
        else:
            pred = recalibrate_with_engine(pred, _BUCKET_DELTA, cal_engine)
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
    train = _FactoredDataset(train.X, train.y)  # the baselines and the trainer share one factor
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
