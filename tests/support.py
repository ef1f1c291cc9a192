"""Shared builders for randomized exact instances used across the suite."""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np

from calma.audit import _LIPSCHITZ_KNOTS, _interp_loss, audit_family
from calma.bench import _BASELINE_TOL, _EXP_MAX_STEPS, _L1_MAX_STEPS, _ON_KINK, _Design, _fit_l2, _l1_line_search
from calma.core import (
    STAGES,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    TablePredictor,
    correlate,
    interval_class,
    make_class,
    value_matrix,
)
from calma.losses import Loss, exp_loss, lp_loss


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


def reference_isotonic_values(stage, v: np.ndarray) -> np.ndarray:
    """Reference lookup of an isotonic stage: the dense search over every
    threshold that ``IsotonicStage.values`` ran before it searched only the
    thresholds where the fitted value changes; it must give the same bits."""
    idx = np.searchsorted(stage.thresholds, v, side="right") - 1
    return stage.fitted[np.clip(idx, 0, len(stage.fitted) - 1)]


def is_delta_discrete(stage) -> bool:
    """True iff every output value of the bucket stage is an odd multiple of its delta."""
    ratio = stage.values / stage.delta
    return bool(np.all(np.abs(ratio - (2 * np.round((ratio - 1) / 2) + 1)) <= 1e-9))


def reference_interval_correlations(cls: HypothesisClass, delta: float, X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v``'s correlations with the members of ``interval_class(cls, delta)``
    as its cell index composed them when ``_closed_class`` closed the lead
    block: ``dot_lead`` writes one ``bincount`` per base member into the lead,
    then ``close`` sets the constant to ``cumsum(v)[-1]`` and negates the lead
    and constant into the trailing block.  A class that dropped a tag had no
    cell index: ``v`` times its matrix, evaluated member by member."""
    hclass = interval_class(cls, delta)
    m_cells = int(math.ceil(2.0 / delta - 1e-9))
    base = [m for m in cls.members if not m.tag.startswith("-")]
    k = len(base) * m_cells
    if len(hclass) < 2 * (k + 1):
        return v @ value_matrix(list(hclass), X)
    B = np.column_stack([m.values(X) for m in base]) if base else np.empty((len(X), 0))
    index = np.ascontiguousarray(np.clip(np.floor((B + 1.0) / delta).astype(int), 0, m_cells - 1).T)

    def close(M: np.ndarray, write_lead, constant) -> np.ndarray:
        write_lead(M[:, :k])
        M[:, k] = constant
        np.negative(M[:, : k + 1], out=M[:, k + 1 :])
        return M

    def dot_lead(out: np.ndarray) -> None:
        for j, cells_j in enumerate(index):
            out[j * m_cells : (j + 1) * m_cells] = np.bincount(cells_j, weights=v, minlength=m_cells)

    return close(np.empty((1, len(hclass))), lambda T: dot_lead(T[0]), np.cumsum(v)[-1])[0]


def reference_fit_l2(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Reference least-squares fit: one ``lstsq`` solve of [X, 1] per call, as
    ``bench._fit_l2`` ran before it solved through a factorization kept for the
    design; both return the minimum-norm solution on a rank-deficient design."""
    X1 = np.column_stack([X, np.ones(len(X))])
    beta, *_ = np.linalg.lstsq(X1, y, rcond=None)
    return beta, float(np.linalg.norm(X1.T @ (X1 @ beta - y))) / len(y), True


def reference_fit_l1(X: np.ndarray, y: np.ndarray, iters: int = 4000) -> tuple[np.ndarray, float]:
    """Reference l1 fit: subgradient descent with decaying steps from the
    least-squares start, keeping the best of ``iters`` iterates.  The exact
    vertex walk of ``bench._kink_walk`` must never score worse than it."""
    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)
    scale = np.maximum(np.sqrt(np.mean(X1**2, axis=0)), 1e-9)
    beta, _, _ = _fit_l2(_Design(X), y)

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
    slope = 2.0 * np.cumsum(np.abs(q[ahead])) - float(np.dot(l1_tilt(r, q), q))
    i = ahead[min(int(np.searchsorted(slope, 0.0)), len(ahead) - 1)]
    return float(r[i] / q[i]), int(i)


def reference_fit_l1_lp(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Reference l1 fit: HiGHS on the least-absolute-deviations dual, max yᵀu
    subject to X1ᵀu = 0 and -1 <= u <= 1.  The coefficients are the negated
    marginals of its equality rows, and ``‖X1ᵀu‖ / n`` is the norm of the
    subgradient that u certifies.  The l1 vertex walk of ``bench._kink_walk``
    must reach the same train objective.

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
    ``bench._kink_walk`` must never score worse than it."""
    from scipy.optimize import minimize

    X1 = np.column_stack([X, np.ones(len(X))])
    n = len(y)

    def value_grad(bv):
        r = y - X1 @ bv
        e = np.exp(np.abs(r))
        return float(np.mean(e)), X1.T @ (-np.sign(r) * e) / n

    best = None
    for init in (_fit_l2(_Design(X), y)[0], np.zeros(X1.shape[1])):
        res = minimize(value_grad, init, jac=True, method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(np.linalg.norm(best.jac))


def _null_space(A: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of {x : A x = 0}."""
    if not len(A):
        return np.eye(A.shape[1])
    _, sv, vt = np.linalg.svd(A)
    return vt[int(np.sum(sv > sv[0] * max(A.shape) * np.finfo(float).eps)) :].T


def reference_exp_line_search(r: np.ndarray, q: np.ndarray) -> tuple[float, int]:
    """Reference exp line search, which ``reference_kink_walk`` runs: the
    exact minimizer a >= 0 of sum(exp(|r - a q|)), and the index of the point
    whose kink r_i / q_i it is (-1 when it lies between kinks).

    The function is convex with kinks where a residual reaches 0.  The first
    kink whose right slope is >= 0 is found by galloping and bisection; when
    its left slope is <= 0 it is the minimizer, and otherwise the minimizer
    lies in the smooth stretch before it, where Newton's method, safeguarded
    by the bracket's secant, solves for a zero slope.  A residual of exactly
    0 has left its kink already, in the direction -q_i.
    """

    def right_slope(a, at=None):  # point `at` sits on its kink at a
        t = r - a * q
        if at is not None:
            t[at] = 0.0
        return -float(np.dot(np.where(t == 0.0, -np.sign(q), np.sign(t)) * q, np.exp(np.abs(t))))

    ahead = np.flatnonzero(r * q > 0)
    kinks = r[ahead] / q[ahead]
    order = np.argsort(kinks)
    ahead, kinks = ahead[order], kinks[order]

    @functools.cache
    def kink_slope(j):
        return right_slope(kinks[j], ahead[j])

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
        a, da = (kinks[lo - 1], kink_slope(lo - 1)) if lo else (0.0, right_slope(0.0))
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
            t = r - x * q
            e = np.exp(np.abs(t))
            terms = np.sign(t) * q * e
            d1 = -float(np.sum(terms))
            if abs(d1) <= 1e-13 * float(np.sum(np.abs(terms))) < np.inf:  # zero up to rounding
                break
            if d1 < 0:
                a, da = x, d1
            else:
                b, db = x, d1
            x = x - d1 / float(np.dot(q * q, e))
            if not a < x < b:
                x = inside()
    return float(x), -1


def reference_kink_walk(X: np.ndarray, y: np.ndarray, l1: bool) -> tuple[np.ndarray, float, bool]:
    """Reference walk: ``bench._kink_walk`` as it was before it kept one factorization
    per pinned set, solving afresh on every step (an SVD for the null space, ``lstsq``
    for the multipliers, ``solve`` for a vertex edge) with the exp line search above.
    ``bench._kink_walk`` must reach the same train objective.  Its own description:

    The active-set walk behind the exact l1 (``l1``) and exp fits.

    From the least-squares start, points whose residual is 0 stay pinned
    there.  Each step keeps the pinned residuals at 0 and ends in an exact
    line search that pins a point when it stops on its kink.  When no step is
    left, the pinned points' multipliers sigma balance the free gradient; the
    one with |sigma| > 1 largest is released toward sign(sigma).  Returns the
    coefficients, the norm of the subgradient that sigma (clipped to
    [-1, 1]) certifies, and whether it reaches ``_BASELINE_TOL`` within
    ``_L1_MAX_STEPS`` or ``_EXP_MAX_STEPS`` passes.
    """
    X1t = np.vstack([X.T, np.ones(len(X))])  # rows are the coordinates and the intercept
    k, n = X1t.shape
    beta, _, rank, _ = np.linalg.lstsq(X1t.T, y, rcond=None)
    r = y - beta @ X1t
    # directions that move no residual, which a rank-deficient design has
    moveless = _null_space(np.linalg.qr(X1t.T, mode="r")).T if rank < k else np.empty((0, k))
    pinned = np.abs(r) <= _ON_KINK
    sign = np.where(pinned, 0.0, np.sign(r))
    max_steps = _L1_MAX_STEPS if l1 else _EXP_MAX_STEPS
    for steps in range(max_steps + 1):
        e = 1.0 if l1 else np.exp(np.abs(r))
        g = -(X1t @ (sign * e)) / n
        if steps == max_steps:
            break
        Z = np.flatnonzero(pinned)
        fixed = np.vstack([X1t[:, Z].T, moveless])
        basis = _null_space(fixed)
        if l1:
            d = -(basis @ (basis.T @ g))
        else:
            H = (X1t * np.where(pinned, 0.0, e)) @ X1t.T / n
            d = basis @ np.linalg.lstsq(basis.T @ H @ basis, -(basis.T @ g), rcond=None)[0]
        if -(g @ d) <= 1e-24:
            sigma = np.linalg.lstsq(X1t[:, Z], n * g, rcond=None)[0]
            if not len(sigma) or np.max(np.abs(sigma)) <= 1.0:
                break
            j = int(np.argmax(np.abs(sigma)))
            i = Z[j]
            # its residual counts as exactly 0, so the line search sees it leave the kink
            pinned[i], sign[i], r[i] = False, np.sign(sigma[j]), 0.0
            if not (l1 and fixed.shape == (k, k) and not basis.size):
                continue
            # at an l1 vertex, the edge that keeps the other pinned points at 0 moves r_i toward sign(sigma)
            d = np.linalg.solve(fixed, -sign[i] * np.eye(k)[j])
        live = np.flatnonzero(~pinned)
        r_live, q_live = r[live], (d @ X1t)[live]
        if l1:
            alpha, at = _l1_line_search(r_live, q_live, l1_tilt(r_live, q_live))
        else:
            alpha, at = reference_exp_line_search(r_live, q_live)
        beta = beta + alpha * d
        r = y - beta @ X1t
        pinned |= np.abs(r) <= _ON_KINK
        if at >= 0:
            pinned[live[at]] = True
        sign = np.where(pinned, 0.0, np.sign(r))
    u = sign * e
    u[pinned] = np.clip(np.linalg.lstsq(X1t[:, pinned], n * g, rcond=None)[0], -1.0, 1.0)
    gnorm = float(np.linalg.norm(X1t @ u)) / n
    return beta, gnorm, gnorm <= _BASELINE_TOL and steps < max_steps


def reference_lp_loss(p: float) -> Loss:
    """``losses.lp_loss(p)`` with its curves in the float-pow form, out of
    place: ``|t|**p / p`` and ``|1 - t|**p / p``.  The oracle for the product
    curves of integer p."""
    return dataclasses.replace(lp_loss(p), at0=lambda t: np.abs(t) ** p / p, at1=lambda t: np.abs(1.0 - t) ** p / p)


def reference_exp_loss() -> Loss:
    """``losses.exp_loss()`` with its curves out of place: ``exp(|t|)`` and
    ``exp(|1 - t|)``."""
    return dataclasses.replace(
        exp_loss(),
        at0=lambda t: np.exp(np.abs(np.asarray(t, dtype=np.float64))),
        at1=lambda t: np.exp(np.abs(1.0 - np.asarray(t, dtype=np.float64))),
    )


def l1_tilt(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Signs whose dot product with q is minus the slope of sum(|r - a q|) at
    a = 0: sign(r_i), and -sign(q_i) where r_i is exactly 0 (a point that has
    left its kink in the direction -q_i).  The third argument of
    ``bench._l1_line_search`` for a bare (r, q)."""
    return np.where(r == 0.0, -np.sign(q), np.sign(r))


def audit_row(pred, loss, hyp, engine) -> dict:
    """The one row of ``audit.audit_family`` for (loss, hyp), keyed by the
    report's pair fields: ``hypothesis_gap``, ``decision_gap``, ``loss_gap``.
    Drops the warning of a loss whose discrete derivative exceeds 1."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*on its action domain", UserWarning)
        return audit_family(pred, [loss], [hyp], engine).to_dict()["pairs"][0]


def reference_audit_rows(pred, losses, hypotheses, engine) -> tuple:
    """``audit.audit_family``'s rows as it computed them before its row blocks:
    each loss's derivative on the whole member matrix, then its excess over the
    derivative at the decision as a second whole matrix."""
    hyps = list(hypotheses)
    pv = pred.values(engine.X)
    resid = pv - engine.ystar
    if isinstance(hypotheses, HypothesisClass):
        members = engine.member_matrix(hypotheses)
    else:
        members = value_matrix(hyps, engine.X)
    rows = []
    for loss in losses:
        at_decision = loss.partial(loss.decision(pv))
        at_members = loss.partial(members)
        dec = float(correlate(engine.weights, resid, at_decision))
        hyp_gaps = correlate(engine.weights, resid, at_members)
        loss_gaps = correlate(engine.weights, resid, at_members - at_decision[:, None])
        for h, hg, lg in zip(hyps, hyp_gaps.tolist(), loss_gaps.tolist()):
            rows.append((loss.name, h.tag, hg, dec, lg, lg - (hg - dec)))
    return tuple(rows)


def reference_omni_regret(pred, loss, hypotheses, engine, decision=None) -> float:
    """``audit.omni_regret`` as it computed it before the engine's member cache
    took any sequence: the hypotheses' values from ``value_matrix`` directly."""
    pv = pred.values(engine.X)
    kv = decision(pv) if decision is not None else loss.decision(pv)
    T = np.column_stack([kv, value_matrix(hypotheses, engine.X)])
    expected = correlate(engine.weights, 1.0, loss.loss(engine.ystar[:, None], T))
    return float(expected[0] - np.min(expected[1:], initial=math.inf))


def reference_random_lipschitz_loss(rng: np.random.Generator):
    """``audit.random_lipschitz_loss`` as a loop of scalar draws, each step
    clipped to [-1, 1] by ``np.clip``."""
    xs = np.linspace(-1.0, 1.0, _LIPSCHITZ_KNOTS)
    h = xs[1] - xs[0]
    ys = np.empty(_LIPSCHITZ_KNOTS)
    ys[0] = rng.uniform(-1, 1)
    for i in range(1, _LIPSCHITZ_KNOTS):
        ys[i] = np.clip(ys[i - 1] + rng.uniform(-h, h), -1.0, 1.0)
    return _interp_loss(xs, ys, "random_lipschitz")


def record_stage_applications(monkeypatch) -> list:
    """From now on, append ``(op, X)`` for every stage application."""
    calls = []
    for cls in STAGES.values():
        def apply(self, X, p, original=cls.apply):
            calls.append((self.op, X))
            return original(self, X, p)

        monkeypatch.setattr(cls, "apply", apply)
    return calls
