"""Indistinguishability audits: per-(loss, hypothesis) gaps between Nature's
labels and the predictor's simulated labels, regret against a hypothesis
family, Bregman geometry residuals, and two exact constructions that separate
the notions involved.

Sign convention: every gap is the simulated expectation minus Nature's
expectation, so the three gaps satisfy ``loss_gap = hypothesis_gap -
decision_gap`` identically and the largest loss gap over a family upper
bounds the regret of acting on the predictor.  For an action t(x) the gap is
the correlation ``E[(p(x) - y*(x)) * partial(t(x))]``, one ``correlate`` call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    ConstantPredictor,
    Predictor,
    correlate,
    lin_combination,
    make_class,
    value_matrix,
)
from .losses import GlmLoss, Loss, TruncatedDecision, bregman

__all__ = [
    "hypothesis_oi_gap",
    "decision_oi_gap",
    "loss_oi_gap",
    "omni_regret",
    "pythagorean_residual",
    "OIGapReport",
    "audit_family",
    "random_bounded_loss",
    "random_lipschitz_loss",
    "parity_counterexample",
    "ParityReport",
    "sim_counterexample",
    "SimReport",
    "pm_power_loss",
    "parity_distribution",
]


def hypothesis_oi_gap(pred: Predictor, loss: Loss, hyp: Hypothesis, engine: ExpectationEngine) -> float:
    """Expected loss of the hypothesis under simulated labels minus Nature's."""
    pv = pred.values(engine.X)
    return float(correlate(engine.weights, pv - engine.ystar, loss.partial(hyp.values(engine.X))))


def decision_oi_gap(pred: Predictor, loss: Loss, engine: ExpectationEngine) -> float:
    """Same comparison for the loss-optimal action taken from the prediction."""
    pv = pred.values(engine.X)
    return float(correlate(engine.weights, pv - engine.ystar, loss.partial(loss.decision(pv))))


def loss_oi_gap(pred: Predictor, loss: Loss, hyp: Hypothesis, engine: ExpectationEngine) -> float:
    """Gap of the excess-loss distinguisher loss(y, c(x)) - loss(y, k(p(x))).

    Computed from the distinguisher directly; agrees with hypothesis_oi_gap -
    decision_oi_gap up to roundoff.
    """
    pv = pred.values(engine.X)
    excess = loss.partial(hyp.values(engine.X)) - loss.partial(loss.decision(pv))
    return float(correlate(engine.weights, pv - engine.ystar, excess))


def omni_regret(
    pred: Predictor,
    loss: Loss,
    hypotheses: Iterable[Hypothesis],
    engine: ExpectationEngine,
    decision: TruncatedDecision | None = None,
) -> float:
    """Nature's loss when acting on the prediction minus the family's best.

    A truncated decision rule replaces the exact optimal action when given.
    """
    pv = pred.values(engine.X)
    kv = decision(pv) if decision is not None else loss.decision(pv)
    # column 0 is the action taken on the prediction, the rest the hypotheses
    T = np.column_stack([kv, value_matrix(hypotheses, engine.X)])
    expected = correlate(engine.weights, 1.0, loss.loss(engine.ystar[:, None], T))
    return float(expected[0] - np.min(expected[1:], initial=math.inf))


def pythagorean_residual(pred: Predictor, glm: GlmLoss, hyp: Hypothesis, engine: ExpectationEngine) -> float:
    """Failure of the divergence decomposition through the predictor:
    E[D(y*, p)] + E[D(p, g'(h))] - E[D(y*, g'(h))].

    For matching losses this equals the loss distinguisher gap exactly, so
    near-zero residuals certify indistinguishability in the loss's own
    geometry.  Exact engines measure it against the true label means.
    """
    pv = pred.values(engine.X)
    gh = np.asarray(glm.gprime(hyp.values(engine.X)), dtype=np.float64)
    ys = engine.ystar
    mid = engine.expect(bregman(glm, ys, pv)) + engine.expect(bregman(glm, pv, gh))
    return mid - engine.expect(bregman(glm, ys, gh))


_PAIR_FIELDS = ("loss", "hypothesis", "hypothesis_gap", "decision_gap", "loss_gap", "decomposition_residual")


@dataclass(frozen=True)
class OIGapReport:
    rows: tuple  # one tuple per (loss, hypothesis) pair, in _PAIR_FIELDS order

    @property
    def max_abs_hypothesis_gap(self) -> float:
        return max((abs(r[2]) for r in self.rows), default=0.0)

    @property
    def max_abs_decision_gap(self) -> float:
        return max((abs(r[3]) for r in self.rows), default=0.0)

    @property
    def max_abs_loss_gap(self) -> float:
        return max((abs(r[4]) for r in self.rows), default=0.0)

    @property
    def max_decomposition_residual(self) -> float:
        return max((abs(r[5]) for r in self.rows), default=0.0)

    def to_dict(self) -> dict:
        return {
            "pairs": [dict(zip(_PAIR_FIELDS, r)) for r in self.rows],
            "max_abs_hypothesis_gap": self.max_abs_hypothesis_gap,
            "max_abs_decision_gap": self.max_abs_decision_gap,
            "max_abs_loss_gap": self.max_abs_loss_gap,
            "max_decomposition_residual": self.max_decomposition_residual,
        }


def audit_family(
    pred: Predictor,
    losses: Sequence[Loss],
    hypotheses: Iterable[Hypothesis],
    engine: ExpectationEngine,
) -> OIGapReport:
    from warnings import warn

    from .losses import partial_sup

    hyps = list(hypotheses)
    pv = pred.values(engine.X)
    resid = pv - engine.ystar
    members = value_matrix(hyps, engine.X)
    rows = []
    for loss in losses:
        if not isinstance(loss, GlmLoss):
            sup = partial_sup(loss)
            if sup > 1.0 + 1e-9:
                # gaps stay exact; only the generic family-level bounds assume
                # a unit-bounded discrete derivative
                warn(f"{loss.name}: |discrete derivative| reaches {sup:.3g} > 1 on its action domain")
        at_decision = loss.partial(loss.decision(pv))
        at_members = loss.partial(members)
        dec = float(correlate(engine.weights, resid, at_decision))
        # the loss gap correlates the excess-loss derivative directly, so the
        # decomposition residual below is a genuine roundoff check
        hyp_gaps = correlate(engine.weights, resid, at_members)
        loss_gaps = correlate(engine.weights, resid, at_members - at_decision[:, None])
        for h, hg, lg in zip(hyps, hyp_gaps.tolist(), loss_gaps.tolist()):
            rows.append((loss.name, h.tag, hg, dec, lg, lg - (hg - dec)))
    return OIGapReport(tuple(rows))


# ---------------------------------------------------------------------------
# Random loss families for property audits
# ---------------------------------------------------------------------------


def _interp_loss(xs: np.ndarray, ys: np.ndarray, name: str, lipschitz: float | None) -> Loss:
    def partial_fn(t):
        return np.interp(np.asarray(t, dtype=np.float64), xs, ys)

    return Loss(
        at0=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        at1=partial_fn,
        action_domain=(-1.0, 1.0),
        lipschitz_bound=lipschitz,
        name=name,
    )


def random_bounded_loss(rng: np.random.Generator, max_knots: int = 10) -> Loss:
    """Loss with a random piecewise-linear discrete derivative in [-1, 1].

    Realized as loss(0, t) = 0, loss(1, t) = the derivative itself, which
    spans the full family of behaviors the audits quantify over.
    """
    k = int(rng.integers(2, max_knots + 1))
    xs = np.concatenate([[-1.0], np.sort(rng.uniform(-1, 1, size=k - 2)), [1.0]]) if k > 2 else np.array([-1.0, 1.0])
    ys = rng.uniform(-1, 1, size=len(xs))
    return _interp_loss(xs, ys, "random_bounded", None)


def random_lipschitz_loss(rng: np.random.Generator, knots: int = 21) -> Loss:
    """Like random_bounded_loss but with a 1-Lipschitz derivative."""
    xs = np.linspace(-1.0, 1.0, knots)
    h = xs[1] - xs[0]
    ys = np.empty(knots)
    ys[0] = rng.uniform(-1, 1)
    for i in range(1, knots):
        ys[i] = np.clip(ys[i - 1] + rng.uniform(-h, h), -1.0, 1.0)
    return _interp_loss(xs, ys, "random_lipschitz", 1.0)


# ---------------------------------------------------------------------------
# Parity construction
# ---------------------------------------------------------------------------


def pm_power_loss(power: int, scale: float) -> Loss:
    """Power loss scale * |y - t|^power for labels in {-1, +1}.

    The library is {0,1}-native, so this is the explicit adapter: the curve
    at label 0 is the plus-minus curve at label -1.  Decisions map label-1
    probabilities to actions in [-1, 1].
    """
    if power not in (2, 4):
        raise ValueError("pm_power_loss supports powers 2 and 4")

    def at0(t):
        return scale * np.abs(-1.0 - np.asarray(t, dtype=np.float64)) ** power

    def at1(t):
        return scale * np.abs(1.0 - np.asarray(t, dtype=np.float64)) ** power

    if power == 2:
        kfn = lambda q: 2.0 * np.asarray(q, dtype=np.float64) - 1.0
    else:

        def kfn(q):
            q = np.asarray(q, dtype=np.float64)
            with np.errstate(divide="ignore"):
                s = np.cbrt(np.divide(q, 1.0 - q, out=np.full_like(q, np.inf), where=q < 1))
            finite = np.where(np.isinf(s), 1.0, s)
            return np.where(np.isinf(s), 1.0, (finite - 1.0) / (finite + 1.0))

    return Loss(at0, at1, action_domain=(-1.0, 1.0), name=f"pm_l{power}(x{scale:g})", kfn=kfn)


def parity_distribution() -> tuple[FiniteDistribution, HypothesisClass]:
    """Uniform cube {-1, +1}^3 with the three-way parity as the label mean,
    and the coordinate class (with constant and negations)."""
    pts = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    chi = np.prod(pts, axis=1)
    dist = FiniteDistribution(pts, np.full(8, 1 / 8), (1.0 + chi) / 2.0)
    members = [
        Hypothesis(lambda X, j=j: np.atleast_2d(X)[:, j], 1.0, f"x{j}") for j in range(3)
    ]
    return dist, make_class(members)


def _l1_ball_grid(tags: Sequence[str], step: float = 0.2) -> list[dict]:
    """Weight vectors over the coordinate tags with sum |w| <= 1."""
    vals = np.round(np.arange(-1.0, 1.0 + 1e-9, step), 12)
    out = []
    for combo in itertools.product(vals, repeat=len(tags)):
        if sum(abs(v) for v in combo) <= 1.0 + 1e-12:
            out.append({t: float(v) for t, v in zip(tags, combo) if v != 0.0})
    return out


@dataclass(frozen=True)
class ParityReport:
    mae: float
    multicalibration_residual: float
    e_label_c: float
    e_label_c_cubed: float
    l4_hypothesis_gap: float
    l4_hypothesis_gap_quarter_scale: float
    l4_decision_gap: float
    l2_decision_gap: float
    l2_omni_regret: float
    l4_omni_regret: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def parity_counterexample() -> ParityReport:
    """Exact enumeration of the parity instance: the constant midpoint
    predictor is perfectly multicalibrated for the coordinate class, yet the
    fourth-power distinguisher built on the averaged coordinate separates its
    simulation from Nature by a constant.

    The separation constant 4/9 is reported for the half-scaled plus-minus
    power loss |y - t|^4 / 2 (matching the published constant); the
    1-Lipschitz (1/p)-scaled variant of the same enumeration gives 2/9 and is
    reported alongside.
    """
    dist, cls = parity_distribution()
    engine = ExpectationEngine.exact(dist)
    pred = ConstantPredictor(0.5)
    c_avg = lin_combination(cls, {"x0": 1 / 3, "x1": 1 / 3, "x2": 1 / 3}, 1.0)

    from .multiaccuracy import mae as mae_fn

    mae_val = mae_fn(pred, cls, engine)
    # constant predictions: one level set, so its per-member calibration
    # residuals coincide with the multiaccuracy correlations
    mc_resid = mae_val

    chi = 2.0 * dist.bayes - 1.0
    cvals = c_avg.values(dist.points)
    e_c = engine.expect(chi * cvals)
    e_c3 = engine.expect(chi * cvals**3)

    pm4_half = pm_power_loss(4, 0.5)
    pm4_quarter = pm_power_loss(4, 0.25)
    pm2 = pm_power_loss(2, 0.5)
    gap_half = hypothesis_oi_gap(pred, pm4_half, c_avg, engine)
    gap_quarter = hypothesis_oi_gap(pred, pm4_quarter, c_avg, engine)
    dec4 = decision_oi_gap(pred, pm4_half, engine)
    dec2 = decision_oi_gap(pred, pm2, engine)

    grid = [lin_combination(cls, w, 1.0) for w in _l1_ball_grid(["x0", "x1", "x2"])]
    reg2 = omni_regret(pred, pm2, grid, engine)
    reg4 = omni_regret(pred, pm4_half, grid, engine)

    return ParityReport(
        mae=mae_val,
        multicalibration_residual=mc_resid,
        e_label_c=e_c,
        e_label_c_cubed=e_c3,
        l4_hypothesis_gap=gap_half,
        l4_hypothesis_gap_quarter_scale=gap_quarter,
        l4_decision_gap=dec4,
        l2_decision_gap=dec2,
        l2_omni_regret=reg2,
        l4_omni_regret=reg4,
    )


# ---------------------------------------------------------------------------
# Single-index-model construction
# ---------------------------------------------------------------------------

_SIM_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
_SIM_BAYES = np.array([0.0, 0.5, 1.0, 0.0])
# subcube membership masks over the point order (00, 01, 10, 11)
_SIM_SUBCUBES = {
    "x0=0": np.array([True, True, False, False]),
    "x0=1": np.array([False, False, True, True]),
    "x1=0": np.array([True, False, True, False]),
    "x1=1": np.array([False, True, False, True]),
}


def sim_violation(p: np.ndarray) -> float:
    """max of the calibration error and the per-subcube bias of a table
    predictor on the four-point instance."""
    p = np.asarray(p, dtype=np.float64)
    vals = np.round(p, 9)
    ece_terms = []
    for v in np.unique(vals):
        sel = vals == v
        ece_terms.append(abs(float(np.mean(_SIM_BAYES[sel] - p[sel]))) * np.mean(sel))
    cond = max(abs(float(np.mean(_SIM_BAYES[m] - p[m]))) for m in _SIM_SUBCUBES.values())
    return max(float(np.sum(ece_terms)), cond)


def _sim_lp(blocks: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Minimize max(ECE, subcube bias) over monotone block values in [0, 1].

    ``blocks`` partitions the four points into consecutive groups that share
    one value, ordered by the single-index score.  The objective is piecewise
    linear and convex, so the exact minimum is a small linear program.
    """
    from scipy.optimize import linprog  # imported on demand to keep `import calma` light

    nb = len(blocks)
    n_var = 2 * nb + 1  # w blocks, e slack per block, t
    c = np.zeros(n_var)
    c[-1] = 1.0
    A, b = [], []

    masses = np.array([np.mean(blk) for blk in blocks])  # mask mean = mass (uniform quarter points)
    ybar = np.array([float(np.mean(_SIM_BAYES[blk])) for blk in blocks])

    def row():
        return np.zeros(n_var)

    for i in range(nb - 1):  # ordering w_i <= w_{i+1}
        r = row()
        r[i], r[i + 1] = 1.0, -1.0
        A.append(r)
        b.append(0.0)
    for i in range(nb):  # e_i >= |ybar_i - w_i|
        r = row()
        r[i], r[nb + i] = -1.0, -1.0
        A.append(r)
        b.append(-ybar[i])
        r = row()
        r[i], r[nb + i] = 1.0, -1.0
        A.append(r)
        b.append(ybar[i])
    r = row()  # sum_i mass_i e_i <= t
    r[nb : 2 * nb] = masses
    r[-1] = -1.0
    A.append(r)
    b.append(0.0)
    for mask in _SIM_SUBCUBES.values():  # |E[y|c] - E[p|c]| <= t
        beta = np.array([np.sum(blk & mask) / np.sum(mask) for blk in blocks])
        target = float(np.mean(_SIM_BAYES[mask]))
        r = row()
        r[:nb] = beta
        r[-1] = -1.0
        A.append(r)
        b.append(target)
        r = row()
        r[:nb] = -beta
        r[-1] = -1.0
        A.append(r)
        b.append(-target)

    bounds = [(0.0, 1.0)] * nb + [(0.0, None)] * nb + [(0.0, None)]
    res = linprog(c, A_ub=np.array(A), b_ub=np.array(b), bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"SIM search LP failed: {res.message}")
    w = res.x[:nb]
    p = np.empty(4)
    for blk, v in zip(blocks, w):
        p[blk] = v
    return float(res.fun), p


def _score_signature(a: float, b: float) -> tuple[int, ...]:
    scores = np.array([0.0, b, a, a + b])
    order = np.argsort(scores, kind="stable")
    group = np.empty(4, dtype=int)
    g = 0
    group[order[0]] = 0
    for prev, cur in zip(order[:-1], order[1:]):
        if scores[cur] - scores[prev] > 1e-12:
            g += 1
        group[cur] = g
    return tuple(group)


def _bayes_unate() -> bool:
    for s0, s1 in itertools.product([1, -1], repeat=2):
        ok = True
        for i, x in enumerate(_SIM_POINTS):
            for j, z in enumerate(_SIM_POINTS):
                le = (s0 * x[0] <= s0 * z[0]) and (s1 * x[1] <= s1 * z[1])
                if le and _SIM_BAYES[i] > _SIM_BAYES[j] + 1e-12:
                    ok = False
        if ok:
            return True
    return False


def _monotone_tuples(values: np.ndarray, k: int) -> np.ndarray:
    """Nondecreasing k-tuples of ``values`` (one per row), in the order of
    ``itertools.combinations_with_replacement(values, k)``."""
    m = len(values)
    idx = np.arange(m)[:, None]
    for _ in range(k - 1):
        # row (..., last) is followed by its extensions last, last + 1, ..., m - 1
        last = idx[:, -1]
        reps = m - last
        starts = np.repeat(np.cumsum(reps) - reps - last, reps)
        idx = np.column_stack([np.repeat(idx, reps, axis=0), np.arange(reps.sum()) - starts])
    return values[idx]


def _gridded_block_min(blocks: list[np.ndarray], grid: np.ndarray, w_star: np.ndarray) -> float:
    """Minimum violation over monotone block values restricted to the grid.

    Exhaustive for up to three blocks; four blocks use a strided scan plus
    dense refinement around the best strided point and the continuum optimum
    (the objective is convex, so the lattice optimum sits near them).
    """
    nb = len(blocks)
    masses = np.array([np.mean(blk) for blk in blocks])
    ybar = np.array([float(np.mean(_SIM_BAYES[blk])) for blk in blocks])
    betas, targets = [], []
    for mask in _SIM_SUBCUBES.values():
        betas.append(np.array([np.sum(blk & mask) / np.sum(mask) for blk in blocks]))
        targets.append(float(np.mean(_SIM_BAYES[mask])))
    B = np.array(betas)
    r = np.array(targets)

    def evaluate(W: np.ndarray, already_monotone: bool) -> tuple[float, np.ndarray | None]:
        if not already_monotone and nb > 1:
            W = W[np.all(np.diff(W, axis=1) >= 0, axis=1)]
        if len(W) == 0:
            return math.inf, None
        ece_part = np.abs(ybar - W) @ masses
        cond_part = np.max(np.abs(r[None, :] - W @ B.T), axis=1)
        vals = np.maximum(ece_part, cond_part)
        i = int(np.argmin(vals))
        return float(vals[i]), W[i]

    if nb <= 3:
        return evaluate(_monotone_tuples(grid, nb), already_monotone=True)[0]

    stride = max(1, len(grid) // 34)
    best, best_w = evaluate(_monotone_tuples(grid[::stride], nb), already_monotone=True)

    def window(center: float) -> np.ndarray:
        i = int(np.argmin(np.abs(grid - center)))
        return grid[max(0, i - 2 * stride) : i + 2 * stride + 1]

    for anchor in (w_star, best_w):
        if anchor is None:
            continue
        grids = np.meshgrid(*[window(v) for v in anchor], indexing="ij")
        W = np.column_stack([g.ravel() for g in grids])
        val, _ = evaluate(W, already_monotone=False)
        best = min(best, val)
    return best


@dataclass(frozen=True)
class SimReport:
    min_violation: float
    min_violation_value_grid: float
    best_predictor: tuple
    n_signatures: int
    constant_violation: float
    pstar_violation: float
    ma_system_residual: float
    bayes_is_unate: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def sim_counterexample(grid_resolution: int = 100) -> SimReport:
    """Grid search over single-index models on the four-point instance.

    A single-index model scores the points by a weighted sum of the subcube
    indicators and post-processes with a monotone map; over this domain any
    monotone map is a monotone step assignment over the induced score order,
    so for each order the best assignment is found exactly by a linear
    program.  Only the two indicator-weight differences affect the order, so
    the grid runs over those.

    ``min_violation`` is the exact per-order optimum (the true infimum over
    all single-index models, which this construction makes exactly 1/20);
    ``min_violation_value_grid`` restricts the monotone map's output values
    to a grid of ``grid_resolution`` points, the literal granularity-limited
    search.
    """
    if grid_resolution < 50:
        raise ValueError("grid_resolution must be at least 50")

    # every solution of the subcube bias system satisfies three fixed affine
    # relations; verify them on two independent solutions of the 4x4 system
    A = np.array([m.astype(float) * 0.25 for m in _SIM_SUBCUBES.values()])
    b = A @ _SIM_BAYES
    part, *_ = np.linalg.lstsq(A, b, rcond=None)
    _, s, vt = np.linalg.svd(A)
    null = vt[-1]
    resid = 0.0
    for scale in (-0.35, 0.2):
        p = part + scale * null
        resid = max(
            resid,
            abs(p[1] - (0.5 - p[0])),
            abs(p[2] - (1.0 - p[0])),
            abs(p[3] - p[0]),
            float(np.max(np.abs(A @ p - b))),
        )

    seen: set[tuple[int, ...]] = set()
    axis = np.linspace(-1.0, 1.0, grid_resolution)
    for a in axis:
        for bcoef in axis:
            seen.add(_score_signature(float(a), float(bcoef)))

    value_grid = np.linspace(0.0, 1.0, grid_resolution)
    best = math.inf
    best_grid = math.inf
    best_p = None
    done: set[tuple] = set()
    for sig in sorted(seen):
        groups = [np.asarray(sig) == g for g in range(max(sig) + 1)]
        for pattern in itertools.product([0, 1], repeat=len(groups) - 1):
            blocks: list[np.ndarray] = [groups[0]]
            for merge, grp in zip(pattern, groups[1:]):
                if merge:
                    blocks[-1] = blocks[-1] | grp
                else:
                    blocks.append(grp)
            key = tuple(tuple(np.flatnonzero(blk)) for blk in blocks)
            if key in done:
                continue
            done.add(key)
            val, p = _sim_lp(blocks)
            if val < best:
                best, best_p = val, p
            w_star = np.array([p[blk][0] for blk in blocks])
            best_grid = min(best_grid, _gridded_block_min(blocks, value_grid, w_star))

    const_val, _ = _sim_lp([np.array([True] * 4)])
    return SimReport(
        min_violation=best,
        min_violation_value_grid=best_grid,
        best_predictor=tuple(best_p),
        n_signatures=len(seen),
        constant_violation=const_val,
        pstar_violation=sim_violation(_SIM_BAYES),
        ma_system_residual=resid,
        bayes_is_unate=_bayes_unate(),
    )
