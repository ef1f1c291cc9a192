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
from collections.abc import Iterable, Sequence, Sized
from dataclasses import dataclass

import numpy as np

from .core import (
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    ConstantPredictor,
    Predictor,
    coordinate_class,
    correlate,
    lin_combination,
)
from .losses import GlmLoss, Loss, OutOfRangeError, TruncatedDecision, bregman

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

_MAX_KNOTS = 10  # most knots of a random_bounded_loss derivative
_LIPSCHITZ_KNOTS = 21  # knots of a random_lipschitz_loss derivative
_L1_GRID_STEP = 0.2  # weight step of the parity construction's l1-ball grid
_BLOCK_ENTRIES = 2**15  # member-matrix entries (256 KB) per row block of audit_family's loss curves


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
    T = np.column_stack([kv, engine.member_matrix(hypotheses)])
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
    warnings: tuple = ()  # the loss warnings the audit raised, in order

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
            "warnings": list(self.warnings),
        }


def audit_family(
    pred: Predictor,
    losses: Sequence[Loss],
    hypotheses: HypothesisClass | Iterable[Hypothesis],
    engine: ExpectationEngine,
) -> OIGapReport:
    """Every (loss, hypothesis) pair's gaps, for a class or any sequence of
    hypotheses, read from the engine's member cache, keyed by the members: a
    later ``mae`` or audit over the same members on that engine builds nothing.

    Each loss's derivative at the members and its excess over the derivative
    at the decision are written into two n x |C| buffers, allocated once per
    audit, in row blocks of about ``_BLOCK_ENTRIES`` entries that stay in
    cache; the gaps are then correlations over the whole buffers, so they do
    not depend on the block size."""
    from warnings import warn

    from .losses import partial_sup

    if not isinstance(hypotheses, Sized):  # a generator is read once, for the matrix and the tags
        hypotheses = tuple(hypotheses)
    pv = pred.values(engine.X)
    resid = pv - engine.ystar
    members = engine.member_matrix(hypotheses)
    step = max(1, _BLOCK_ENTRIES // max(1, members.shape[1]))
    at_members, excess = np.empty(members.shape), np.empty(members.shape)
    rows, warned = [], []
    for loss in losses:
        if not isinstance(loss, GlmLoss):
            sup = partial_sup(loss)
            if sup > 1.0 + 1e-9:
                # gaps stay exact; only the generic family-level bounds assume
                # a unit-bounded discrete derivative
                warned.append(f"{loss.name}: |discrete derivative| reaches {sup:.3g} > 1 on its action domain")
                warn(warned[-1], stacklevel=2)
        try:
            at_decision = loss.partial(loss.decision(pv))
        except OutOfRangeError as exc:
            raise OutOfRangeError(f"{loss.name} cannot decide on these predictions: {exc}") from None
        for lo in range(0, len(members), step):
            block = slice(lo, lo + step)
            at_members[block] = loss.partial(members[block])
            np.subtract(at_members[block], at_decision[block, None], out=excess[block])
        dec = float(correlate(engine.weights, resid, at_decision))
        # the loss gap correlates the excess-loss derivative directly, so the
        # decomposition residual below is a genuine roundoff check
        hyp_gaps = correlate(engine.weights, resid, at_members)
        loss_gaps = correlate(engine.weights, resid, excess)
        for h, hg, lg in zip(hypotheses, hyp_gaps.tolist(), loss_gaps.tolist()):
            rows.append((loss.name, h.tag, hg, dec, lg, lg - (hg - dec)))
    return OIGapReport(tuple(rows), tuple(warned))


# ---------------------------------------------------------------------------
# Random loss families for property audits
# ---------------------------------------------------------------------------


def _interp_loss(xs: np.ndarray, ys: np.ndarray, name: str) -> Loss:
    """loss(0, t) = 0 and loss(1, t) = interp(t; xs, ys) on knots spanning [-1, 1].

    loss(p, t) = p * interp(t) is piecewise linear in t, so for every p > 0
    the minimizer is the knot of least value, or 0 on a flat minimal segment
    across it; ties go to the smallest |t|, then the positive one.  At p = 0
    every action is optimal and the decision is 0.
    """

    def partial_fn(t):
        return np.interp(np.asarray(t, dtype=np.float64), xs, ys)

    cands = np.union1d(xs, [0.0])
    vals = partial_fn(cands)
    k_pos = max(cands[vals == vals.min()].tolist(), key=lambda t: (-abs(t), t))

    return Loss(
        at0=lambda t: np.zeros_like(np.asarray(t, dtype=np.float64)),
        at1=partial_fn,
        action_domain=(-1.0, 1.0),
        name=name,
        kfn=lambda p: np.where(p > 0, k_pos, 0.0),
    )


def random_bounded_loss(rng: np.random.Generator) -> Loss:
    """Loss with a random piecewise-linear discrete derivative in [-1, 1].

    Realized as loss(0, t) = 0, loss(1, t) = the derivative itself, which
    spans the full family of behaviors the audits quantify over.
    """
    k = int(rng.integers(2, _MAX_KNOTS + 1))
    xs = np.concatenate([[-1.0], np.sort(rng.uniform(-1, 1, size=k - 2)), [1.0]]) if k > 2 else np.array([-1.0, 1.0])
    ys = rng.uniform(-1, 1, size=len(xs))
    return _interp_loss(xs, ys, "random_bounded")


def random_lipschitz_loss(rng: np.random.Generator) -> Loss:
    """Like random_bounded_loss but with a 1-Lipschitz derivative."""
    xs = np.linspace(-1.0, 1.0, _LIPSCHITZ_KNOTS)
    h = xs[1] - xs[0]
    ys = [rng.uniform(-1, 1)]
    # one draw of all steps leaves rng where a draw per step did
    for step in rng.uniform(-h, h, _LIPSCHITZ_KNOTS - 1).tolist():
        ys.append(min(max(ys[-1] + step, -1.0), 1.0))
    return _interp_loss(xs, np.array(ys), "random_lipschitz")


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
    return dist, coordinate_class(3)


def _l1_ball_grid(tags: Sequence[str]) -> list[dict]:
    """Weight vectors over the coordinate tags with sum |w| <= 1."""
    vals = np.round(np.arange(-1.0, 1.0 + 1e-9, _L1_GRID_STEP), 12)
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


def _sim_lp(blocks: list[np.ndarray], resolution: int | None = None) -> tuple[float, np.ndarray]:
    """Minimize max(ECE, subcube bias) over monotone block values in [0, 1].

    ``blocks`` partitions the four points into consecutive groups that share
    one value, ordered by the single-index score.  The objective is piecewise
    linear and convex, so the exact minimum is a small linear program.

    With a ``resolution`` each block value is ``k / (resolution - 1)`` for an
    integer ``k``, and HiGHS solves the same program with integral ``k``.  The
    minimum returned is the objective at ``np.linspace(0, 1, resolution)[k]``.
    Every grid objective is a multiple of 1 / (8 (resolution - 1)), so below
    100,000 grid points distinct values differ by more than HiGHS's absolute
    gap of 1e-6 and this is the exact grid minimum.
    """
    from scipy.optimize import linprog  # imported on demand to keep `import calma` light

    nb = len(blocks)  # variables: a value w and a deviation slack e per block, then t
    c = np.zeros(2 * nb + 1)
    c[-1] = 1.0
    B = np.array(blocks, dtype=np.float64)  # block indicators over the point order
    S = np.array(list(_SIM_SUBCUBES.values()), dtype=np.float64)
    masses = B.mean(1)  # each point has mass 1/4
    ybar = B @ _SIM_BAYES / B.sum(1)
    betas = S @ B.T / S.sum(1)[:, None]  # share of each subcube's mass in each block
    targets = S @ _SIM_BAYES / S.sum(1)
    I = np.eye(nb)
    dev_sign = np.tile([-1.0, 1.0], nb)[:, None]  # e_i >= ybar_i - w_i, then e_i >= w_i - ybar_i
    bias_sign = np.tile([1.0, -1.0], len(S))[:, None]  # t >= +-(E[p|c] - E[y|c])
    A = np.vstack([
        np.hstack([I[:-1] - I[1:], np.zeros((nb - 1, nb + 1))]),  # ordering w_i <= w_{i+1}
        np.hstack([dev_sign * np.repeat(I, 2, 0), -np.repeat(I, 2, 0), np.zeros((2 * nb, 1))]),
        np.concatenate([np.zeros(nb), masses, [-1.0]]),  # sum_i mass_i e_i <= t
        np.hstack([bias_sign * np.repeat(betas, 2, 0), np.zeros((2 * len(S), nb)), -np.ones((2 * len(S), 1))]),
    ])
    b = np.concatenate([np.zeros(nb - 1), dev_sign[:, 0] * np.repeat(ybar, 2), [0.0],
                        bias_sign[:, 0] * np.repeat(targets, 2)])

    top, extra = 1.0, {}
    if resolution is not None:  # w_i = k_i / top with integral k_i
        top = resolution - 1.0
        A[:, :nb] /= top
        extra = {"integrality": [1] * nb + [0] * (nb + 1), "options": {"mip_rel_gap": 0.0}}
    bounds = [(0.0, top)] * nb + [(0.0, None)] * nb + [(0.0, None)]
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs", **extra)
    if not res.success:
        raise RuntimeError(f"SIM search LP failed: {res.message}")
    w, val = res.x[:nb], float(res.fun)
    if resolution is not None:
        w = np.linspace(0.0, 1.0, resolution)[np.rint(w).astype(int)]
        val = float(max(np.abs(ybar - w) @ masses, np.max(np.abs(targets - betas @ w))))
    return val, w @ B


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
    ``min_violation_value_grid`` is the exact optimum with the monotone map's
    output values restricted to ``np.linspace(0, 1, grid_resolution)``, from
    the same program over integer grid indices.
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
            best_grid = min(best_grid, _sim_lp(blocks, grid_resolution)[0])

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
