"""Data model shared by training and auditing: distributions, datasets,
predictors, hypothesis classes and the expectation engine.

Two evaluation modes sit behind one engine.  Exact mode works on a finite
distribution whose conditional label probabilities are known, so every
expectation is a closed-form weighted sum.  Empirical mode works on a labeled
sample.  Expectations over simulated labels drawn from a predictor are always
computed analytically as the Bernoulli mixture ``p(x) * f(x, 1) + (1 - p(x)) *
f(x, 0)``, never by sampling.

All containers are immutable after construction (arrays are marked read-only)
and safe to share across threads.  Every expectation and residual correlation
reduces through ``correlate``, a BLAS dot or matrix-vector product: repeated
calls with the same shapes, numpy/BLAS build and BLAS thread count give
bit-identical results, which are not exactly rounded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BudgetExceededError",
    "NonFiniteRangeError",
    "FiniteDistribution",
    "Dataset",
    "ExpectationEngine",
    "correlate",
    "Hypothesis",
    "HypothesisClass",
    "make_class",
    "constant_one",
    "coordinate_class",
    "lin_combination",
    "level_class",
    "interval_class",
    "power_class",
    "Predictor",
    "ConstantPredictor",
    "FunctionPredictor",
    "TablePredictor",
    "BucketRecalPredictor",
    "PipelinePredictor",
    "predictor_from_dict",
    "bayes_predictor",
    "clip",
    "clip01",
    "distance",
    "n_buckets",
    "bucket_index",
    "bucket_midpoints",
    "load_distribution",
    "save_distribution",
    "load_dataset",
    "save_dataset",
]

_MASS_TOL = 1e-12


class BudgetExceededError(ValueError):
    """Weight vector violates the L1 budget of a linear combination."""


class NonFiniteRangeError(ValueError):
    """A hypothesis takes more distinct values than the configured cap."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


def clip01(values: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, np.maximum(0.0, values))


def correlate(weights: np.ndarray, resid: np.ndarray, G: np.ndarray):
    """sum_i weights_i * resid_i * G_i for one per-point vector ``G``, or one
    such sum per column of an n x k matrix ``G``."""
    return (weights * resid) @ G


def value_matrix(fns: Iterable, arg: np.ndarray) -> np.ndarray:
    """n x k matrix whose column j is ``fns[j].values(arg)``."""
    fns = list(fns)
    out = np.empty((len(arg), len(fns)))
    for j, f in enumerate(fns):
        out[:, j] = f.values(arg)
    return out


# ---------------------------------------------------------------------------
# Distributions and datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """Explicit finite domain with point masses and conditional label means.

    ``bayes[i]`` is the probability that the label of ``points[i]`` is 1; it
    is the exact-expectation oracle behind every deterministic test.
    """

    points: np.ndarray
    mass: np.ndarray
    bayes: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        mass = np.asarray(self.mass, dtype=np.float64).ravel()
        bayes = np.asarray(self.bayes, dtype=np.float64).ravel()
        if not (len(pts) == len(mass) == len(bayes)):
            raise ValueError("points, mass and bayes must have equal length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(mass)) and np.all(np.isfinite(bayes))):
            raise ValueError("points, mass and bayes must be finite")
        if np.any(mass < 0):
            raise ValueError("masses must be nonnegative")
        if abs(math.fsum(mass.tolist()) - 1.0) > _MASS_TOL:
            raise ValueError("masses must sum to 1 within 1e-12")
        if np.any(bayes < 0) or np.any(bayes > 1):
            raise ValueError("bayes probabilities must lie in [0, 1]")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "mass", _freeze(mass))
        object.__setattr__(self, "bayes", _freeze(bayes))

    @property
    def n(self) -> int:
        return len(self.mass)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "mass": self.mass.tolist(),
            "bayes": self.bayes.tolist(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FiniteDistribution":
        return cls(np.asarray(d["points"]), np.asarray(d["mass"]), np.asarray(d["bayes"]))


@dataclass(frozen=True)
class Dataset:
    """Labeled sample with binary labels; ``seed`` records provenance."""

    X: np.ndarray
    y: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if len(X) == 0:
            raise ValueError("dataset must be nonempty")
        if len(X) != len(y):
            raise ValueError("feature matrix and labels must have equal length")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be binary")
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(self, "y", _freeze(y))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def save_distribution(dist: FiniteDistribution, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dist.to_dict(), fh)


def load_distribution(path: str) -> FiniteDistribution:
    with open(path) as fh:
        return FiniteDistribution.from_dict(json.load(fh))


def save_dataset(data: Dataset, path: str) -> None:
    d = data.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["y"])
        for row, label in zip(data.X, data.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_dataset(path: str) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "y":
            raise ValueError("expected CSV header f0,...,f{d-1},y")
        rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# Expectation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationEngine:
    """Uniform access to expectations over (x, y*) and simulated (x, y~).

    ``ystar`` holds the conditional label mean per supported point: the true
    probabilities in exact mode, the observed 0/1 labels in empirical mode.
    Both cases make ``E[g(x, y)] = E[ystar * g(x,1) + (1 - ystar) * g(x,0)]``.
    """

    mode: str
    X: np.ndarray
    weights: np.ndarray
    ystar: np.ndarray
    dist: FiniteDistribution | None = None
    data: Dataset | None = None

    @classmethod
    def exact(cls, dist: FiniteDistribution) -> "ExpectationEngine":
        return cls("exact", dist.points, dist.mass, dist.bayes, dist=dist)

    @classmethod
    def empirical(cls, data: Dataset) -> "ExpectationEngine":
        w = np.full(data.n, 1.0 / data.n)
        w.flags.writeable = False
        return cls("empirical", data.X, w, data.y, data=data)

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def expect(self, values: np.ndarray) -> float:
        """E over x of a per-point quantity."""
        return float(correlate(self.weights, 1.0, values))

    def expect_label(self, at1: np.ndarray, at0: np.ndarray) -> float:
        """E over (x, y*) of a quantity given per-point values at y=1 / y=0."""
        return self.expect(self.ystar * at1 + (1.0 - self.ystar) * at0)

    def expect_simulated(self, pred_values: np.ndarray, at1: np.ndarray, at0: np.ndarray) -> float:
        """E over (x, y~) with y~ ~ Ber(pred(x)), computed analytically."""
        pv = np.asarray(pred_values, dtype=np.float64)
        return self.expect(pv * at1 + (1.0 - pv) * at0)


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    """Real-valued feature function with a declared range bound and a tag."""

    fn: Callable[[np.ndarray], np.ndarray]
    range_bound: float
    tag: str

    def values(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.atleast_2d(np.asarray(X, dtype=np.float64))), dtype=np.float64)
        return out.ravel()

    def neg(self) -> "Hypothesis":
        tag = self.tag[1:] if self.tag.startswith("-") else "-" + self.tag
        fn = self.fn
        return Hypothesis(lambda X: -np.asarray(fn(X), dtype=np.float64), self.range_bound, tag)


def constant_one() -> Hypothesis:
    return Hypothesis(lambda X: np.ones(len(np.atleast_2d(X))), 1.0, "1")


@dataclass(frozen=True)
class HypothesisClass:
    members: tuple
    contains_one: bool
    negation_closed: bool

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def tags(self) -> list[str]:
        return [m.tag for m in self.members]

    def member(self, tag: str) -> Hypothesis:
        for m in self.members:
            if m.tag == tag:
                return m
        raise KeyError(tag)

    @property
    def max_bound(self) -> float:
        return max(m.range_bound for m in self.members)


def make_class(
    members: Iterable[Hypothesis],
    *,
    ensure_one: bool = True,
    close_negation: bool = True,
) -> HypothesisClass:
    """Build a class, optionally adding the constant 1 and all negations."""
    out: list[Hypothesis] = []
    seen: set[str] = set()

    def add(h: Hypothesis) -> None:
        if h.tag not in seen:
            seen.add(h.tag)
            out.append(h)

    for m in members:
        add(m)
    if ensure_one:
        add(constant_one())
    if close_negation:
        for m in list(out):
            add(m.neg())
    return HypothesisClass(tuple(out), contains_one=ensure_one, negation_closed=close_negation)


def coordinate_class(dim: int, scales: Sequence[float] | None = None) -> HypothesisClass:
    """Coordinate projections x_j / scale_j, bounded by 1 on the scaled domain."""
    if scales is None:
        scales = [1.0] * dim
    members = []
    for j in range(dim):
        s = float(scales[j])
        if s <= 0:
            raise ValueError("scales must be positive")
        members.append(Hypothesis(lambda X, j=j, s=s: np.atleast_2d(X)[:, j] / s, 1.0, f"x{j}"))
    return make_class(members)


def lin_combination(cls: HypothesisClass, weights: Mapping[str, float], budget: float) -> Hypothesis:
    """Weighted combination with an L1 budget on the coefficients."""
    total = math.fsum(abs(w) for w in weights.values())
    if total > budget + 1e-12:
        raise BudgetExceededError(f"sum of |weights| = {total:.6g} exceeds budget {budget:.6g}")
    members = [cls.member(tag) for tag in weights]
    coefs = np.array([float(w) for w in weights.values()])

    def fn(X):
        return value_matrix(members, np.atleast_2d(X)) @ coefs

    tag = "lin(" + ",".join(f"{t}:{w:g}" for t, w in weights.items()) + ")"
    return Hypothesis(fn, budget * cls.max_bound, tag)


def level_class(cls: HypothesisClass, points: np.ndarray, cap: int = 64) -> HypothesisClass:
    """Indicator basis for all bounded post-processings of each member.

    Members must be discrete-valued on the supported points: at most ``cap``
    distinct values each.  Any f with |f| <= 1 composed with c expands as
    sum_v f(v) * 1{c(x) = v} over the observed values, so multiaccuracy over
    this basis controls the multiaccuracy error of every post-processing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    members = []
    for m in cls.members:
        if m.tag.startswith("-"):
            continue  # negations are re-added by closure below
        vals = np.unique(m.values(points))
        if len(vals) > cap:
            raise NonFiniteRangeError(
                f"{m.tag} takes {len(vals)} distinct values on the support (cap {cap})"
            )
        for v in vals:
            members.append(
                Hypothesis(
                    lambda X, m=m, v=v: (np.abs(m.values(X) - v) <= 1e-12).astype(float),
                    1.0,
                    f"lev({m.tag}={v:.12g})",
                )
            )
    return make_class(members)


def _interval_edges(delta: float) -> np.ndarray:
    m = int(math.ceil(2.0 / delta - 1e-9))
    return np.concatenate([-1.0 + delta * np.arange(m), [1.0]])


def interval_class(cls: HypothesisClass, delta: float) -> HypothesisClass:
    """Indicators of each member falling in a width-``delta`` subinterval.

    [-1, 1] splits into ceil(2/delta) half-open cells, the last closed at 1,
    so every value lands in exactly one cell.
    """
    if not 0 < delta <= 2:
        raise ValueError("delta must lie in (0, 2]")
    for m in cls.members:
        if m.range_bound > 1 + 1e-9:
            raise ValueError("interval_class requires members bounded in [-1, 1]")
    m_cells = int(math.ceil(2.0 / delta - 1e-9))

    def cell_of(values: np.ndarray) -> np.ndarray:
        idx = np.floor((values + 1.0) / delta).astype(int)
        return np.clip(idx, 0, m_cells - 1)

    members = []
    for h in cls.members:
        if h.tag.startswith("-"):
            continue
        for j in range(m_cells):
            lo = -1.0 + j * delta
            hi = min(lo + delta, 1.0)
            members.append(
                Hypothesis(
                    lambda X, h=h, j=j: (cell_of(h.values(X)) == j).astype(float),
                    1.0,
                    f"int({h.tag},[{lo:.6g},{hi:.6g}))",
                )
            )
    return make_class(members)


def power_class(cls: HypothesisClass, d: int) -> HypothesisClass:
    """Coordinate powers c(x)^j for j = 1..d with range bounds B^j."""
    if d < 1:
        raise ValueError("d must be >= 1")
    members = []
    for h in cls.members:
        if h.tag.startswith("-"):
            continue
        for j in range(1, d + 1):
            members.append(
                Hypothesis(
                    lambda X, h=h, j=j: h.values(X) ** j,
                    h.range_bound**j,
                    f"pow({h.tag},{j})",
                )
            )
    return make_class(members)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


class Predictor:
    """Function from points to [0, 1]; subclasses carry the representation."""

    kind = "abstract"

    def values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.values(X)

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{self.kind} predictor is not serializable")


@dataclass(frozen=True)
class ConstantPredictor(Predictor):
    value: float
    kind = "constant"

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("constant prediction must lie in [0, 1]")

    def values(self, X):
        return np.full(len(np.atleast_2d(X)), float(self.value))

    def to_dict(self):
        return {"kind": self.kind, "value": self.value}


@dataclass(frozen=True)
class FunctionPredictor(Predictor):
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "function"
    kind = "function"

    def values(self, X):
        out = np.asarray(self.fn(np.atleast_2d(np.asarray(X, dtype=np.float64))), dtype=np.float64).ravel()
        return clip01(out)


class TablePredictor(Predictor):
    """Lookup table over an explicit finite domain."""

    kind = "table"

    def __init__(self, points: np.ndarray, table_values: np.ndarray):
        pts = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        vals = np.asarray(table_values, dtype=np.float64).ravel()
        if len(pts) != len(vals):
            raise ValueError("points and values must have equal length")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("table values must lie in [0, 1]")
        self._points = pts
        self._values = clip01(vals)
        self._lookup = {row.tobytes(): v for row, v in zip(pts, self._values)}

    def values(self, X):
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        try:
            return np.array([self._lookup[row.tobytes()] for row in X])
        except KeyError:
            raise ValueError("point outside the table predictor's domain") from None

    def to_dict(self):
        return {"kind": self.kind, "points": self._points.tolist(), "values": self._values.tolist()}


def bayes_predictor(dist: FiniteDistribution) -> TablePredictor:
    return TablePredictor(dist.points, dist.bayes)


def n_buckets(delta: float) -> int:
    return int(math.ceil(1.0 / (2.0 * delta) - 1e-9))


def bucket_index(values: np.ndarray, delta: float) -> np.ndarray:
    """Bucket j = floor(v / 2delta) over [ (2j)d, (2j+2)d ), clipped so 1.0
    and any short final cell land in the last bucket."""
    idx = np.floor(np.asarray(values, dtype=np.float64) / (2.0 * delta)).astype(int)
    return np.clip(idx, 0, n_buckets(delta) - 1)


def bucket_midpoints(delta: float) -> np.ndarray:
    mids = (2.0 * np.arange(n_buckets(delta)) + 1.0) * delta
    return np.minimum(mids, 1.0)


@dataclass(frozen=True)
class BucketRecalPredictor(Predictor):
    """Base predictor re-mapped through per-bucket output values."""

    base: Predictor
    delta: float
    bucket_values: np.ndarray
    kind = "bucket_recal"

    def __post_init__(self):
        vals = _freeze(np.asarray(self.bucket_values, dtype=np.float64).ravel())
        if len(vals) != n_buckets(self.delta):
            raise ValueError("need one output value per bucket")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("bucket values must lie in [0, 1]")
        object.__setattr__(self, "bucket_values", vals)

    def values(self, X):
        return self.bucket_values[bucket_index(self.base.values(X), self.delta)]

    @property
    def is_delta_discrete(self) -> bool:
        """True iff every output value is an odd multiple of delta."""
        ratio = self.bucket_values / self.delta
        return bool(np.all(np.abs(ratio - (2 * np.round((ratio - 1) / 2) + 1)) <= 1e-9))

    def to_dict(self):
        return {
            "kind": self.kind,
            "delta": self.delta,
            "bucket_values": self.bucket_values.tolist(),
            "base": self.base.to_dict(),
        }


class PipelinePredictor(Predictor):
    """Sequential score pipeline: additive clipped updates and recalibration.

    Stage forms:
      ("const", v)                   start from the constant v
      ("base", predictor)            start from another predictor
      ("add_hyp", hypothesis, coef)  p <- clip01(p + coef * c(x))
      ("add_linear", w, b)           p <- clip01(p + x.w + b)
      ("bucket", delta, values)      p <- values[bucket_index(p, delta)]
      ("isotonic", thresholds, vals) p <- step(p), monotone nondecreasing
    """

    kind = "pipeline"

    def __init__(self, stages: Sequence[tuple]):
        if not stages or stages[0][0] not in ("const", "base"):
            raise ValueError("pipeline must start with a 'const' or 'base' stage")
        self.stages = list(stages)

    def extended(self, stage: tuple) -> "PipelinePredictor":
        return PipelinePredictor(self.stages + [stage])

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        p = None
        for stage in self.stages:
            op = stage[0]
            if op == "const":
                p = np.full(len(X), float(stage[1]))
            elif op == "base":
                p = stage[1].values(X)
            elif op == "add_hyp":
                _, h, coef = stage
                p = clip01(p + coef * h.values(X))
            elif op == "add_linear":
                _, w, b = stage
                p = clip01(p + X @ np.asarray(w, dtype=np.float64) + b)
            elif op == "bucket":
                _, delta, vals = stage
                p = np.asarray(vals, dtype=np.float64)[bucket_index(p, delta)]
            elif op == "isotonic":
                _, thresholds, vals = stage
                idx = np.searchsorted(np.asarray(thresholds, dtype=np.float64), p, side="right") - 1
                p = np.asarray(vals, dtype=np.float64)[np.clip(idx, 0, len(vals) - 1)]
            else:
                raise ValueError(f"unknown pipeline stage {op!r}")
        return p

    def to_dict(self):
        out = []
        for stage in self.stages:
            op = stage[0]
            if op == "const":
                out.append({"op": "const", "value": stage[1]})
            elif op == "base":
                out.append({"op": "base", "base": stage[1].to_dict()})
            elif op == "add_hyp":
                out.append({"op": "add_hyp", "tag": stage[1].tag, "coef": stage[2]})
            elif op == "add_linear":
                out.append({"op": "add_linear", "w": np.asarray(stage[1]).tolist(), "b": stage[2]})
            elif op == "bucket":
                out.append({"op": "bucket", "delta": stage[1], "values": np.asarray(stage[2]).tolist()})
            elif op == "isotonic":
                out.append(
                    {
                        "op": "isotonic",
                        "thresholds": np.asarray(stage[1]).tolist(),
                        "values": np.asarray(stage[2]).tolist(),
                    }
                )
        return {"kind": self.kind, "stages": out}

    @classmethod
    def from_dict(cls, d: Mapping, hclass: HypothesisClass | None = None) -> "PipelinePredictor":
        stages: list[tuple] = []
        for s in d["stages"]:
            op = s["op"]
            if op == "const":
                stages.append(("const", float(s["value"])))
            elif op == "base":
                stages.append(("base", predictor_from_dict(s["base"], hclass)))
            elif op == "add_hyp":
                if hclass is None:
                    raise ValueError("hypothesis class required to rebuild add_hyp stages")
                stages.append(("add_hyp", hclass.member(s["tag"]), float(s["coef"])))
            elif op == "add_linear":
                stages.append(("add_linear", np.asarray(s["w"], dtype=np.float64), float(s["b"])))
            elif op == "bucket":
                stages.append(("bucket", float(s["delta"]), np.asarray(s["values"], dtype=np.float64)))
            elif op == "isotonic":
                stages.append(
                    (
                        "isotonic",
                        np.asarray(s["thresholds"], dtype=np.float64),
                        np.asarray(s["values"], dtype=np.float64),
                    )
                )
            else:
                raise ValueError(f"unknown stage op {op!r}")
        return cls(stages)


def predictor_from_dict(d: Mapping, hclass: HypothesisClass | None = None) -> Predictor:
    """Rebuild a serialized predictor; pipelines and GLM fits may reference class members."""
    kind = d["kind"]
    if kind == "constant":
        return ConstantPredictor(float(d["value"]))
    if kind == "table":
        return TablePredictor(np.asarray(d["points"]), np.asarray(d["values"]))
    if kind == "pipeline":
        return PipelinePredictor.from_dict(d, hclass)
    if kind == "bucket_recal":
        return BucketRecalPredictor(
            predictor_from_dict(d["base"], hclass),
            float(d["delta"]),
            np.asarray(d["bucket_values"], dtype=np.float64),
        )
    if kind == "glm_linear":
        if hclass is None:
            raise ValueError("hypothesis class required to rebuild a glm_linear predictor")
        from .losses import get_loss  # multiaccuracy imports core: import on demand
        from .multiaccuracy import GlmLinearPredictor
        return GlmLinearPredictor(get_loss(f"glm:{d['transfer']}"), hclass, dict(d["weights"]))
    raise ValueError(f"cannot rebuild predictor kind {kind!r}")


def clip(score: Hypothesis | Callable[[np.ndarray], np.ndarray]) -> Predictor:
    """Truncate a real-valued score into [0, 1]; never increases the squared
    distance to any [0, 1]-valued target."""
    fn = score.values if isinstance(score, Hypothesis) else score
    name = getattr(score, "tag", "score")
    return FunctionPredictor(lambda X: clip01(np.asarray(fn(X), dtype=np.float64)), name=f"clip({name})")


def distance(p1: Predictor, p2: Predictor, engine: ExpectationEngine, norm: str = "l2") -> float:
    """l1 / l2 / linf distance between predictors over the supported points."""
    d = p1.values(engine.X) - p2.values(engine.X)
    if norm == "l1":
        return engine.expect(np.abs(d))
    if norm == "l2":
        return math.sqrt(max(engine.expect(d * d), 0.0))
    if norm == "linf":
        return float(np.max(np.abs(d)))
    raise ValueError(f"unknown norm {norm!r}")
