"""Data model shared by training and auditing: distributions, datasets,
predictors, hypothesis classes and the expectation engine.

Two evaluation modes sit behind one engine.  Exact mode works on a finite
distribution whose conditional label probabilities are known, so every
expectation is a closed-form weighted sum.  Empirical mode works on a labeled
sample: a full dataset, or a batch of fresh draws from a sampler.  Labels
simulated from a predictor are never sampled: every gap against them is the
residual correlation ``E[(p - y*) g(x)]``.

All containers are immutable after construction (arrays are marked read-only)
and safe to share across threads.  An engine's one cache, the member matrix of
each hypothesis class, holds one read-only array per class: racing first calls
may each build it, and all of them get the one stored first.  Every
expectation and residual correlation reduces through ``correlate``, a BLAS dot
or matrix-vector product: repeated calls with the same shapes, numpy/BLAS build
and BLAS thread count give bit-identical results, which are not exactly
rounded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

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
    "STAGES",
    "ConstStage",
    "BaseStage",
    "AddHypStage",
    "AddLinearStage",
    "BucketStage",
    "IsotonicStage",
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


def _unit_interval(values, what: str) -> np.ndarray:
    vals = _freeze(np.ravel(values))
    if not np.all((vals >= -1e-12) & (vals <= 1 + 1e-12)):
        raise ValueError(f"{what} must lie in [0, 1]")
    return vals


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
    with open(path) as fh:
        if fh.readline().rstrip("\r\n").split(",")[-1] != "y":
            raise ValueError("expected CSV header f0,...,f{d-1},y")
        arr = np.loadtxt(fh, delimiter=",", ndmin=2)
    return Dataset(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# Expectation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationEngine:
    """Uniform access to expectations over (x, y*).

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
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def exact(cls, dist: FiniteDistribution) -> "ExpectationEngine":
        return cls("exact", dist.points, dist.mass, dist.bayes, dist=dist)

    @classmethod
    def empirical(cls, data: Dataset) -> "ExpectationEngine":
        w = np.full(data.n, 1.0 / data.n)
        w.flags.writeable = False
        return cls("empirical", data.X, w, data.y, data=data)

    def member_matrix(self, hclass: "HypothesisClass") -> np.ndarray:
        """Read-only n x |C| matrix of every member of ``hclass`` on ``X``,
        built on the first call for that class and reused after."""
        hit = self._members.get(id(hclass))
        if hit is None:
            matrix = value_matrix(hclass, self.X)
            matrix.flags.writeable = False
            # holding the class keeps its id unique; setdefault hands racing first calls one array
            hit = self._members.setdefault(id(hclass), (hclass, matrix))
        return hit[1]

    def expect(self, values: np.ndarray) -> float:
        """E over x of a per-point quantity."""
        return float(correlate(self.weights, 1.0, values))


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


def _row_keys(X: np.ndarray) -> np.ndarray:
    """One opaque key per row of a C-contiguous float matrix: equal iff the rows' bytes are."""
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()


class TablePredictor(Predictor):
    """Lookup table over an explicit finite domain; a repeated point keeps its
    last value."""

    kind = "table"

    def __init__(self, points: np.ndarray, table_values: np.ndarray):
        pts = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        vals = _unit_interval(table_values, "table values")
        if not 0 < len(pts) == len(vals):
            raise ValueError("points and values must be nonempty and of equal length")
        self._points = pts
        self._values = clip01(vals)
        keys = _row_keys(pts)
        order = np.argsort(keys, kind="stable")
        last = np.append(keys[order[1:]] != keys[order[:-1]], True)  # last of each run of equal rows
        self._keys = keys[order[last]]
        self._key_values = self._values[order[last]]

    def values(self, X):
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self._points.shape[1]:
            raise ValueError("point outside the table predictor's domain")
        keys = _row_keys(X)
        idx = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not np.all(self._keys[idx] == keys):
            raise ValueError("point outside the table predictor's domain")
        return self._key_values[idx]

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
class _Stage:
    """One pipeline step: ``apply(X, p)`` maps points and current predictions to new
    ones.  Validated when built; fields serialize under their own names."""

    op: ClassVar[str]

    def to_dict(self) -> dict:
        return {"op": self.op, **{f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}}

    @classmethod
    def from_dict(cls, d: Mapping, hclass: HypothesisClass | None) -> "_Stage":
        return cls(**{k: v for k, v in d.items() if k != "op"})


@dataclass(frozen=True)
class ConstStage(_Stage):
    """Start from the constant ``value``."""

    value: float
    op: ClassVar[str] = "const"

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("const stage value must lie in [0, 1]")

    def apply(self, X, p):
        return np.full(len(X), float(self.value))


@dataclass(frozen=True)
class BaseStage(_Stage):
    """Start from a leaf predictor: constant, table, function or GLM."""

    base: Predictor
    op: ClassVar[str] = "base"

    def __post_init__(self):
        if not isinstance(self.base, Predictor) or isinstance(self.base, PipelinePredictor):
            raise ValueError("a base stage holds a leaf predictor; extend the pipeline instead")

    def apply(self, X, p):
        return self.base.values(X)

    def to_dict(self):
        return {"op": self.op, "base": self.base.to_dict()}


@dataclass(frozen=True)
class AddHypStage(_Stage):
    """p <- clip01(p + coef * h(x)); serialized by the member's tag."""

    hypothesis: Hypothesis
    coef: float
    op: ClassVar[str] = "add_hyp"

    def __post_init__(self):
        if not math.isfinite(self.coef):
            raise ValueError("add_hyp coefficient must be finite")

    def apply(self, X, p):
        return clip01(p + self.coef * self.hypothesis.values(X))

    def to_dict(self):
        return {"op": self.op, "tag": self.hypothesis.tag, "coef": self.coef}

    @classmethod
    def from_dict(cls, d, hclass):
        if hclass is None:
            raise ValueError("hypothesis class required to rebuild add_hyp stages")
        return cls(hclass.member(d["tag"]), d["coef"])


@dataclass(frozen=True)
class AddLinearStage(_Stage):
    """p <- clip01(p + x.w + b)."""

    w: np.ndarray
    b: float
    op: ClassVar[str] = "add_linear"

    def __post_init__(self):
        object.__setattr__(self, "w", _freeze(np.ravel(self.w)))
        if not (np.all(np.isfinite(self.w)) and math.isfinite(self.b)):
            raise ValueError("add_linear coefficients must be finite")

    def apply(self, X, p):
        return clip01(p + X @ self.w + self.b)


@dataclass(frozen=True)
class BucketStage(_Stage):
    """p <- values[bucket_index(p, delta)]: one output value per bucket."""

    delta: float
    values: np.ndarray
    op: ClassVar[str] = "bucket"

    def __post_init__(self):
        object.__setattr__(self, "values", _unit_interval(self.values, "bucket values"))
        if not (0 < self.delta <= 0.5 and len(self.values) == n_buckets(self.delta)):
            raise ValueError("need 0 < delta <= 1/2 and one output value per bucket")

    def apply(self, X, p):
        return self.values[bucket_index(p, self.delta)]


@dataclass(frozen=True)
class IsotonicStage(_Stage):
    """p <- fitted[j] for the last threshold j <= p (j = 0 below all): a step function."""

    thresholds: np.ndarray
    fitted: np.ndarray
    op: ClassVar[str] = "isotonic"

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _freeze(np.ravel(self.thresholds)))
        object.__setattr__(self, "fitted", _unit_interval(self.fitted, "isotonic values"))
        if not 0 < len(self.thresholds) == len(self.fitted):
            raise ValueError("isotonic thresholds and values must be nonempty and equally long")
        if not np.all(np.diff(self.thresholds) >= 0):
            raise ValueError("isotonic thresholds must be sorted ascending")

    def values(self, v: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.thresholds, v, side="right") - 1
        return self.fitted[np.clip(idx, 0, len(self.fitted) - 1)]

    def apply(self, X, p):
        return self.values(p)

    def to_dict(self):
        return {"op": self.op, "thresholds": self.thresholds.tolist(), "values": self.fitted.tolist()}

    @classmethod
    def from_dict(cls, d, hclass):
        return cls(d["thresholds"], d["values"])


STAGES = {s.op: s for s in (ConstStage, BaseStage, AddHypStage, AddLinearStage, BucketStage, IsotonicStage)}
_START_STAGES = (ConstStage, BaseStage)


class PipelinePredictor(Predictor):
    """A trained predictor as one flat stage list: a const or base stage, then
    updates applied in order.  Trainers append stages; none holds a pipeline."""

    kind = "pipeline"

    def __init__(self, stages: Sequence):
        stages = tuple(stages)
        if not (stages and isinstance(stages[0], _START_STAGES)
                and all(isinstance(s, _Stage) and not isinstance(s, _START_STAGES) for s in stages[1:])):
            raise ValueError("pipeline must be one 'const' or 'base' stage followed by update stages")
        self.stages = stages

    @staticmethod
    def of(pred: Predictor) -> "PipelinePredictor":
        """``pred`` itself if it is a pipeline, else a pipeline starting from it."""
        return pred if isinstance(pred, PipelinePredictor) else PipelinePredictor((BaseStage(pred),))

    def extended(self, stage) -> "PipelinePredictor":
        return PipelinePredictor(self.stages + (stage,))

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        p = None
        for stage in self.stages:
            p = stage.apply(X, p)
        return p

    def to_dict(self):
        return {"kind": self.kind, "stages": [s.to_dict() for s in self.stages]}


class BucketRecalPredictor(PipelinePredictor):
    """``base``'s stages then one bucket stage: discretized or recalibrated output."""

    def __init__(self, base: Predictor, delta: float, bucket_values: np.ndarray):
        super().__init__(PipelinePredictor.of(base).stages + (BucketStage(delta, bucket_values),))

    def values(self, X):  # bound here so perfbench's tracer can wrap this class by name
        return super().values(X)

    delta = property(lambda self: self.stages[-1].delta)
    bucket_values = property(lambda self: self.stages[-1].values)

    @property
    def is_delta_discrete(self) -> bool:
        """True iff every output value is an odd multiple of delta."""
        ratio = self.bucket_values / self.delta
        return bool(np.all(np.abs(ratio - (2 * np.round((ratio - 1) / 2) + 1)) <= 1e-9))


def predictor_from_dict(d: Mapping, hclass: HypothesisClass | None = None) -> Predictor:
    """Rebuild a serialized predictor; pipelines and GLM fits may reference class members.
    Older nested models (``bucket_recal``, base stages holding pipelines) load flat."""
    kind = d["kind"]
    if kind == "constant":
        return ConstantPredictor(float(d["value"]))
    if kind == "table":
        return TablePredictor(np.asarray(d["points"]), np.asarray(d["values"]))
    if kind == "pipeline":
        stages = []
        for s in d["stages"]:
            if s["op"] == "base":
                stages += PipelinePredictor.of(predictor_from_dict(s["base"], hclass)).stages
            elif s["op"] in STAGES:
                stages.append(STAGES[s["op"]].from_dict(s, hclass))
            else:
                raise ValueError(f"unknown stage op {s['op']!r}")
        return PipelinePredictor(stages)
    if kind == "bucket_recal":
        return BucketRecalPredictor(predictor_from_dict(d["base"], hclass), float(d["delta"]), d["bucket_values"])
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
    return FunctionPredictor(fn, name=f"clip({getattr(score, 'tag', 'score')})")  # its values are clipped


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
