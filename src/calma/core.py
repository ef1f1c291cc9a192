"""Data model shared by training and auditing: distributions, datasets,
predictors, hypothesis classes and the expectation engine.

Two evaluation modes sit behind one engine.  Exact mode works on a finite
distribution whose conditional label probabilities are known, so every
expectation is a closed-form weighted sum.  Empirical mode works on a labeled
sample: a full dataset, or a batch of fresh draws from a sampler.  Labels
simulated from a predictor are never sampled: every gap against them is the
residual correlation ``E[(p - y*) g(x)]``.

All containers are immutable after construction (arrays are marked read-only)
and safe to share across threads; their two caches change no result.  An
engine's member cache holds one read-only matrix per member sequence or cell
index per class, shared by the engines one sampler draws: racing first calls
may each build it, and all of them get the one stored first.  A pipeline's one
slot holds the output of a prefix of its stages on one read-only array of
rows.  It is a tuple swapped in a single assignment, so racing evaluations
each read a whole slot, old or new.  ``Predictor.values`` may return a
read-only array.  Every expectation and residual correlation reduces through
``correlate``, a BLAS dot or matrix-vector product, or through ``np.bincount``
in row order: repeated calls with the same shapes, numpy/BLAS build and BLAS
thread count give bit-identical results, which are not exactly rounded.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .losses import GlmLoss, get_loss

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
    "GlmLinearPredictor",
    "PipelinePredictor",
    "STAGES",
    "BaseStage",
    "AddHypStage",
    "AddLinearStage",
    "BucketStage",
    "IsotonicStage",
    "predictor_from_dict",
    "bayes_predictor",
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
_CSV_BLOCK = 128  # rows per write in save_dataset
_LEVEL_CAP = 64  # distinct values a level_class member may take on the support
_DENSE_MAX = 2**18  # member-matrix entries (2 MB) up to which an interval class correlates through its matrix


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
    """C-contiguous n x k matrix whose column j is ``fns[j].values(arg)``,
    written by the class's ``fill``; a plain sequence is wrapped in a class."""
    X = np.atleast_2d(np.asarray(arg, dtype=np.float64))
    h = _as_class(fns)
    out = np.empty((len(X), len(h)))
    h.fill(X, out)
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

    def to_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "mass": self.mass.tolist(),
            "bayes": self.bayes.tolist(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FiniteDistribution":
        if not isinstance(d, Mapping):
            raise ValueError(f"a distribution must be an object, not {reprlib.repr(d)}")
        if missing := [k for k in ("points", "mass", "bayes") if k not in d]:
            raise ValueError(f"a distribution needs 'points', 'mass' and 'bayes'; missing: {', '.join(missing)}")
        return cls(_numbers(d, "points", "", ndim=2), _numbers(d, "mass", ""), _numbers(d, "bayes", ""))


@dataclass(frozen=True)
class Dataset:
    """Labeled sample with binary labels."""

    X: np.ndarray
    y: np.ndarray

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
    """Write the header ``f0,...,f{d-1},y`` and one line per row: ``repr`` of
    each feature, then the integer label, CRLF-terminated (the bytes
    ``csv.writer`` writes).  Rows are formatted ``_CSV_BLOCK`` at a time, so
    the text held in memory does not grow with the number of rows.

    Then write the companion ``<path>.npz``, a cache that ``load_dataset``
    reads instead of parsing the text: ``digest``, the sha256 of the CSV bytes
    (hashed as they are written), and ``rows``, the n x (d+1) float64 array
    that parsing those bytes yields (the label column is the written integer
    label).  It is written to a temporary file and moved into place after the
    CSV.  Deleting it costs only load speed."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def write(text: str) -> None:
            block = text.encode("ascii")
            digest.update(block)
            fh.write(block)

        write(",".join([f"f{j}" for j in range(data.dim)] + ["y"]) + "\r\n")
        for s in range(0, data.n, _CSV_BLOCK):
            rows = zip(data.X[s : s + _CSV_BLOCK].tolist(), data.y[s : s + _CSV_BLOCK].tolist())
            write("".join(f"{','.join(map(repr, x))},{int(y)}\r\n" for x, y in rows))
    companion = path + ".npz"
    tmp = f"{companion}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            labels = (data.y == 1).astype(np.float64)  # the written integer label: a -0.0 label parses to +0.0
            np.savez(fh, digest=np.frombuffer(digest.digest(), np.uint8), rows=np.column_stack([data.X, labels]))
        os.replace(tmp, companion)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _companion_rows(path: str) -> np.ndarray | None:
    """The ``rows`` of ``<path>.npz`` if its ``digest`` is the sha256 of the
    file at ``path``; ``None`` when there is no companion, or it is stale,
    foreign or unreadable."""
    import hashlib

    try:
        with np.load(path + ".npz", allow_pickle=False) as z:
            with open(path, "rb") as fh:
                if z["digest"].tobytes() != hashlib.sha256(fh.read()).digest():
                    return None
            rows = z["rows"]
    except Exception:  # np.load of a damaged file raises many types (BadZipFile, KeyError, EOFError, ...)
        return None
    return rows if rows.dtype == np.float64 and rows.ndim == 2 else None


def load_dataset(path: str) -> Dataset:
    """Read a CSV with header ``f0,...,f{d-1},y``.  When the file has a
    ``save_dataset`` companion ``<path>.npz`` whose digest is the sha256 of
    the file's bytes, its ``rows`` are taken instead of parsing the text; in
    every other case (no companion, a stale, foreign or unreadable one) the
    text is parsed.  The result is bit for bit the same either way, the
    ``Dataset`` checks run on both paths, and no file is written."""
    arr = _companion_rows(path)
    if arr is None:
        with open(path) as fh:
            if fh.readline().rstrip("\r\n").split(",")[-1] != "y":
                raise ValueError("expected CSV header f0,...,f{d-1},y")
            body = fh.tell()
            if not any(line.partition("#")[0].strip() for line in iter(fh.readline, "")):
                raise ValueError("dataset must be nonempty")  # np.loadtxt would warn first
            fh.seek(body)
            arr = np.loadtxt(fh, delimiter=",", ndmin=2)
    return Dataset(arr[:, :-1], arr[:, -1])


# ---------------------------------------------------------------------------
# Expectation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationEngine:
    """Uniform access to expectations over (x, y*).

    ``ystar`` holds the conditional label mean per supported point: the true
    probabilities in exact mode, the observed 0/1 labels of a dataset, and
    the drawn label means of a ``DistributionSampler`` draw.
    Both cases make ``E[g(x, y)] = E[ystar * g(x,1) + (1 - ystar) * g(x,0)]``.

    Its member cache is keyed by the members, the tuple of their ids: a class,
    its ``members`` tuple and a list of the same hypotheses read one entry,
    which holds them for the engine's life.  Member correlations go through
    ``correlations``, which asks the class how to compute them.
    """

    X: np.ndarray
    weights: np.ndarray
    ystar: np.ndarray
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def exact(cls, dist: FiniteDistribution) -> "ExpectationEngine":
        return cls(dist.points, dist.mass, dist.bayes)

    @classmethod
    def empirical(cls, data: Dataset) -> "ExpectationEngine":
        w = np.full(data.n, 1.0 / data.n)
        w.flags.writeable = False
        return cls(data.X, w, data.y)

    def reweighted(self, weights: np.ndarray, ystar: np.ndarray) -> "ExpectationEngine":
        """An engine over the same rows that shares this one's member cache,
        which depends on the rows alone."""
        engine = ExpectationEngine(self.X, weights, ystar)
        object.__setattr__(engine, "_members", self._members)
        return engine

    def member_matrix(self, hypotheses: "HypothesisClass | Iterable[Hypothesis]") -> np.ndarray:
        """Read-only, C-contiguous n x k matrix of a class's or any sequence's k
        hypotheses on ``X``, cached by the tuple of their ids and built on the
        first call by ``value_matrix`` through the class's ``fill``."""
        h = _as_class(hypotheses)
        hit = self._members.get(h._key)  # the hit inline: weak-learner queries on small engines call this most
        return self._cached(h._key, h.members, lambda X: value_matrix(h, X)) if hit is None else hit[1]

    def correlations(self, hclass: "HypothesisClass | Iterable[Hypothesis]", v: np.ndarray) -> np.ndarray:
        """``v @ member_matrix(hclass)``, as the class's ``correlations`` computes it."""
        return _as_class(hclass).correlations(self, v)

    def _cached(self, key, holder, build: Callable) -> np.ndarray:
        hit = self._members.get(key)
        if hit is None:
            value = build(self.X)
            value.flags.writeable = False
            # holding what the key's ids name keeps them unique; setdefault hands racing first calls one array
            hit = self._members.setdefault(key, (holder, value))
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

    def map(self, f: Callable[[np.ndarray], np.ndarray], range_bound: float, tag: str) -> "Hypothesis":
        """The member x -> f(h(x)), ``f`` elementwise with |f| <= ``range_bound`` on
        this member's values.  Negations and derived-class members are maps."""
        fn = self.fn
        return Hypothesis(lambda X: f(np.asarray(fn(X), dtype=np.float64)), range_bound, tag)

    def neg(self) -> "Hypothesis":
        return self.map(np.negative, self.range_bound, self.tag[1:] if self.tag.startswith("-") else "-" + self.tag)


def constant_one() -> Hypothesis:
    return Hypothesis(lambda X: np.ones(len(np.atleast_2d(X))), 1.0, "1")


@dataclass(frozen=True)
class HypothesisClass:
    """Members in a fixed order, and ``_key``, the tuple of their ids, computed
    once: the key of an engine's member cache.  ``fill`` writes the member
    matrix one member at a time, for every class; ``correlations`` correlates
    the members with a vector, and only ``interval_class`` overrides it.  Each
    member of a derived class, and each negation, is ``Hypothesis.map`` of a
    base member."""

    members: tuple
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", tuple(map(id, self.members)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def member(self, tag: str) -> Hypothesis:
        for m in self.members:
            if m.tag == tag:
                return m
        raise KeyError(tag)

    @property
    def max_bound(self) -> float:
        return max((m.range_bound for m in self.members), default=0.0)

    def fill(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write member j's values on the rows ``X`` into column j of ``out``."""
        for j, h in enumerate(self.members):
            out[:, j] = h.values(X)

    def correlations(self, engine: ExpectationEngine, v: np.ndarray) -> np.ndarray:
        """``v @`` the members' matrix on the engine's rows, from its cache."""
        return v @ engine.member_matrix(self)


def _as_class(hypotheses: HypothesisClass | Iterable[Hypothesis]) -> HypothesisClass:
    return hypotheses if isinstance(hypotheses, HypothesisClass) else HypothesisClass(tuple(hypotheses))


def make_class(members: Iterable[Hypothesis]) -> HypothesisClass:
    """``members``, the constant 1, then the negation of each, which the
    multiaccuracy guarantee needs; a member whose tag is taken is dropped.
    ``HypothesisClass`` takes members as given."""
    closed: dict[str, Hypothesis] = {}
    for h in [*members, constant_one()]:
        closed.setdefault(h.tag, h)
    for h in [m.neg() for m in closed.values()]:
        closed.setdefault(h.tag, h)
    return HypothesisClass(tuple(closed.values()))


def coordinate_class(dim: int, scales: Sequence[float] | None = None) -> HypothesisClass:
    """Coordinate projections x_j / scale_j, bounded by 1 on the scaled domain."""
    divisors = np.ones(dim) if scales is None else np.array(scales, dtype=np.float64)
    if divisors.shape != (dim,) or not np.all(np.isfinite(divisors) & (divisors > 0)):
        raise ValueError(f"scales must be {dim} finite, positive numbers")
    return make_class(Hypothesis(lambda X, j=j, s=float(s): np.atleast_2d(X)[:, j] / s, 1.0, f"x{j}")
                      for j, s in enumerate(divisors))


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
    return Hypothesis(fn, budget * cls.max_bound if weights else 0.0, tag)  # no weights: the zero hypothesis


def _derived_class(cls: HypothesisClass, derive: Callable[[Hypothesis], Iterable[Hypothesis]]) -> HypothesisClass:
    """``make_class`` over ``derive(m)`` for each member ``m`` of ``cls``, in order,
    except negations: the closure adds the negations of what their base derives."""
    return make_class(h for m in cls.members if not m.tag.startswith("-") for h in derive(m))


def level_class(cls: HypothesisClass, points: np.ndarray) -> HypothesisClass:
    """Indicator basis for all bounded post-processings of each member.

    Members must be discrete-valued on the supported points: at most 64
    (``_LEVEL_CAP``) distinct values each.  Any f with |f| <= 1 composed with
    c expands as sum_v f(v) * 1{c(x) = v} over the observed values, so
    multiaccuracy over this basis controls the multiaccuracy error of every
    post-processing.
    """

    def levels(m: Hypothesis) -> list[Hypothesis]:
        vals = np.unique(m.values(points))
        if len(vals) > _LEVEL_CAP:
            raise NonFiniteRangeError(f"{m.tag} takes {len(vals)} distinct values on the support (cap {_LEVEL_CAP})")
        return [m.map(lambda u, v=v: (np.abs(u - v) <= 1e-12).astype(float), 1.0, f"lev({m.tag}={v:.12g})")
                for v in vals]

    return _derived_class(cls, levels)


@dataclass(frozen=True)
class _Intervals(HypothesisClass):
    """Interval indicators in the order of their base: ``ncells`` per base member, the constant, then
    the negations.  ``index(X)`` has one row per base member: the cell of each row of ``X``."""

    index: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    ncells: int = field(repr=False, compare=False)

    def correlations(self, engine: ExpectationEngine, v: np.ndarray) -> np.ndarray:
        """Up to ``_DENSE_MAX`` entries as any class; past it the sums of ``v`` per cell, in row order."""
        if len(engine.X) * len(self.members) <= _DENSE_MAX:
            return super().correlations(engine, v)
        index = engine._cached((id(self), "cells"), self, self.index)
        k = len(index) * self.ncells
        out = np.empty(len(self))
        for j, cells_j in enumerate(index):  # row j: the cells of base member j
            out[j * self.ncells : (j + 1) * self.ncells] = np.bincount(cells_j, weights=v, minlength=self.ncells)
        # the constant sums v in row order, as does the cell that holds every row of a member
        out[k] = np.cumsum(v)[-1]
        np.negative(out[: k + 1], out=out[k + 1 :])
        return out


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
    ncells = int(math.ceil(2.0 / delta - 1e-9))
    cells = [f"[{lo:.6g},{min(lo + delta, 1.0):.6g})" for lo in (-1.0 + j * delta for j in range(ncells))]

    def cell_of(values: np.ndarray) -> np.ndarray:
        idx = np.floor((values + 1.0) / delta).astype(int)
        return np.clip(idx, 0, ncells - 1)

    hclass = _derived_class(cls, lambda h: [
        h.map(lambda u, j=j: (cell_of(u) == j).astype(float), 1.0, f"int({h.tag},{cell})")
        for j, cell in enumerate(cells)
    ])
    base = [m for m in cls.members if not m.tag.startswith("-")]
    if len(hclass) < 2 * (len(base) * ncells + 1):  # a tag was dropped: the columns no longer follow the base block
        return hclass

    def index(X: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(cell_of(value_matrix(base, X)).T)

    return _Intervals(hclass.members, index, ncells)


def power_class(cls: HypothesisClass, d: int) -> HypothesisClass:
    """Coordinate powers c(x)^j for j = 1..d with range bounds B^j."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _derived_class(cls, lambda h: [
        h.map(lambda u, j=j: u**j, h.range_bound**j, f"pow({h.tag},{j})") for j in range(1, d + 1)
    ])


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


class Predictor:
    """Function from points to [0, 1]; subclasses carry the representation."""

    kind = "abstract"

    def values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
    """A real-valued function of the rows, clipped into [0, 1].  Clipping never
    increases the squared distance to any [0, 1]-valued target."""

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
        if not np.all(np.isfinite(pts)):
            raise ValueError("table points must be finite")
        vals = _unit_interval(table_values, "table values")
        if not 0 < len(pts) == len(vals):
            raise ValueError("points and values must be nonempty and of equal length")
        self._points = pts
        self._values = clip01(vals)
        keys = _row_keys(pts + 0.0)  # -0.0 + 0.0 is +0.0: both zeros are one point
        order = np.argsort(keys, kind="stable")
        last = np.append(keys[order[1:]] != keys[order[:-1]], True)  # last of each run of equal rows
        self._keys = keys[order[last]]
        self._key_values = self._values[order[last]]

    def values(self, X):
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self._points.shape[1]:
            raise ValueError("point outside the table predictor's domain")
        keys = _row_keys(X + 0.0)
        idx = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not np.all(self._keys[idx] == keys):
            raise ValueError("point outside the table predictor's domain")
        return self._key_values[idx]

    def to_dict(self):
        return {"kind": self.kind, "points": self._points.tolist(), "values": self._values.tolist()}


@dataclass(frozen=True)
class GlmLinearPredictor(Predictor):
    """The transfer ``glm.gprime`` of the score sum_tag weights[tag] * h_tag(x)
    over members of ``hclass``, clipped into [0, 1]: the predictor
    ``l1_glm_fit`` returns.  Serialized by transfer name and member weights."""

    glm: GlmLoss
    hclass: HypothesisClass
    weights: dict
    kind = "glm_linear"

    def values(self, X):
        score = lin_combination(self.hclass, self.weights, math.inf)  # a fit's weights carry no l1 budget
        return clip01(np.asarray(self.glm.gprime(score.values(X)), dtype=np.float64))

    def to_dict(self):
        return {"kind": self.kind, "transfer": self.glm.transfer_name, "weights": dict(self.weights)}


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
    ones.  Validated when built; fields serialize under their own names, and an
    update stage's ``from_dict(d, hclass, where)`` rebuilds it from ``to_dict``'s
    output, naming a malformed field after the prefix ``where``."""

    op: ClassVar[str]

    def to_dict(self) -> dict:
        return {"op": self.op, **{f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}}


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
    def from_dict(cls, d, hclass, where=""):
        if hclass is None:
            raise ValueError("hypothesis class required to rebuild add_hyp stages")
        tag = _field(d, "tag", where)
        try:
            hypothesis = hclass.member(tag)
        except KeyError:
            raise ValueError(f"{where}tag {tag!r} names no member of the class") from None
        return cls(hypothesis, _number(d, "coef", where))


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
        if X.shape[1] != len(self.w):
            raise ValueError(f"add_linear w has {len(self.w)} entries but the data has {X.shape[1]} columns")
        return clip01(p + X @ self.w + self.b)

    @classmethod
    def from_dict(cls, d, hclass, where=""):
        return cls(_numbers(d, "w", where), _number(d, "b", where))


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

    def to_dict(self):
        """Sparse: the buckets (ascending) whose value is not the midpoint (2j+1)delta."""
        moved = np.flatnonzero(self.values != bucket_midpoints(self.delta))
        return {"op": self.op, "delta": float(self.delta), "buckets": moved.tolist(),
                "values": self.values[moved].tolist()}

    @classmethod
    def from_dict(cls, d, hclass, where=""):
        delta = _number(d, "delta", where)
        if "buckets" not in d:  # the dense form older versions wrote
            return cls(delta, _numbers(d, "values", where))
        if not 0 < delta <= 0.5:
            raise ValueError("need 0 < delta <= 1/2")
        idx, moved = np.asarray(d["buckets"]), _numbers(d, "values", where)
        values = bucket_midpoints(delta)
        if not (idx.ndim == 1 and len(idx) == len(moved)
                and (idx.size == 0 or idx.dtype.kind in "iu" and np.all(np.diff(idx) > 0)
                     and 0 <= idx[0] and idx[-1] < len(values))):
            raise ValueError("bucket indices must be strictly increasing integers in "
                             "[0, n_buckets), one per listed value")
        values[idx.astype(np.intp)] = moved
        return cls(delta, values)


@dataclass(frozen=True)
class IsotonicStage(_Stage):
    """p <- fitted[j] for the last threshold j <= p (j = 0 below all): a step function.

    An isotonic fit repeats each fitted value over a run of thresholds, so
    ``values`` searches only the thresholds where the fitted value changes
    (kept privately; ``thresholds``, ``fitted`` and ``to_dict`` hold every
    threshold).  The last such threshold <= p starts the run that holds the
    last threshold <= p, so the lookup gives the same value for every p,
    NaN and +-inf included.
    """

    thresholds: np.ndarray
    fitted: np.ndarray
    op: ClassVar[str] = "isotonic"
    _steps: np.ndarray = field(init=False, repr=False, compare=False)
    _step_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _freeze(np.ravel(self.thresholds)))
        object.__setattr__(self, "fitted", _unit_interval(self.fitted, "isotonic values"))
        if not 0 < len(self.thresholds) == len(self.fitted):
            raise ValueError("isotonic thresholds and values must be nonempty and equally long")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError("isotonic thresholds must be finite")
        if not np.all(np.diff(self.thresholds) >= 0):
            raise ValueError("isotonic thresholds must be sorted ascending")
        bits = self.fitted.view(np.uint64)  # a run ends where the bits change, so -0.0 and 0.0 stay apart
        starts = np.flatnonzero(np.append(True, bits[1:] != bits[:-1]))
        object.__setattr__(self, "_steps", self.thresholds[starts])
        object.__setattr__(self, "_step_values", self.fitted[starts])

    def values(self, v: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._steps, v, side="right") - 1
        return self._step_values[np.maximum(idx, 0)]

    def apply(self, X, p):
        return self.values(p)

    def to_dict(self):
        return {"op": self.op, "thresholds": self.thresholds.tolist(), "values": self.fitted.tolist()}

    @classmethod
    def from_dict(cls, d, hclass, where=""):
        return cls(_numbers(d, "thresholds", where), _numbers(d, "values", where))


STAGES = {s.op: s for s in (BaseStage, AddHypStage, AddLinearStage, BucketStage, IsotonicStage)}


class PipelinePredictor(Predictor):
    """A trained predictor as one flat stage list: a base stage, then updates
    applied in order.  Trainers append stages; none holds a pipeline.

    One slot ``(X, k, values)`` holds the read-only output of the first ``k``
    stages on the rows ``X``.  ``values(X)`` starts from it when ``X`` is that
    very array and applies only the later stages.  The slot is filled only
    while it is empty or holds those rows, and only for an ``X`` that is
    read-only and owns its data, as engines' arrays are; ``extended`` hands
    it to the longer pipeline.
    """

    kind = "pipeline"

    def __init__(self, stages: Sequence):
        stages = tuple(stages)
        if not (stages and isinstance(stages[0], BaseStage)
                and all(isinstance(s, _Stage) and not isinstance(s, BaseStage) for s in stages[1:])):
            raise ValueError("pipeline must be one 'base' stage followed by update stages")
        self.stages = stages
        self._slot = None

    @staticmethod
    def of(pred: Predictor) -> "PipelinePredictor":
        """``pred`` itself if it is a pipeline, else a pipeline starting from it."""
        return pred if isinstance(pred, PipelinePredictor) else PipelinePredictor((BaseStage(pred),))

    def extended(self, stage) -> "PipelinePredictor":
        child = PipelinePredictor(self.stages + (stage,))
        child._slot = self._slot
        return child

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        slot, frozen = self._slot, not X.flags.writeable and X.base is None
        k, p = slot[1:] if frozen and slot is not None and slot[0] is X else (0, None)
        for stage in self.stages[k:]:
            p = stage.apply(X, p)
        if frozen and k < len(self.stages) and (slot is None or slot[0] is X):
            p.flags.writeable = False
            self._slot = (X, len(self.stages), p)
        return p

    def to_dict(self):
        return {"kind": self.kind, "stages": [s.to_dict() for s in self.stages]}


class BucketRecalPredictor:
    """Built by nothing in calma: perfbench's tracer wraps it by name until ROADMAP item 1A."""

    def values(self, X):
        return PipelinePredictor.values(self, X)


def _field(d: Mapping, key: str, where: str):
    """``d[key]``; a missing entry raises a ``ValueError`` naming ``where + key``."""
    if key not in d:
        raise ValueError(f"{where}{key} is missing")
    return d[key]


def _number(d: Mapping, key: str, where: str) -> float:
    """``d[key]`` as a float; a missing or non-numeric entry raises a ``ValueError`` naming ``where + key``."""
    try:
        return float(d[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{where}{key} must be a number, not {d.get(key)!r}") from None


def _numbers(d: Mapping, key: str, where: str, ndim: int = 1) -> np.ndarray:
    """``d[key]`` as an ``ndim``-D float array; a missing entry or one that is not an
    ``ndim``-D list of numbers raises a ``ValueError`` naming ``where + key``."""
    value = _field(d, key, where)
    try:
        arr = np.asarray(value) if isinstance(value, (list, tuple, np.ndarray)) else None
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf":
        shape = "" if ndim == 1 else f"{ndim}-D "
        raise ValueError(f"{where}{key} must be a {shape}list of numbers, not {reprlib.repr(value)}")
    return arr.astype(np.float64)


def predictor_from_dict(d: Mapping, hclass: HypothesisClass | None = None, where: str = "") -> Predictor:
    """Rebuild a serialized predictor; pipelines and GLM fits may reference class members.
    Older nested models (``bucket_recal``, base stages holding pipelines) load flat, and
    an older ``const`` start stage loads as a base stage holding a constant predictor.
    A malformed field raises a ``ValueError`` naming it, as in ``stages[1].coef``,
    after the prefix ``where`` (the place of ``d`` in a larger object)."""
    if not (isinstance(d, Mapping) and "kind" in d):
        raise ValueError(f"{where[:-1] or 'a predictor'} must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "constant":
        return ConstantPredictor(_number(d, "value", where))
    if kind == "table":
        return TablePredictor(_numbers(d, "points", where, ndim=2), _numbers(d, "values", where))
    if kind == "pipeline":
        if not isinstance(d.get("stages"), list):
            raise ValueError(f"{where[:-1] or 'a pipeline predictor'} needs a list of 'stages'")
        stages = []
        for pos, s in enumerate(d["stages"]):
            at = f"{where}stages[{pos}]."
            if not (isinstance(s, Mapping) and "op" in s):
                raise ValueError(f"{at[:-1]} must be an object with an 'op'")
            if s["op"] == "const":
                stages.append(BaseStage(ConstantPredictor(_number(s, "value", at))))
            elif s["op"] == "base":
                stages += PipelinePredictor.of(predictor_from_dict(s.get("base"), hclass, at + "base.")).stages
            elif isinstance(s["op"], str) and s["op"] in STAGES:
                stages.append(STAGES[s["op"]].from_dict(s, hclass, at))
            else:
                raise ValueError(f"{at}op {s['op']!r} names no stage")
        return PipelinePredictor(stages)
    if kind == "bucket_recal":
        base = PipelinePredictor.of(predictor_from_dict(d.get("base"), hclass, where + "base."))
        return base.extended(BucketStage(_number(d, "delta", where), _numbers(d, "bucket_values", where)))
    if kind == "glm_linear":
        if hclass is None:
            raise ValueError("hypothesis class required to rebuild a glm_linear predictor")
        glm = get_loss(f"glm:{_field(d, 'transfer', where)}")
        weights = _field(d, "weights", where)
        if not isinstance(weights, Mapping):
            raise ValueError(f"{where}weights must be an object of member weights, not {reprlib.repr(weights)}")
        tags = {m.tag for m in hclass}
        for tag in weights:
            if tag not in tags:
                raise ValueError(f"{where}weights.{tag} names no member of the class")
        return GlmLinearPredictor(glm, hclass, {tag: _number(weights, tag, f"{where}weights.") for tag in weights})
    raise ValueError(f"cannot rebuild predictor kind {kind!r}")


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
