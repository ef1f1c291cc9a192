"""Data model: engines, derived hypothesis classes, predictors, distances."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calma import core
from calma.bench import MixtureConfig, gen_gaussian_mixture
from calma.calibration import recalibrate_with_engine
from calma.core import (
    AddHypStage,
    AddLinearStage,
    BaseStage,
    BucketStage,
    BudgetExceededError,
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    FunctionPredictor,
    Hypothesis,
    HypothesisClass,
    IsotonicStage,
    NonFiniteRangeError,
    PipelinePredictor,
    TablePredictor,
    bayes_predictor,
    bucket_index,
    bucket_midpoints,
    coordinate_class,
    correlate,
    distance,
    interval_class,
    level_class,
    lin_combination,
    load_dataset,
    load_distribution,
    make_class,
    n_buckets,
    power_class,
    predictor_from_dict,
    save_dataset,
    save_distribution,
    value_matrix,
)
from calma.losses import lp_loss
from calma.multiaccuracy import mae

from support import (
    is_delta_discrete,
    random_class,
    random_distribution,
    random_predictor,
    record_stage_applications,
    reference_interval_correlations,
    table_hypothesis,
)


class TestContainers:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.zeros((2, 1)), [0.5, 0.6], [0.5, 0.5])

    def test_bayes_range_checked(self):
        with pytest.raises(ValueError):
            FiniteDistribution(np.zeros((2, 1)), [0.5, 0.5], [0.5, 1.5])

    def test_labels_binary(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), [0.0, 0.5])

    @pytest.mark.parametrize("field", ["points", "mass", "bayes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_non_finite(self, field, bad):
        parts = {"points": np.zeros((2, 1)), "mass": np.array([0.5, 0.5]), "bayes": np.array([0.5, 0.5])}
        parts[field][0] = bad
        with pytest.raises(ValueError, match="finite"):
            FiniteDistribution(**parts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_features(self, bad):
        X = np.zeros((2, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(X, [0.0, 1.0])

    def test_immutable_arrays(self):
        dist = random_distribution(np.random.default_rng(0))
        with pytest.raises(ValueError):
            dist.mass[0] = 0.3


class TestExpectationEngine:
    def test_exact_indicator_expectations_match_hand_sums(self):
        rng = np.random.default_rng(1)
        dist = random_distribution(rng, n_points=7)
        engine = ExpectationEngine.exact(dist)
        ind = (dist.points[:, 0] > 0).astype(float)
        hand = math.fsum((dist.mass * ind).tolist())
        assert abs(engine.expect(ind) - hand) <= 1e-12
        # E[y * ind] = sum mass * bayes * ind
        hand_y = math.fsum((dist.mass * dist.bayes * ind).tolist())
        assert abs(engine.expect(engine.ystar * ind) - hand_y) <= 1e-12

    def test_empirical_matches_mean(self):
        data = Dataset(np.arange(6, dtype=float).reshape(-1, 1), [0, 1, 0, 1, 1, 1])
        engine = ExpectationEngine.empirical(data)
        assert engine.expect(np.ones(6)) == pytest.approx(1.0)
        assert engine.expect(engine.ystar) == pytest.approx(4 / 6)


class TestCorrelate:
    def test_deterministic_and_close_to_exact_rounding(self):
        # the kernel is a BLAS reduction: bit-identical on repeated calls
        # with one shape, and within 1e-12 of the exactly rounded fsum
        rng = np.random.default_rng(9)
        for _ in range(20):
            dist = random_distribution(rng, n_points=int(rng.integers(3, 40)))
            G = value_matrix(random_class(rng, dist, 4), dist.points)
            resid = random_predictor(rng, dist).values(dist.points) - dist.bayes
            first = correlate(dist.mass, resid, G)
            assert first.shape == (G.shape[1],)
            for _ in range(3):
                assert np.array_equal(correlate(dist.mass, resid, G), first)
            for j in range(G.shape[1]):
                exact = math.fsum((dist.mass * resid * G[:, j]).tolist())
                assert abs(first[j] - exact) <= 1e-12
                single = correlate(dist.mass, resid, G[:, j])
                assert single == correlate(dist.mass, resid, G[:, j])
                assert abs(single - exact) <= 1e-12

    def test_empty_member_list(self):
        X = np.zeros((3, 1))
        G = value_matrix([], X)
        assert G.shape == (3, 0)
        assert correlate(np.full(3, 1 / 3), np.ones(3), G).shape == (0,)


class TestLinCombination:
    def test_cancellation_gives_constant_zero(self):
        rng = np.random.default_rng(3)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=1)
        h = lin_combination(cls, {"h0": 0.5, "-h0": 0.5}, 1.0)
        np.testing.assert_allclose(h.values(dist.points), 0.0, atol=1e-15)

    def test_identity_weights(self):
        rng = np.random.default_rng(4)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=1)
        h = lin_combination(cls, {"h0": 1.0}, 1.0)
        np.testing.assert_allclose(h.values(dist.points), cls.member("h0").values(dist.points))
        assert np.max(np.abs(h.values(dist.points))) <= 1.0 + 1e-12

    def test_budget_enforced(self):
        rng = np.random.default_rng(5)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=2)
        with pytest.raises(BudgetExceededError):
            lin_combination(cls, {"h0": 0.8, "h1": 0.4}, 1.0)

    def test_linear_mae_bound(self):
        # combinations with L1 budget B inherit B times the base class error
        rng = np.random.default_rng(6)
        dist = random_distribution(rng, n_points=4)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, k=3)
        pred = random_predictor(rng, dist)
        alpha = mae(pred, cls, engine)
        resid = engine.ystar - pred.values(dist.points)
        B = 2.0
        for _ in range(50):
            raw = rng.uniform(-1, 1, size=3)
            raw = raw / np.sum(np.abs(raw)) * rng.uniform(0, B)
            h = lin_combination(cls, {f"h{i}": float(raw[i]) for i in range(3)}, B)
            corr = abs(engine.expect(h.values(dist.points) * resid))
            assert corr <= B * alpha + 1e-12


class TestLevelClass:
    def test_boolean_basis_spans_postprocessings(self):
        rng = np.random.default_rng(7)
        dist = random_distribution(rng, n_points=6)
        cls = random_class(rng, dist, k=1, values="boolean")
        basis = level_class(cls, dist.points)
        c = cls.member("h0")
        pos = [m for m in basis.members if m.tag.startswith("lev(h0")]
        assert len(pos) == 2
        f0, f1 = rng.uniform(-1, 1, 2)
        cv = c.values(dist.points)
        direct = np.where(cv == 1.0, f1, f0)
        via_basis = sum(
            (f1 if m.tag.endswith("=1)") else f0) * m.values(dist.points) for m in pos
        )
        np.testing.assert_allclose(direct, via_basis, atol=1e-12)

    def test_boolean_class_three_alpha(self):
        # f(t) = a t + b with |a| + |b| <= 3 for any |f| <= 1 on {0, 1}
        rng = np.random.default_rng(8)
        dist = random_distribution(rng, n_points=10)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, k=2, values="boolean")
        pred = random_predictor(rng, dist)
        alpha = mae(pred, cls, engine)
        resid = engine.ystar - pred.values(dist.points)
        for _ in range(50):
            f0, f1 = rng.uniform(-1, 1, 2)
            for tag in ("h0", "h1"):
                cv = cls.member(tag).values(dist.points)
                corr = abs(engine.expect(np.where(cv == 1.0, f1, f0) * resid))
                assert corr <= 3 * alpha + 1e-12

    def test_ternary_postprocessing_three_alpha(self):
        rng = np.random.default_rng(9)
        dist = random_distribution(rng, n_points=6)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, k=1, values="ternary")
        basis = level_class(cls, dist.points)
        pred = random_predictor(rng, dist)
        alpha = mae(pred, basis, engine)
        resid = engine.ystar - pred.values(dist.points)
        cv = cls.member("h0").values(dist.points)
        vals = np.unique(cv)
        assert len(vals) <= 3
        for _ in range(50):
            f = {v: rng.uniform(-1, 1) for v in vals}
            fv = np.array([f[v] for v in cv])
            assert abs(engine.expect(fv * resid)) <= len(vals) * alpha + 1e-12

    def test_cap_enforced(self):
        rng = np.random.default_rng(10)
        dist = random_distribution(rng, n_points=65)  # one more distinct value than the cap of 64
        member = table_hypothesis(dist.points, rng.uniform(-1, 1, dist.n), "wide")
        cls = make_class([member])
        with pytest.raises(NonFiniteRangeError):
            level_class(cls, dist.points)


class TestIntervalClass:
    def test_counts_at_delta_one(self):
        rng = np.random.default_rng(11)
        dist = random_distribution(rng)
        members = [
            table_hypothesis(dist.points, rng.uniform(-1, 1, dist.n), f"h{i}") for i in range(2)
        ]
        raw = HypothesisClass(tuple(members))
        cls = interval_class(raw, 1.0)
        positive = [m for m in cls.members if m.tag.startswith("int(")]
        assert len(positive) == 4  # 2 members x 2 intervals, before negation closure

    def test_membership_single_cell(self):
        const = Hypothesis(lambda X: np.full(len(np.atleast_2d(X)), 0.3), 1.0, "c")
        cls = interval_class(HypothesisClass((const,)), 0.5)
        X = np.zeros((1, 1))
        fired = [m.tag for m in cls.members if m.tag.startswith("int(") and m.values(X)[0] == 1.0]
        assert fired == ["int(c,[0,0.5))"]

    def test_lipschitz_partial_approximation(self):
        # midpoint coefficients approximate the derivative within delta / 2
        loss = lp_loss(2)
        delta = 0.125
        edges = np.arange(-1.0, 1.0, delta)
        mids = edges + delta / 2
        coeffs = loss.partial(mids)
        grid = np.linspace(-1, 1, 4001)
        cell = np.clip(np.floor((grid + 1.0) / delta).astype(int), 0, len(mids) - 1)
        approx = coeffs[cell]
        assert np.max(np.abs(loss.partial(grid) - approx)) <= delta / 2 + 1e-12


class TestPowerClass:
    def test_degree_one_is_identity(self):
        rng = np.random.default_rng(12)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=2)
        powered = power_class(cls, 1)
        for tag in ("h0", "h1"):
            np.testing.assert_allclose(
                powered.member(f"pow({tag},1)").values(dist.points),
                cls.member(tag).values(dist.points),
            )

    def test_powers_arithmetic(self):
        const = Hypothesis(lambda X: np.full(len(np.atleast_2d(X)), -0.5), 1.0, "c")
        cls = power_class(HypothesisClass((const,)), 3)
        X = np.zeros((1, 1))
        got = [cls.member(f"pow(c,{j})").values(X)[0] for j in (1, 2, 3)]
        np.testing.assert_allclose(got, [-0.5, 0.25, -0.125])

    def test_low_degree_gap_bound(self):
        # multiaccuracy over squares controls the squared-loss hypothesis gap
        from calma.audit import hypothesis_oi_gap

        rng = np.random.default_rng(13)
        dist = random_distribution(rng, n_points=4)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, k=2)
        powered = power_class(cls, 2)
        pred = random_predictor(rng, dist)
        m = mae(pred, powered, engine)
        B = 2.0**2
        loss = lp_loss(2)
        for tag in ("h0", "h1"):
            gap = hypothesis_oi_gap(pred, loss, cls.member(tag), engine)
            assert abs(gap) <= B * m + 1e-12


class TestDerivedClassesPinned:
    """Model files name an add_hyp member by tag and the weak learner breaks
    ties by member order, so both are pinned for each derived class."""

    @pytest.mark.parametrize(
        "build, tags, bounds",
        [
            (
                lambda: interval_class(coordinate_class(1), 1.0),
                ["int(x0,[-1,0))", "int(x0,[0,1))", "int(1,[-1,0))", "int(1,[0,1))", "1",
                 "-int(x0,[-1,0))", "-int(x0,[0,1))", "-int(1,[-1,0))", "-int(1,[0,1))", "-1"],
                [1.0] * 10,
            ),
            (
                lambda: power_class(make_class([Hypothesis(lambda X: 2.0 * X[:, 0], 2.0, "h")]), 2),
                ["pow(h,1)", "pow(h,2)", "pow(1,1)", "pow(1,2)", "1",
                 "-pow(h,1)", "-pow(h,2)", "-pow(1,1)", "-pow(1,2)", "-1"],
                [2.0, 4.0, 1.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 1.0],
            ),
            (
                lambda: level_class(coordinate_class(1), np.array([[0.5], [-1.0], [0.0], [0.5]])),
                ["lev(x0=-1)", "lev(x0=0)", "lev(x0=0.5)", "lev(1=1)", "1",
                 "-lev(x0=-1)", "-lev(x0=0)", "-lev(x0=0.5)", "-lev(1=1)", "-1"],
                [1.0] * 10,
            ),
        ],
        ids=["interval", "power", "level"],
    )
    def test_tags_order_and_bounds(self, build, tags, bounds):
        cls = build()
        assert [m.tag for m in cls.members] == tags
        assert [m.range_bound for m in cls.members] == bounds

    def test_interval_class_matrix_is_the_one_hot_of_the_scaled_coordinates(self):
        # the class the sample benchmark trains on: 10 scaled coordinates and the constant, 8 cells each
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=1, n_test=1, seed=1))
        X = train.X
        scales = [max(float(np.max(np.abs(X[:, j]))), 1e-12) for j in range(X.shape[1])]
        cls = interval_class(coordinate_class(10, scales), 0.25)
        Z = np.column_stack([X / np.array(scales), np.ones(len(X))])
        cells = np.clip(np.floor((Z + 1.0) / 0.25), 0, 7)
        one_hot = (cells[:, :, None] == np.arange(8)).reshape(len(X), -1).astype(float)
        base = np.column_stack([one_hot, np.ones(len(X))])
        assert np.array_equal(value_matrix(cls, X), np.column_stack([base, -base]))


def _per_member(cls, X):
    cols = [m.values(X) for m in cls.members]
    return np.column_stack(cols) if cols else np.empty((len(X), 0))


def _sample_coordinates():
    """The sample benchmark's scaled coordinate class over 10k mixture rows, and those rows."""
    X = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=1, n_test=1, seed=1))[0].X
    scales = [max(float(np.max(np.abs(X[:, j]))), 1e-12) for j in range(X.shape[1])]
    return coordinate_class(10, scales), X


@pytest.mark.parametrize("scales", [[math.nan, 1.0], [math.inf, 1.0], [1.0], [1.0, 2.0, 3.0], [0.0, 1.0],
                                    [-1.0, 1.0], [[1.0, 2.0]]])
def test_coordinate_class_needs_one_finite_positive_scale_per_coordinate(scales):
    # a NaN scale made a member NaN everywhere, an infinite one 0 everywhere; one scale short raised an
    # IndexError, and extra scales were ignored
    with pytest.raises(ValueError, match="scales must be 2 finite, positive numbers"):
        coordinate_class(2, scales)


class TestMemberMatrix:
    """A coordinate class's one-pass builder and an interval class's cell index
    against the members evaluated one at a time."""

    rng = np.random.default_rng(21)
    # uniform rows past [-1, 1], then cell edges and the domain's ends
    X = np.vstack([rng.uniform(-1.2, 1.2, (40, 3)), [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [0.0, 0.5, -0.5]]])
    grid = np.round(X * 4) / 4
    grid[::7] += 4e-13  # values a level member takes within its 1e-12 tolerance
    # a second "a", a "-a" and a "1": make_class keeps the first of each tag
    tagged = [Hypothesis(lambda X: 0.5 * X[:, 0], 1.0, "a"), Hypothesis(lambda X: -X[:, 1], 1.0, "-a"),
              Hypothesis(lambda X: X[:, 2], 1.0, "a"), Hypothesis(lambda X: X[:, 2] ** 2, 1.0, "1")]

    cases = {
        "coordinate": (lambda: coordinate_class(3, [2.0, 0.5, 4.0]), X),
        "interval": (lambda: interval_class(coordinate_class(3), 0.3), X),
        "interval-1-row": (lambda: interval_class(coordinate_class(3, [1.2] * 3), 0.25), X[:1]),
        "level": (lambda: level_class(coordinate_class(3), TestMemberMatrix.grid), grid),
        "power": (lambda: power_class(coordinate_class(3), 3), X),
        "interval-of-power": (lambda: interval_class(power_class(coordinate_class(3), 2), 0.5), X),
        "power-of-interval": (lambda: power_class(interval_class(coordinate_class(3), 0.5), 2), X),
        "level-of-interval": (lambda: level_class(interval_class(coordinate_class(3), 1.0), TestMemberMatrix.grid), grid),
        "make_class-colliding-tags": (lambda: make_class(TestMemberMatrix.tagged), X),
        "interval-of-colliding": (lambda: interval_class(make_class(TestMemberMatrix.tagged[:2]), 0.5), X),
        "make_class-empty": (lambda: make_class([]), X),
        "0-members": (lambda: HypothesisClass(()), X),
        "interval-of-0-members": (lambda: interval_class(HypothesisClass(()), 0.5), X),
        "coordinate-non-dyadic-scales": (lambda: coordinate_class(3, [3.0, 0.7, 1.3]), X),  # inexact reciprocals
    }
    intervals = {k: case for k, case in cases.items() if k.startswith("interval")}

    @pytest.mark.parametrize("build, X", list(cases.values()), ids=list(cases))
    def test_bit_identical_to_the_per_member_loop(self, build, X):
        cls = build()
        engine = ExpectationEngine(X, np.full(len(X), 1.0 / len(X)), np.zeros(len(X)))
        got, want = engine.member_matrix(cls), _per_member(cls, X)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable

    @pytest.mark.parametrize("build, X", list(intervals.values()), ids=list(intervals))
    def test_correlations_through_the_cell_index_match_the_dense_path(self, build, X, monkeypatch):
        monkeypatch.setattr(core, "_DENSE_MAX", -1)  # every engine reads the cell index
        cls = build()
        engine = ExpectationEngine(X, np.full(len(X), 1.0 / len(X)), np.zeros(len(X)))
        tags = [m.tag for m in cls.members]
        last_cell_of_1 = max((j for j, t in enumerate(tags) if t.startswith("int(1,")), default=None)
        rng = np.random.default_rng(22)
        for v in [rng.normal(size=len(X)) for _ in range(5)] + [rng.uniform(0.1, 1.0, len(X))]:
            got, want = engine.correlations(cls, v), v @ _per_member(cls, X)
            assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-15 * np.sum(np.abs(v)))
            if last_cell_of_1 is not None:
                # the constant and the cell that holds every row of it are one column: an exact tie
                assert got[tags.index("1")] == got[last_cell_of_1] and tags.index("1") > last_cell_of_1
        # positive weights: the constant ties for the maximum, and the first of the tie wins on both paths
        first = int(np.argmax(got))
        assert first == np.argmax(want) and got[first] == got[tags.index("1")]
        assert list(engine._members) == [(id(cls), "cells")]  # no dense matrix was built

    # each interval case as its base class and rows, and its cell width; then the class the sample benchmark trains on
    interval_bases = {
        "interval": (lambda: (coordinate_class(3), TestMemberMatrix.X), 0.3),
        "interval-1-row": (lambda: (coordinate_class(3, [1.2] * 3), TestMemberMatrix.X[:1]), 0.25),
        "interval-of-power": (lambda: (power_class(coordinate_class(3), 2), TestMemberMatrix.X), 0.5),
        "interval-of-colliding": (lambda: (make_class(TestMemberMatrix.tagged[:2]), TestMemberMatrix.X), 0.5),
        "interval-of-0-members": (lambda: (HypothesisClass(()), TestMemberMatrix.X), 0.5),
        "sample": (_sample_coordinates, 0.25),
    }

    @pytest.mark.parametrize("build, delta", list(interval_bases.values()), ids=list(interval_bases))
    def test_cell_index_gives_the_reference_composition_bits(self, build, delta, monkeypatch):
        assert set(self.interval_bases) == {*self.intervals, "sample"}
        monkeypatch.setattr(core, "_DENSE_MAX", -1)  # every engine reads the cell index
        base, X = build()
        cls = interval_class(base, delta)
        engine = ExpectationEngine(X, np.full(len(X), 1.0 / len(X)), np.zeros(len(X)))
        rng = np.random.default_rng(24)
        for v in [rng.normal(size=len(X)) for _ in range(3)] + [rng.uniform(0.1, 1.0, len(X))]:
            got, want = engine.correlations(cls, v), reference_interval_correlations(base, delta, X, v)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_colliding_tags_keep_the_first_member(self):
        cls = make_class(self.tagged)
        assert [m.tag for m in cls.members] == ["a", "-a", "1", "-1"]

    def test_coordinate_and_interval_builders_call_no_member(self, monkeypatch):
        # the class the sample benchmark trains on (10 scaled coordinates and the constant, 8 cells each), and a
        # scaled coordinate class: the coordinate matrix and the interval cell index come from the builders alone
        X = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=1, n_test=1, seed=1))[0].X
        scales = [max(float(np.max(np.abs(X[:, j]))), 1e-12) for j in range(X.shape[1])]
        classes = [interval_class(coordinate_class(10, scales), 0.25), coordinate_class(3, [2.0, 0.5, 4.0])]
        want = [_per_member(cls, X) for cls in classes]
        v = np.random.default_rng(23).normal(size=len(X))

        def evaluated(h, X):
            raise AssertionError(f"member {h.tag} evaluated")

        monkeypatch.setattr(Hypothesis, "values", evaluated)
        engine = ExpectationEngine(X, np.full(len(X), 1.0 / len(X)), np.zeros(len(X)))
        assert engine.member_matrix(classes[1]).tobytes() == want[1].tobytes()
        assert len(classes[0]) == 178 and len(X) * 178 > core._DENSE_MAX
        fresh = ExpectationEngine(X, engine.weights, engine.ystar)  # no cached matrix: reads the cell index
        assert np.all(np.abs(fresh.correlations(classes[0], v) - v @ want[0]) <= 1e-15 * np.sum(np.abs(v)))
        assert list(fresh._members) == [(id(classes[0]), "cells")]


class TestClip:
    def test_constants(self):
        X = np.zeros((1, 1))
        assert FunctionPredictor(lambda X: np.full(len(X), 1.7)).values(X)[0] == 1.0
        assert FunctionPredictor(lambda X: np.full(len(X), -0.2)).values(X)[0] == 0.0

    def test_never_increases_squared_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            hv = rng.uniform(-1.5, 2.5, dist.n)
            h = table_hypothesis(dist.points, hv, "h", bound=2.5)
            clipped = FunctionPredictor(h.values).values(dist.points)
            before = engine.expect((dist.bayes - hv) ** 2)
            after = engine.expect((dist.bayes - clipped) ** 2)
            assert after <= before + 1e-12


class TestDistance:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(15)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        p = random_predictor(rng, dist)
        for norm in ("l1", "l2", "linf"):
            assert distance(p, p, engine, norm) == 0.0

    def test_constant_pair(self):
        rng = np.random.default_rng(16)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        p1, p2 = ConstantPredictor(0.2), ConstantPredictor(0.5)
        for norm in ("l1", "l2", "linf"):
            assert distance(p1, p2, engine, norm) == pytest.approx(0.3, abs=1e-12)

    def test_norm_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dist = random_distribution(rng)
            engine = ExpectationEngine.exact(dist)
            p1, p2 = random_predictor(rng, dist), random_predictor(rng, dist)
            l1 = distance(p1, p2, engine, "l1")
            l2 = distance(p1, p2, engine, "l2")
            linf = distance(p1, p2, engine, "linf")
            assert l1 <= l2 + 1e-12 <= linf + 2e-12

    def test_perturbation_bounds(self):
        # squared distance moves by at most twice the l1 distance, and the
        # multiaccuracy error by at most the l1 distance
        rng = np.random.default_rng(18)
        for _ in range(30):
            dist = random_distribution(rng)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, k=2)
            pstar = bayes_predictor(dist)
            p1, p2 = random_predictor(rng, dist), random_predictor(rng, dist)
            delta = distance(p1, p2, engine, "l1")
            sq1 = distance(pstar, p1, engine, "l2") ** 2
            sq2 = distance(pstar, p2, engine, "l2") ** 2
            assert abs(sq1 - sq2) <= 2 * delta + 1e-12
            assert mae(p2, cls, engine) <= mae(p1, cls, engine) + delta + 1e-12


class TestNegationClosure:
    def test_closure_and_constant(self):
        rng = np.random.default_rng(19)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=3)
        tags = {m.tag for m in cls.members}
        assert "1" in tags
        for m in cls.members:
            neg_tag = m.tag[1:] if m.tag.startswith("-") else "-" + m.tag
            assert neg_tag in tags
            np.testing.assert_allclose(
                cls.member(neg_tag).values(dist.points), -m.values(dist.points), atol=1e-15
            )


class TestPredictors:
    def test_table_predictor_rejects_unknown_points(self):
        pred = TablePredictor(np.zeros((1, 2)), [0.5])
        with pytest.raises(ValueError):
            pred.values(np.ones((1, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_table_predictor_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="table points must be finite"):
            TablePredictor(np.array([[0.0, 1.0], [bad, 0.0]]), [0.1, 0.2])

    def test_table_predictor_unknown_row_among_known_rows(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [-1.0, 0.5]])
        pred = TablePredictor(pts, [0.1, 0.2, 0.3])
        for bad in ([[0.0, 1.0], [2.0, 3.5]], [[9.0, 9.0]], [[-0.0, 1.0]], [[0.0, 1.0, 2.0]]):
            with pytest.raises(ValueError, match="outside the table"):
                pred.values(np.array(bad))

    def test_table_predictor_duplicate_rows_keep_last_value(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
        pred = TablePredictor(pts, [0.1, 0.2, 0.3, 0.4, 0.5])
        assert np.array_equal(pred.values(np.array([[2.0, 3.0], [0.0, 1.0], [0.0, 1.0]])), [0.4, 0.5, 0.5])
        assert pred.to_dict()["values"] == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_table_predictor_matches_row_dictionary(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(36, 3))
        vals = rng.uniform(0, 1, 36)
        X = pts[rng.integers(0, 36, 500)]
        lookup = {row.tobytes(): v for row, v in zip(pts, vals)}
        expected = np.array([lookup[row.tobytes()] for row in X])
        assert np.array_equal(TablePredictor(pts, vals).values(X), expected)
        assert TablePredictor(pts, vals).values(np.empty((0, 3))).shape == (0,)

    def test_bucket_recal_discreteness_flag(self):
        base = ConstantPredictor(0.3)
        delta = 0.1
        mids = (2 * np.arange(n_buckets(delta)) + 1.0) * delta
        assert is_delta_discrete(PipelinePredictor.of(base).extended(BucketStage(delta, mids)).stages[-1])
        off = mids.copy()
        off[0] = 0.12
        assert not is_delta_discrete(PipelinePredictor.of(base).extended(BucketStage(delta, off)).stages[-1])

    def test_pipeline_roundtrip(self):
        rng = np.random.default_rng(20)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=2)
        from calma.core import AddHypStage, BucketStage, PipelinePredictor, predictor_from_dict

        pred = PipelinePredictor.of(ConstantPredictor(0.5))
        pred = pred.extended(AddHypStage(cls.member("h0"), 0.1))
        pred = pred.extended(BucketStage(0.1, (2 * np.arange(5) + 1.0) * 0.1))
        rebuilt = predictor_from_dict(pred.to_dict(), cls)
        np.testing.assert_allclose(rebuilt.values(dist.points), pred.values(dist.points))


def _json_depth(obj) -> int:
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return 1 + max((_json_depth(c) for c in children), default=0)


_HALF = {"op": "const", "value": 0.5}
MALFORMED_PIPELINES = {
    "short bucket list": [_HALF, {"op": "bucket", "delta": 0.1, "values": [0.1, 0.3, 0.5, 0.7]}],
    "bucket value 7": [_HALF, {"op": "bucket", "delta": 0.25, "values": [0.25, 7.0]}],
    "negative bucket index": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [-1], "values": [0.5]}],
    "bucket index n_buckets": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [5], "values": [0.5]}],
    "duplicate bucket index": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [1, 1], "values": [0.5, 0.5]}],
    "unsorted bucket indices": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [3, 1], "values": [0.5, 0.5]}],
    "non-integer bucket index": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [1.5], "values": [0.5]}],
    "unequal bucket lengths": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [1, 2], "values": [0.5]}],
    "listed bucket value 7": [_HALF, {"op": "bucket", "delta": 0.1, "buckets": [2], "values": [7.0]}],
    "listed bucket delta 0": [_HALF, {"op": "bucket", "delta": 0.0, "buckets": [], "values": []}],
    "const 3": [{"op": "const", "value": 3.0}],
    "unsorted isotonic thresholds": [_HALF, {"op": "isotonic", "thresholds": [0.5, 0.2], "values": [0.1, 0.9]}],
    "unequal isotonic lengths": [_HALF, {"op": "isotonic", "thresholds": [0.2, 0.5], "values": [0.1]}],
}


class TestPipelineStages:
    @pytest.mark.parametrize("stages", list(MALFORMED_PIPELINES.values()), ids=list(MALFORMED_PIPELINES))
    def test_malformed_model_json_rejected_on_load(self, stages):
        with pytest.raises(ValueError):
            predictor_from_dict({"kind": "pipeline", "stages": stages})

    def test_stages_validate_when_built(self):
        h = coordinate_class(1).member("x0")
        with pytest.raises(ValueError):
            AddHypStage(h, float("nan"))
        with pytest.raises(ValueError):
            AddLinearStage([1.0, float("inf")], 0.0)
        pipeline = PipelinePredictor.of(ConstantPredictor(0.5))
        with pytest.raises(ValueError):
            BaseStage(pipeline)  # pipelines are extended, never nested
        with pytest.raises(ValueError):
            pipeline.extended(BaseStage(ConstantPredictor(0.2)))  # only the first stage starts

    @pytest.mark.parametrize(
        "delta, values, moved",
        [
            (0.1, bucket_midpoints(0.1), []),  # what discretize builds
            (0.1, [0.0, 0.2, 0.45, 0.65, 1.0], [0, 1, 2, 3, 4]),
            (0.1, np.where(np.arange(5) == 2, 0.55, bucket_midpoints(0.1)), [2]),  # midpoint values are omitted
            (0.4, [0.4, 1.0], []),  # the last midpoint 1.2 is clipped to 1.0
            (0.4, [0.4, 0.9], [1]),
        ],
    )
    def test_bucket_stage_lists_only_moved_buckets(self, delta, values, moved):
        stage = BucketStage(delta, values)
        d = json.loads(json.dumps(stage.to_dict()))
        assert d == {"op": "bucket", "delta": delta, "buckets": moved, "values": stage.values[moved].tolist()}
        assert np.array_equal(BucketStage.from_dict(d, None).values, stage.values)

    def test_of_returns_pipelines_unchanged(self):
        pipeline = PipelinePredictor.of(ConstantPredictor(0.5))
        assert PipelinePredictor.of(pipeline) is pipeline
        assert isinstance(pipeline.stages[0], BaseStage)

    def test_const_start_from_older_files_loads_as_base(self):
        # older versions started pipelines with a const stage; it loads as a base
        # stage holding the constant, is written back in that form, and predicts
        # what the const stage did: the constant, then the later stages
        X = np.random.default_rng(32).normal(size=(50, 2))
        updates = [{"op": "add_linear", "w": [0.2, -0.1], "b": 0.05},
                   {"op": "bucket", "delta": 0.1, "buckets": [2], "values": [0.55]}]
        pred = predictor_from_dict({"kind": "pipeline", "stages": [{"op": "const", "value": 0.4}] + updates})
        start = {"op": "base", "base": {"kind": "constant", "value": 0.4}}
        assert json.loads(json.dumps(pred.to_dict())) == {"kind": "pipeline", "stages": [start] + updates}
        p = np.full(len(X), 0.4)
        for stage in pred.stages[1:]:
            p = stage.apply(X, p)
        assert np.array_equal(pred.values(X), p)

    def test_extended_pipeline_applies_only_its_new_stage(self, monkeypatch):
        dist = random_distribution(np.random.default_rng(31), n_points=10)
        engine = ExpectationEngine.exact(dist)
        stages = [
            AddHypStage(coordinate_class(2).member("x0"), 0.3),
            BucketStage(0.1, [0.05, 0.3, 0.5, 0.7, 0.95]),
            IsotonicStage([0.0, 0.4, 0.6], [0.1, 0.5, 0.8]),
            AddLinearStage([0.1, -0.2], 0.05),
        ]
        pred = PipelinePredictor.of(TablePredictor(dist.points, dist.bayes))
        pred.values(engine.X)
        calls = record_stage_applications(monkeypatch)
        for stage in stages:
            pred = pred.extended(stage)
            calls.clear()
            out = pred.values(engine.X)
            assert [op for op, _ in calls] == [stage.op]
            assert np.array_equal(out, PipelinePredictor(pred.stages).values(engine.X))
        calls.clear()
        recal = pred.extended(BucketStage(0.25, [0.3, 0.8]))
        out = recal.values(engine.X)
        assert [op for op, _ in calls] == ["bucket"]
        assert np.array_equal(out, PipelinePredictor(recal.stages).values(engine.X))
        calls.clear()
        recal.values(engine.X)
        assert calls == []

    def test_slot_ignores_rows_that_can_change(self):
        pred = PipelinePredictor.of(ConstantPredictor(0.5)).extended(AddHypStage(coordinate_class(2).member("x0"), 0.1))
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        view = X.view()
        view.flags.writeable = False  # a read-only view of a writeable array
        for rows in (X, view, X, view):
            before = pred.values(rows).copy()
            X[:, 0] += 1.0
            after = pred.values(rows)
            assert not np.array_equal(after, before)
            assert np.array_equal(after, PipelinePredictor(pred.stages).values(X.copy()))
            assert np.array_equal(pred.extended(AddHypStage(coordinate_class(2).member("x1"), 0.0)).values(rows), after)

    def test_other_rows_do_not_displace_the_slot(self, monkeypatch):
        rows, other = (Dataset(np.random.default_rng(s).normal(size=(6, 2)), [0.0, 1.0] * 3).X for s in (1, 2))
        h = coordinate_class(2).member("x1")
        pred = PipelinePredictor.of(ConstantPredictor(0.5)).extended(AddHypStage(h, 0.1))
        pred.values(rows)
        calls = record_stage_applications(monkeypatch)
        pred.values(other)
        assert len(calls) == 2
        calls.clear()
        pred.values(rows)
        assert calls == []
        child = pred.extended(AddHypStage(h, 0.2))
        child.values(other)
        calls.clear()
        child.values(rows)
        assert [op for op, _ in calls] == ["add_hyp"]

    def test_values_from_the_slot_are_read_only(self):
        engine = ExpectationEngine.exact(random_distribution(np.random.default_rng(32), n_points=5))
        pred = PipelinePredictor.of(ConstantPredictor(0.5)).extended(AddHypStage(coordinate_class(2).member("x0"), 0.1))
        for _ in range(2):
            out = pred.values(engine.X)
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0] = 0.0

    def test_deep_run_stays_flat_and_round_trips(self):
        # 600 boosting steps alternating with recalibration, as a long
        # calibrated-multiaccuracy run builds them
        dist = random_distribution(np.random.default_rng(23), n_points=8)
        engine = ExpectationEngine.exact(dist)
        members = coordinate_class(2).members
        pred = PipelinePredictor.of(ConstantPredictor(0.5))
        depths = []
        for t in range(600):
            pred = recalibrate_with_engine(pred.extended(AddHypStage(members[t % len(members)], 0.05)), 0.1, engine)
            if t == 1:
                depths.append(_json_depth(pred.to_dict()))
        assert len(pred.stages) == 1 + 2 * 600
        values = pred.values(dist.points)
        payload = json.loads(json.dumps(pred.to_dict()))
        assert _json_depth(payload) == depths[0]
        rebuilt = predictor_from_dict(payload, coordinate_class(2))
        assert np.array_equal(rebuilt.values(dist.points), values)


class TestIO:
    def test_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, 8).astype(float)
        path = str(tmp_path / "data.csv")
        save_dataset(Dataset(X, y), path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.X, X)
        np.testing.assert_array_equal(back.y, y)

    def test_dataset_roundtrip_awkward_floats(self, tmp_path):
        X = np.array([[1e-300, -2.5e300], [0.1 + 0.2, -0.0], [np.pi, 5e-324]])
        path = str(tmp_path / "data.csv")
        save_dataset(Dataset(X, [1.0, 0.0, 1.0]), path)
        back = load_dataset(path)
        assert np.array_equal(back.X, X) and np.array_equal(back.y, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("case", ["awkward", "one_column", "mixture"])
    def test_saved_bytes_match_csv_writer(self, tmp_path, case):
        if case == "awkward":
            data = Dataset(np.array([[1e-300, -2.5e300], [0.1 + 0.2, -0.0], [np.pi, 5e-324]]), [1.0, 0.0, 1.0])
        elif case == "one_column":
            data = Dataset(np.array([[0.5], [-1e-7], [123456789.125]]), [0.0, 1.0, 1.0])
        else:
            data = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=10, n_test=10, seed=3))[0]
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j}" for j in range(data.dim)] + ["y"])
            for row, label in zip(data.X, data.y):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        save_dataset(data, str(tmp_path / "data.csv"))
        assert (tmp_path / "data.csv").read_bytes() == ref.read_bytes()

    @staticmethod
    def _text_parse(path):
        """What the CSV's text parses to, read from a copy that has no companion."""
        copy = path.parent / f"text-{path.name}"
        copy.write_bytes(path.read_bytes())
        return load_dataset(str(copy))

    @pytest.mark.parametrize("case", ["awkward", "one_column", "mixture"])
    def test_companion_hit_matches_the_text_parse(self, tmp_path, monkeypatch, case):
        if case == "awkward":  # the -0.0 label is written as 0, which parses to +0.0
            X = np.array([[1e-300, -2.5e300], [0.1 + 0.2, -0.0], [np.pi, 5e-324], [-1e-300, 1e300]])
            data = Dataset(X, [1.0, -0.0, 1.0, 0.0])
        elif case == "one_column":
            data = Dataset(np.array([[0.5], [-0.0], [5e-324]]), [-0.0, 1.0, 1.0])
        else:
            data = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=10, n_test=10, seed=3))[0]
        path = tmp_path / "data.csv"
        save_dataset(data, str(path))
        text = self._text_parse(path)

        def no_parse(*args, **kwargs):
            raise AssertionError("a companion hit parsed the text")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        hit = load_dataset(str(path))
        for got, want in ((hit.X, text.X), (hit.y, text.y)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape and got.strides == want.strides

    @pytest.mark.parametrize("fault", ["edited", "foreign", "truncated", "garbage", "missing"])
    def test_companion_miss_falls_back_to_the_text(self, tmp_path, fault):
        rng = np.random.default_rng(23)
        path, companion = tmp_path / "data.csv", tmp_path / "data.csv.npz"
        save_dataset(Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50)), str(path))
        if fault == "edited":  # one digit of the first row changed in place: same length, new bytes
            raw = bytearray(path.read_bytes())
            i = next(i for i in range(raw.index(b"\n") + 1, len(raw)) if raw[i] in b"12345678")
            raw[i] += 1
            path.write_bytes(bytes(raw))
        elif fault == "foreign":  # the companion of another CSV of the same shape
            other = tmp_path / "other.csv"
            save_dataset(Dataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50)), str(other))
            companion.write_bytes((tmp_path / "other.csv.npz").read_bytes())
        elif fault == "truncated":
            companion.write_bytes(companion.read_bytes()[: companion.stat().st_size // 2])
        elif fault == "garbage":
            companion.write_bytes(b"not an npz file\n" * 20)
        else:
            companion.unlink()
        text = self._text_parse(path)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        got = load_dataset(str(path))
        assert got.X.tobytes() == text.X.tobytes() and got.y.tobytes() == text.y.tobytes()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files  # loading writes nothing

    def test_save_leaves_no_temporary_file(self, tmp_path):
        path = str(tmp_path / "data.csv")
        for seed in (24, 25):  # the second save replaces the companion
            rng = np.random.default_rng(seed)
            data = Dataset(rng.normal(size=(20, 2)), rng.integers(0, 2, 20))
            save_dataset(data, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.npz"]
        assert np.array_equal(load_dataset(path).X, data.X)

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,f1,y\n0.5,-1.5,1\n")
        back = load_dataset(str(path))
        assert back.X.shape == (1, 2)
        assert np.array_equal(back.X, [[0.5, -1.5]]) and np.array_equal(back.y, [1.0])

    def test_trailing_blank_line_ignored(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("f0,y\n0.25,0\n0.75,1\n\n")
        back = load_dataset(str(path))
        assert np.array_equal(back.X, [[0.25], [0.75]]) and np.array_equal(back.y, [0.0, 1.0])

    @pytest.mark.parametrize(
        "text",
        ["f0,f1,y\n", "f0,f1,y\n\n# no rows\n", "f0,f1,y\n0.5,1.5,1\n0.5,1\n", "", "f0,f1,label\n0.5,1.5,1\n"],
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                load_dataset(str(path))

    def test_distribution_roundtrip(self, tmp_path):
        dist = random_distribution(np.random.default_rng(22))
        path = str(tmp_path / "dist.json")
        save_distribution(dist, path)
        back = load_distribution(path)
        np.testing.assert_array_equal(back.points, dist.points)
        np.testing.assert_array_equal(back.mass, dist.mass)
        np.testing.assert_array_equal(back.bayes, dist.bayes)


@given(
    v=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    delta=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=300, deadline=None)
def test_bucket_index_matches_interval_membership(v, delta):
    j = int(bucket_index(np.array([v]), delta)[0])
    m = n_buckets(delta)
    assert j == min(int(math.floor(v / (2 * delta))), m - 1)
    lo = 2 * j * delta
    assert lo <= v
    if j < m - 1:
        assert v < lo + 2 * delta


_ONE_POINT = FiniteDistribution(np.zeros((1, 1)), [1.0], [0.5])
_UNBOUNDED = Hypothesis(lambda X: 2.0 * np.atleast_2d(X)[:, 0], 2.0, "2x0")


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: FiniteDistribution(np.zeros((2, 1)), [1.0], [0.5, 0.5]), "points, mass and bayes must have equal length"),
        (lambda: FiniteDistribution(np.zeros((2, 1)), [1.5, -0.5], [0.5, 0.5]), "masses must be nonnegative"),
        (lambda: Dataset(np.zeros((0, 2)), []), "dataset must be nonempty"),
        (lambda: Dataset(np.zeros((2, 2)), [1.0]), "feature matrix and labels must have equal length"),
        (lambda: interval_class(coordinate_class(2), 2.5), "delta must lie in (0, 2]"),
        (lambda: interval_class(make_class([_UNBOUNDED]), 0.5), "interval_class requires members bounded in [-1, 1]"),
        (lambda: power_class(coordinate_class(2), 0), "d must be >= 1"),
        (lambda: TablePredictor(np.zeros((2, 1)), [0.5]), "points and values must be nonempty and of equal length"),
        (lambda: predictor_from_dict({"kind": "pipeline", "stages": [{"op": "const", "value": 0.5},
                                                                     {"op": "add_hyp", "tag": "x0", "coef": 0.1}]}),
         "hypothesis class required to rebuild add_hyp stages"),
        (lambda: predictor_from_dict({"kind": "glm_linear", "transfer": "sigmoid", "weights": {}}),
         "hypothesis class required to rebuild a glm_linear predictor"),
        (lambda: predictor_from_dict({"kind": "spline"}), "cannot rebuild predictor kind 'spline'"),
        (lambda: distance(ConstantPredictor(0.2), ConstantPredictor(0.4), ExpectationEngine.exact(_ONE_POINT), "l3"),
         "unknown norm 'l3'"),
    ],
    ids=["dist-lengths", "dist-negative-mass", "empty-dataset", "dataset-lengths", "interval-delta",
         "interval-unbounded-member", "power-0", "table-lengths", "add-hyp-without-class", "glm-without-class",
         "unknown-kind", "unknown-norm"],
)
def test_invalid_input_is_refused_with_its_reason(build, reason):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == reason
