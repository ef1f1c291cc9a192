"""Data model: engines, derived hypothesis classes, predictors, distances."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calma.calibration import recalibrate_with_engine
from calma.core import (
    AddHypStage,
    AddLinearStage,
    BaseStage,
    BucketRecalPredictor,
    BudgetExceededError,
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    NonFiniteRangeError,
    PipelinePredictor,
    TablePredictor,
    bayes_predictor,
    bucket_index,
    clip,
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

from support import random_class, random_distribution, random_predictor, table_hypothesis


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
        dist = random_distribution(rng, n_points=12)
        member = table_hypothesis(dist.points, rng.uniform(-1, 1, dist.n), "wide")
        cls = make_class([member])
        with pytest.raises(NonFiniteRangeError):
            level_class(cls, dist.points, cap=4)


class TestIntervalClass:
    def test_counts_at_delta_one(self):
        rng = np.random.default_rng(11)
        dist = random_distribution(rng)
        members = [
            table_hypothesis(dist.points, rng.uniform(-1, 1, dist.n), f"h{i}") for i in range(2)
        ]
        raw = make_class(members, ensure_one=False, close_negation=False)
        cls = interval_class(raw, 1.0)
        positive = [m for m in cls.members if m.tag.startswith("int(")]
        assert len(positive) == 4  # 2 members x 2 intervals, before negation closure

    def test_membership_single_cell(self):
        const = Hypothesis(lambda X: np.full(len(np.atleast_2d(X)), 0.3), 1.0, "c")
        cls = interval_class(make_class([const], ensure_one=False, close_negation=False), 0.5)
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
        cls = power_class(make_class([const], ensure_one=False, close_negation=False), 3)
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


class TestClip:
    def test_constants(self):
        X = np.zeros((1, 1))
        assert clip(lambda X: np.full(len(X), 1.7)).values(X)[0] == 1.0
        assert clip(lambda X: np.full(len(X), -0.2)).values(X)[0] == 0.0

    def test_never_increases_squared_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            hv = rng.uniform(-1.5, 2.5, dist.n)
            h = table_hypothesis(dist.points, hv, "h", bound=2.5)
            clipped = clip(h).values(dist.points)
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
        tags = set(cls.tags())
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
        assert BucketRecalPredictor(base, delta, mids).is_delta_discrete
        off = mids.copy()
        off[0] = 0.12
        assert not BucketRecalPredictor(base, delta, off).is_delta_discrete

    def test_pipeline_roundtrip(self):
        rng = np.random.default_rng(20)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, k=2)
        from calma.core import AddHypStage, BucketStage, ConstStage, PipelinePredictor, predictor_from_dict

        pred = PipelinePredictor([ConstStage(0.5)])
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

    def test_of_returns_pipelines_unchanged(self):
        pipeline = PipelinePredictor.of(ConstantPredictor(0.5))
        assert PipelinePredictor.of(pipeline) is pipeline
        assert isinstance(pipeline.stages[0], BaseStage)

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

    @pytest.mark.filterwarnings("ignore:loadtxt")
    @pytest.mark.parametrize(
        "text", ["f0,f1,y\n", "f0,f1,y\n0.5,1.5,1\n0.5,1\n", "", "f0,f1,label\n0.5,1.5,1\n"]
    )
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
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
