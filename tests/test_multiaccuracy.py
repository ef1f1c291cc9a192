"""Multiaccuracy error, the weak-learner contract, boosting, and the
L1-regularized GLM route."""

import json

import numpy as np
import pytest

from calma.core import (
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    bayes_predictor,
    correlate,
    make_class,
    predictor_from_dict,
    value_matrix,
)
from calma.calibration import DistributionSampler
from calma.losses import crelu_glm, identity_glm, sigmoid_glm
from calma.multiaccuracy import (
    ExhaustiveWeakLearner,
    NonTerminationError,
    l1_glm_fit,
    ma_algorithm,
    mae,
)

from support import bernoulli_dataset, random_class, random_distribution, random_predictor, record_stage_applications


def single_point_instance():
    dist = FiniteDistribution(np.zeros((1, 1)), [1.0], [0.7])
    cls = make_class([])  # just the constant 1 and its negation
    return dist, ExpectationEngine.exact(dist), cls


class TestMae:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 3)
        assert mae(bayes_predictor(dist), cls, engine) <= 1e-15

    def test_constant_class_value(self):
        dist, engine, cls = single_point_instance()
        assert mae(ConstantPredictor(0.2), cls, engine) == pytest.approx(0.5, abs=1e-15)


class TestMemberMatrix:
    def test_built_once_per_class_and_read_only(self):
        rng = np.random.default_rng(3)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        calls = []

        def scaled_first_coordinate(X, j):
            calls.append(j)
            return np.atleast_2d(X)[:, 0] * j

        members = [Hypothesis(lambda X, j=j: scaled_first_coordinate(X, j), 1.0, f"c{j}") for j in range(3)]
        cls = HypothesisClass(tuple(members))
        other = random_class(rng, dist, 2)
        M = engine.member_matrix(cls)
        assert not M.flags.writeable
        assert np.array_equal(M, value_matrix(cls, dist.points))
        assert engine.member_matrix(other).shape == (dist.n, len(other))
        calls.clear()
        wl = ExhaustiveWeakLearner(cls, rho=0.01, sigma=0.01)
        for _ in range(3):
            wl.query(engine, engine.ystar - np.full(dist.n, 0.5))
        mae(ConstantPredictor(0.5), cls, engine)
        assert engine.member_matrix(cls) is M
        assert calls == []  # no member evaluated again after the first build

    def test_cached_and_fresh_paths_agree_bitwise(self):
        rng = np.random.default_rng(4)
        dist = random_distribution(rng, n_points=20)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 5)
        pred = random_predictor(rng, dist)
        pv = pred.values(dist.points)
        wl = ExhaustiveWeakLearner(cls, rho=0.01, sigma=0.01)
        z = engine.ystar - pv
        assert wl.query(engine, z) == wl.query(ExpectationEngine.exact(dist), z)


class TestClassInterface:
    """A class answers ``fill`` and ``correlations`` itself: ``value_matrix``, the engine, ``mae``
    and the weak learner read what a subclass answers, whatever its members' values are."""

    dist = FiniteDistribution(np.array([[0.0], [1.0], [2.0]]), [0.25, 0.25, 0.5], [0.2, 0.6, 0.9])
    members = tuple(Hypothesis(lambda X, j=j: np.atleast_2d(X)[:, 0] * j / 4, 1.0, f"c{j}") for j in range(3))

    def test_value_matrix_and_the_member_matrix_call_fill(self):
        filled = []

        class Filled(HypothesisClass):
            def fill(self, X, out):
                filled.append(len(X))
                out[:] = 0.25  # not the members' values

        cls = Filled(self.members)
        assert np.array_equal(value_matrix(cls, self.dist.points), np.full((3, 3), 0.25))
        engine = ExpectationEngine.exact(self.dist)
        assert np.array_equal(engine.member_matrix(cls), np.full((3, 3), 0.25))
        assert engine.member_matrix(cls) is engine.member_matrix(cls)
        assert filled == [3, 3]

    def test_the_engine_mae_and_the_weak_learner_read_correlations(self):
        asked = []

        class Answering(HypothesisClass):
            def correlations(self, engine, v):
                asked.append(len(v))
                return np.array([0.0, 0.3, -0.5])  # not the members' correlations

        cls = Answering(self.members)
        engine = ExpectationEngine.exact(self.dist)
        assert engine.correlations(cls, np.ones(3)).tolist() == [0.0, 0.3, -0.5]
        assert mae(ConstantPredictor(0.5), cls, engine) == 0.5
        assert ExhaustiveWeakLearner(cls, rho=0.2, sigma=0.2).query(engine, np.zeros(3)) == (cls.members[1], 0.3)
        assert ExhaustiveWeakLearner(cls, rho=0.4, sigma=0.4).query(engine, np.zeros(3)) is None
        assert asked == [3, 3, 3, 3]
        assert engine._members == {}  # no member matrix was built


class TestWeakLearner:
    def test_declines_on_an_empty_class(self):
        # no member reaches sigma, so the contract's escape clause holds vacuously
        dist, engine, _ = single_point_instance()
        wl = ExhaustiveWeakLearner(HypothesisClass(()), rho=0.1, sigma=0.1)
        assert wl.query(engine, engine.ystar - ConstantPredictor(0.2).values(dist.points)) is None
        result = ma_algorithm(ConstantPredictor(0.2), 0.1, wl, engine)
        assert result.updates == () and result.wl_calls == 1

    def test_declines_on_zero_residual(self):
        rng = np.random.default_rng(1)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 3)
        wl = ExhaustiveWeakLearner(cls, rho=0.1, sigma=0.05)
        assert wl.query(engine, engine.ystar - dist.bayes.copy()) is None

    def test_returns_correlated_member(self):
        dist, engine, cls = single_point_instance()
        wl = ExhaustiveWeakLearner(cls, rho=0.1, sigma=0.1)
        picked = wl.query(engine, engine.ystar - ConstantPredictor(0.2).values(dist.points))
        assert picked is not None
        h, corr = picked
        assert corr >= 0.1
        assert abs(engine.expect(h.values(dist.points) * (dist.bayes - 0.2)) - corr) <= 1e-15

    def test_sigma_rho_validated(self):
        dist, engine, cls = single_point_instance()
        with pytest.raises(ValueError):
            ExhaustiveWeakLearner(cls, rho=0.1, sigma=0.2)

    def test_empirical_matches_exact_with_margin(self):
        # when the best exact correlation is far from the threshold, the
        # sampled query must agree with the exact accept/reject decision
        rng = np.random.default_rng(2)
        sigma = 0.1
        for seed in range(20):
            dist = random_distribution(rng, n_points=8)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, 3)
            pred = random_predictor(rng, dist)
            wl = ExhaustiveWeakLearner(cls, rho=sigma, sigma=sigma)
            exact_best = max(
                float(correlate(engine.weights, engine.ystar - pred.values(dist.points), h.values(engine.X)))
                for h in cls
            )
            if abs(exact_best - sigma) < sigma:  # only decide well-separated cases
                continue
            sampler = DistributionSampler(dist, seed=seed)
            fresh = sampler.draw(20000)
            got = wl.query(fresh, fresh.ystar - pred.values(fresh.X))
            assert (got is not None) == (exact_best >= sigma)


class TestMaAlgorithm:
    def test_no_updates_at_bayes(self):
        rng = np.random.default_rng(3)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 3)
        wl = ExhaustiveWeakLearner(cls, rho=0.05, sigma=0.05)
        result = ma_algorithm(bayes_predictor(dist), 0.05, wl, engine)
        assert len(result.updates) == 0
        assert result.wl_calls == 1

    def test_single_point_hand_simulation(self):
        # updates of size 0.1 walk the constant prediction 0 -> 0.7 in 7 steps
        dist, engine, cls = single_point_instance()
        wl = ExhaustiveWeakLearner(cls, rho=0.1, sigma=0.1)
        result = ma_algorithm(ConstantPredictor(0.0), 0.1, wl, engine)
        assert len(result.updates) == 7
        assert result.predictor.values(dist.points)[0] == pytest.approx(0.7, abs=1e-12)

    def test_per_update_drop_and_iteration_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, 3)
            sigma = 0.08
            wl = ExhaustiveWeakLearner(cls, rho=sigma, sigma=sigma)
            p0 = random_predictor(rng, dist)
            pot0 = engine.expect((dist.bayes - p0.values(dist.points)) ** 2)
            result = ma_algorithm(p0, sigma, wl, engine)
            for u in result.updates:
                assert u.potential_before - u.potential_after >= sigma**2 * (1 - 1e-9)
            assert len(result.updates) <= pot0 / sigma**2 + 1e-9
            assert mae(result.predictor, cls, engine) <= sigma + 1e-12

    def test_sampled_run_applies_each_stage_once_on_engine_rows(self, monkeypatch):
        # fresh draws replay the pipeline; the engine's rows start from its slot
        rng = np.random.default_rng(3)
        dist = random_distribution(rng, n_points=8, bayes_range=(0.1, 0.9))
        engine = ExpectationEngine.exact(dist)
        wl = ExhaustiveWeakLearner(random_class(rng, dist, 2), rho=0.05, sigma=0.05)
        calls = record_stage_applications(monkeypatch)
        result = ma_algorithm(ConstantPredictor(0.0), 0.05, wl, engine, sampler=DistributionSampler(dist, seed=5), batch_size=500)
        assert len(result.updates) > 0
        assert sum(X is engine.X for _, X in calls) == len(result.predictor.stages)

    def test_sampled_batch_of_no_rows_is_refused(self):
        # a batch of 0 rows gave NaN weights, and the run declined silently
        dist, engine, cls = single_point_instance()
        wl = ExhaustiveWeakLearner(cls, rho=0.1, sigma=0.1)
        with pytest.raises(ValueError, match="a draw takes at least 1 row, not 0"):
            ma_algorithm(ConstantPredictor(0.0), 0.1, wl, engine, sampler=DistributionSampler(dist, seed=5), batch_size=0)

    def test_alpha_must_cover_rho(self):
        dist, engine, cls = single_point_instance()
        wl = ExhaustiveWeakLearner(cls, rho=0.2, sigma=0.2)
        with pytest.raises(ValueError):
            ma_algorithm(ConstantPredictor(0.0), 0.1, wl, engine)

    def test_iteration_cap_raises(self):
        dist, engine, cls = single_point_instance()

        class NeverDeclines(ExhaustiveWeakLearner):
            def query(self, engine, z):
                return cls.member("1"), self.sigma

        wl = NeverDeclines(cls, rho=0.1, sigma=0.1)
        with pytest.raises(NonTerminationError, match="within 400 updates"):
            ma_algorithm(ConstantPredictor(0.0), 0.1, wl, engine)


class TestL1GlmFit:
    def test_zero_weights_for_balanced_labels(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 2))
        y = np.array([0.0, 1.0] * 50)
        data = Dataset(X, y)
        cls = make_class([])  # constants only
        fit = l1_glm_fit(cls, sigmoid_glm(), alpha=0.1, data=data)
        assert all(w == 0.0 for w in fit.weights.values())

    def test_class_without_members_stops_at_the_start(self):
        # numpy raised "zero-size array to reduction operation maximum"
        data = Dataset(np.random.default_rng(5).normal(size=(10, 2)), [1.0] * 7 + [0.0] * 3)
        fit = l1_glm_fit(HypothesisClass(()), sigmoid_glm(), 0.1, data)
        assert fit.weights == {} and fit.iterations == 0 and fit.kkt_residual == 0.0
        assert np.array_equal(fit.predictor.values(data.X), np.full(10, 0.5))  # clip01(gprime(0))

    def test_negative_alpha_refused(self):
        data = Dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            l1_glm_fit(make_class([]), sigmoid_glm(), alpha=-0.1, data=data)

    def test_scalar_kkt_solution(self):
        # constants only, label mean 0.7, alpha 0.1: fitted value is 0.6
        rng = np.random.default_rng(6)
        X = np.zeros((10, 1))
        y = np.array([1.0] * 7 + [0.0] * 3)
        data = Dataset(X, y)
        cls = make_class([])
        fit = l1_glm_fit(cls, sigmoid_glm(), alpha=0.1, data=data, tol=1e-9)
        v = float(fit.predictor.values(X)[0])
        assert abs(v - 0.7) == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("glm", [sigmoid_glm(), crelu_glm()], ids=["sigmoid", "crelu"])
    def test_multiaccuracy_certificate(self, glm):
        rng = np.random.default_rng(7)
        for seed in range(20):
            local = np.random.default_rng(seed)
            dist = random_distribution(local, n_points=12, dim=3)
            data = bernoulli_dataset(local, dist, 400)
            cls = random_class(local, dist, 3)
            fit = l1_glm_fit(cls, glm, alpha=0.1, data=data, tol=1e-6)
            engine = ExpectationEngine.empirical(data)
            assert mae(fit.predictor, cls, engine) <= 0.1 + 1e-5

    def test_predictor_json_roundtrip(self):
        rng = np.random.default_rng(10)
        dist = random_distribution(rng, n_points=10, dim=2)
        data = bernoulli_dataset(rng, dist, 300)
        cls = random_class(rng, dist, 3)
        fit = l1_glm_fit(cls, sigmoid_glm(), alpha=0.02, data=data)
        assert any(w != 0.0 for w in fit.weights.values())
        loaded = predictor_from_dict(json.loads(json.dumps(fit.predictor.to_dict())), cls)
        assert np.array_equal(loaded.values(dist.points), fit.predictor.values(dist.points))

    def test_objective_monotone(self):
        rng = np.random.default_rng(8)
        dist = random_distribution(rng, n_points=10, dim=2)
        data = bernoulli_dataset(rng, dist, 300)
        cls = random_class(rng, dist, 3)
        fit = l1_glm_fit(cls, sigmoid_glm(), alpha=0.05, data=data)
        diffs = np.diff(np.array(fit.objectives))
        assert np.all(diffs <= 1e-12)

    def test_requires_unit_range_transfer(self):
        data = Dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            l1_glm_fit(make_class([]), identity_glm(), 0.1, data)
