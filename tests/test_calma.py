"""The alternating boosting/recalibration trainer and its accounting."""

import collections
import json
import math

import numpy as np
import pytest

from calma.bench import MixtureConfig, gen_gaussian_mixture, train_calma_bench
from calma.calibration import DistributionSampler, discretize, ece
from calma.core import (
    ConstantPredictor,
    ExpectationEngine,
    FiniteDistribution,
    HypothesisClass,
    TablePredictor,
    bayes_predictor,
    coordinate_class,
    distance,
    interval_class,
    predictor_from_dict,
    value_matrix,
)
from calma.multiaccuracy import ExhaustiveWeakLearner, mae
from calma import core, training
from calma.training import CalmaConfig, IterationCapError, calma
from calma.audit import parity_distribution

from support import random_class, random_distribution, random_predictor


def make_wl(cls, alpha):
    rho = alpha - alpha * alpha / 32.0
    return ExhaustiveWeakLearner(cls, rho=rho, sigma=rho)


class TestTermination:
    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_refused(self, alpha):
        rng = np.random.default_rng(0)
        dist = random_distribution(rng)
        cls = random_class(rng, dist, 3)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            calma(bayes_predictor(dist), alpha, make_wl(cls, 0.1), ExpectationEngine.exact(dist))

    def test_immediate_exit_when_already_good(self):
        rng = np.random.default_rng(0)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 3)
        alpha = 0.2
        pred, trace = calma(bayes_predictor(dist), alpha, make_wl(cls, alpha), engine)
        assert trace.outer_iterations == 1
        assert not trace.rounds[0].recalibrated
        assert trace.rounds[0].wl_updates == 0

    def test_empty_class_ends_after_one_declined_query(self):
        # the weak learner declines on a class without members, so the first round only recalibrates
        dist = FiniteDistribution(np.array([[0.0], [1.0]]), [0.5, 0.5], [0.3, 0.7])
        alpha = 0.2
        pred, trace = calma(ConstantPredictor(0.5), alpha, make_wl(HypothesisClass(()), alpha),
                            ExpectationEngine.exact(dist))
        assert trace.outer_iterations == 1 and trace.total_wl_calls == 1 and trace.total_updates == 0
        assert trace.final_ece == pytest.approx(alpha**2 / 32, abs=1e-12) and trace.final_mae == 0.0

    def test_parity_instance_terminates_first_round(self):
        # coordinates are uncorrelated with the parity residual and the
        # constant midpoint prediction is already calibrated
        dist, cls = parity_distribution()
        engine = ExpectationEngine.exact(dist)
        alpha = 0.1
        pred, trace = calma(ConstantPredictor(0.5), alpha, make_wl(cls, alpha), engine)
        assert trace.outer_iterations == 1
        assert trace.total_updates == 0
        assert trace.final_ece <= alpha
        assert trace.final_mae <= alpha

    def test_iteration_cap_error_with_tiny_cap(self, monkeypatch):
        # anti-calibrated start with only constant hypotheses: the first
        # round must recalibrate, so a cap of one round trips the error
        from calma.core import FiniteDistribution, make_class

        pts = np.array([[0.0], [1.0]])
        dist = FiniteDistribution(pts, [0.5, 0.5], [0.1, 0.9])
        engine = ExpectationEngine.exact(dist)
        cls = make_class([])
        p0 = TablePredictor(pts, [0.9, 0.1])
        monkeypatch.setattr(training, "_CAP_FACTOR", 1e-9)
        with pytest.raises(IterationCapError):
            calma(p0, 0.1, make_wl(cls, 0.1), engine)

    def test_precondition_on_rho(self):
        rng = np.random.default_rng(2)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 3)
        wl = ExhaustiveWeakLearner(cls, rho=0.15, sigma=0.1)
        with pytest.raises(ValueError):
            calma(ConstantPredictor(0.5), 0.1, wl, engine)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("ma_batch", 0),
            ("est_ece_samples", 0),
            ("recal_samples", -5),
        ],
    )
    def test_field_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            CalmaConfig(**{field: value})

    def test_smallest_counts_accepted(self):
        CalmaConfig(ma_batch=1, est_ece_samples=1, recal_samples=1)


class TestGuarantees:
    def run_batch(self, alpha, n_instances, seed0):
        out = []
        for seed in range(seed0, seed0 + n_instances):
            rng = np.random.default_rng(seed)
            dist = random_distribution(rng, n_points=int(rng.integers(4, 21)))
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, int(rng.integers(2, 5)))
            p0 = random_predictor(rng, dist)
            wl = make_wl(cls, alpha)
            pred, trace = calma(p0, alpha, wl, engine)
            out.append((dist, engine, cls, p0, pred, trace, wl))
        return out

    def test_outputs_calibrated_and_multiaccurate(self):
        for dist, engine, cls, p0, pred, trace, wl in self.run_batch(0.1, 30, 100):
            assert ece(pred, engine) <= 0.1 + 1e-12
            assert mae(pred, cls, engine) <= 0.1 + 1e-12
            assert len(discretize(pred, trace.delta).values(dist.points)) == dist.n

    def test_iteration_and_call_bounds(self):
        alpha = 0.1
        for dist, engine, cls, p0, pred, trace, wl in self.run_batch(alpha, 30, 200):
            pot0 = distance(bayes_predictor(dist), p0, engine, "l2") ** 2
            assert trace.outer_iterations <= 1 + 8 * pot0 / alpha**2 + 1e-9
            assert trace.total_wl_calls <= pot0 / wl.sigma**2 + trace.outer_iterations + 1e-9

    def test_potential_monotone_and_recal_drop(self):
        alpha = 0.1
        saw_recal = 0
        for dist, engine, cls, p0, pred, trace, wl in self.run_batch(alpha, 40, 300):
            for r in trace.rounds[:-1]:
                # every non-final round recalibrates off a large exact estimate
                # and strictly lowers the squared distance
                assert r.recalibrated
                assert r.est_ece >= alpha / 2
                assert r.potential_after <= r.potential_before + 1e-12
                saw_recal += 1
            # the final discretization may move the potential by at most
            # twice the sup-norm perturbation delta
            last = trace.rounds[-1]
            assert last.potential_after <= last.potential_before + 2 * trace.delta + 1e-12
            # a round starts from the predictor the previous one ended with
            assert all(r.potential_before == prev.potential_after for prev, r in zip(trace.rounds, trace.rounds[1:]))
        assert saw_recal > 0  # the batch must actually exercise recalibration

    def test_exact_recalibration_round_drops_potential_enough(self):
        # a recalibrating round gains at least alpha^2 / 8 of squared distance
        alpha = 0.12
        count = 0
        for seed in range(60):
            rng = np.random.default_rng(10_000 + seed)
            dist = random_distribution(rng, n_points=20)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, 2)
            pred, trace = calma(ConstantPredictor(0.5), alpha, make_wl(cls, alpha), engine)
            for r in trace.rounds:
                if r.recalibrated:
                    count += 1
                    assert r.potential_before - r.potential_after >= alpha**2 / 8 - 1e-12
        assert count > 0


class TestSampledMode:
    def test_sampled_run_terminates_with_valid_output(self):
        rng = np.random.default_rng(3)
        dist = random_distribution(rng, n_points=8, bayes_range=(0.1, 0.9))
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2)
        alpha = 0.4
        cfg = CalmaConfig(est_ece_samples=40_000, recal_samples=60_000, ma_batch=5_000)
        sampler = DistributionSampler(dist, seed=5)
        pred, trace = calma(ConstantPredictor(0.5), alpha, make_wl(cls, alpha), engine, sampler=sampler, config=cfg)
        # audited exactly after the sampled run
        assert ece(pred, engine) <= alpha + 0.1
        assert mae(pred, cls, engine) <= alpha + 0.1
        assert trace.outer_iterations >= 1

    def test_one_pass_member_matrix_leaves_a_sampled_run_unchanged(self, monkeypatch):
        # the patched member_matrix below evaluates every member again on each weak-learner query
        axis = np.linspace(-1.0, 1.0, 6)
        points = np.array([(a, b) for a in axis for b in axis])
        rng = np.random.default_rng(8)
        mass = rng.uniform(0.2, 1.0, len(points))
        mass /= mass.sum()
        mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
        dist = FiniteDistribution(points, mass, 1.0 / (1.0 + np.exp(-(points @ rng.normal(0.0, 2.0, 2)))))
        cls = interval_class(coordinate_class(2), 0.5)
        cfg = CalmaConfig(est_ece_samples=20_000, recal_samples=20_000, ma_batch=3_000)

        def run():
            sampler = DistributionSampler(dist, seed=3)
            pred, trace = calma(ConstantPredictor(0.1), 0.05, make_wl(cls, 0.05), ExpectationEngine.exact(dist),
                                sampler=sampler, config=cfg)
            return pred.values(points), trace

        one_pass, trace = run()
        monkeypatch.setattr(ExpectationEngine, "member_matrix", lambda self, hclass: value_matrix(hclass.members, self.X))
        per_member, per_member_trace = run()
        assert trace.total_wl_calls > 10
        assert one_pass.tobytes() == per_member.tobytes()
        assert json.dumps(trace.to_dict()) == json.dumps(per_member_trace.to_dict())

    @staticmethod
    def grid_distribution():
        axis = np.linspace(-1.0, 1.0, 6)
        points = np.array([(a, b) for a in axis for b in axis])
        rng = np.random.default_rng(8)
        mass = rng.uniform(0.2, 1.0, len(points))
        mass /= mass.sum()
        mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
        return FiniteDistribution(points, mass, 1.0 / (1.0 + np.exp(-(points @ rng.normal(0.0, 2.0, 2)))))

    def test_draws_of_one_sampler_build_each_class_once(self, monkeypatch):
        # each draw was an engine of its own, so each weak-learner query built the matrix again
        dist = self.grid_distribution()
        intervals, coords = interval_class(coordinate_class(2), 0.5), coordinate_class(2)
        builds = collections.Counter()
        original = core.value_matrix
        monkeypatch.setattr(core, "value_matrix", lambda fns, X: builds.update([id(fns)]) or original(fns, X))
        first, second = DistributionSampler(dist, seed=1), DistributionSampler(dist, seed=2)
        for sampler in (first, second, first):
            for _ in range(3):
                engine = sampler.draw(500)
                for cls in (intervals, coords):
                    assert np.array_equal(engine.correlations(cls, engine.weights), engine.weights @ original(cls, dist.points))
        assert builds[id(intervals)] == builds[id(coords)] == 2  # one per class per sampler
        builds.clear()
        cfg = CalmaConfig(est_ece_samples=20_000, recal_samples=20_000, ma_batch=3_000)
        _, trace = calma(ConstantPredictor(0.1), 0.05, make_wl(intervals, 0.05), ExpectationEngine.exact(dist),
                         sampler=DistributionSampler(dist, seed=3), config=cfg)
        assert trace.total_wl_calls > 10
        assert builds[id(intervals)] == 2  # the sampler's draws, and the exact engine's final mae

    def test_paper_sizes_past_int64_fail_before_the_first_draw(self):
        # at alpha 0.05 the recalibration size is 1.92e19; numpy's multinomial raised OverflowError
        dist = self.grid_distribution()
        sampler = DistributionSampler(dist, seed=4)
        state = sampler.rng.bit_generator.state
        cls = interval_class(coordinate_class(2), 0.5)
        with pytest.raises(ValueError, match=r"alpha=0\.05 a sampled recalibration needs 1\.92e\+19 draws"):
            calma(ConstantPredictor(0.5), 0.05, make_wl(cls, 0.05), ExpectationEngine.exact(dist), sampler=sampler)
        assert sampler.rng.bit_generator.state == state
        # engine mode takes no draws, so the same sizes are not checked
        _, trace = calma(ConstantPredictor(0.5), 0.05, make_wl(cls, 0.05), ExpectationEngine.exact(dist))
        assert trace.final_mae <= 0.05

    def test_trace_serializes(self):
        rng = np.random.default_rng(4)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2)
        pred, trace = calma(ConstantPredictor(0.5), 0.2, make_wl(cls, 0.2), engine)
        d = trace.to_dict()
        assert d["alpha"] == 0.2
        assert len(d["rounds"]) == trace.outer_iterations


class TestCellIndex:
    def test_interval_class_past_the_cut_off_never_builds_its_matrix(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, seed=1, n_train=2000, n_cal=10, n_test=10))
        cls = interval_class(coordinate_class(train.dim, np.max(np.abs(train.X), axis=0).tolist()), 0.25)
        assert train.n * len(cls) > core._DENSE_MAX  # 2,000 rows x 178 members
        builds = collections.Counter()
        original = core.value_matrix
        monkeypatch.setattr(core, "value_matrix", lambda fns, X: builds.update([id(fns)]) or original(fns, X))

        def run():
            p0 = ConstantPredictor(float(np.mean(train.y)))
            return calma(p0, 0.03, make_wl(cls, 0.03), ExpectationEngine.empirical(train))

        pred, trace = run()
        assert builds[id(cls)] == 0 and trace.total_wl_calls > 5
        monkeypatch.setattr(core, "_DENSE_MAX", math.inf)
        dense_pred, dense_trace = run()
        assert builds[id(cls)] == 1
        # the same members are picked: bit-identical predictions, and the mae within rounding
        assert pred.to_dict() == dense_pred.to_dict()
        assert pred.values(train.X).tobytes() == dense_pred.values(train.X).tobytes()
        assert abs(trace.final_mae - dense_trace.final_mae) <= 1e-15


def test_trained_model_file_lists_only_moved_buckets():
    # s=4, d=10 mixture at alpha = 0.03: bucket stages of ceil(16 / alpha^2) buckets each
    train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, n_train=10_000, n_cal=1, n_test=1, seed=3))
    scales = np.max(np.abs(train.X), axis=0)
    hclass = interval_class(coordinate_class(train.dim, scales), 0.25)
    alpha = 0.03
    engine = ExpectationEngine.empirical(train)
    pred, trace = calma(ConstantPredictor(float(np.mean(train.y))), alpha, make_wl(hclass, alpha), engine)
    assert any(r.recalibrated for r in trace.rounds)
    text = json.dumps(pred.to_dict())
    assert len(text) < 10_000
    rebuilt = predictor_from_dict(json.loads(text), hclass)
    assert np.array_equal(rebuilt.values(train.X), pred.values(train.X))
    buckets = [s for s in pred.stages if s.op == "bucket"]
    assert buckets and all(len(s.values) == 17_778 for s in buckets)


def _bench_trained(backend):
    train, cal, test = gen_gaussian_mixture(MixtureConfig(s=2, d=2, n_train=1000, n_cal=500, n_test=100, seed=0))
    pred, _ = train_calma_bench(train, cal, 0.1, backend)
    return pred, None, test.X


def _exact_trained_from_table():
    # the exact benchmark's start: a random table on a 6 x 6 grid, trained at alpha = 0.1
    rng = np.random.default_rng(0)
    axis = np.linspace(-1.0, 1.0, 6)
    points = np.array([(a, b) for a in axis for b in axis])
    mass = rng.uniform(0.2, 1.0, len(points))
    mass /= mass.sum()
    mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
    bayes = 1.0 / (1.0 + np.exp(-(points @ rng.normal(0.0, 2.0, 2) + rng.normal())))
    engine = ExpectationEngine.exact(FiniteDistribution(points, mass, bayes))
    hclass = interval_class(coordinate_class(2), 0.5)
    pred, _ = calma(TablePredictor(points, rng.uniform(0.0, 1.0, len(points))), 0.1, make_wl(hclass, 0.1), engine)
    return pred, hclass, points


@pytest.mark.parametrize(
    "trainer, ops",
    [
        (lambda: _bench_trained("isotonic"), {"add_linear", "isotonic", "bucket"}),
        (lambda: _bench_trained("bucket"), {"add_linear", "bucket"}),
        (_exact_trained_from_table, {"add_hyp", "bucket"}),
    ],
    ids=["bench-isotonic", "bench-bucket", "calma-from-table"],
)
def test_trained_predictor_round_trips_through_json(trainer, ops):
    pred, hclass, X = trainer()
    assert {s.op for s in pred.stages[1:]} == ops
    rebuilt = predictor_from_dict(json.loads(json.dumps(pred.to_dict())), hclass)
    assert np.array_equal(rebuilt.values(X), pred.values(X))
