"""The alternating boosting/recalibration trainer and its accounting."""

import numpy as np
import pytest

from calma.calibration import DistributionSampler, discretize, ece
from calma.core import (
    ConstantPredictor,
    ExpectationEngine,
    TablePredictor,
    bayes_predictor,
    distance,
)
from calma.multiaccuracy import ExhaustiveWeakLearner, mae
from calma.training import CalmaConfig, IterationCapError, calma
from calma.audit import parity_distribution

from support import random_class, random_distribution, random_predictor


def make_wl(cls, alpha):
    rho = alpha - alpha * alpha / 32.0
    return ExhaustiveWeakLearner(cls, rho=rho, sigma=rho)


class TestTermination:
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

    def test_iteration_cap_error_with_tiny_cap(self):
        # anti-calibrated start with only constant hypotheses: the first
        # round must recalibrate, so a cap of one round trips the error
        from calma.core import FiniteDistribution, make_class

        pts = np.array([[0.0], [1.0]])
        dist = FiniteDistribution(pts, [0.5, 0.5], [0.1, 0.9])
        engine = ExpectationEngine.exact(dist)
        cls = make_class([])
        p0 = TablePredictor(pts, [0.9, 0.1])
        cfg = CalmaConfig(cap_factor=1e-9)
        with pytest.raises(IterationCapError):
            calma(p0, 0.1, make_wl(cls, 0.1), engine, config=cfg)

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
            ("est_ece_repeats", 0),
            ("est_ece_samples", 0),
            ("recal_samples", -5),
            ("est_ece_constant", 0.0),
            ("recal_constant", -1.0),
            ("cap_factor", float("nan")),
        ],
    )
    def test_field_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            CalmaConfig(**{field: value})

    def test_smallest_counts_accepted(self):
        CalmaConfig(ma_batch=1, est_ece_repeats=1, est_ece_samples=1, recal_samples=1)


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

    def test_trace_serializes(self):
        rng = np.random.default_rng(4)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2)
        pred, trace = calma(ConstantPredictor(0.5), 0.2, make_wl(cls, 0.2), engine)
        d = trace.to_dict()
        assert d["alpha"] == 0.2
        assert len(d["rounds"]) == trace.outer_iterations
