"""Calibration errors, discretization, recalibration and isotonic fitting."""

import math

import numpy as np
import pytest

from calma.calibration import (
    DatasetSampler,
    DistributionSampler,
    InsufficientSamplesError,
    WeightFunction,
    discretize,
    ece,
    est_ece_samples_needed,
    isotonic_fit,
    recal_samples_needed,
    recalibrate_with_engine,
    weighted_ce,
)
from calma.core import (
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    TablePredictor,
    bayes_predictor,
    distance,
)
from calma.multiaccuracy import mae

from support import bernoulli_dataset, random_class, random_distribution, random_predictor


def fresh_engine(sampler, n):
    """Empirical engine over n fresh draws."""
    return ExpectationEngine.empirical(sampler.draw(n))


def two_level_set_instance():
    # level set 0.2 (mass 1/2, true mean 0.4) and 0.6 (mass 1/2, true mean 0.6)
    pts = np.arange(4, dtype=float).reshape(-1, 1)
    dist = FiniteDistribution(pts, [0.25] * 4, [0.3, 0.5, 0.55, 0.65])
    pred = TablePredictor(pts, [0.2, 0.2, 0.6, 0.6])
    return dist, pred


class TestEce:
    def test_constant_at_label_mean_is_calibrated(self):
        rng = np.random.default_rng(0)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        mean = engine.expect(dist.bayes)
        assert ece(ConstantPredictor(mean), engine) <= 1e-12

    def test_all_wrong_constant(self):
        dist = FiniteDistribution(np.zeros((1, 1)), [1.0], [1.0])
        assert ece(ConstantPredictor(0.0), ExpectationEngine.exact(dist)) == 1.0

    def test_two_level_sets_hand_sum(self):
        dist, pred = two_level_set_instance()
        assert ece(pred, ExpectationEngine.exact(dist)) == pytest.approx(0.1, abs=1e-12)

    def test_empirical_groups_by_exact_value(self):
        data = Dataset(np.arange(4, dtype=float).reshape(-1, 1), [1, 0, 1, 1])
        pred = TablePredictor(data.X, [0.5, 0.5, 0.9, 0.9])
        # level sets: {0.5: mean 0.5}, {0.9: mean 1.0}
        assert ece(pred, ExpectationEngine.empirical(data)) == pytest.approx(0.05, abs=1e-12)


class TestWeightedCe:
    def test_zero_weight_family(self):
        rng = np.random.default_rng(1)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        w = WeightFunction(lambda v: np.zeros_like(v), 0.0, "0")
        assert weighted_ce(random_predictor(rng, dist), [w], engine) == 0.0

    def test_perfectly_calibrated_kills_every_weight(self):
        rng = np.random.default_rng(2)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        pred = bayes_predictor(dist)  # exactly the conditional means
        ws = [WeightFunction(lambda v, a=a: np.sin(a * v), 1.0, f"w{a}") for a in (1.0, 3.0, 7.0)]
        assert weighted_ce(pred, ws, engine) <= 1e-12

    def test_bounded_by_sup_norm_times_ece(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dist = random_distribution(rng)
            engine = ExpectationEngine.exact(dist)
            pred = random_predictor(rng, dist)
            bound = rng.uniform(0.5, 3.0)
            table = {v: rng.uniform(-bound, bound) for v in np.unique(pred.values(dist.points))}
            w = WeightFunction(lambda v, t=table: np.array([t[x] for x in v]), bound, "tbl")
            assert weighted_ce(pred, [w], engine) <= bound * ece(pred, engine) + 1e-12

    def test_sign_weight_recovers_ece(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = random_distribution(rng)
            engine = ExpectationEngine.exact(dist)
            pred = random_predictor(rng, dist)
            pv = pred.values(dist.points)
            signs = {}
            for v in np.unique(pv):
                sel = pv == v
                signs[v] = math.copysign(1.0, math.fsum((dist.mass[sel] * (dist.bayes[sel] - v)).tolist()))
            w = WeightFunction(lambda x, s=signs: np.array([s[v] for v in x]), 1.0, "sign")
            assert weighted_ce(pred, [w], engine) == pytest.approx(ece(pred, engine), abs=1e-12)


class TestDiscretize:
    def test_midpoint_snapping(self):
        pred = ConstantPredictor(0.13)
        assert discretize(pred, 0.1).values(np.zeros((1, 1)))[0] == pytest.approx(0.1)

    def test_boundary_value_one(self):
        pred = ConstantPredictor(1.0)
        assert discretize(pred, 0.1).values(np.zeros((1, 1)))[0] == pytest.approx(0.9)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        dist = random_distribution(rng)
        pred = random_predictor(rng, dist)
        once = discretize(pred, 0.05)
        twice = discretize(once, 0.05)
        np.testing.assert_allclose(once.values(dist.points), twice.values(dist.points))

    def test_linf_bound_and_discreteness(self):
        rng = np.random.default_rng(6)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        pred = random_predictor(rng, dist)
        disc = discretize(pred, 0.0625)
        assert distance(pred, disc, engine, "linf") <= 0.0625 + 1e-12
        assert disc.is_delta_discrete

    def test_awkward_delta_clamps_last_midpoint(self):
        # 0.07 does not divide 1: the top midpoint clamps to 1, keeping the
        # sup-norm bound at the cost of strict discreteness in the last cell
        rng = np.random.default_rng(6)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        pred = random_predictor(rng, dist)
        disc = discretize(pred, 0.07)
        assert distance(pred, disc, engine, "linf") <= 0.07 + 1e-12
        assert np.max(disc.bucket_values) <= 1.0

    def test_mae_perturbation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dist = random_distribution(rng)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, k=2)
            pred = random_predictor(rng, dist)
            delta = rng.uniform(0.02, 0.3)
            disc = discretize(pred, delta)
            assert mae(disc, cls, engine) <= mae(pred, cls, engine) + delta + 1e-12


class TestRecalibrateExact:
    def test_fixed_point_when_already_calibrated(self):
        # a discrete predictor equal to the conditional mean in every bucket
        pts = np.arange(3, dtype=float).reshape(-1, 1)
        vals = np.array([0.1, 0.5, 0.9])
        dist = FiniteDistribution(pts, [1 / 3] * 3, vals)
        pred = TablePredictor(pts, vals)
        rec = recalibrate_with_engine(pred, 0.1, ExpectationEngine.exact(dist))
        np.testing.assert_allclose(rec.values(pts), vals, atol=1e-12)

    def test_single_bucket_mean(self):
        dist = FiniteDistribution(np.zeros((1, 1)), [1.0], [0.7])
        rec = recalibrate_with_engine(ConstantPredictor(0.1), 0.1, ExpectationEngine.exact(dist))
        assert rec.values(np.zeros((1, 1)))[0] == pytest.approx(0.7, abs=1e-12)

    def test_empty_buckets_keep_midpoints(self):
        dist = FiniteDistribution(np.zeros((1, 1)), [1.0], [0.7])
        rec = recalibrate_with_engine(ConstantPredictor(0.1), 0.1, ExpectationEngine.exact(dist))
        np.testing.assert_allclose(rec.bucket_values[1:], (2 * np.arange(1, 5) + 1) * 0.1)

    def test_output_perfectly_calibrated(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            pred = random_predictor(rng, dist)
            rec = recalibrate_with_engine(pred, 0.08, engine)
            assert ece(rec, engine) <= 1e-12

    def test_error_reduction_inequality(self):
        # recalibration lowers the squared distance to the label means by at
        # least the squared calibration error of the discretization
        rng = np.random.default_rng(9)
        for _ in range(40):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            pstar = bayes_predictor(dist)
            pred = random_predictor(rng, dist)
            delta = rng.uniform(0.03, 0.25)
            disc = discretize(pred, delta)
            rec = recalibrate_with_engine(pred, delta, engine)
            drop = distance(pstar, disc, engine, "l2") ** 2 - distance(pstar, rec, engine, "l2") ** 2
            assert drop >= ece(disc, engine) ** 2 - 1e-12


class TestEstEce:
    def test_calibrated_predictor_scores_small(self):
        rng = np.random.default_rng(10)
        pts = np.arange(4, dtype=float).reshape(-1, 1)
        vals = np.array([0.15, 0.35, 0.55, 0.75])  # exact bucket midpoints at delta 0.05... delta=0.05 -> mids 0.05,0.15,...
        dist = FiniteDistribution(pts, [0.25] * 4, vals)
        pred = TablePredictor(pts, vals)
        fresh = fresh_engine(DistributionSampler(dist, seed=1), est_ece_samples_needed(0.05, 0.1))
        est = ece(discretize(pred, 0.05), fresh)
        assert est <= 0.1

    def test_half_predictor_all_ones(self):
        dist = FiniteDistribution(np.zeros((1, 1)), [1.0], [1.0])
        fresh = fresh_engine(DistributionSampler(dist, seed=2), est_ece_samples_needed(0.1, 0.1))
        est = ece(discretize(ConstantPredictor(0.5), 0.1), fresh)
        assert est == pytest.approx(0.5, abs=0.1)

    def test_tracks_exact_value_across_seeds(self):
        rng = np.random.default_rng(11)
        delta, mu = 0.1, 0.15
        for seed in range(20):
            dist = random_distribution(rng, n_points=8)
            engine = ExpectationEngine.exact(dist)
            pred = random_predictor(rng, dist)
            disc = discretize(pred, delta)
            exact = ece(disc, engine)
            est = ece(disc, fresh_engine(DistributionSampler(dist, seed=seed), est_ece_samples_needed(delta, mu)))
            assert abs(est - exact) <= mu

    def test_insufficient_samples(self):
        data = Dataset(np.zeros((5, 1)), [0, 1, 0, 1, 1])
        with pytest.raises(InsufficientSamplesError):
            fresh_engine(DatasetSampler(data), est_ece_samples_needed(0.1, 0.1))


class TestRecal:
    def test_sample_realizing_distribution_matches_exact(self):
        # a dataset whose rows realize the distribution exactly is the same
        # measure, so its empirical engine recalibrates like the exact engine
        rng = np.random.default_rng(12)
        counts = rng.integers(1, 5, 8)
        ones = rng.integers(0, counts + 1)
        pts = np.arange(8, dtype=float).reshape(-1, 1)
        dist = FiniteDistribution(pts, counts / counts.sum(), ones / counts)
        X = np.repeat(pts, counts, axis=0)
        y = np.concatenate([np.arange(c) < k for c, k in zip(counts, ones)]).astype(float)
        pred = random_predictor(rng, dist)
        a = recalibrate_with_engine(pred, 0.1, ExpectationEngine.empirical(Dataset(X, y)))
        b = recalibrate_with_engine(pred, 0.1, ExpectationEngine.exact(dist))
        np.testing.assert_allclose(a.bucket_values, b.bucket_values, rtol=0, atol=1e-12)

    def test_close_to_exact_bucket_means(self):
        rng = np.random.default_rng(13)
        delta = 0.1
        for seed in range(20):
            dist = random_distribution(rng, n_points=8)
            engine = ExpectationEngine.exact(dist)
            pred = random_predictor(rng, dist)
            exact = recalibrate_with_engine(pred, delta, engine)
            fresh = fresh_engine(DistributionSampler(dist, seed=seed), recal_samples_needed(delta))
            sampled = recalibrate_with_engine(pred, delta, fresh)
            assert distance(exact, sampled, engine, "l1") <= delta

    def test_corollary_error_reduction(self):
        # sampled recalibration still drops the squared distance, up to 4 delta
        rng = np.random.default_rng(14)
        delta = 0.1
        for seed in range(50):
            dist = random_distribution(rng, n_points=10)
            engine = ExpectationEngine.exact(dist)
            pstar = bayes_predictor(dist)
            pred = random_predictor(rng, dist)
            disc = discretize(pred, delta)
            fresh = fresh_engine(DistributionSampler(dist, seed=seed), recal_samples_needed(delta))
            hat = recalibrate_with_engine(pred, delta, fresh)
            drop = distance(pstar, pred, engine, "l2") ** 2 - distance(pstar, hat, engine, "l2") ** 2
            assert drop >= ece(disc, engine) ** 2 - 4 * delta - 1e-12


class TestIsotonic:
    def test_already_monotone(self):
        fit = isotonic_fit([0.1, 0.2, 0.3], [0, 1, 1])
        np.testing.assert_allclose(fit.values(np.array([0.1, 0.2, 0.3])), [0, 1, 1])

    def test_single_pool(self):
        fit = isotonic_fit([0.1, 0.2], [1, 0])
        np.testing.assert_allclose(fit.values(np.array([0.1, 0.2])), [0.5, 0.5])

    def test_beats_random_monotone_candidates(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(0, 1, 60)
        labels = (rng.random(60) < np.clip(scores + rng.normal(0, 0.3, 60), 0, 1)).astype(float)
        fit = isotonic_fit(scores, labels)
        err = np.mean((fit.values(scores) - labels) ** 2)
        for _ in range(100):
            cuts = np.sort(rng.uniform(0, 1, 4))
            vals = np.sort(rng.uniform(0, 1, 5))
            cand = vals[np.searchsorted(cuts, scores)]
            assert err <= np.mean((cand - labels) ** 2) + 1e-12

    def test_output_clipped(self):
        fit = isotonic_fit([0.0, 1.0], [0.0, 1.0])
        assert np.all(fit.values(np.linspace(0, 1, 11)) >= 0)
        assert np.all(fit.values(np.linspace(0, 1, 11)) <= 1)


class TestBucketStats:
    def test_json_fields(self):
        from calma.calibration import bucket_stats

        rng = np.random.default_rng(17)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        stats = bucket_stats(random_predictor(rng, dist), 0.1, engine)
        rows = stats.to_dicts()
        assert len(rows) == 5
        assert set(rows[0]) == {"lo", "hi", "midpoint", "count", "label_mean"}
        assert rows[0]["lo"] == 0.0 and rows[-1]["hi"] == 1.0


class TestSamplers:
    def test_dataset_sampler_consumes_without_replacement(self):
        data = Dataset(np.arange(6, dtype=float).reshape(-1, 1), [0, 1, 0, 1, 0, 1])
        s = DatasetSampler(data)
        X1 = s.draw(4).X
        X2 = s.draw(2).X
        assert s.remaining == 0
        together = np.concatenate([X1, X2]).ravel()
        np.testing.assert_array_equal(np.sort(together), np.arange(6))
        with pytest.raises(InsufficientSamplesError):
            s.draw(1)

    def test_distribution_sampler_mean(self):
        rng = np.random.default_rng(16)
        dist = random_distribution(rng, n_points=5)
        data = bernoulli_dataset(np.random.default_rng(0), dist, 200_000)
        engine = ExpectationEngine.exact(dist)
        assert np.mean(data.y) == pytest.approx(engine.expect(dist.bayes), abs=0.01)
