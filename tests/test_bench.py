"""Synthetic mixture generation, per-loss baselines, and the table harness."""

import numpy as np
import pytest

from calma.bench import (
    BENCH_COLUMNS,
    MixtureConfig,
    column_value_for_predictions,
    column_value_for_score,
    fit_linear_baseline,
    gen_gaussian_mixture,
    run_benchmark,
    train_calma_bench,
)
from calma.bench import _fit_l2
from calma.calibration import bucket_means
from calma.core import Dataset, PipelinePredictor


class TestGenerator:
    def test_shapes_and_labels(self):
        cfg = MixtureConfig(s=2, d=2, n_train=10, n_cal=6, n_test=8, seed=1)
        train, cal, test = gen_gaussian_mixture(cfg)
        assert train.X.shape == (10, 2) and cal.X.shape == (6, 2) and test.X.shape == (8, 2)
        for split in (train, cal, test):
            assert set(np.unique(split.y)) <= {0.0, 1.0}
            assert abs(np.mean(split.y) - 0.5) <= 0.5 / len(split.y) + 1e-12  # exactly balanced

    def test_deterministic(self):
        cfg = MixtureConfig(s=2, d=3, n_train=50, n_cal=20, n_test=20, seed=7)
        a = gen_gaussian_mixture(cfg)
        b = gen_gaussian_mixture(cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)
            np.testing.assert_array_equal(x.y, y.y)

    def test_class_conditional_shift(self):
        cfg = MixtureConfig(s=2, d=2, n_train=3000, n_cal=10, n_test=10, seed=3)
        train, _, _ = gen_gaussian_mixture(cfg)
        diff = train.X[train.y == 1].mean(axis=0) - train.X[train.y == 0].mean(axis=0)
        np.testing.assert_allclose(diff, cfg.shift, atol=0.2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MixtureConfig(s=0)
        with pytest.raises(ValueError):
            MixtureConfig(d=1)
        with pytest.raises(ValueError):
            MixtureConfig(shift=np.array([1.0, 1.0]))


class TestBaselines:
    def test_l2_recovers_exact_linear_targets(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 3))
        w_true = np.array([0.4, -0.2, 0.1])
        y = X @ w_true + 0.3  # noiseless linear scores
        w, b = _fit_l2(X, y)
        np.testing.assert_allclose(w, w_true, atol=1e-9)
        assert b == pytest.approx(0.3, abs=1e-9)

    def test_logistic_kkt(self):
        cfg = MixtureConfig(s=2, d=2, seed=5, n_test=10)
        train, _, _ = gen_gaussian_mixture(cfg)
        fit = fit_linear_baseline("log", train)
        assert fit.grad_norm <= 1e-6

    def test_constant_only_l2_equals_label_mean(self):
        data = Dataset(np.zeros((10, 1)), [1, 1, 1, 0, 0, 1, 0, 1, 1, 0])
        fit = fit_linear_baseline("l2", data)
        assert fit.score(np.zeros((1, 1)))[0] == pytest.approx(0.6, abs=1e-9)

    def test_beats_best_constant(self):
        cfg = MixtureConfig(s=2, d=2, seed=9, n_test=10)
        train, _, _ = gen_gaussian_mixture(cfg)
        consts = np.linspace(0, 1, 201)
        for name in BENCH_COLUMNS:
            fit = fit_linear_baseline(name, train)
            fitted = column_value_for_score(name, fit.score(train.X), train.y)
            best_const = min(
                column_value_for_score(name, np.full(train.n, c), train.y) for c in consts
            )
            assert fitted <= best_const + 1e-9


class TestTrainer:
    def test_recalibration_layer_present(self):
        cfg = MixtureConfig(s=2, d=2, seed=11, n_test=10)
        train, cal, _ = gen_gaussian_mixture(cfg)
        for backend, op in (("isotonic", "isotonic"), ("bucket", "bucket")):
            pred, rounds = train_calma_bench(train, cal, alpha=0.1, recal_backend=backend)
            assert rounds >= 1
            assert any(stage[0] == op for stage in pred.stages)
        # each bucket stage holds the shared bucket-mean values of the
        # predictions it recalibrates, on the cal split
        for i, stage in enumerate(pred.stages):
            if stage[0] == "bucket":
                pv_cal = PipelinePredictor(pred.stages[:i]).values(cal.X)
                assert np.array_equal(stage[2], bucket_means(pv_cal, cal.y, np.ones(cal.n), stage[1]))

    def test_backend_validated(self):
        cfg = MixtureConfig(s=2, d=2, seed=11, n_test=10)
        train, cal, _ = gen_gaussian_mixture(cfg)
        with pytest.raises(ValueError):
            train_calma_bench(train, cal, recal_backend="platt")


class TestHarness:
    def test_deterministic_rows(self):
        cfg = MixtureConfig(s=2, d=2, seed=2)
        a = run_benchmark(cfg, alpha=0.1)
        b = run_benchmark(cfg, alpha=0.1)
        assert a.rows == b.rows
        assert a.iterations == b.iterations

    def test_single_cell_quality(self):
        cfg = MixtureConfig(s=2, d=2, seed=0)
        r = run_benchmark(cfg, alpha=0.1)
        for col in BENCH_COLUMNS:
            assert r.rows["calma"][col] <= r.rows["optimal"][col] + 0.06
        assert set(r.rows) == {"optimal", "calma", "linear_regression"}

    def test_markdown_table(self):
        cfg = MixtureConfig(s=2, d=2, seed=2, n_train=400, n_cal=200, n_test=400)
        r = run_benchmark(cfg, alpha=0.1)
        md = r.to_markdown()
        assert md.count("|") > 10
        assert "calma" in md

    def test_log_column_stays_finite_at_extreme_predictions(self):
        y = np.array([1.0, 0.0])
        v = column_value_for_predictions("log", np.array([0.0, 1.0]), y)
        assert np.isfinite(v)
