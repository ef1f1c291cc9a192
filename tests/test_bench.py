"""Synthetic mixture generation, per-loss baselines, and the table harness."""

import numpy as np
import pytest

from calma import bench
from calma.bench import (
    BENCH_COLUMNS,
    MixtureConfig,
    column_value_for_predictions,
    column_value_for_score,
    fit_linear_baseline,
    gen_gaussian_mixture,
    markdown_table,
    run_benchmark,
    train_calma_bench,
)
from calma.bench import _Design, _exp_line_search, _fit_l2, _kink_walk, _l1_line_search
from calma.calibration import bucket_means, bucket_midpoints, ece
from calma.core import Dataset, ExpectationEngine, PipelinePredictor

from support import (
    is_delta_discrete,
    l1_tilt,
    reference_exp_line_search,
    reference_fit_exp,
    reference_fit_l1,
    reference_fit_l1_lp,
    reference_fit_l2,
    reference_kink_walk,
    reference_l1_line_search,
)


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


class TestBaselines:
    def test_l2_recovers_exact_linear_targets(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3000, 3))
        w_true = np.array([0.4, -0.2, 0.1])
        y = X @ w_true + 0.3  # noiseless linear scores
        beta, grad_norm, converged = _fit_l2(_Design(X), y)
        np.testing.assert_allclose(beta[:-1], w_true, atol=1e-9)
        assert beta[-1] == pytest.approx(0.3, abs=1e-9)
        assert converged and grad_norm <= 1e-12

    @pytest.mark.parametrize("duplicated", [False, True], ids=["full-rank", "duplicated-column"])
    def test_l2_matches_one_lstsq_solve(self, duplicated):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=6, n_cal=10, n_test=10))
        X = np.column_stack([train.X, train.X[:, 1]]) if duplicated else train.X
        beta, grad_norm, _ = _fit_l2(_Design(X), train.y)
        ref_beta, _, _ = reference_fit_l2(X, train.y)
        # on the duplicated column both split the weight evenly: the minimum-norm solution
        assert np.max(np.abs(beta - ref_beta)) <= 1e-12 * np.max(np.abs(ref_beta))
        assert grad_norm <= 1e-12

    def test_logistic_kkt(self):
        cfg = MixtureConfig(s=2, d=2, seed=5, n_test=10)
        train, _, _ = gen_gaussian_mixture(cfg)
        fit = fit_linear_baseline("log", train)
        assert fit.grad_norm <= 1e-6

    def test_logistic_newton_does_not_stall_near_its_optimum(self):
        # the damped steps demanded a decrease of 1e-12 that no step near the
        # optimum can deliver, and stopped after 200 steps at a gradient of 1.1e-8
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=2, seed=17, n_cal=10, n_test=10))
        fit = fit_linear_baseline("log", train)
        assert fit.converged and fit.grad_norm <= 1e-9

    @pytest.mark.parametrize("extra", ["duplicated", "constant"])
    def test_logistic_splits_a_dependent_column_by_minimum_norm(self, extra):
        # the Newton Hessian of such a design is singular: np.linalg.solve raised on it, or
        # returned steps of norm ~1e15
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=6, n_cal=10, n_test=10))
        ref = fit_linear_baseline("log", train)
        col = train.X[:, 0] if extra == "duplicated" else np.full(train.n, 3.7)
        fit = fit_linear_baseline("log", Dataset(np.column_stack([train.X, col]), train.y))
        assert fit.converged and fit.grad_norm <= 1e-9
        if extra == "duplicated":  # x0's weight, halved on x0 and on its copy
            want = np.concatenate([[ref.w[0] / 2], ref.w[1:], [ref.w[0] / 2, ref.b]])
        else:  # the intercept, split between the column 3.7 and the constant 1
            want = np.concatenate([ref.w, np.array([3.7, 1.0]) * ref.b / (1 + 3.7**2)])
        assert np.max(np.abs(np.append(fit.w, fit.b) - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_logistic_on_separable_data_does_not_converge(self, seed):
        # 8 mixture rows tiled 40 times are linearly separable: the logistic loss has no minimizer,
        # although the Newton steps reach a gradient norm below 1e-9 at a large ||w||
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, seed=seed))
        data = Dataset(np.tile(train.X[:8], (40, 1)), np.tile(train.y[:8], 40))
        fit = fit_linear_baseline("log", data)
        assert np.all((fit.score(data.X) > 0) == (data.y == 1))
        assert not fit.converged and fit.grad_norm <= 1e-9

    def test_logistic_on_fewer_distinct_rows_than_coefficients(self):
        # 3 distinct rows, 5 coefficients: the fit meets each row's label mean and has no
        # component in the null space of the rows
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=6, n_cal=10, n_test=10))
        rows = train.X[:3]
        y = np.concatenate([np.tile([1.0, 0, 0, 0], 5), np.tile([1.0, 0], 10), np.tile([1.0, 1, 1, 0], 5)])
        fit = fit_linear_baseline("log", Dataset(np.repeat(rows, 20, axis=0), y))
        assert fit.converged and fit.grad_norm <= 1e-9
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(-fit.score(rows))), [0.25, 0.5, 0.75], atol=1e-9)
        X1, beta = np.column_stack([rows, np.ones(3)]), np.append(fit.w, fit.b)
        assert np.linalg.norm(beta - np.linalg.pinv(X1) @ (X1 @ beta)) <= 1e-9 * np.linalg.norm(beta)

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

    def test_a_carried_design_fits_the_bits_of_a_fresh_one(self):
        # one carried design serves all four fits of a cell, as in run_benchmark; each plain fit factors its own
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=1, n_train=600, n_cal=10, n_test=10))
        carried = bench._FactoredDataset(train.X, train.y)
        for name in BENCH_COLUMNS:
            a, b = fit_linear_baseline(name, carried), fit_linear_baseline(name, train)
            assert np.array_equal(a.w, b.w) and a.b == b.b, name
            assert a.grad_norm == b.grad_norm and a.converged == b.converged, name

    def test_unknown_loss_is_named_before_any_factoring(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=2, seed=1, n_train=50, n_cal=10, n_test=10))
        calls = []
        monkeypatch.setattr(bench, "_factor", lambda A: calls.append(A.shape))
        monkeypatch.setattr(bench, "_Design", lambda X: calls.append(X.shape))
        with pytest.raises(ValueError, match="'hinge'"):
            fit_linear_baseline("hinge", train)
        assert calls == []


_KKT_CELLS = [(s, d, seed, 3000) for s, d in ((2, 2), (4, 4), (4, 10)) for seed in (1, 2)] + [(2, 2, 5, 40)]
# the two table cells (perfbench seed 1 cycle 228 and seed 2 cycle 72) where HiGHS on the l1 dual stops at a
# non-optimal vertex, so ``reference_fit_l1_lp`` cannot be the oracle there
_HIGHS_MISSES = [(4, 10, 326577375, 3000), (4, 4, 1015108820, 3000)]
# (cell, whether its first feature column is duplicated): a rank-deficient design has directions that move no residual
_WALK_CELLS = [(cell, False) for cell in _KKT_CELLS + _HIGHS_MISSES] + [((4, 4, 3, 3000), True)]
_WALK_IDS = ["-".join(map(str, cell)) + ("-dup" if dup else "") for cell, dup in _WALK_CELLS]


def walk_train(s, d, seed, n_train, duplicated):
    train, _, _ = gen_gaussian_mixture(MixtureConfig(s=s, d=d, seed=seed, n_train=n_train, n_cal=10, n_test=10))
    return Dataset(np.column_stack([train.X, train.X[:, 0]]), train.y) if duplicated else train


class TestL1Kernel:
    """The l1 walk solves least absolute deviations exactly; its optimality is
    checked here with an independent KKT certificate, not with the walk's own
    multipliers, and against HiGHS on the linear-program dual."""

    @pytest.mark.parametrize("cell,duplicated", _WALK_CELLS, ids=_WALK_IDS)
    def test_kkt_certificate(self, cell, duplicated):
        train = walk_train(*cell, duplicated)
        fit = fit_linear_baseline("l1", train)
        assert fit.converged and fit.grad_norm <= 1e-12
        X1 = np.column_stack([train.X, np.ones(train.n)])
        r = train.y - fit.score(train.X)
        # 0 lies in the subdifferential: the points fitted exactly carry
        # weights u in [-1, 1] that cancel the sign sum of all other points
        zero = np.abs(r) <= 1e-9
        rhs = -X1[~zero].T @ np.sign(r[~zero])
        u, *_ = np.linalg.lstsq(X1[zero].T, rhs, rcond=None)
        assert np.max(np.abs(u)) <= 1.0
        assert np.linalg.norm(X1[zero].T @ u - rhs) <= 1e-12

    def test_never_worse_than_reference_loop(self):
        for s, d, n_train in ((2, 2, 3000), (4, 4, 3000), (2, 2, 40)):
            train, _, _ = gen_gaussian_mixture(MixtureConfig(s=s, d=d, seed=1, n_train=n_train))
            fit = fit_linear_baseline("l1", train)
            ref_beta, _ = reference_fit_l1(train.X, train.y)
            ref_score = train.X @ ref_beta[:-1] + ref_beta[-1]
            assert column_value_for_score("l1", fit.score(train.X), train.y) <= column_value_for_score(
                "l1", ref_score, train.y
            )

    @staticmethod
    def objective(X, y, beta):
        return column_value_for_score("l1", X @ beta[:-1] + beta[-1], y)

    @pytest.mark.parametrize("s,d,seed,n_train", _KKT_CELLS)
    def test_train_objective_matches_the_lp(self, s, d, seed, n_train):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=s, d=d, seed=seed, n_train=n_train, n_cal=10, n_test=10))
        beta, _, _ = _kink_walk(_Design(train.X), train.y, True)
        lp_beta, _, lp_converged = reference_fit_l1_lp(train.X, train.y)
        walk, lp = self.objective(train.X, train.y, beta), self.objective(train.X, train.y, lp_beta)
        assert lp_converged and abs(walk - lp) <= 1e-12 * lp

    @staticmethod
    def line_search_case(rng, n, ahead_share):
        """(r, q) with about ``ahead_share`` of the points' kinks ahead, the first
        always: the larger the share, the later the slope turns."""
        r = rng.normal(size=n)
        q = np.abs(rng.normal(size=n)) * np.where(rng.random(n) < ahead_share, np.sign(r), -np.sign(r))
        q[0] = abs(q[0]) * np.sign(r[0])
        return r, q

    def test_line_search_matches_the_full_sort(self):
        rng = np.random.default_rng(23)
        for n in (1, 5, 31, 32, 33, 200, 3000):
            for ahead_share in (0.5, 0.8, 0.97, 1.0):
                r, q = self.line_search_case(rng, n, ahead_share)
                assert _l1_line_search(r, q, l1_tilt(r, q)) == reference_l1_line_search(r, q)

    def test_line_search_with_tied_kinks_and_zero_residuals(self):
        rng = np.random.default_rng(24)
        for n in (6, 40, 300, 3000):
            for ahead_share in (0.5, 0.9, 1.0):
                r, q = self.line_search_case(rng, n, ahead_share)
                # few distinct kinks, and some residuals exactly 0
                r = np.sign(r) * np.ceil(np.abs(r) * 2) / 2
                q = np.sign(q) * np.ceil(np.abs(q) * 2) / 2
                r[1::5] = 0.0
                alpha, i = _l1_line_search(r, q, l1_tilt(r, q))
                assert alpha == reference_l1_line_search(r, q)[0] and alpha == r[i] / q[i]

    def test_step_cap_reports_unconverged_without_raising(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=1, n_cal=10, n_test=10))
        monkeypatch.setattr(bench, "_L1_MAX_STEPS", 1)
        beta, gnorm, converged = _kink_walk(_Design(train.X), train.y, True)
        assert not converged and np.all(np.isfinite(beta)) and gnorm > 1e-9

    def test_constant_only_design(self):
        y = np.array([1.0] * 6 + [0.0] * 4)
        fit = fit_linear_baseline("l1", Dataset(np.zeros((10, 1)), y))
        # the label median minimizes the mean absolute error
        assert fit.converged and fit.grad_norm <= 1e-12
        assert fit.score(np.zeros((1, 1)))[0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_column(self):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=2, seed=3, n_cal=10, n_test=10))
        X = np.column_stack([train.X, train.X[:, 0]])
        beta, gnorm, converged = _kink_walk(_Design(X), train.y, True)
        assert converged and gnorm <= 1e-12
        lp_beta, _, _ = reference_fit_l1_lp(train.X, train.y)
        walk, lp = self.objective(X, train.y, beta), self.objective(train.X, train.y, lp_beta)
        assert abs(walk - lp) <= 1e-12 * lp


class TestExpKernel:
    """The exp walk minimizes mean exp(|y - t|) exactly; its optimality is
    checked here with an independent KKT certificate, not with the solver's
    own multipliers."""

    @staticmethod
    def assert_kkt(X, y, fit):
        X1 = np.column_stack([X, np.ones(len(y))])
        r = y - fit.score(X)
        # 0 lies in the subdifferential: the points fitted exactly carry
        # weights in [-1, 1] that cancel sign(r) exp(|r|) summed over the others
        zero = np.abs(r) <= 1e-9
        rhs = -X1[~zero].T @ (np.sign(r[~zero]) * np.exp(np.abs(r[~zero])))
        sigma, *_ = np.linalg.lstsq(X1[zero].T, rhs, rcond=None)
        assert np.max(np.abs(sigma), initial=0.0) <= 1.0
        # on the mean scale of grad_norm: the 3000-term sum itself rounds near 1e-11
        assert np.linalg.norm(X1[zero].T @ sigma - rhs) / len(y) <= 1e-12

    @pytest.mark.parametrize("s,d,seed,n_train", _KKT_CELLS)
    def test_kkt_certificate_and_never_worse_than_reference(self, s, d, seed, n_train):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=s, d=d, seed=seed, n_train=n_train, n_cal=10, n_test=10))
        fit = fit_linear_baseline("exp", train)
        assert fit.converged and fit.grad_norm <= 1e-9
        self.assert_kkt(train.X, train.y, fit)
        ref_beta, _ = reference_fit_exp(train.X, train.y)
        ref_score = train.X @ ref_beta[:-1] + ref_beta[-1]
        assert column_value_for_score("exp", fit.score(train.X), train.y) <= column_value_for_score(
            "exp", ref_score, train.y
        )

    def test_line_search_matches_the_reference(self):
        rng = np.random.default_rng(25)
        checked = 0
        for case in range(600):
            n = int(rng.choice([2, 10, 100, 3000]))
            r, q = rng.normal(size=n) * rng.choice([0.1, 1.0, 3.0]), rng.normal(size=n)
            if case % 3 == 0:
                r[::7] = 0.0  # residuals that just left their kink
            if case % 5 == 0:
                r, q = np.round(r * 2) / 2, np.round(q * 2) / 2  # tied kinks
            if -np.dot(np.where(r == 0.0, -np.sign(q), np.sign(r)) * q, np.exp(np.abs(r))) >= 0:
                continue  # the walk searches only along descent directions
            alpha, i = _exp_line_search(r, q)
            ref_alpha, ref_i = reference_exp_line_search(r, q)
            assert i == ref_i and abs(alpha - ref_alpha) <= 1e-12 * ref_alpha
            checked += 1
        assert checked > 200

    def test_step_cap_reports_unconverged_without_raising(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=4, seed=1, n_cal=10, n_test=10))
        monkeypatch.setattr(bench, "_EXP_MAX_STEPS", 1)
        beta, gnorm, converged = _kink_walk(_Design(train.X), train.y, False)
        assert not converged and np.all(np.isfinite(beta)) and gnorm > 1e-9

    def test_constant_only_design(self):
        y = np.array([1.0] * 6 + [0.0] * 4)
        fit = fit_linear_baseline("exp", Dataset(np.zeros((10, 1)), y))
        # minimizes (6 exp(1 - b) + 4 exp(b)) / 10
        assert fit.converged and fit.grad_norm <= 1e-9
        assert fit.score(np.zeros((1, 1)))[0] == pytest.approx((1.0 + np.log(1.5)) / 2.0, abs=1e-12)

    def test_duplicated_column(self):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=2, seed=3, n_cal=10, n_test=10))
        X = np.column_stack([train.X, train.X[:, 0]])
        fit = fit_linear_baseline("exp", Dataset(X, train.y))
        assert fit.converged and fit.grad_norm <= 1e-9
        self.assert_kkt(X, train.y, fit)
        np.testing.assert_allclose(fit.score(X), fit_linear_baseline("exp", train).score(train.X), atol=1e-9)


class TestReferenceWalk:
    """``_kink_walk`` factors each pinned set once and updates the inverse of
    the pinned rows at l1 vertices; ``support.reference_kink_walk`` solves
    afresh on every step.  Both must reach the same train objective."""

    @pytest.mark.parametrize("l1", [True, False], ids=["l1", "exp"])
    @pytest.mark.parametrize("cell,duplicated", _WALK_CELLS, ids=_WALK_IDS)
    def test_same_train_objective_as_the_reference_walk(self, cell, duplicated, l1):
        train = walk_train(*cell, duplicated)
        beta, _, converged = bench._kink_walk(_Design(train.X), train.y, l1)
        ref_beta, _, ref_converged = reference_kink_walk(train.X, train.y, l1)
        column = "l1" if l1 else "exp"
        walk, ref = (column_value_for_score(column, train.X @ b[:-1] + b[-1], train.y) for b in (beta, ref_beta))
        assert converged and ref_converged and abs(walk - ref) <= 1e-12 * ref

    @staticmethod
    def counted_factors(monkeypatch):
        calls = []
        factor = bench._factor
        monkeypatch.setattr(bench, "_factor", lambda A: calls.append(len(A)) or factor(A))
        return calls

    def test_refactoring_at_every_vertex_reaches_the_same_vertex(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, seed=1, n_cal=10, n_test=10))
        calls = self.counted_factors(monkeypatch)
        beta, _, _ = _kink_walk(_Design(train.X), train.y, True)
        updated = len(calls)
        # |pivot| <= |row| |column|, so a cut-off of 1 refactors from scratch at every vertex
        monkeypatch.setattr(bench, "_TINY_PIVOT", 1.0)
        refactored, gnorm, converged = _kink_walk(_Design(train.X), train.y, True)
        assert len(calls) - updated > 2 * updated
        assert converged and gnorm <= 1e-12
        walk, ref = (TestL1Kernel.objective(train.X, train.y, b) for b in (beta, refactored))
        assert abs(walk - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("l1", [True, False], ids=["l1", "exp"])
    def test_full_length_line_searches_take_the_free_points_step(self, monkeypatch, l1):
        # the walk passes all n points, with q = 0 at the pinned ones (every point whose residual is
        # within _ON_KINK of 0 but the one just released, whose residual is set to exactly 0)
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, seed=1, n_cal=10, n_test=10))
        name = "_l1_line_search" if l1 else "_exp_line_search"
        line_search, calls = getattr(bench, name), []
        monkeypatch.setattr(bench, name, lambda *args: calls.append([a.copy() for a in args]) or line_search(*args))
        _, _, converged = bench._kink_walk(_Design(train.X), train.y, l1)
        search = (lambda r, q: line_search(r, q, l1_tilt(r, q))) if l1 else line_search
        pinned_counts = []
        for r, q, *sign in calls:
            pinned = (np.abs(r) <= bench._ON_KINK) & (r != 0.0)
            pinned_counts.append(int(pinned.sum()))
            assert np.all(q[pinned] == 0.0)
            if l1:  # the walk's own sign array tilts the search as l1_tilt does, to the bit
                assert np.dot(sign[0], q) == np.dot(l1_tilt(r, q), q)
            free = np.flatnonzero(~pinned)
            alpha, at = search(r, q)
            free_alpha, free_at = search(r[free], q[free])
            assert at == (free[free_at] if free_at >= 0 else -1)
            assert abs(alpha - free_alpha) <= 1e-12 * free_alpha
        assert converged and len(calls) > 10 and max(pinned_counts) >= 5

    def test_exp_steps_reuse_the_factor_of_an_unchanged_pinned_set(self, monkeypatch):
        train, _, _ = gen_gaussian_mixture(MixtureConfig(s=4, d=10, seed=1, n_cal=10, n_test=10))
        calls = self.counted_factors(monkeypatch)
        searches = []
        line_search = bench._exp_line_search
        monkeypatch.setattr(bench, "_exp_line_search", lambda r, q: searches.append(len(r)) or line_search(r, q))
        fit = fit_linear_baseline("exp", train)
        assert fit.converged and 0 < len(calls) < len(searches)


class TestTrainer:
    def test_recalibration_layer_present(self):
        cfg = MixtureConfig(s=2, d=2, seed=11, n_test=10)
        train, cal, _ = gen_gaussian_mixture(cfg)
        for backend, op in (("isotonic", "isotonic"), ("bucket", "bucket")):
            pred, rounds = train_calma_bench(train, cal, alpha=0.1, recal_backend=backend)
            assert rounds >= 1
            assert any(stage.op == op for stage in pred.stages)
        # each bucket stage holds the shared bucket-mean values of the
        # predictions it recalibrates, on the cal split; the last stage is the
        # discretization to bucket midpoints
        *body, last = pred.stages
        assert last.op == "bucket" and np.array_equal(last.values, bucket_midpoints(last.delta))
        for i, stage in enumerate(body):
            if stage.op == "bucket":
                pv_cal = PipelinePredictor(pred.stages[:i]).values(cal.X)
                assert np.array_equal(stage.values, bucket_means(pv_cal, cal.y, np.full(cal.n, 1 / cal.n), stage.delta))

    def test_returns_the_predictor_it_certified(self):
        alpha = 0.1
        train, cal, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=2, seed=11, n_test=10))
        pred, _ = train_calma_bench(train, cal, alpha=alpha)
        assert isinstance(pred, PipelinePredictor) and is_delta_discrete(pred.stages[-1])
        assert ece(pred, ExpectationEngine.empirical(cal)) <= 0.75 * alpha

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

    def test_table_cell_within_tolerance_of_every_optimum(self):
        # a cell whose log column, scored on the undiscretized trainer
        # output, trailed its optimum by 0.053
        r = run_benchmark(MixtureConfig(s=2, d=2, seed=1912112398), alpha=0.1)
        for col in BENCH_COLUMNS:
            assert r.rows["calma"][col] <= r.rows["optimal"][col] + 0.05, col

    def test_single_cell_quality(self):
        cfg = MixtureConfig(s=2, d=2, seed=0)
        r = run_benchmark(cfg, alpha=0.1)
        for col in BENCH_COLUMNS:
            assert r.rows["calma"][col] <= r.rows["optimal"][col] + 0.06
        assert set(r.rows) == {"optimal", "calma", "linear_regression"}

    @staticmethod
    def counted_design_factors(monkeypatch, shape):
        """Lists that grow by one entry per ``_factor`` call on a matrix of ``shape`` (a
        training design) and per least-squares solve through a factored design."""
        factored, solved = [], []
        factor, solve = bench._factor, bench._Design.solve

        def counted_factor(A):
            if A.shape == shape:
                factored.append(A.shape)
            return factor(A)

        monkeypatch.setattr(bench, "_factor", counted_factor)
        monkeypatch.setattr(bench._Design, "solve", lambda self, y: solved.append(len(y)) or solve(self, y))
        return factored, solved

    @pytest.mark.parametrize("alpha,backend,rounds", [(0.1, "isotonic", 2), (0.03, "isotonic", 3), (0.02, "bucket", 10)])
    def test_one_cell_factors_its_design_once(self, monkeypatch, alpha, backend, rounds):
        cfg = MixtureConfig(s=4, d=4, seed=1, n_train=600, n_cal=300, n_test=100)
        factored, solved = self.counted_design_factors(monkeypatch, (cfg.n_train, cfg.d + 1))
        assert run_benchmark(cfg, alpha=alpha, recal_backend=backend).iterations == rounds
        # the l2 fit, the l1 and exp walk starts and every trainer round solve through the one factor
        assert len(factored) == 1 and len(solved) >= 3 + rounds

    def test_each_entry_point_factors_its_design_once_per_call(self, monkeypatch):
        train, cal, _ = gen_gaussian_mixture(MixtureConfig(s=2, d=3, seed=4, n_train=500, n_cal=300, n_test=10))
        factored, _ = self.counted_design_factors(monkeypatch, (train.n, train.dim + 1))
        for name, factors in (("l2", 1), ("l1", 1), ("exp", 1), ("log", 0)):
            before = len(factored)
            fit_linear_baseline(name, train)
            assert len(factored) - before == factors, name
        before = len(factored)
        train_calma_bench(train, cal, alpha=0.1)
        assert len(factored) - before == 1

    def test_markdown_table(self):
        cfg = MixtureConfig(s=2, d=2, seed=2, n_train=400, n_cal=200, n_test=400)
        r = run_benchmark(cfg, alpha=0.1)
        md = markdown_table(r.rows, lambda v: f"{v:.3f}")
        assert md.count("|") > 10
        assert "calma" in md

    def test_log_column_stays_finite_at_extreme_predictions(self):
        y = np.array([1.0, 0.0])
        v = column_value_for_predictions("log", np.array([0.0, 1.0]), y)
        assert np.isfinite(v)
