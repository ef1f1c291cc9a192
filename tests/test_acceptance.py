"""Acceptance suite: every criterion at its stated tolerance, one summary
line per criterion."""

import time

import numpy as np

from calma.audit import (
    decision_oi_gap,
    hypothesis_oi_gap,
    loss_oi_gap,
    omni_regret,
    parity_counterexample,
    pythagorean_residual,
    random_bounded_loss,
    random_lipschitz_loss,
    sim_counterexample,
)
from calma.bench import BENCH_COLUMNS, MixtureConfig, aggregate_results, run_benchmark
from calma.calibration import (
    DistributionSampler,
    discretize,
    ece,
    recal_samples_needed,
    recalibrate_with_engine,
    weighted_ce,
)
from calma.core import (
    ExpectationEngine,
    Hypothesis,
    bayes_predictor,
    distance,
    interval_class,
    lin_combination,
)
from calma.losses import get_loss, identity_glm, sigmoid_glm, truncated_decision
from calma.multiaccuracy import ExhaustiveWeakLearner, l1_glm_fit, ma_algorithm, mae
from calma.training import calma

from support import (
    bernoulli_dataset,
    random_class,
    random_distribution,
    random_predictor,
)

REGISTRY = ["l1", "l2", "l4", "lp:3", "glm:identity", "glm:sigmoid", "glm:crelu", "exp"]


def note(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS: {msg}")


def random_audit_instance(rng, max_points=13):
    dist = random_distribution(rng, n_points=int(rng.integers(3, max_points)))
    engine = ExpectationEngine.exact(dist)
    cls = random_class(rng, dist, int(rng.integers(1, 4)))
    pred = random_predictor(rng, dist, 0.02, 0.98)
    return dist, engine, cls, pred


def test_criterion_01_parity_counterexample():
    start = time.perf_counter()
    r = parity_counterexample()
    elapsed = time.perf_counter() - start
    assert r.mae <= 1e-12
    assert abs(r.e_label_c_cubed - 2 / 9) <= 1e-12
    assert abs(r.l4_hypothesis_gap - 4 / 9) <= 1e-12
    assert r.l2_omni_regret <= 1e-9
    assert r.l4_omni_regret <= 1e-9
    assert elapsed < 1.0
    note(1, f"parity: mae=0, E[y c^3]=2/9, l4 gap=4/9, regrets<=0 in {elapsed:.2f}s")


def test_criterion_02_decomposition_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        dist, engine, cls, pred = random_audit_instance(rng, max_points=21)
        loss = get_loss(REGISTRY[int(rng.integers(len(REGISTRY)))])
        h = cls.members[int(rng.integers(len(cls)))]
        lg = loss_oi_gap(pred, loss, h, engine)
        hg = hypothesis_oi_gap(pred, loss, h, engine)
        dg = decision_oi_gap(pred, loss, engine)
        worst = max(worst, abs(lg - (hg - dg)))
    assert worst <= 1e-12
    note(2, f"loss gap = hypothesis gap - decision gap on 500 instances (worst {worst:.2e})")


def test_criterion_03_characterizations():
    rng = np.random.default_rng(36)
    violations = 0
    for _ in range(500):
        dist, engine, cls, pred = random_audit_instance(rng, max_points=21)
        loss = get_loss(REGISTRY[int(rng.integers(len(REGISTRY)))])
        derived = [
            Hypothesis(lambda X, l=loss, c=c: l.partial(c.values(X)), 1.0, f"d({c.tag})")
            for c in cls.members
        ]
        hyp_bound = mae(pred, derived, engine)
        worst_hyp = max(abs(hypothesis_oi_gap(pred, loss, c, engine)) for c in cls.members)
        w = lambda v, l=loss: l.partial(l.decision(v))
        ce_bound = weighted_ce(pred, [w], engine)
        if worst_hyp > hyp_bound + 1e-12 or abs(decision_oi_gap(pred, loss, engine)) > ce_bound + 1e-12:
            violations += 1
    assert violations == 0
    note(3, "hypothesis/decision gaps bounded by derived-class MAE/CE on 500 instances")


def test_criterion_04_boosting_potential_drop():
    rng = np.random.default_rng(4)
    for _ in range(100):
        dist = random_distribution(rng, n_points=int(rng.integers(3, 16)))
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, int(rng.integers(1, 4)))
        sigma = float(rng.uniform(0.05, 0.2))
        wl = ExhaustiveWeakLearner(cls, rho=sigma, sigma=sigma)
        result = ma_algorithm(random_predictor(rng, dist), sigma, wl, engine)
        for u in result.updates:
            assert u.potential_before - u.potential_after >= sigma**2 * (1 - 1e-9)
        assert mae(result.predictor, cls, engine) <= sigma + 1e-12
    note(4, "every boosting update drops the potential by sigma^2; outputs multiaccurate")


def test_criterion_05_calma_guarantees():
    start = time.perf_counter()
    total = 0
    for alpha in (0.1, 0.05):
        rho = alpha - alpha**2 / 32
        for seed in range(50):
            rng = np.random.default_rng(10_000 + seed)
            dist = random_distribution(rng, n_points=int(rng.integers(4, 21)))
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, int(rng.integers(2, 5)))
            p0 = random_predictor(rng, dist)
            wl = ExhaustiveWeakLearner(cls, rho=rho, sigma=rho)
            pred, trace = calma(p0, alpha, wl, engine)
            pot0 = distance(bayes_predictor(dist), p0, engine, "l2") ** 2
            assert trace.outer_iterations <= 1 + 8 * pot0 / alpha**2 + 1e-9
            assert ece(pred, engine) <= alpha + 1e-12
            assert mae(pred, cls, engine) <= alpha + 1e-12
            assert trace.total_wl_calls <= pot0 / wl.sigma**2 + trace.outer_iterations + 1e-9
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    note(5, f"{total} trainings calibrated+multiaccurate within iteration/call bounds in {elapsed:.1f}s")


def test_criterion_06_recalibration_error_reduction():
    rng = np.random.default_rng(6)
    delta = 0.1
    for seed in range(50):
        local = np.random.default_rng(600 + seed)
        dist = random_distribution(local, n_points=10)
        engine = ExpectationEngine.exact(dist)
        pstar = bayes_predictor(dist)
        pred = random_predictor(local, dist)
        disc = discretize(pred, delta)
        ece_sq = ece(disc, engine) ** 2
        exact = recalibrate_with_engine(pred, delta, engine)
        drop_exact = distance(pstar, disc, engine, "l2") ** 2 - distance(pstar, exact, engine, "l2") ** 2
        assert drop_exact >= ece_sq - 1e-12
        fresh = DistributionSampler(dist, seed=seed).draw(recal_samples_needed(delta))
        hat = recalibrate_with_engine(pred, delta, fresh)
        drop_hat = distance(pstar, pred, engine, "l2") ** 2 - distance(pstar, hat, engine, "l2") ** 2
        assert drop_hat >= ece_sq - 4 * delta - 1e-12
    note(6, "exact recal drop >= ECE^2 and sampled recal drop >= ECE^2 - 4 delta on 50 seeds")


def test_criterion_07_regularized_glm_multiaccuracy():
    from calma.losses import crelu_glm

    for glm in (sigmoid_glm(), crelu_glm()):
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            dist = random_distribution(rng, n_points=12, dim=3)
            data = bernoulli_dataset(rng, dist, 400)
            cls = random_class(rng, dist, 3)
            fit = l1_glm_fit(cls, glm, alpha=0.1, data=data, tol=1e-6)
            engine = ExpectationEngine.empirical(data)
            assert mae(fit.predictor, cls, engine) <= 0.1 + 1e-5
    note(7, "L1-regularized fits are 0.1-multiaccurate (KKT-certified) for both transfers")


def test_criterion_08_pythagorean_identity_and_bound():
    rng = np.random.default_rng(8)
    for glm in (identity_glm(), sigmoid_glm()):
        for _ in range(100):
            dist, engine, cls, pred = random_audit_instance(rng)
            h = cls.members[int(rng.integers(len(cls)))]
            if glm.transfer_name == "sigmoid":
                h = Hypothesis(lambda X, h=h: 0.9 * h.values(X), 0.9, h.tag)
            res = pythagorean_residual(pred, glm, h, engine)
            gap = loss_oi_gap(pred, glm, h, engine)
            assert abs(res - gap) <= 1e-9

    # after training: residuals over budgeted combinations stay within
    # (weighted calibration) + budget * (multiaccuracy)
    glm = sigmoid_glm()
    B = 2.0
    for seed in range(10):
        rng = np.random.default_rng(800 + seed)
        dist = random_distribution(rng, n_points=10, bayes_range=(0.1, 0.9))
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2)
        alpha = 0.15
        rho = alpha - alpha**2 / 32
        pred, _ = calma(random_predictor(rng, dist), alpha, ExhaustiveWeakLearner(cls, rho, rho), engine)
        w = lambda v: -glm.kfn(np.clip(v, 1e-9, 1 - 1e-9))
        a1 = weighted_ce(pred, [w], engine)
        a2 = mae(pred, cls, engine)
        for _ in range(20):
            raw = rng.uniform(-1, 1, 2)
            raw = raw / max(np.sum(np.abs(raw)), 1e-9) * rng.uniform(0.1, B)
            h = lin_combination(cls, {"h0": float(raw[0]), "h1": float(raw[1])}, B)
            res = pythagorean_residual(pred, glm, h, engine)
            assert abs(res) <= a1 + B * a2 + 1e-9
    note(8, "|residual - loss gap| <= 1e-9 on 200 pairs; trained residuals within a1 + B a2")


def test_criterion_09_general_loss_routes():
    rng = np.random.default_rng(9)
    # Boolean classes: calibration + multiaccuracy control all bounded losses
    for _ in range(10):
        dist = random_distribution(rng, n_points=8)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2, values="boolean")
        pred = random_predictor(rng, dist)
        alpha = max(ece(pred, engine), mae(pred, cls, engine))
        for _ in range(50):
            loss = random_bounded_loss(rng)
            for c in cls.members:
                if not c.tag.startswith("-"):
                    assert abs(loss_oi_gap(pred, loss, c, engine)) <= 4 * alpha + 1e-9

    # interval indicators: alpha^2-multiaccuracy controls Lipschitz losses by 3 alpha
    alpha = 0.3
    for seed in range(5):
        local = np.random.default_rng(900 + seed)
        dist = random_distribution(local, n_points=10)
        engine = ExpectationEngine.exact(dist)
        cls = random_class(local, dist, 2)
        ints = interval_class(cls, alpha)
        wl = ExhaustiveWeakLearner(ints, rho=alpha**2, sigma=alpha**2)
        pred = ma_algorithm(random_predictor(local, dist), alpha**2, wl, engine).predictor
        assert mae(pred, ints, engine) <= alpha**2 + 1e-12
        for _ in range(20):
            loss = random_lipschitz_loss(local)
            for c in cls.members:
                if not c.tag.startswith("-"):
                    assert abs(hypothesis_oi_gap(pred, loss, c, engine)) <= 3 * alpha + 1e-9
    note(9, "Boolean 4-alpha and interval 3-alpha loss-gap routes hold with zero violations")


TABLE1_ROW = {"l2": 0.21, "l1": 0.35, "exp": 1.54, "log": 0.61}


def test_criterion_10_benchmark_reproduction():
    start = time.perf_counter()
    tables = {}
    iterations = {}
    for s, d in ((2, 2), (4, 4), (4, 10)):
        results = [run_benchmark(MixtureConfig(s=s, d=d, seed=seed), alpha=0.1) for seed in range(5)]
        tables[(s, d)] = aggregate_results(results)
        iterations[(s, d)] = [r.iterations for r in results]
    elapsed = time.perf_counter() - start

    # the trained predictor competes with every per-loss linear optimum
    for key, agg in tables.items():
        for col in BENCH_COLUMNS:
            assert agg["calma"][col]["mean"] <= agg["optimal"][col]["mean"] + 0.05, (key, col)

    # the s=2, d=2 baseline row reproduces the published values
    for col, target in TABLE1_ROW.items():
        got = tables[(2, 2)]["optimal"][col]["mean"]
        assert abs(got - target) <= 0.05, (col, got, target)

    # d=10: the trained predictor's log-loss never trails the linear fit by more
    # than the tolerance (here it matches it, since the truth is single-index)
    assert (
        tables[(4, 10)]["calma"]["log"]["mean"]
        <= tables[(4, 10)]["optimal"]["log"]["mean"] + 0.05
    )
    assert elapsed < 300.0
    row = {c: round(tables[(2, 2)]["optimal"][c]["mean"], 3) for c in BENCH_COLUMNS}
    note(10, f"benchmark rows reproduced in {elapsed:.0f}s; table-1 baselines {row}; iterations {iterations}")


def test_criterion_11_sim_counterexample():
    r = sim_counterexample(100)
    assert r.min_violation_value_grid > 0.05
    assert r.ma_system_residual <= 1e-12
    note(
        11,
        f"SIM grid search at resolution 100: min violation {r.min_violation_value_grid:.4f} > 0.05 "
        f"(exact optimum {r.min_violation:.4f}); bias system algebra residual {r.ma_system_residual:.1e}",
    )


def test_criterion_12_truncated_decisions():
    td = truncated_decision(sigmoid_glm(), 0.01)
    assert td.certified <= 0.01
    assert td.bound <= 10.0

    glm = sigmoid_glm()
    B = 2.0
    for seed in range(10):
        rng = np.random.default_rng(1200 + seed)
        dist = random_distribution(rng, n_points=10, bayes_range=(0.05, 0.95))
        engine = ExpectationEngine.exact(dist)
        cls = random_class(rng, dist, 2)
        alpha = 0.15
        rho = alpha - alpha**2 / 32
        pred, _ = calma(random_predictor(rng, dist), alpha, ExhaustiveWeakLearner(cls, rho, rho), engine)
        a1 = ece(pred, engine)
        a2 = mae(pred, cls, engine)
        grid = []
        for _ in range(30):
            raw = rng.uniform(-1, 1, 2)
            raw = raw / max(np.sum(np.abs(raw)), 1e-9) * rng.uniform(0, B)
            grid.append(lin_combination(cls, {"h0": float(raw[0]), "h1": float(raw[1])}, B))
        regret = omni_regret(pred, glm, grid, engine, decision=td)
        assert regret <= td.bound * a1 + B * a2 + 0.01 + 1e-9
    note(12, f"logistic truncation: D={td.bound:g} <= 10, certified {td.certified:.2e} <= 0.01; relaxed regret bounded")
