"""Indistinguishability gaps, their decompositions and bounds, the Bregman
geometry identity, and the two exact counterexample constructions."""

import collections
import gc
import itertools
import weakref

import numpy as np
import pytest

from calma import audit, core
from calma.audit import (
    _sim_lp,
    audit_family,
    omni_regret,
    parity_counterexample,
    parity_distribution,
    pm_power_loss,
    pythagorean_residual,
    random_bounded_loss,
    random_lipschitz_loss,
    sim_counterexample,
    sim_violation,
)
from calma.calibration import ece, weighted_ce
from calma.core import (
    Dataset,
    ExpectationEngine,
    FunctionPredictor,
    Hypothesis,
    HypothesisClass,
    Predictor,
    bayes_predictor,
    constant_one,
    coordinate_class,
    interval_class,
    lin_combination,
    value_matrix,
)
from calma.losses import Loss, get_loss, identity_glm, sigmoid_glm, truncated_decision
from calma.multiaccuracy import ExhaustiveWeakLearner, ma_algorithm, mae
from calma.training import calma

from support import (
    audit_row,
    random_class,
    random_distribution,
    random_predictor,
    reference_audit_rows,
    reference_exp_loss,
    reference_lp_loss,
    reference_omni_regret,
    reference_random_lipschitz_loss,
)

SAFE_REGISTRY = ["l1", "l2", "l4", "lp:3", "glm:identity", "glm:sigmoid", "glm:crelu", "exp"]


def random_audit_instance(rng):
    dist = random_distribution(rng, n_points=int(rng.integers(3, 13)))
    engine = ExpectationEngine.exact(dist)
    cls = random_class(rng, dist, int(rng.integers(1, 4)))
    pred = random_predictor(rng, dist, 0.02, 0.98)  # interior, so glm decisions stay finite
    return dist, engine, cls, pred


class TestGapBasics:
    def test_all_gaps_vanish_at_bayes(self):
        rng = np.random.default_rng(0)
        dist, engine, cls, _ = random_audit_instance(rng)
        pred = bayes_predictor(dist)
        for name in ("l2", "l4", "exp"):
            loss = get_loss(name)
            for h in cls.members[:3]:
                row = audit_row(pred, loss, h, engine)
                assert abs(row["hypothesis_gap"]) <= 1e-12
                assert abs(row["loss_gap"]) <= 1e-12
            assert abs(audit_row(pred, loss, constant_one(), engine)["decision_gap"]) <= 1e-12

    def test_decision_gap_vanishes_when_calibrated(self):
        rng = np.random.default_rng(1)
        dist = random_distribution(rng)
        engine = ExpectationEngine.exact(dist)
        pred = bayes_predictor(dist)  # calibrated (it is the label mean)
        for name in SAFE_REGISTRY:
            assert abs(audit_row(pred, get_loss(name), constant_one(), engine)["decision_gap"]) <= 1e-12

    def test_exact_mode_partial_identity(self):
        # the hypothesis gap equals E[(p - p*) partial(c(x))] pointwise
        rng = np.random.default_rng(2)
        for _ in range(20):
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss("l4")
            h = cls.members[0]
            gap = audit_row(pred, loss, h, engine)["hypothesis_gap"]
            pv = pred.values(dist.points)
            direct = engine.expect((pv - dist.bayes) * loss.partial(h.values(dist.points)))
            assert gap == pytest.approx(direct, abs=1e-12)


class TestDecomposition:
    def test_identity_500_instances(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 500:
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss(SAFE_REGISTRY[int(rng.integers(len(SAFE_REGISTRY)))])
            h = cls.members[int(rng.integers(len(cls)))]
            row = audit_row(pred, loss, h, engine)
            lg, hg, dg = row["loss_gap"], row["hypothesis_gap"], row["decision_gap"]
            assert abs(lg - (hg - dg)) <= 1e-12
            checked += 1


class TestCharacterizations:
    def test_hypothesis_gap_bounded_by_derived_mae(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss(SAFE_REGISTRY[int(rng.integers(len(SAFE_REGISTRY)))])
            derived = [
                Hypothesis(lambda X, l=loss, c=c: l.partial(c.values(X)), 1.0, f"d({c.tag})")
                for c in cls.members
            ]
            bound = mae(pred, derived, engine)
            worst = max(abs(audit_row(pred, loss, c, engine)["hypothesis_gap"]) for c in cls.members)
            assert worst <= bound + 1e-12

    def test_decision_gap_bounded_by_derived_ce(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss(SAFE_REGISTRY[int(rng.integers(len(SAFE_REGISTRY)))])
            w = lambda v, l=loss: l.partial(l.decision(v))
            bound = weighted_ce(pred, [w], engine)
            assert abs(audit_row(pred, loss, constant_one(), engine)["decision_gap"]) <= bound + 1e-12


class TestOmniRegret:
    def test_bayes_never_regrets(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dist, engine, cls, _ = random_audit_instance(rng)
            pred = bayes_predictor(dist)
            for name in ("l2", "l4", "l1"):
                assert omni_regret(pred, get_loss(name), cls.members, engine) <= 1e-12

    def test_upper_bounded_by_max_loss_gap(self):
        # acting on an indistinguishable predictor costs at most the largest gap
        rng = np.random.default_rng(7)
        for _ in range(100):
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss(SAFE_REGISTRY[int(rng.integers(len(SAFE_REGISTRY)))])
            gaps = [audit_row(pred, loss, c, engine)["loss_gap"] for c in cls.members]
            regret = omni_regret(pred, loss, cls.members, engine)
            assert max(gaps) >= regret - 1e-12

    def test_member_cache_gives_the_value_matrix_regret(self):
        # the same bits whether the family is a class, a list or a generator, on a fresh engine or a warm one
        rng = np.random.default_rng(19)
        td = truncated_decision(sigmoid_glm(), 0.05)
        for _ in range(40):
            dist, engine, cls, pred = random_audit_instance(rng)
            loss = get_loss(SAFE_REGISTRY[int(rng.integers(len(SAFE_REGISTRY)))])
            grid = [lin_combination(cls, {"h0": float(w), "-1": 0.5 - abs(float(w))}, 1.0)
                    for w in rng.uniform(-0.5, 0.5, 5)]
            for family in (cls, grid):
                for decision in (None, td):
                    want = reference_omni_regret(pred, loss, list(family), engine, decision)
                    for hypotheses in (family, list(family), (h for h in family)):
                        assert omni_regret(pred, loss, hypotheses, engine, decision) == want


class TestPythagorean:
    def test_identity_transfer_cross_term(self):
        # for the quadratic dual the residual is the negated cross moment
        rng = np.random.default_rng(8)
        glm = identity_glm()
        for _ in range(20):
            dist, engine, cls, pred = random_audit_instance(rng)
            h = cls.members[0]
            res = pythagorean_residual(pred, glm, h, engine)
            pv = pred.values(dist.points)
            hv = h.values(dist.points)
            cross = -engine.expect((dist.bayes - pv) * (pv - hv))
            assert res == pytest.approx(cross, abs=1e-12)

    @pytest.mark.parametrize("glm", [identity_glm(), sigmoid_glm()], ids=["identity", "sigmoid"])
    def test_residual_equals_loss_gap(self, glm):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dist, engine, cls, pred = random_audit_instance(rng)
            h = cls.members[int(rng.integers(len(cls)))]
            if glm.transfer_name == "sigmoid":
                # keep the transferred score inside the dual's domain
                h = Hypothesis(lambda X, h=h: 0.9 * h.values(X), 0.9, h.tag)
            res = pythagorean_residual(pred, glm, h, engine)
            gap = audit_row(pred, glm, h, engine)["loss_gap"]
            assert abs(res - gap) <= 1e-9

    def test_vanishes_at_bayes(self):
        rng = np.random.default_rng(10)
        dist, engine, cls, _ = random_audit_instance(rng)
        pred = bayes_predictor(dist)
        # keep strictly interior for the entropy dual
        pred2 = random_predictor(rng, dist, 0.1, 0.9)
        for glm in (identity_glm(),):
            assert abs(pythagorean_residual(pred, glm, cls.members[0], engine)) <= 1e-12


class TestRandomLossGenerators:
    def test_bounded_partial(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            loss = random_bounded_loss(rng)
            t = np.linspace(-1, 1, 301)
            assert np.max(np.abs(loss.partial(t))) <= 1.0 + 1e-12

    def test_one_draw_of_steps_gives_the_scalar_loop(self):
        # the same knots, decision and generator position as 20 scalar draws clipped one by one
        t = np.linspace(-1, 1, 1001)
        for seed in range(1000):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = random_lipschitz_loss(got_rng), reference_random_lipschitz_loss(want_rng)
            assert got.partial(t).tobytes() == want.partial(t).tobytes()
            assert got.decision(0.5) == want.decision(0.5) and got.name == want.name
            assert got_rng.random() == want_rng.random()

    def test_lipschitz_partial(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            loss = random_lipschitz_loss(rng)
            t = np.linspace(-1, 1, 301)
            vals = loss.partial(t)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12
            slopes = np.abs(np.diff(vals)) / (t[1] - t[0])
            assert np.max(slopes) <= 1.0 + 1e-9


class TestGeneralLossRoutes:
    def test_boolean_class_four_alpha(self):
        # calibration alpha + multiaccuracy alpha control every bounded loss
        rng = np.random.default_rng(13)
        for _ in range(20):
            dist = random_distribution(rng, n_points=8)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, 2, values="boolean")
            pred = random_predictor(rng, dist)
            alpha = max(ece(pred, engine), mae(pred, cls, engine))
            for _ in range(50):
                loss = random_bounded_loss(rng)
                for c in cls.members:
                    if c.tag.startswith("-"):
                        continue
                    assert abs(audit_row(pred, loss, c, engine)["loss_gap"]) <= 4 * alpha + 1e-9

    def test_interval_class_controls_lipschitz_losses(self):
        # boosting to alpha^2 over the interval indicators bounds every
        # 1-Lipschitz hypothesis gap by 3 alpha
        rng = np.random.default_rng(14)
        alpha = 0.3
        for seed in range(10):
            local = np.random.default_rng(seed)
            dist = random_distribution(local, n_points=10)
            engine = ExpectationEngine.exact(dist)
            cls = random_class(local, dist, 2)
            ints = interval_class(cls, alpha)
            wl = ExhaustiveWeakLearner(ints, rho=alpha**2, sigma=alpha**2)
            result = ma_algorithm(random_predictor(local, dist), alpha**2, wl, engine)
            pred = result.predictor
            assert mae(pred, ints, engine) <= alpha**2 + 1e-12
            for _ in range(20):
                loss = random_lipschitz_loss(local)
                for c in cls.members:
                    if c.tag.startswith("-"):
                        continue
                    assert abs(audit_row(pred, loss, c, engine)["hypothesis_gap"]) <= 3 * alpha + 1e-9


class TestRelaxedDecisions:
    def test_relaxed_regret_bound_after_training(self):
        # truncated logistic decisions: regret <= D ece + B mae + delta
        glm = sigmoid_glm()
        td = truncated_decision(glm, 0.01)
        B = 2.0
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            dist = random_distribution(rng, n_points=10, bayes_range=(0.05, 0.95))
            engine = ExpectationEngine.exact(dist)
            cls = random_class(rng, dist, 2)
            alpha = 0.15
            rho = alpha - alpha**2 / 32
            pred, trace = calma(
                random_predictor(rng, dist), alpha, ExhaustiveWeakLearner(cls, rho, rho), engine
            )
            a1 = ece(pred, engine)
            a2 = mae(pred, cls, engine)
            grid = []
            for _ in range(30):
                raw = rng.uniform(-1, 1, 2)
                raw = raw / max(np.sum(np.abs(raw)), 1e-9) * rng.uniform(0, B)
                grid.append(lin_combination(cls, {"h0": float(raw[0]), "h1": float(raw[1])}, B))
            regret = omni_regret(pred, glm, grid, engine, decision=td)
            assert regret <= td.bound * a1 + B * a2 + 0.01 + 1e-9


class TestAuditFamily:
    def test_report_consistency(self):
        rng = np.random.default_rng(15)
        dist, engine, cls, pred = random_audit_instance(rng)
        losses = [get_loss("l2"), get_loss("l4")]
        report = audit_family(pred, losses, cls.members, engine)
        assert len(report.rows) == 2 * len(cls)
        assert report.max_decomposition_residual <= 1e-12
        d = report.to_dict()
        assert d["max_abs_loss_gap"] == report.max_abs_loss_gap
        assert report.warnings == () and d["warnings"] == []

    def test_report_records_loss_warnings(self):
        rng = np.random.default_rng(15)
        dist, engine, cls, pred = random_audit_instance(rng)
        with pytest.warns(UserWarning) as caught:
            report = audit_family(pred, [get_loss("l2"), get_loss("exp")], cls.members, engine)
        assert report.warnings == tuple(str(w.message) for w in caught)
        assert len(report.warnings) == 1 and report.warnings[0].startswith("exp: |discrete derivative|")
        assert caught[0].filename == __file__  # names the caller, not calma/audit.py
        d = report.to_dict()
        assert d["warnings"] == list(report.warnings)
        assert set(d) == {"pairs", "max_abs_hypothesis_gap", "max_abs_decision_gap", "max_abs_loss_gap",
                          "max_decomposition_residual", "warnings"}

    def test_class_reads_the_engines_member_matrix(self, monkeypatch):
        rng = np.random.default_rng(17)
        dist, engine, _, pred = random_audit_instance(rng)
        cls = interval_class(coordinate_class(dist.points.shape[1]), 0.5)
        losses = [get_loss("l1"), get_loss("l2"), random_bounded_loss(rng)]
        by_class = audit_family(pred, losses, cls, engine)
        evaluated = []
        values = Hypothesis.values
        monkeypatch.setattr(Hypothesis, "values", lambda h, X: evaluated.append(h.tag) or values(h, X))
        cached = engine.member_matrix(cls)  # cached for a later mae
        assert engine.member_matrix(cls.members) is cached and evaluated == []
        ExpectationEngine.exact(dist).member_matrix(cls.members)
        assert evaluated == [h.tag for h in cls.members]  # a fresh engine evaluates every member
        monkeypatch.undo()
        assert by_class == audit_family(pred, losses, cls.members, ExpectationEngine.exact(dist))

    def test_audit_then_mae_build_one_matrix(self, monkeypatch):
        engine, cls, pred, _ = self._block_instance("empirical")
        builds = []
        monkeypatch.setattr(core, "value_matrix", lambda fns, X: builds.append(len(fns)) or value_matrix(fns, X))
        audit_family(pred, [get_loss("l2"), get_loss("l4")], cls.members, engine)
        got = mae(pred, cls, engine)
        assert builds == [len(cls)]  # the tuple's entry is the class's
        monkeypatch.undo()
        assert got == mae(pred, cls, ExpectationEngine(engine.X, engine.weights, engine.ystar))

    def test_fresh_members_never_read_a_freed_lists_entry(self):
        dist = random_distribution(np.random.default_rng(18), n_points=6)
        engine = ExpectationEngine.exact(dist)

        def constants(values):
            return [Hypothesis(lambda X, v=v: np.full(len(X), v), 1.0, f"c{v:g}") for v in values]

        first = constants([0.25, 0.5])
        held = engine.member_matrix(first)
        alive = [weakref.ref(h) for h in first]
        del first
        gc.collect()
        assert all(ref() is not None for ref in alive)  # the entry holds its members, so their ids stay taken
        for trial in range(1, 50):
            fresh = constants([-trial / 64, trial / 64])
            got = engine.member_matrix(fresh)
            assert got is not held and got.tobytes() == value_matrix(fresh, dist.points).tobytes()
            del fresh, got
            gc.collect()

    def test_predictions_and_decisions_computed_once(self, monkeypatch):
        rng = np.random.default_rng(16)
        dist, engine, cls, base = random_audit_instance(rng)
        losses = [get_loss("l2"), get_loss("glm:sigmoid"), random_bounded_loss(rng)]

        class CountingPredictor(Predictor):
            calls = 0

            def values(self, X):
                CountingPredictor.calls += 1
                return base.values(X)

        decisions = collections.Counter()
        decision = Loss.decision

        def counted(loss, p):
            decisions[loss.name] += 1
            return decision(loss, p)

        monkeypatch.setattr(Loss, "decision", counted)
        report = audit_family(CountingPredictor(), losses, cls.members, engine)
        assert CountingPredictor.calls == 1
        assert decisions == {loss.name: 1 for loss in losses}
        monkeypatch.undo()
        # the batched report agrees with the reference rows, computed on whole matrices
        reference = reference_audit_rows(base, losses, cls.members, engine)
        for (_, tag, hg, dg, lg, _), (_, _, rhg, rdg, rlg, _), (_, h) in zip(
            report.rows, reference, itertools.product(losses, cls.members)
        ):
            assert tag == h.tag
            assert abs(hg - rhg) <= 1e-12
            assert abs(dg - rdg) <= 1e-12
            assert abs(lg - rlg) <= 1e-12

    @staticmethod
    def _block_instance(engine_kind):
        """An exact instance with real-valued table members, or 4001 sampled
        rows over 13 coordinate members: more than one default row block."""
        rng = np.random.default_rng(31)
        if engine_kind == "exact":
            _, engine, cls, pred = random_audit_instance(rng)
        else:
            X = rng.uniform(-1.0, 1.0, size=(4001, 6))
            engine = ExpectationEngine.empirical(Dataset(X, (rng.random(4001) < 0.5).astype(float)))
            cls = coordinate_class(6)
            pred = FunctionPredictor(lambda X: 0.5 + 0.4 * np.tanh(X[:, 0] - X[:, 1]))
            assert len(X) * len(cls) > audit._BLOCK_ENTRIES
        losses = [get_loss(name) for name in SAFE_REGISTRY]
        losses += [random_bounded_loss(rng), random_lipschitz_loss(rng), pm_power_loss(4, 0.5)]
        return engine, cls, pred, losses

    @pytest.mark.filterwarnings("ignore:.*on its action domain:UserWarning")
    @pytest.mark.parametrize("block", ["one-row", "ragged", "default"])
    @pytest.mark.parametrize("form", ["class", "tuple", "list", "generator"])
    @pytest.mark.parametrize("engine_kind", ["exact", "empirical"])
    def test_row_blocks_give_the_unblocked_rows(self, monkeypatch, engine_kind, form, block):
        # every form of the members reads one cache entry; the reference evaluates them through value_matrix
        engine, cls, pred, losses = self._block_instance(engine_kind)
        n, k = len(engine.X), len(cls)
        want = reference_audit_rows(pred, losses, list(cls.members), engine)
        if block == "one-row":
            monkeypatch.setattr(audit, "_BLOCK_ENTRIES", 1)
        elif block == "ragged":  # the smallest row count above one that leaves a short last block
            monkeypatch.setattr(audit, "_BLOCK_ENTRIES", k * next(r for r in itertools.count(2) if n % r))
        hypotheses = {"class": lambda: cls, "tuple": lambda: cls.members, "list": lambda: list(cls.members),
                      "generator": lambda: (h for h in cls.members)}[form]()
        report = audit_family(pred, losses, hypotheses, engine)
        assert len(report.rows) == len(losses) * k
        assert report.rows == want

    @pytest.mark.filterwarnings("ignore:.*on its action domain:UserWarning")
    @pytest.mark.parametrize("block", ["one-row", "default"])
    @pytest.mark.parametrize("engine_kind", ["exact", "empirical"])
    def test_product_curves_against_the_pow_form_rows(self, monkeypatch, engine_kind, block):
        # the reference's curves are the float-pow forms: l4 and l3 rows move by a few ulp of each
        # curve value, every other row keeps its bits
        engine, cls, pred, losses = self._block_instance(engine_kind)
        pow_forms = {"l1": reference_lp_loss(1), "l2": reference_lp_loss(2), "l4": reference_lp_loss(4),
                     "l3": reference_lp_loss(3), "exp": reference_exp_loss()}
        want = reference_audit_rows(pred, [pow_forms.get(loss.name, loss) for loss in losses], list(cls.members), engine)
        if block == "one-row":
            monkeypatch.setattr(audit, "_BLOCK_ENTRIES", 1)
        got = audit_family(pred, losses, cls, engine).rows
        scale = float(np.sum(np.abs(engine.weights * (pred.values(engine.X) - engine.ystar))))
        assert len(got) == len(want) and {row[0] for row in want} >= set(pow_forms)
        for row, ref in zip(got, want):
            assert row[:2] == ref[:2]
            if row[0] in ("l4", "l3"):
                assert max(abs(a - b) for a, b in zip(row[2:], ref[2:])) <= 1e-14 * scale, (row, ref)
            else:
                assert row == ref

    @pytest.mark.parametrize("engine_kind", ["exact", "empirical"])
    def test_empty_class_or_loss_list_gives_no_rows(self, engine_kind):
        engine, cls, pred, _ = self._block_instance(engine_kind)
        losses = [get_loss("l2"), get_loss("glm:sigmoid")]
        for hypotheses in (HypothesisClass(()), ()):
            assert audit_family(pred, losses, hypotheses, engine) == audit.OIGapReport(())
        assert audit_family(pred, [], cls, engine) == audit.OIGapReport(())

    @pytest.mark.filterwarnings("ignore:.*on its action domain:UserWarning")
    def test_peak_memory_is_two_loss_matrices(self):
        # the two loss buffers and the row blocks' temporaries come to 2.08 member matrices
        # here; evaluating each loss curve on the whole matrix reaches 4.0
        import tracemalloc

        import scipy.special  # noqa: F401  (the exp and sigmoid decisions import it on first use)

        rng = np.random.default_rng(8)
        X = rng.normal(size=(10_000, 10))
        engine = ExpectationEngine.empirical(Dataset(X, (rng.random(10_000) < 0.5).astype(float)))
        cls = interval_class(coordinate_class(10, np.max(np.abs(X), axis=0).tolist()), 0.25)
        members = engine.member_matrix(cls)
        assert members.shape == (10_000, 178)
        pred = FunctionPredictor(lambda X: 0.5 + 0.4 * np.tanh(X[:, 0]))
        losses = [get_loss(name) for name in ("l1", "l2", "l4", "exp", "glm:sigmoid")]
        tracemalloc.start()
        try:
            audit_family(pred, losses, cls, engine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * members.nbytes, peak / members.nbytes


class TestParityConstruction:
    def test_report_values(self):
        r = parity_counterexample()
        assert r.mae <= 1e-12
        assert r.multicalibration_residual <= 1e-12
        assert abs(r.e_label_c) <= 1e-12
        assert r.e_label_c_cubed == pytest.approx(2 / 9, abs=1e-12)
        assert r.l4_hypothesis_gap == pytest.approx(4 / 9, abs=1e-12)
        assert r.l4_hypothesis_gap_quarter_scale == pytest.approx(2 / 9, abs=1e-12)
        assert abs(r.l4_decision_gap) <= 1e-12
        assert abs(r.l2_decision_gap) <= 1e-12
        assert r.l2_omni_regret <= 1e-9
        assert r.l4_omni_regret <= 1e-9

    def test_plus_minus_decisions(self):
        pm2 = pm_power_loss(2, 0.5)
        assert pm2.decision(0.75) == pytest.approx(0.5)
        pm4 = pm_power_loss(4, 0.5)
        assert pm4.decision(0.5) == pytest.approx(0.0, abs=1e-12)
        assert pm4.decision(1.0) == pytest.approx(1.0)
        assert pm4.decision(0.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("power", [1, 3])
    def test_plus_minus_power_outside_2_and_4_refused(self, power):
        with pytest.raises(ValueError, match="pm_power_loss supports powers 2 and 4"):
            pm_power_loss(power, 0.5)

    def test_distribution_shape(self):
        dist, cls = parity_distribution()
        assert dist.n == 8
        assert set(np.unique(dist.bayes)) == {0.0, 1.0}


class TestSimConstruction:
    def test_constant_sim_violation(self):
        assert sim_violation(np.full(4, 3 / 8)) == pytest.approx(1 / 8, abs=1e-12)

    def test_bayes_table_is_feasible_but_unreachable(self):
        assert sim_violation(np.array([0.0, 0.5, 1.0, 0.0])) == 0.0

    def test_report(self):
        r = sim_counterexample(60)
        assert r.ma_system_residual <= 1e-12
        assert not r.bayes_is_unate
        assert r.constant_violation == pytest.approx(1 / 8, abs=1e-9)
        # the construction's true optimum over single-index models is 1/20
        assert r.min_violation == pytest.approx(0.05, abs=1e-9)
        assert r.min_violation_value_grid > 0.05
        # the reported minimizer is a genuine predictor with that violation
        assert sim_violation(np.array(r.best_predictor)) == pytest.approx(r.min_violation, abs=1e-9)

    def test_gridded_lp_is_the_exhaustive_grid_minimum(self):
        # 21 grid points hold the continuum optimum (0.2, 0.2, 0.9, 0.2)
        grid = np.linspace(0.0, 1.0, 21)
        bayes = np.array([0.0, 0.5, 1.0, 0.0])
        subcubes = [np.array(m, dtype=bool) for m in ([1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1])]
        partitions = [
            lab for lab in itertools.product(range(4), repeat=4) if set(lab) == set(range(max(lab) + 1))
        ]
        assert len(partitions) == 75  # every ordered partition of the four points into blocks
        for labels in partitions:
            labels = np.array(labels)
            nb = labels.max() + 1
            blocks = [labels == i for i in range(nb)]
            W = np.array(list(itertools.combinations_with_replacement(grid, nb)))
            P = W[:, labels]  # each row a nondecreasing block assignment, spread to the points
            ece = sum(np.mean(blk) * np.abs(np.mean(bayes[blk]) - W[:, i]) for i, blk in enumerate(blocks))
            bias = np.max([np.abs(np.mean(bayes[m]) - np.mean(P[:, m], axis=1)) for m in subcubes], axis=0)
            val, p = _sim_lp(blocks, 21)
            assert val == pytest.approx(float(np.min(np.maximum(ece, bias))), abs=1e-12), labels
            assert np.all(np.isin(p, grid)), (labels, p)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            sim_counterexample(10)
