"""Losses, discrete derivatives, optimal decisions, transfers and duals."""

import dataclasses
import math

import numpy as np
import pytest

from calma import losses
from calma.audit import _interp_loss, random_bounded_loss, random_lipschitz_loss
from calma.losses import (
    Loss,
    OutOfRangeError,
    UnboundedBelowError,
    bregman,
    crelu_glm,
    exp_loss,
    get_loss,
    identity_glm,
    lp_loss,
    optimal_decision,
    sigmoid_glm,
    squared_loss,
    truncated_decision,
)

from support import reference_exp_loss, reference_lp_loss

ALL_GLMS = [identity_glm(), sigmoid_glm(), crelu_glm()]
REGISTRY = ["l1", "l2", "l4", "lp:3", "glm:identity", "glm:sigmoid", "glm:crelu", "exp"]


class TestLpLoss:
    def test_partial_l2(self):
        loss = lp_loss(2)
        # (1/2)((1-t)^2 - t^2) = (1 - 2t)/2
        assert loss.partial(0.3) == pytest.approx(0.2, abs=1e-15)
        assert loss.partial(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_l1_value(self):
        assert lp_loss(1).loss(1.0, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_loss(0.5)

    def test_partial_formula_on_unit_interval(self):
        rng = np.random.default_rng(0)
        for p in (1, 1.5, 2, 3, 4):
            loss = lp_loss(p)
            t = rng.uniform(0, 1, 50)
            np.testing.assert_allclose(loss.partial(t), ((1 - t) ** p - t**p) / p, atol=1e-12)


def _same_bits(got, want) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN (its sign and
    payload are not part of a curve's contract)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return got.shape == want.shape and np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64)
    )


class TestCurveOracle:
    """The curves against ``support``'s float-pow, out-of-place forms."""

    SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    REFERENCES = {"l1": lambda: reference_lp_loss(1), "l2": lambda: reference_lp_loss(2),
                  "lp:1.5": lambda: reference_lp_loss(1.5), "exp": reference_exp_loss,
                  "l4": lambda: reference_lp_loss(4), "lp:3": lambda: reference_lp_loss(3)}

    @classmethod
    def values(cls):
        """[-1, 1], N(0, 30), the special values, 1e+-200 and subnormals, as is and
        reflected about 1/2 (so both curves see each)."""
        rng = np.random.default_rng(41)
        tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e200])
        t = np.concatenate([rng.uniform(-1.0, 1.0, 100_000), rng.normal(0.0, 30.0, 100_000), cls.SPECIAL, tiny, -tiny])
        return np.concatenate([t, 1.0 - t])

    @staticmethod
    def curves(name):
        return [getattr(loss, c) for loss in (get_loss(name), TestCurveOracle.REFERENCES[name]()) for c in ("at0", "at1")]

    @pytest.mark.parametrize("name", ["l1", "l2", "exp", "lp:1.5"])
    def test_arrays_give_the_bits_of_the_pow_form(self, name):
        at0, at1, ref0, ref1 = self.curves(name)
        t = self.values()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(at0(t), ref0(t)) and _same_bits(at1(t), ref1(t))
            assert _same_bits(at0(t.reshape(-1, 2)), ref0(t).reshape(-1, 2))

    @pytest.mark.parametrize("name", ["l1", "l2", "exp", "lp:1.5"])
    def test_scalars_lists_and_0d_arrays_give_the_bits_of_the_pow_form(self, name):
        # a scalar has the bits it has inside an array; the pow form's own scalar path agrees on
        # the special values (elsewhere numpy's scalar pow can miss its array loop by 1 ulp)
        at0, at1, ref0, ref1 = self.curves(name)
        loss, ref = get_loss(name), self.REFERENCES[name]()
        rng = np.random.default_rng(42)
        xs = self.SPECIAL + rng.uniform(-2.0, 2.0, 200).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            for x in xs:
                want0, want1 = ref0(np.array([x]))[0], ref1(np.array([x]))[0]
                for form in (x, np.float64(x), np.array(x)):
                    assert _same_bits(at0(form), want0) and _same_bits(at1(form), want1)
                    assert _same_bits(loss.partial(form), ref.partial(np.array([x]))[0])
                    assert np.ndim(at0(form)) == 0 and not isinstance(at0(form), np.ndarray)
            for x in self.SPECIAL:
                assert _same_bits(at0(x), ref0(x)) and _same_bits(at1(x), ref1(x))
            assert _same_bits(at0(xs), ref0(np.array(xs))) and _same_bits(loss.partial(xs), ref.partial(xs))
            assert _same_bits(loss.loss([0.0, 0.3, 1.0], xs[:3]), ref.loss([0.0, 0.3, 1.0], xs[:3]))

    @pytest.mark.parametrize("name", ["l4", "lp:3"])
    def test_products_stay_within_two_ulp_of_the_pow_form(self, name):
        at0, at1, ref0, ref1 = self.curves(name)
        t = self.values()
        with np.errstate(over="ignore", invalid="ignore"):
            for got, want in ((at0(t), ref0(t)), (at1(t), ref1(t))):
                assert np.array_equal(np.isnan(got), np.isnan(want))
                np.testing.assert_array_max_ulp(got[~np.isnan(want)], want[~np.isnan(want)], maxulp=2)
            for x in self.SPECIAL:
                assert _same_bits(at0(x), ref0(x)) and _same_bits(at1(x), ref1(x))

    def test_curves_do_not_write_their_input(self):
        t = self.values()
        for name in self.REFERENCES:
            before = t.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                get_loss(name).partial(t)
                get_loss(name).loss(0.5, t)
            assert _same_bits(t, before)


class TestDiscreteTaylor:
    def test_identity_for_every_registry_loss(self):
        # E[loss(y, t)] - E[loss(y', t)] = (p - p') * partial(t), exactly
        rng = np.random.default_rng(1)
        for name in REGISTRY:
            loss = get_loss(name)
            for _ in range(40):
                p, p2 = rng.uniform(0, 1, 2)
                t = rng.uniform(*loss.action_domain)
                lhs = loss.loss(p, t) - loss.loss(p2, t)
                rhs = (p - p2) * loss.partial(t)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestOptimalDecision:
    def test_l2_is_identity(self):
        assert optimal_decision(lp_loss(2), 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_l1_rounds(self):
        loss = lp_loss(1)
        assert optimal_decision(loss, 0.7) == 1.0
        assert optimal_decision(loss, 0.3) == 0.0
        assert optimal_decision(loss, 0.5) == 1.0  # tie resolved upward

    def test_logistic_decision(self):
        assert optimal_decision(sigmoid_glm(), 0.75) == pytest.approx(math.log(3), abs=1e-12)

    def test_loss_requires_its_decision(self):
        curve = lambda t: np.zeros_like(np.asarray(t, float))
        with pytest.raises(TypeError):
            Loss(curve, curve)
        with pytest.raises(TypeError):
            dataclasses.replace(get_loss("l2"), kfn=None)


class TestVectorizedDecision:
    """``optimal_decision`` on scalars and arrays of p."""

    def test_shapes(self):
        loss = random_bounded_loss(np.random.default_rng(3))
        p = np.random.default_rng(4).uniform(0, 1, (3, 4))
        k = optimal_decision(loss, p)
        assert k.shape == (3, 4)
        assert np.array_equal(k.ravel(), optimal_decision(loss, p.ravel()))
        scalar = optimal_decision(loss, np.float64(0.3))
        assert type(scalar) is float and type(loss.decision(0.3)) is float
        assert scalar == optimal_decision(loss, np.array([0.3]))[0]
        assert optimal_decision(loss, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_invalid_p_rejected(self, bad):
        loss = random_lipschitz_loss(np.random.default_rng(5))
        with pytest.raises(ValueError):
            optimal_decision(loss, bad)
        with pytest.raises(ValueError):
            optimal_decision(loss, np.array([0.2, bad, 0.7]))
        with pytest.raises(ValueError):
            loss.decision(np.array([[0.2], [bad]]))


def _knot_loss(xs, ys) -> Loss:
    return _interp_loss(np.array(xs, dtype=float), np.array(ys, dtype=float), "knots")


def _random_knots(rng):
    k = int(rng.integers(2, 22))
    return np.concatenate([[-1.0], np.sort(rng.uniform(-1, 1, k - 2)), [1.0]]), rng.uniform(-1, 1, k)


LEVELS = np.array([0.0, 1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])


class TestKnotDecision:
    """Closed-form decisions of the piecewise-linear losses of ``calma.audit``."""

    def test_minimal_over_knots_zero_and_dense_grid(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(-1.0, 1.0, 20_001)
        for _ in range(300):
            xs, ys = _random_knots(rng)
            loss = _knot_loss(xs, ys)
            ts = np.concatenate([xs, [0.0], grid])
            k = loss.decision(LEVELS)
            best = loss.loss(LEVELS[:, None], ts).min(axis=1)
            assert np.all(loss.loss(LEVELS, k) <= best + 1e-15)

    def test_never_worse_than_fallback(self):
        # the fallback is a grid-scan decision: the best action among 0 and a
        # 20,001-point grid on [-1, 1]
        rng = np.random.default_rng(32)
        ts = np.concatenate([[0.0], np.linspace(-1.0, 1.0, 20_001)])
        for i in range(150):
            loss = (random_bounded_loss if i % 2 else random_lipschitz_loss)(rng)
            p = np.concatenate([LEVELS, rng.uniform(0, 1, 4)])
            k = loss.decision(p)
            k_grid = ts[np.argmin(loss.loss(p[:, None], ts), axis=1)]
            assert np.all(loss.loss(p, k) <= loss.loss(p, k_grid) + 1e-15)

    def test_zero_level_decides_zero(self):
        loss = random_bounded_loss(np.random.default_rng(33))
        assert type(loss.decision(0.0)) is float and loss.decision(0.0) == 0.0
        assert np.array_equal(loss.decision(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_flat_minimal_segment(self):
        across_zero = _knot_loss([-1.0, -0.5, 0.5, 1.0], [0.0, -1.0, -1.0, 0.5])
        assert np.array_equal(across_zero.decision(LEVELS), np.zeros(len(LEVELS)))
        right_of_zero = _knot_loss([-1.0, 0.2, 0.6, 1.0], [0.0, -1.0, -1.0, 0.0])
        assert np.array_equal(right_of_zero.decision(LEVELS[1:]), np.full(len(LEVELS) - 1, 0.2))

    def test_equal_minima_take_the_positive_action(self):
        twin = _knot_loss([-1.0, -0.4, 0.0, 0.4, 1.0], [0.0, -1.0, 0.0, -1.0, 0.0])
        assert np.array_equal(twin.decision(LEVELS[1:]), np.full(len(LEVELS) - 1, 0.4))

    def test_narrow_valley_between_grid_points(self):
        # the knot at -0.90455 sits in a valley about 1e-3 wide, narrower than the
        # step of a 2001-point grid on [-1, 1]; a decision taken by scanning such a
        # grid settles near t = 1 instead, which costs 5.5e-4 more at p = 1
        xs = [-1.0, -0.9045522495971801, -0.8656280979855153, -0.17926136429539086,
              0.07143824913690278, 0.8536769543189267, 1.0]
        ys = [0.06901212241822341, -0.5399208636865194, -0.2953087197212161, -0.501206774000734,
              -0.06628471205311826, 0.854627753519116, -0.539370387031971]
        loss = _knot_loss(xs, ys)
        k = loss.decision(LEVELS[1:])
        assert np.array_equal(k, np.full(len(LEVELS) - 1, xs[1]))
        assert loss.loss(1.0, k[-1]) == min(ys)

    @pytest.mark.parametrize("name", ["l1", "l2", "glm:identity"])
    @pytest.mark.parametrize("bad", [np.nan, -0.2, 1.5])
    def test_closed_forms_validate_p(self, name, bad):
        loss = get_loss(name)
        with pytest.raises(ValueError):
            loss.decision(bad)
        with pytest.raises(ValueError):
            loss.decision(np.array([0.3, bad]))
        assert type(loss.decision(0.3)) is float


class TestTransfers:
    def test_identity_closed_forms(self):
        glm = identity_glm()
        assert glm.g(2.0) == pytest.approx(2.0)
        assert glm.dual_f(0.3) == pytest.approx(0.045)
        assert glm.kfn(0.3) == pytest.approx(0.3)

    def test_sigmoid_dual_value_via_conjugacy(self):
        # f(v) = v f'(v) - g(f'(v)); at one half the score is zero
        glm = sigmoid_glm()
        v = 0.5
        fp = glm.kfn(v)
        assert fp == pytest.approx(0.0, abs=1e-15)
        assert v * fp - glm.g(fp) == pytest.approx(-math.log(2), abs=1e-12)
        assert glm.dual_f(v) == pytest.approx(-math.log(2), abs=1e-12)

    def test_partial_is_negated_action(self):
        for glm in ALL_GLMS:
            for t in (-1.0, 0.0, 0.5):
                assert glm.partial(t) == pytest.approx(-t, abs=1e-12)

    def test_partial_is_exactly_negated_action(self):
        t = np.random.default_rng(34).uniform(-30.0, 30.0, 100)
        for glm in ALL_GLMS:
            assert np.array_equal(glm.partial(t), -t)

    def test_softplus_within_two_ulp_of_logaddexp(self):
        tiny = np.geomspace(1e-300, 40.0, 2000)
        t = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 750.0, -750.0, np.inf, -np.inf, np.nan],
                            tiny, -tiny, np.linspace(-800.0, 800.0, 16001)])
        with np.errstate(invalid="ignore"):
            ref = np.logaddexp(0.0, t)
        got = losses._softplus(t)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        finite = ~np.isnan(ref)
        np.testing.assert_array_max_ulp(got[finite], ref[finite], maxulp=2)
        assert sigmoid_glm().g is losses._softplus

    def test_crelu_piecewise_integral(self):
        glm = crelu_glm()
        assert glm.g(-3.0) == 0.0
        assert glm.g(0.5) == pytest.approx(0.125)
        assert glm.g(2.0) == pytest.approx(1.5)


class TestTransferInverse:
    def test_sigmoid_midpoint(self):
        assert sigmoid_glm().kfn(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        assert identity_glm().kfn(0.3) == pytest.approx(0.3)

    def test_crelu_flat_region_prefers_zero(self):
        glm = crelu_glm()
        k0 = glm.kfn(0.0)
        assert k0 == 0.0
        # grid scan: the loss at probability zero is minimized on t <= 0
        ts = np.linspace(-2, 2, 401)
        vals = glm.loss(0.0, ts)
        assert glm.loss(0.0, k0) <= np.min(vals) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            sigmoid_glm().kfn(1.0)
        with pytest.raises(OutOfRangeError):
            crelu_glm().kfn(1.2)


class TestFenchelYoung:
    @pytest.mark.parametrize("glm", [identity_glm(), sigmoid_glm()], ids=["identity", "sigmoid"])
    def test_inequality_and_equality_region(self, glm):
        for v in np.linspace(0.02, 0.98, 17):
            for t in np.linspace(-4, 4, 33):
                y = glm.dual_f(v) + glm.g(t) - v * t
                assert y >= -1e-12
                if abs(float(glm.gprime(t)) - v) <= 1e-9:
                    assert y <= 1e-9
                if y <= 1e-9:
                    assert abs(float(glm.gprime(t)) - v) <= 1e-4

    @pytest.mark.parametrize("glm", [identity_glm(), sigmoid_glm()], ids=["identity", "sigmoid"])
    def test_loss_plus_dual_equals_divergence(self, glm):
        # loss(p, t) + f(p) = D_f(p, g'(t)) on a grid
        for p in np.linspace(0.05, 0.95, 10):
            for t in np.linspace(-3, 3, 25):
                lhs = glm.loss(p, t) + glm.dual_f(p)
                rhs = bregman(glm, p, float(glm.gprime(t)))
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBregman:
    def test_quadratic_value(self):
        assert bregman(identity_glm(), 0.8, 0.5) == pytest.approx(0.045, abs=1e-15)

    def test_zero_on_diagonal(self):
        for glm in ALL_GLMS:
            for v in (0.1, 0.5, 0.9):
                assert bregman(glm, v, v) == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_dual_is_binary_kl(self):
        got = bregman(sigmoid_glm(), 0.75, 0.5)
        want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_strong_convexity_lower_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(0.01, 0.99, 2)
            assert bregman(identity_glm(), a, b) >= 0.5 * (a - b) ** 2 - 1e-15
            # the sigmoid transfer is (1/4)-Lipschitz so its dual is 4-strongly convex
            assert bregman(sigmoid_glm(), a, b) >= 2.0 * (a - b) ** 2 - 1e-12

    def test_domain_checked(self):
        with pytest.raises(OutOfRangeError):
            bregman(crelu_glm(), 0.5, 1.4)


class TestTruncatedDecision:
    def test_identity_bound_one(self):
        td = truncated_decision(identity_glm(), 0.01)
        assert td.bound == 1.0
        np.testing.assert_allclose(td(np.array([0.0, 0.3, 1.0])), [0.0, 0.3, 1.0])

    def test_logistic_bound(self):
        td = truncated_decision(sigmoid_glm(), 0.01)
        assert td.bound <= 10.0
        assert td.certified <= 0.01
        # grid re-check of the certificate
        glm = sigmoid_glm()
        ps = np.arange(0.001, 1.0, 0.001)
        sub = glm.loss(ps, td(ps)) + glm.dual_f(ps)
        assert np.max(sub) <= 0.01

    def test_unmet_suboptimality_raises(self, monkeypatch):
        monkeypatch.setattr(losses, "_MAX_TRUNCATION", 8.0)
        with pytest.raises(UnboundedBelowError):
            truncated_decision(sigmoid_glm(), 1e-12)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_nonpositive_suboptimality_refused(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            truncated_decision(sigmoid_glm(), delta)

    def test_zero_suboptimality_at_half(self):
        for glm in ALL_GLMS:
            td = truncated_decision(glm, 0.05)
            sub = glm.loss(0.5, float(td(0.5))) + glm.dual_f(0.5)
            assert abs(sub) <= 1e-12


class TestConvexity:
    def test_matching_losses_midpoint_convex(self):
        for glm in ALL_GLMS:
            ts = np.linspace(-3, 3, 31)
            for y in (0.0, 1.0):
                vals = glm.loss(y, ts)
                mid = glm.loss(y, (ts[:-1] + ts[1:]) / 2)
                assert np.all(mid <= (vals[:-1] + vals[1:]) / 2 + 1e-12)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in REGISTRY:
            assert get_loss(name).name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_loss("hinge")

    def test_exp_decision(self):
        loss = exp_loss()
        assert loss.decision(0.5) == pytest.approx(0.5, abs=1e-12)
        assert loss.decision(0.95) == 1.0  # clamped
        k = float(loss.decision(0.6))
        ts = np.linspace(0, 1, 501)
        assert np.all(loss.loss(0.6, k) <= loss.loss(0.6, ts) + 1e-12)

    def test_squared_loss_column(self):
        sq = squared_loss()
        assert sq.loss(1.0, 0.25) == pytest.approx(0.5625)
        assert sq.decision(0.4) == pytest.approx(0.4)
