"""Loss functions, their discrete derivatives and optimal decisions, plus the
generalized-linear-model family: transfers, matching losses, convex duals and
Bregman divergences.

A loss is stored as the pair ``t -> loss(0, t)`` and ``t -> loss(1, t)``; the
mixture ``loss(p, t) = p * at1(t) + (1 - p) * at0(t)`` and the discrete
derivative ``at1(t) - at0(t)`` follow from the pair.  Everything here is a
pure function of immutable objects and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import expit, logit, xlogy

__all__ = [
    "MonotonicityError",
    "OutOfRangeError",
    "UnboundedBelowError",
    "Loss",
    "GlmLoss",
    "TruncatedDecision",
    "lp_loss",
    "exp_loss",
    "squared_loss",
    "optimal_decision",
    "glm_from_transfer",
    "identity_glm",
    "sigmoid_glm",
    "crelu_glm",
    "transfer_inverse",
    "bregman",
    "truncated_decision",
    "get_loss",
    "REGISTRY_NAMES",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class MonotonicityError(ValueError):
    """Transfer function decreases somewhere on the sampled grid."""


class OutOfRangeError(ValueError):
    """Value outside the image of the transfer on its working interval."""


class UnboundedBelowError(ValueError):
    """Loss minimization produced non-finite values on the action domain."""


def _golden_section(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Loss:
    """Binary-label loss given by its two action curves.

    ``kfn``, when present, is the closed-form optimal decision; otherwise
    decisions fall back to a grid scan refined by golden-section search on
    ``action_domain``, breaking ties toward the smallest absolute action and
    then toward the positive one.
    """

    at0: Callable[[np.ndarray], np.ndarray]
    at1: Callable[[np.ndarray], np.ndarray]
    action_domain: tuple[float, float] = (-1.0, 1.0)
    lipschitz_bound: float | None = None
    name: str = "loss"
    kfn: Callable[[np.ndarray], np.ndarray] | None = None

    def loss(self, y, t):
        y = np.asarray(y, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        return y * self.at1(t) + (1.0 - y) * self.at0(t)

    def ploss(self, p, t):
        """Expected loss under Ber(p) labels, extended by linearity."""
        p = np.asarray(p, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        return p * self.at1(t) + (1.0 - p) * self.at0(t)

    def partial(self, t):
        """Discrete derivative loss(1, t) - loss(0, t)."""
        t = np.asarray(t, dtype=np.float64)
        return self.at1(t) - self.at0(t)

    def decision(self, p):
        """Vectorized optimal decision k(p)."""
        p = np.asarray(p, dtype=np.float64)
        if self.kfn is not None:
            return np.asarray(self.kfn(p), dtype=np.float64)
        flat = np.atleast_1d(p).ravel()
        out = np.array([optimal_decision(self, float(q)) for q in flat])
        return out.reshape(np.shape(p)) if np.shape(p) else float(out[0])


def partial_sup(loss: Loss, grid_points: int = 513) -> float:
    """sup |discrete derivative| over the action domain (sampled grid)."""
    lo, hi = loss.action_domain
    return float(np.max(np.abs(loss.partial(np.linspace(lo, hi, grid_points)))))


def optimal_decision(loss: Loss, p: float, grid_points: int = 2001, tol: float = 1e-10) -> float:
    """Global minimizer of loss(p, .) over the action domain.

    Among (near-)minimizers the one of smallest absolute value is returned,
    with ties on absolute value broken toward the positive action.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if loss.kfn is not None:
        return float(loss.kfn(np.asarray(p, dtype=np.float64)))
    lo, hi = loss.action_domain
    grid = np.linspace(lo, hi, grid_points)
    vals = loss.ploss(p, grid)
    if not np.all(np.isfinite(vals)):
        raise UnboundedBelowError(f"{loss.name} is non-finite on its action domain")
    h = (hi - lo) / (grid_points - 1)

    def refine(t0: float) -> float:
        return _golden_section(lambda t: float(loss.ploss(p, t)), max(lo, t0 - h), min(hi, t0 + h), tol)

    # flat minima: prefer the candidate closest to zero, then the positive one
    near = grid[vals <= float(np.min(vals)) + 1e-12]
    t_near = float(min(near, key=lambda t: (abs(t), -t)))
    candidates = [refine(float(grid[int(np.argmin(vals))])), t_near, refine(t_near)]
    values = [float(loss.ploss(p, t)) for t in candidates]
    vmin = min(values)
    eligible = [t for t, v in zip(candidates, values) if v <= vmin + 1e-12]
    return float(min(eligible, key=lambda t: (abs(t), -t)))


# ---------------------------------------------------------------------------
# The l_p family and the benchmark losses
# ---------------------------------------------------------------------------


def lp_loss(p: float) -> Loss:
    """Normalized power loss |y - t|^p / p; 1-Lipschitz on [0, 1]."""
    if p < 1:
        raise ValueError("p must be >= 1")

    def at0(t):
        return np.abs(t) ** p / p

    def at1(t):
        return np.abs(1.0 - t) ** p / p

    if p == 1:
        kfn = lambda q: (np.asarray(q) >= 0.5).astype(float)  # rounds, ties to 1
    else:
        ex = 1.0 / (p - 1.0)

        def kfn(q):
            q = np.asarray(q, dtype=np.float64)
            a = q**ex
            b = (1.0 - q) ** ex
            return a / (a + b)

    return Loss(at0, at1, action_domain=(0.0, 1.0), lipschitz_bound=1.0, name=f"l{p:g}", kfn=kfn)


def squared_loss() -> Loss:
    """Unnormalized squared error (y - t)^2 with the identity decision."""
    return Loss(
        at0=lambda t: np.asarray(t) ** 2,
        at1=lambda t: (1.0 - np.asarray(t)) ** 2,
        action_domain=(0.0, 1.0),
        lipschitz_bound=2.0,
        name="sq",
        kfn=lambda q: np.asarray(q, dtype=np.float64),
    )


def exp_loss() -> Loss:
    """Exponential loss exp(|y - t|).

    The optimal action solves p e^{1-t} = (1-p) e^t inside [0, 1] and sticks
    to the boundary outside, i.e. k(p) = clip((1 + log(p/(1-p))) / 2, 0, 1).
    """

    def at0(t):
        return np.exp(np.abs(np.asarray(t, dtype=np.float64)))

    def at1(t):
        return np.exp(np.abs(1.0 - np.asarray(t, dtype=np.float64)))

    def kfn(q):
        q = np.clip(np.asarray(q, dtype=np.float64), 1e-300, 1.0 - 1e-16)
        return np.clip(0.5 * (1.0 + logit(q)), 0.0, 1.0)

    return Loss(at0, at1, action_domain=(0.0, 1.0), name="exp", kfn=kfn)


# ---------------------------------------------------------------------------
# Generalized linear models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmLoss(Loss):
    """Matching loss g(t) - y t of a monotone transfer g'.

    ``dual_f`` / ``dual_fprime`` are the convex conjugate of ``g`` and its
    derivative, defined on the image of the transfer; ``im_gprime`` is that
    image over the working interval.  The discrete derivative is always -t.
    """

    gprime: Callable[[np.ndarray], np.ndarray] = None
    g: Callable[[np.ndarray], np.ndarray] = None
    dual_f: Callable[[np.ndarray], np.ndarray] = None
    dual_fprime: Callable[[np.ndarray], np.ndarray] = None
    im_gprime: tuple[float, float] = (0.0, 1.0)
    working_interval: tuple[float, float] = (-40.0, 40.0)
    transfer_name: str = "glm"
    inverse: Callable[[np.ndarray], np.ndarray] | None = None


def _glm_from_parts(name, gprime, g, dual_f, dual_fprime, inverse, im, work, domain, lip=None):
    return GlmLoss(
        at0=lambda t: g(np.asarray(t, dtype=np.float64)),
        at1=lambda t: g(np.asarray(t, dtype=np.float64)) - np.asarray(t, dtype=np.float64),
        action_domain=domain,
        lipschitz_bound=lip,
        name=f"glm:{name}",
        kfn=inverse,
        gprime=gprime,
        g=g,
        dual_f=dual_f,
        dual_fprime=dual_fprime,
        im_gprime=im,
        working_interval=work,
        transfer_name=name,
        inverse=inverse,
    )


def identity_glm() -> GlmLoss:
    ident = lambda v: np.asarray(v, dtype=np.float64)
    return _glm_from_parts(
        "identity",
        gprime=ident,
        g=lambda t: np.asarray(t) ** 2 / 2.0,
        dual_f=lambda v: np.asarray(v) ** 2 / 2.0,
        dual_fprime=ident,
        inverse=ident,
        im=(-np.inf, np.inf),
        work=(-40.0, 40.0),
        domain=(-1.0, 1.0),
        lip=2.0,
    )


def _entropy(v):
    v = np.asarray(v, dtype=np.float64)
    return xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)


def sigmoid_glm() -> GlmLoss:
    softplus = lambda t: np.logaddexp(0.0, np.asarray(t, dtype=np.float64))

    def inverse(v):
        v = np.asarray(v, dtype=np.float64)
        if np.any(v <= 0) or np.any(v >= 1):
            raise OutOfRangeError("sigmoid transfer only attains values in (0, 1)")
        return logit(v)

    return _glm_from_parts(
        "sigmoid",
        gprime=lambda t: expit(np.asarray(t, dtype=np.float64)),
        g=softplus,  # integral of the sigmoid up to the ln 2 offset at 0
        dual_f=_entropy,
        dual_fprime=lambda v: logit(np.asarray(v, dtype=np.float64)),
        inverse=inverse,
        im=(0.0, 1.0),
        work=(-40.0, 40.0),
        domain=(-20.0, 20.0),
    )


def crelu_glm() -> GlmLoss:
    def gprime(t):
        return np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)

    def g(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 0, 0.0, np.where(t <= 1, t**2 / 2.0, t - 0.5))

    ident = lambda v: np.asarray(v, dtype=np.float64)

    def inverse(v):
        v = np.asarray(v, dtype=np.float64)
        if np.any(v < 0) or np.any(v > 1):
            raise OutOfRangeError("clipped-ReLU transfer only attains values in [0, 1]")
        return v  # smallest-|t| point of each flat region

    return _glm_from_parts(
        "crelu",
        gprime=gprime,
        g=g,
        dual_f=lambda v: np.asarray(v) ** 2 / 2.0,
        dual_fprime=ident,
        inverse=inverse,
        im=(0.0, 1.0),
        work=(-40.0, 40.0),
        domain=(-2.0, 2.0),
        lip=2.0,
    )


def glm_from_transfer(
    gprime: Callable[[np.ndarray], np.ndarray],
    name: str = "custom",
    working_interval: tuple[float, float] = (-8.0, 8.0),
    check_points: int = 512,
) -> GlmLoss:
    """Build the matching loss of an arbitrary monotone transfer.

    The integral is computed by adaptive quadrature (tolerance 1e-10) when no
    closed form is known, and the Legendre dual through the inverse transfer:
    f(v) = v t* - g(t*) and f'(v) = t* where g'(t*) = v.
    """
    lo, hi = working_interval
    grid = np.linspace(lo, hi, check_points)
    gv = np.asarray(gprime(grid), dtype=np.float64)
    if np.any(np.diff(gv) < -1e-12):
        raise MonotonicityError(f"transfer {name!r} decreases on the sampled grid")
    im = (float(gv[0]), float(gv[-1]))

    cache: dict[float, float] = {}

    def g_scalar(t: float) -> float:
        if t not in cache:
            val, _ = quad(lambda s: float(np.asarray(gprime(s))), 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
            cache[t] = val
        return cache[t]

    def g(t):
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            return np.float64(g_scalar(float(t)))
        return np.array([g_scalar(float(s)) for s in t.ravel()]).reshape(t.shape)

    def inv_scalar(v: float) -> float:
        if not im[0] - 1e-12 <= v <= im[1] + 1e-12:
            raise OutOfRangeError(f"{v} outside the transfer image {im}")
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if float(np.asarray(gprime(mid))) < v:
                a = mid
            else:
                b = mid
            if b - a <= 1e-12:
                break
        return 0.5 * (a + b)

    def inverse(v):
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 0:
            return np.float64(inv_scalar(float(v)))
        return np.array([inv_scalar(float(x)) for x in v.ravel()]).reshape(v.shape)

    def dual_f(v):
        v = np.asarray(v, dtype=np.float64)
        t = inverse(v)
        return v * t - g(t)

    return _glm_from_parts(
        name,
        gprime=gprime,
        g=g,
        dual_f=dual_f,
        dual_fprime=inverse,
        inverse=inverse,
        im=im,
        work=working_interval,
        domain=working_interval,
    )


def transfer_inverse(glm: GlmLoss, p: float):
    """Inverse transfer evaluated at p; the optimal decision for the loss."""
    return glm.inverse(np.asarray(p, dtype=np.float64))


def bregman(glm: GlmLoss, vstar, v):
    """Divergence f(v*) - f(v) - (v* - v) f'(v) of the Legendre dual.

    Nonnegative, zero iff v* = v for strictly increasing transfers, and at
    least lambda (v* - v)^2 / 2 when the dual is lambda-strongly convex.
    """
    vstar = np.asarray(vstar, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lo, hi = glm.im_gprime
    if np.any(vstar < lo - 1e-12) or np.any(vstar > hi + 1e-12) or np.any(v < lo - 1e-12) or np.any(v > hi + 1e-12):
        raise OutOfRangeError("bregman arguments must lie in the transfer image")
    if glm.transfer_name == "sigmoid":
        # binary KL with the 0 log 0 = 0 limit for the first argument
        v = np.clip(v, 1e-300, 1.0 - 1e-16)
        return xlogy(vstar, vstar / v) + xlogy(1.0 - vstar, (1.0 - vstar) / (1.0 - v))
    return glm.dual_f(vstar) - glm.dual_f(v) - (vstar - v) * glm.dual_fprime(v)


@dataclass(frozen=True)
class TruncatedDecision:
    """Bounded decision rule within ``suboptimality`` of the optimum everywhere."""

    kfn: Callable[[np.ndarray], np.ndarray]
    bound: float
    suboptimality: float
    certified: float  # max grid suboptimality actually measured

    def __call__(self, p):
        return self.kfn(np.asarray(p, dtype=np.float64))


def truncated_decision(glm: GlmLoss, delta: float, max_bound: float = 2.0**30) -> TruncatedDecision:
    """Clamp the inverse transfer to [-D, D], doubling D from 1 until a grid
    check certifies suboptimality at most delta.

    Optimal values come from the dual: min_t loss(p, t) = -f(p), so the
    suboptimality at p is loss(p, k(p)) + f(p) exactly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pgrid = np.concatenate([[0.0], np.arange(0.001, 1.0, 0.001), [1.0]])
    fvals = glm.dual_f(pgrid)

    def make_kfn(D):
        lo = float(glm.gprime(-D))
        hi = float(glm.gprime(D))

        def kfn(p):
            p = np.clip(np.asarray(p, dtype=np.float64), lo, hi)
            return np.clip(glm.inverse(p), -D, D)

        return kfn

    D = 1.0
    while True:
        kfn = make_kfn(D)
        sub = float(np.max(glm.ploss(pgrid, kfn(pgrid)) + fvals))
        if sub <= delta:
            return TruncatedDecision(kfn, D, delta, sub)
        D *= 2.0
        if D > max_bound:
            raise UnboundedBelowError(f"no bound up to {max_bound:g} meets suboptimality {delta:g}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY_NAMES = ("l1", "l2", "l4", "lp:<p>", "glm:identity", "glm:sigmoid", "glm:crelu", "exp")


def get_loss(name: str) -> Loss:
    """Look up a loss by its registry name."""
    if name == "l1":
        return lp_loss(1)
    if name == "l2":
        return lp_loss(2)
    if name == "l4":
        return lp_loss(4)
    if name.startswith("lp:"):
        return lp_loss(float(name.split(":", 1)[1]))
    if name == "glm:identity":
        return identity_glm()
    if name == "glm:sigmoid":
        return sigmoid_glm()
    if name == "glm:crelu":
        return crelu_glm()
    if name == "exp":
        return exp_loss()
    raise ValueError(f"unknown loss {name!r}; known: {', '.join(REGISTRY_NAMES)}")
