"""Loss functions, their discrete derivatives and optimal decisions, plus the
generalized-linear-model family: transfers, matching losses, convex duals and
Bregman divergences.

A loss is stored as the pair ``t -> loss(0, t)`` and ``t -> loss(1, t)`` plus
its optimal decision ``kfn``; the mixture ``loss(p, t) = p * at1(t) + (1 - p) *
at0(t)`` and the discrete derivative ``at1(t) - at0(t)`` follow from the pair.
Everything here is a pure function of immutable objects and thread-safe.
``scipy`` is imported inside the functions that call it, so importing this
module loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "OutOfRangeError",
    "UnboundedBelowError",
    "Loss",
    "GlmLoss",
    "TruncatedDecision",
    "lp_loss",
    "exp_loss",
    "squared_loss",
    "optimal_decision",
    "identity_glm",
    "sigmoid_glm",
    "crelu_glm",
    "bregman",
    "truncated_decision",
    "get_loss",
    "REGISTRY_NAMES",
]

_PARTIAL_SUP_POINTS = 513  # grid on which partial_sup samples the discrete derivative
_MAX_TRUNCATION = 2.0**30  # truncated_decision raises past this clamp bound


class OutOfRangeError(ValueError):
    """Value outside the image of the transfer."""


class UnboundedBelowError(ValueError):
    """No bounded decision rule meets the requested suboptimality."""


@dataclass(frozen=True)
class Loss:
    """Binary-label loss: its two action curves and its optimal decision.

    ``at0`` and ``at1`` act elementwise: each entry of the output depends on
    the same entry of the input alone, so a curve evaluated on a slice of an
    array equals that slice of the curve on the whole array (``audit_family``
    evaluates them in row blocks).  ``kfn`` maps label-1 probabilities to a
    minimizer of ``loss(p, .)`` over ``action_domain``; every loss carries
    one, and building a ``Loss`` whose ``kfn`` is not callable raises
    ``TypeError``.
    """

    at0: Callable[[np.ndarray], np.ndarray]
    at1: Callable[[np.ndarray], np.ndarray]
    kfn: Callable[[np.ndarray], np.ndarray]
    action_domain: tuple[float, float] = (-1.0, 1.0)
    name: str = "loss"

    def __post_init__(self):
        if not callable(self.kfn):
            raise TypeError(f"loss {self.name!r} needs a callable decision kfn")

    def loss(self, y, t):
        """Loss of action t at label y; at y = p in [0, 1], by linearity, the
        expected loss under Ber(p) labels."""
        y = np.asarray(y, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        return y * self.at1(t) + (1.0 - y) * self.at0(t)

    def partial(self, t):
        """Discrete derivative loss(1, t) - loss(0, t)."""
        t = np.asarray(t, dtype=np.float64)
        return self.at1(t) - self.at0(t)

    def decision(self, p):
        """Optimal decision k(p) for a scalar or an array of ``p`` in [0, 1]:
        ``optimal_decision(self, p)``."""
        return optimal_decision(self, p)


def partial_sup(loss: Loss) -> float:
    """sup |discrete derivative| over the action domain (sampled grid)."""
    lo, hi = loss.action_domain
    return float(np.max(np.abs(loss.partial(np.linspace(lo, hi, _PARTIAL_SUP_POINTS)))))


def optimal_decision(loss: Loss, p):
    """The loss's decision ``loss.kfn(p)`` for a scalar ``p`` (returns a float)
    or an array (returns one of the same shape).  Raises ``ValueError`` unless
    every ``p`` lies in [0, 1], so NaN is rejected too.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p must lie in [0, 1]")
    out = np.asarray(loss.kfn(p), dtype=np.float64)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# The l_p family and the benchmark losses
# ---------------------------------------------------------------------------


def _curves(shape):
    """The two curves ``shape(|t|)`` and ``shape(|1 - t|)`` of a loss that
    depends on the distance between the label and the action.

    ``shape(d, out)`` reads the float64 array ``d`` (its sign is free) and
    writes into ``out``, a fresh array of d's shape that may be d itself, so
    each curve allocates one array.  A scalar comes out as a scalar, with the
    bits it has inside an array.
    """

    def at0(t):
        t = np.asarray(t, dtype=np.float64)
        return shape(t, np.empty_like(t))[()]

    def at1(t):
        t = np.asarray(t, dtype=np.float64)
        d = np.subtract(1.0, t, out=np.empty_like(t))
        return shape(d, d)[()]

    return at0, at1


def _power_shape(p: float):
    """``(d, out) -> |d|^p / p`` into ``out``.

    For p = 1, 2, 3 and 4 the power is a product: p = 1 and 2 give the bits
    of the float-pow form ``np.abs(d) ** p / p`` on arrays (numpy squares by
    a product), p = 3 and 4 are within 2 ulp of it.  Every other p takes the
    float pow.
    """

    def shape(d, out):
        if p == 2 or p == 4:  # an even power needs no abs
            np.multiply(d, d, out=out)
            if p == 4:
                out *= out
            out *= 1.0 / p  # exact: a power of two
            return out
        np.abs(d, out=out)
        if p == 1:
            return out
        if p == 3:
            out *= out * out
        else:
            out **= p
        out /= p
        return out

    return shape


def lp_loss(p: float) -> Loss:
    """Normalized power loss |y - t|^p / p; 1-Lipschitz on [0, 1]."""
    if not 1 <= p < np.inf:
        raise ValueError("p must be finite and >= 1")

    at0, at1 = _curves(_power_shape(p))
    if p == 1:
        kfn = lambda q: (np.asarray(q) >= 0.5).astype(float)  # rounds, ties to 1
    else:
        ex = 1.0 / (p - 1.0)

        def kfn(q):
            q = np.asarray(q, dtype=np.float64)
            a = q**ex
            b = (1.0 - q) ** ex
            return a / (a + b)

    return Loss(at0, at1, action_domain=(0.0, 1.0), name=f"l{p:g}", kfn=kfn)


def squared_loss() -> Loss:
    """Unnormalized squared error (y - t)^2 with the identity decision."""
    at0, at1 = _curves(lambda d, out: np.multiply(d, d, out=out))
    return Loss(at0, at1, action_domain=(0.0, 1.0), name="sq", kfn=lambda q: np.asarray(q, dtype=np.float64))


def exp_loss() -> Loss:
    """Exponential loss exp(|y - t|).

    The optimal action solves p e^{1-t} = (1-p) e^t inside [0, 1] and sticks
    to the boundary outside, i.e. k(p) = clip((1 + log(p/(1-p))) / 2, 0, 1).
    """

    at0, at1 = _curves(lambda d, out: np.exp(np.abs(d, out=out), out=out))

    def kfn(q):
        from scipy.special import logit

        q = np.clip(np.asarray(q, dtype=np.float64), 1e-300, 1.0 - 1e-16)
        return np.clip(0.5 * (1.0 + logit(q)), 0.0, 1.0)

    return Loss(at0, at1, action_domain=(0.0, 1.0), name="exp", kfn=kfn)


# ---------------------------------------------------------------------------
# Generalized linear models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmLoss(Loss):
    """Matching loss g(t) - y t of a monotone transfer g'.

    ``dual_f`` is the convex conjugate of ``g``, defined on the image of the
    transfer; its derivative is the inverse transfer, which is ``kfn``.
    ``im_gprime`` holds the ends of that image over the whole real line.  The
    discrete derivative is always -t.
    """

    gprime: Callable[[np.ndarray], np.ndarray] = None
    g: Callable[[np.ndarray], np.ndarray] = None
    dual_f: Callable[[np.ndarray], np.ndarray] = None
    im_gprime: tuple[float, float] = (0.0, 1.0)
    transfer_name: str = "glm"

    def partial(self, t):
        """Discrete derivative (g(t) - t) - g(t) = -t, without evaluating g."""
        return -np.asarray(t, dtype=np.float64)


def _glm_from_parts(name, gprime, g, dual_f, inverse, im, domain):
    return GlmLoss(
        at0=lambda t: g(np.asarray(t, dtype=np.float64)),
        at1=lambda t: g(np.asarray(t, dtype=np.float64)) - np.asarray(t, dtype=np.float64),
        action_domain=domain,
        name=f"glm:{name}",
        kfn=inverse,
        gprime=gprime,
        g=g,
        dual_f=dual_f,
        im_gprime=im,
        transfer_name=name,
    )


def identity_glm() -> GlmLoss:
    ident = lambda v: np.asarray(v, dtype=np.float64)
    return _glm_from_parts(
        "identity",
        gprime=ident,
        g=lambda t: np.asarray(t) ** 2 / 2.0,
        dual_f=lambda v: np.asarray(v) ** 2 / 2.0,
        inverse=ident,
        im=(-np.inf, np.inf),
        domain=(-1.0, 1.0),
    )


def _entropy(v):
    from scipy.special import xlogy

    v = np.asarray(v, dtype=np.float64)
    return xlogy(v, v) + xlogy(1.0 - v, 1.0 - v)


def _softplus(t):
    """log(1 + e^t) as max(t, 0) + log1p(exp(-|t|)): within 2 ulp of
    ``np.logaddexp(0, t)``, which is several times slower on arrays."""
    t = np.asarray(t, dtype=np.float64)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def sigmoid_glm() -> GlmLoss:
    def gprime(t):
        from scipy.special import expit

        return expit(np.asarray(t, dtype=np.float64))

    def inverse(v):
        from scipy.special import logit

        v = np.asarray(v, dtype=np.float64)
        if np.any(v <= 0) or np.any(v >= 1):
            raise OutOfRangeError("sigmoid transfer only attains values in (0, 1)")
        return logit(v)

    return _glm_from_parts(
        "sigmoid",
        gprime=gprime,
        g=_softplus,  # integral of the sigmoid up to the ln 2 offset at 0
        dual_f=_entropy,
        inverse=inverse,
        im=(0.0, 1.0),
        domain=(-20.0, 20.0),
    )


def crelu_glm() -> GlmLoss:
    def gprime(t):
        return np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)

    def g(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 0, 0.0, np.where(t <= 1, t**2 / 2.0, t - 0.5))

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
        inverse=inverse,
        im=(0.0, 1.0),
        domain=(-2.0, 2.0),
    )


def bregman(glm: GlmLoss, vstar, v):
    """Divergence f(v*) - f(v) - (v* - v) f'(v) of the Legendre dual, whose
    derivative f' is the inverse transfer ``glm.kfn``.

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
        from scipy.special import xlogy

        v = np.clip(v, 1e-300, 1.0 - 1e-16)
        return xlogy(vstar, vstar / v) + xlogy(1.0 - vstar, (1.0 - vstar) / (1.0 - v))
    return glm.dual_f(vstar) - glm.dual_f(v) - (vstar - v) * glm.kfn(v)


@dataclass(frozen=True)
class TruncatedDecision:
    """The inverse transfer clamped to [-bound, bound]; ``certified`` is its
    largest suboptimality on the probability grid, at most the requested delta."""

    kfn: Callable[[np.ndarray], np.ndarray]
    bound: float
    certified: float  # max grid suboptimality actually measured

    def __call__(self, p):
        return self.kfn(np.asarray(p, dtype=np.float64))


def truncated_decision(glm: GlmLoss, delta: float) -> TruncatedDecision:
    """Clamp the inverse transfer to [-D, D], doubling D from 1 until a grid
    check certifies suboptimality at most delta; raises UnboundedBelowError
    once D would pass 2^30.

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
            return np.clip(glm.kfn(p), -D, D)

        return kfn

    D = 1.0
    while True:
        kfn = make_kfn(D)
        sub = float(np.max(glm.loss(pgrid, kfn(pgrid)) + fvals))
        if sub <= delta:
            return TruncatedDecision(kfn, D, sub)
        D *= 2.0
        if D > _MAX_TRUNCATION:
            raise UnboundedBelowError(f"no bound up to {_MAX_TRUNCATION:g} meets suboptimality {delta:g}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {
    "l1": lambda: lp_loss(1),
    "l2": lambda: lp_loss(2),
    "l4": lambda: lp_loss(4),
    "glm:identity": identity_glm,
    "glm:sigmoid": sigmoid_glm,
    "glm:crelu": crelu_glm,
    "exp": exp_loss,
}
REGISTRY_NAMES = (*_REGISTRY, "lp:<p>")


def get_loss(name: str) -> Loss:
    """Look up a loss by its registry name; ``lp:<p>`` is the l_p loss for any p."""
    if name.startswith("lp:"):
        return lp_loss(float(name.split(":", 1)[1]))
    if name in _REGISTRY:
        return _REGISTRY[name]()
    raise ValueError(f"unknown loss {name!r}; known: {', '.join(REGISTRY_NAMES)}")
