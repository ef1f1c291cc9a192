"""Calibrated multiaccuracy by alternating boosting and recalibration.

One outer round boosts the current predictor until the weak learner declines,
then estimates the calibration error of its discretization.  A large estimate
triggers bucket-mean recalibration and another round; a small one ends the
run with the discretized predictor, which is then both calibrated and
multiaccurate.  Both kinds of step lower the squared distance to the label
means, which bounds the number of rounds and total weak-learner calls.

Every step takes its expectations under an ``ExpectationEngine``.  With no
sampler that is the engine passed in (an exact distribution or a full
dataset).  With a sampler each weak-learner query, calibration estimate and
recalibration measures its own fresh draws as an empirical engine, and the
estimate is repeated and median-aggregated against estimator failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import (
    Sampler,
    discretize,
    ece,
    est_ece_samples_needed,
    recal_samples_needed,
    recalibrate_with_engine,
)
from .core import ExpectationEngine, Predictor
from .multiaccuracy import ExhaustiveWeakLearner, ma_algorithm, mae

__all__ = ["IterationCapError", "CalmaConfig", "CalmaRound", "CalmaTrace", "calma"]


class IterationCapError(RuntimeError):
    """Outer loop exceeded twice its theoretical bound; preconditions are off."""


@dataclass(frozen=True)
class CalmaConfig:
    ma_batch: int = 2000
    est_ece_constant: float = 8.0
    est_ece_repeats: int = 3  # median-of-k against estimator failure
    est_ece_samples: int | None = None
    recal_constant: float = 8.0
    recal_samples: int | None = None
    cap_factor: float = 2.0

    def __post_init__(self):
        for name in ("ma_batch", "est_ece_repeats", "est_ece_samples", "recal_samples"):
            value = getattr(self, name)
            if value is not None and not value >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("est_ece_constant", "recal_constant", "cap_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CalmaRound:
    wl_updates: int
    wl_calls: int
    est_ece: float
    recalibrated: bool
    potential_before: float
    potential_after: float


@dataclass(frozen=True)
class CalmaTrace:
    alpha: float
    delta: float
    mu: float
    rounds: tuple[CalmaRound, ...]
    final_ece: float
    final_mae: float | None

    @property
    def outer_iterations(self) -> int:
        return len(self.rounds)

    @property
    def total_wl_calls(self) -> int:
        return sum(r.wl_calls for r in self.rounds)

    @property
    def total_updates(self) -> int:
        return sum(r.wl_updates for r in self.rounds)

    def to_dict(self) -> dict:
        return asdict(self)


def calma(
    p0: Predictor,
    alpha: float,
    wl: ExhaustiveWeakLearner,
    engine: ExpectationEngine,
    sampler: Sampler | None = None,
    config: CalmaConfig | None = None,
) -> tuple[Predictor, CalmaTrace]:
    """Train an alpha-calibrated, multiaccurate, delta-discrete predictor.

    Parameter schedule: delta = alpha^2 / 32, mu = alpha / 4; each round
    boosts to multiaccuracy alpha - delta and recalibrates whenever the
    estimated calibration error of the discretization exceeds 3 alpha / 4.
    The iteration cap sits at twice the provable bound 1 + 8 l2(p*, p0)^2 /
    alpha^2, so hitting it signals violated preconditions rather than a slow
    run.
    """
    cfg = config or CalmaConfig()
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    delta = alpha * alpha / 32.0
    mu = alpha / 4.0
    if alpha - delta + 1e-12 < wl.rho:
        raise ValueError("need alpha - alpha^2/32 >= rho of the weak learner")

    cap = int(math.ceil(cfg.cap_factor * (1.0 + 8.0 / alpha**2)))
    n_est = cfg.est_ece_samples or est_ece_samples_needed(delta, mu, cfg.est_ece_constant)
    n_recal = cfg.recal_samples or recal_samples_needed(delta, cfg.recal_constant)
    repeats = 1 if sampler is None else cfg.est_ece_repeats

    def measure(n: int) -> ExpectationEngine:
        return engine if sampler is None else ExpectationEngine.empirical(sampler.draw(n))

    rounds: list[CalmaRound] = []
    q = p0
    pot_after = engine.expect((engine.ystar - q.values(engine.X)) ** 2)
    result = None
    for _ in range(cap):
        pot_before = pot_after
        ma = ma_algorithm(q, alpha - delta, wl, engine, sampler=sampler, batch_size=cfg.ma_batch)
        p_t = ma.predictor
        p_disc = discretize(p_t, delta)
        estimate = float(np.median([ece(p_disc, measure(n_est)) for _ in range(repeats)]))
        recalibrate = estimate > 0.75 * alpha
        q = recalibrate_with_engine(p_t, delta, measure(n_recal)) if recalibrate else p_disc
        pot_after = engine.expect((engine.ystar - q.values(engine.X)) ** 2)
        rounds.append(
            CalmaRound(
                wl_updates=len(ma.updates),
                wl_calls=ma.wl_calls,
                est_ece=estimate,
                recalibrated=recalibrate,
                potential_before=pot_before,
                potential_after=pot_after,
            )
        )
        if not recalibrate:
            result = q
            break
    if result is None:
        raise IterationCapError(f"calma exceeded {cap} outer iterations at alpha={alpha:g}")

    final_ece = ece(result, engine)
    final_mae = mae(result, wl.hclass, engine) if hasattr(wl, "hclass") else None
    trace = CalmaTrace(alpha, delta, mu, tuple(rounds), final_ece, final_mae)
    return result, trace
