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
recalibration runs on the engine of its own fresh draws, ``sampler.draw(n)``,
and the estimate is repeated and median-aggregated against estimator failure.
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
from .core import ExpectationEngine, PipelinePredictor, Predictor
from .multiaccuracy import ExhaustiveWeakLearner, ma_algorithm, mae

__all__ = ["IterationCapError", "CalmaConfig", "CalmaRound", "CalmaTrace", "calma"]


class IterationCapError(RuntimeError):
    """Outer loop exceeded twice its theoretical bound; preconditions are off."""


_EST_ECE_REPEATS = 3  # median-of-k against estimator failure
_CAP_FACTOR = 2.0  # the iteration cap over the provable bound on outer rounds
_MAX_DRAW = int(np.iinfo(np.int64).max)  # numpy counts a draw's rows in int64


@dataclass(frozen=True)
class CalmaConfig:
    """Fresh draws per weak-learner query, calibration estimate and
    recalibration of a sampled run; ``None`` takes the paper's sample size."""

    ma_batch: int = 2000
    est_ece_samples: int | None = None
    recal_samples: int | None = None

    def __post_init__(self):
        for name in ("ma_batch", "est_ece_samples", "recal_samples"):
            value = getattr(self, name)
            if value is not None and not value >= 1:
                raise ValueError(f"{name} must be at least 1")


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
    final_mae: float

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
) -> tuple[PipelinePredictor, CalmaTrace]:
    """Train an alpha-calibrated, multiaccurate, delta-discrete predictor.

    Parameter schedule: delta = alpha^2 / 32, mu = alpha / 4; each round
    boosts to multiaccuracy alpha - delta and recalibrates whenever the
    estimated calibration error of the discretization exceeds 3 alpha / 4.
    The iteration cap sits at twice the provable bound 1 + 8 l2(p*, p0)^2 /
    alpha^2, so hitting it signals violated preconditions rather than a slow
    run.  A sampled run that needs more draws at once than int64 counts
    raises ``ValueError`` before its first draw.
    """
    cfg = config or CalmaConfig()
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    delta = alpha * alpha / 32.0
    mu = alpha / 4.0
    if alpha - delta + 1e-12 < wl.rho:
        raise ValueError("need alpha - alpha^2/32 >= rho of the weak learner")

    cap = int(math.ceil(_CAP_FACTOR * (1.0 + 8.0 / alpha**2)))
    n_est = cfg.est_ece_samples or est_ece_samples_needed(delta, mu)
    n_recal = cfg.recal_samples or recal_samples_needed(delta)
    sizes = {"weak-learner query": cfg.ma_batch, "ECE estimate": n_est, "recalibration": n_recal}
    for what, n in sizes.items():
        if sampler is not None and n > _MAX_DRAW:
            raise ValueError(f"at alpha={alpha:g} a sampled {what} needs {n:.3g} draws, more than int64 holds")
    repeats = 1 if sampler is None else _EST_ECE_REPEATS

    def measure(n: int) -> ExpectationEngine:
        return engine if sampler is None else sampler.draw(n)

    rows: list[tuple] = []
    q = p0
    result = None
    for _ in range(cap):
        ma = ma_algorithm(q, alpha - delta, wl, engine, sampler=sampler, batch_size=cfg.ma_batch)
        p_t = ma.predictor
        p_disc = discretize(p_t, delta)
        estimates = [ece(p_disc, measure(n_est)) for _ in range(repeats)]
        estimate = estimates[0] if repeats == 1 else float(np.median(estimates))
        recalibrate = estimate > 0.75 * alpha
        q = recalibrate_with_engine(p_t, delta, measure(n_recal)) if recalibrate else p_disc
        rows.append((len(ma.updates), ma.wl_calls, estimate, recalibrate, ma.potential_before))
        if not recalibrate:
            result = q
            break
    if result is None:
        raise IterationCapError(f"calma exceeded {cap} outer iterations at alpha={alpha:g}")

    # a round ends at the potential the next round's ma_algorithm starts from
    after = [row[-1] for row in rows[1:]] + [engine.expect((engine.ystar - result.values(engine.X)) ** 2)]
    rounds = tuple(CalmaRound(*row, potential_after) for row, potential_after in zip(rows, after))
    final_ece = ece(result, engine)
    final_mae = mae(result, wl.hclass, engine)
    trace = CalmaTrace(alpha, delta, mu, rounds, final_ece, final_mae)
    return result, trace
