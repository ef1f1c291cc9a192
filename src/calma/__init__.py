"""Calibrated multiaccuracy: training algorithms, calibration estimators and
loss-based indistinguishability audits over exact or empirical data."""

from .core import (
    BucketRecalPredictor,
    ConstantPredictor,
    Dataset,
    ExpectationEngine,
    FiniteDistribution,
    FunctionPredictor,
    Hypothesis,
    HypothesisClass,
    PipelinePredictor,
    Predictor,
    TablePredictor,
    bayes_predictor,
    clip,
    coordinate_class,
    distance,
    interval_class,
    level_class,
    lin_combination,
    make_class,
    power_class,
)
from .losses import (
    GlmLoss,
    Loss,
    TruncatedDecision,
    bregman,
    crelu_glm,
    exp_loss,
    get_loss,
    glm_from_transfer,
    identity_glm,
    lp_loss,
    optimal_decision,
    sigmoid_glm,
    squared_loss,
    transfer_inverse,
    truncated_decision,
)
from .calibration import (
    BucketStats,
    DatasetSampler,
    DistributionSampler,
    WeightFunction,
    discretize,
    ece,
    isotonic_fit,
    recalibrate_with_engine,
    weighted_ce,
)
from .multiaccuracy import (
    ExhaustiveWeakLearner,
    l1_glm_fit,
    ma_algorithm,
    mae,
)
from .training import CalmaConfig, CalmaTrace, calma
from .audit import (
    audit_family,
    decision_oi_gap,
    hypothesis_oi_gap,
    loss_oi_gap,
    omni_regret,
    parity_counterexample,
    pythagorean_residual,
    sim_counterexample,
)
from .bench import MixtureConfig, fit_linear_baseline, gen_gaussian_mixture, run_benchmark

__version__ = "0.1.0"
