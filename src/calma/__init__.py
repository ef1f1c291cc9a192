"""Calibrated multiaccuracy: training algorithms, calibration estimators and
loss-based indistinguishability audits over exact or empirical data.

Submodules load on first use: ``import calma`` runs none of them, and
``calma.calma`` or ``calma.audit`` imports the module that holds it.
"""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "core": (
        "ConstantPredictor",
        "Dataset",
        "ExpectationEngine",
        "FiniteDistribution",
        "FunctionPredictor",
        "Hypothesis",
        "HypothesisClass",
        "PipelinePredictor",
        "Predictor",
        "TablePredictor",
        "bayes_predictor",
        "coordinate_class",
        "distance",
        "interval_class",
        "level_class",
        "lin_combination",
        "make_class",
        "power_class",
    ),
    "losses": (
        "GlmLoss",
        "Loss",
        "TruncatedDecision",
        "bregman",
        "crelu_glm",
        "exp_loss",
        "get_loss",
        "identity_glm",
        "lp_loss",
        "optimal_decision",
        "sigmoid_glm",
        "squared_loss",
        "truncated_decision",
    ),
    "calibration": (
        "DatasetSampler",
        "DistributionSampler",
        "discretize",
        "ece",
        "isotonic_fit",
        "recalibrate_with_engine",
        "weighted_ce",
    ),
    "multiaccuracy": ("ExhaustiveWeakLearner", "l1_glm_fit", "ma_algorithm", "mae"),
    "training": ("CalmaConfig", "CalmaTrace", "calma"),
    "audit": (
        "audit_family",
        "decision_oi_gap",
        "hypothesis_oi_gap",
        "loss_oi_gap",
        "omni_regret",
        "parity_counterexample",
        "pythagorean_residual",
        "sim_counterexample",
    ),
    "bench": ("MixtureConfig", "fit_linear_baseline", "gen_gaussian_mixture", "run_benchmark"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
