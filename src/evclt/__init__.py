"""Errors-in-variables regression toolkit: LS estimation, exact error
decomposition, asymptotic-condition diagnostics, and a seeded Monte Carlo
harness that checks the standardized estimators against the normal limit."""

from .design import DesignSequence, DesignSummary, summarize, summary_path
from .estimator import (
    Decomposition,
    FitResult,
    StandardizedStats,
    decompose,
    fit,
    negligible_ratios,
    standardize,
)
from .model import (
    ErrorDistribution,
    EVModelSpec,
    EVSample,
    draw_sample,
    moment,
)

__version__ = "0.1.0"

__all__ = [
    "DesignSequence",
    "DesignSummary",
    "summarize",
    "summary_path",
    "ErrorDistribution",
    "EVModelSpec",
    "EVSample",
    "draw_sample",
    "moment",
    "FitResult",
    "Decomposition",
    "StandardizedStats",
    "fit",
    "decompose",
    "standardize",
    "negligible_ratios",
    "__version__",
]
