"""Errors-in-variables regression toolkit: LS estimation, exact error
decomposition, asymptotic-condition diagnostics, and a seeded Monte Carlo
harness that checks the standardized estimators against the normal limit.

The names below are resolved on first access (PEP 562), so ``import evclt``
loads no numpy and ``evclt.cli`` can settle the BLAS threads before it does.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "DesignSequence": "design",
    "DesignSummary": "design",
    "summarize": "design",
    "summary_path": "design",
    "ErrorDistribution": "model",
    "EVModelSpec": "model",
    "EVSample": "model",
    "draw_sample": "model",
    "FitResult": "estimator",
    "Decomposition": "estimator",
    "StandardizedStats": "estimator",
    "fit": "estimator",
    "decompose": "estimator",
    "standardize": "estimator",
    "negligible_ratios": "estimator",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
