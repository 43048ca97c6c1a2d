"""Implied FX correlations from vanilla option vols, and multi-FX pricing.

The library turns a snapshot of spots, implied-vol term structures, and
rate curves into: vanilla prices and implied vols, forward/instantaneous
vol structures, implied correlations between any two FX rates (shared or
different denominating currencies), bucketed correlation matrices with
PSD diagnostics, and Monte Carlo prices for basket and multi-FX barrier
options.

Each exported name is imported from its module on first use (PEP 562), so
``import fxcorr`` loads neither numpy nor the Monte Carlo engine.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "market_data": (
        "Currency", "FxPair", "VolTermStructure", "RateCurve", "MarketSnapshot", "TriangleViolation",
        "canonicalize", "load_snapshot", "loads_snapshot", "check_spot_triangles",
    ),
    "vanilla": ("VanillaSpec", "PricingInputs", "forward", "gk_price", "gk_vega", "implied_vol", "norm_cdf"),
    "term_structure": (
        "PiecewiseConstant", "forward_vol", "bootstrap_piecewise_vol", "total_variance",
        "integrated_correlation", "horizon_vol",
    ),
    "correlation": (
        "CorrQuery", "CorrResult", "CorrProvenance", "BucketStatus", "BucketedCorrelationMatrix",
        "triangle_corr", "cross_corr", "implied_corr", "bucket_corrs", "term_corr", "build_matrix",
    ),
    "montecarlo": (
        "SimulationConfig", "VanillaPayoff", "BasketPayoff", "BarrierPayoff", "PricingResult",
        "simulate_increments", "price", "payoff_from_dict", "payoff_to_dict",
    ),
    "errors": (
        "FxCorrError", "SchemaError", "ValidationError", "CalendarArbitrageError", "MissingDataError",
        "NoImpliedVolError", "CorrelationRangeError", "UndefinedCorrelationError", "FactorizationError",
        "ExtrapolationWarning", "CorrelationClampWarning",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:  # a submodule name too: ``from fxcorr import montecarlo`` then imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
