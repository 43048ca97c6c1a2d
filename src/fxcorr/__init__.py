"""Implied FX correlations from vanilla option vols, and multi-FX pricing.

The library turns a snapshot of spots, implied-vol term structures, and
rate curves into: vanilla prices and implied vols, forward/instantaneous
vol structures, implied correlations between any two FX rates (shared or
different denominating currencies), bucketed correlation matrices with
PSD diagnostics, and Monte Carlo prices for basket and multi-FX barrier
options.
"""

from .correlation import (
    BucketedCorrelationMatrix,
    BucketStatus,
    CorrProvenance,
    CorrQuery,
    CorrResult,
    bucket_corrs,
    build_matrix,
    cross_corr,
    implied_corr,
    term_corr,
    triangle_corr,
)
from .errors import (
    CalendarArbitrageError,
    CorrelationClampWarning,
    CorrelationRangeError,
    ExtrapolationWarning,
    FactorizationError,
    FxCorrError,
    MissingDataError,
    NoImpliedVolError,
    SchemaError,
    UndefinedCorrelationError,
    ValidationError,
)
from .market_data import (
    Currency,
    FxPair,
    MarketSnapshot,
    RateCurve,
    TriangleViolation,
    VolTermStructure,
    canonicalize,
    check_spot_triangles,
    load_snapshot,
    loads_snapshot,
)
from .montecarlo import (
    BarrierPayoff,
    BasketPayoff,
    PricingResult,
    SimulationConfig,
    VanillaPayoff,
    payoff_from_dict,
    payoff_to_dict,
    price,
    simulate_increments,
)
from .term_structure import (
    PiecewiseConstant,
    bootstrap_piecewise_vol,
    forward_vol,
    horizon_vol,
    integrated_correlation,
    total_variance,
)
from .vanilla import (
    PricingInputs,
    VanillaSpec,
    forward,
    gk_price,
    gk_vega,
    implied_vol,
    norm_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # market data
    "Currency", "FxPair", "VolTermStructure", "RateCurve",
    "MarketSnapshot", "TriangleViolation", "canonicalize",
    "load_snapshot", "loads_snapshot", "check_spot_triangles",
    # vanilla
    "VanillaSpec", "PricingInputs", "forward", "gk_price", "gk_vega",
    "implied_vol", "norm_cdf",
    # term structure
    "PiecewiseConstant", "forward_vol", "bootstrap_piecewise_vol",
    "total_variance", "integrated_correlation", "horizon_vol",
    # correlation
    "CorrQuery", "CorrResult", "CorrProvenance", "BucketStatus",
    "BucketedCorrelationMatrix", "triangle_corr", "cross_corr",
    "implied_corr", "bucket_corrs", "term_corr", "build_matrix",
    # monte carlo
    "SimulationConfig", "VanillaPayoff", "BasketPayoff", "BarrierPayoff",
    "PricingResult", "simulate_increments", "price",
    "payoff_from_dict", "payoff_to_dict",
    # errors
    "FxCorrError", "SchemaError", "ValidationError", "CalendarArbitrageError",
    "MissingDataError", "NoImpliedVolError", "CorrelationRangeError",
    "UndefinedCorrelationError", "FactorizationError",
    "ExtrapolationWarning", "CorrelationClampWarning",
]
