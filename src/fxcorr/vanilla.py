"""Vanilla FX option pricing under lognormal dynamics, and its inversion.

call = exp(-r_d T) (F N[d1] - K N[d2])
put  = exp(-r_d T) (K N[-d2] - F N[-d1])
d1   = (ln(F/K) + sigma^2 T / 2) / (sigma sqrt(T)),   d2 = d1 - sigma sqrt(T)
F    = spot * exp((r_d - r_f) T)

where r_d / r_f are the average continuously compounded rates of the
denominating / foreign currency.  sigma = 0 is handled by an explicit
discounted-intrinsic branch so nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import NoImpliedVolError, ValidationError
from .market_data import FxPair

OptionKind = Literal["call", "put"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

PRICE_TOL = 1e-12
VOL_TOL = 1e-10
_BRACKET_LO = 1e-9
_BRACKET_HI = 5.0
_BRACKET_MAX = 10.0


def norm_cdf(x: float) -> float:
    """Standard Normal CDF via erfc, accurate deep into both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class VanillaSpec:
    """A vanilla call or put on one pair: strike and maturity in year fractions."""

    pair: FxPair
    strike: float
    maturity: float
    kind: OptionKind

    def __post_init__(self):
        _check_strike_kind(self.strike, self.kind)
        if not 0 < self.maturity < math.inf:
            raise ValidationError(f"maturity must be positive and finite, got {self.maturity}")


def _check_strike_kind(strike: float, kind: str) -> None:
    if not 0 < strike < math.inf:
        raise ValidationError(f"strike must be positive and finite, got {strike}")
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be 'call' or 'put', got {kind!r}")


@dataclass(frozen=True)
class PricingInputs:
    """Spot, the two average rates, and the implied vol feeding the formula."""

    spot: float
    rate_dom: float
    rate_fgn: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.spot < math.inf:
            raise ValidationError(f"spot must be positive and finite, got {self.spot}")
        if not (math.isfinite(self.rate_dom) and math.isfinite(self.rate_fgn)):
            raise ValidationError(f"rates must be finite, got {self.rate_dom} and {self.rate_fgn}")
        if not 0 <= self.sigma < math.inf:
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")


def forward(spot: float, rate_dom: float, rate_fgn: float, maturity: float) -> float:
    """Forward rate spot * exp((r_d - r_f) * T)."""
    if not spot > 0:
        raise ValidationError(f"spot must be positive, got {spot}")
    if not maturity > 0:
        raise ValidationError(f"maturity must be positive, got {maturity}")
    inputs = (spot, rate_dom, rate_fgn, maturity)
    if not all(map(math.isfinite, inputs)):
        raise ValidationError(f"spot, rates and maturity must be finite, got {inputs}")
    return spot * math.exp((rate_dom - rate_fgn) * maturity)


def gk_price(spec: VanillaSpec, inputs: PricingInputs) -> float:
    """Vanilla price in units of the denominating currency."""
    return _price_with_vega(spec, _terms(spec, inputs), inputs.sigma)[0]


def gk_vega(spec: VanillaSpec, inputs: PricingInputs) -> float:
    """Sensitivity of the price to sigma (same for calls and puts)."""
    return _price_with_vega(spec, _terms(spec, inputs), inputs.sigma)[1]


def _terms(spec: VanillaSpec, inputs: PricingInputs) -> tuple[float, ...]:
    """The sigma-free terms of the formula: F, exp(-r_d T), sqrt(T), ln(F/K)."""
    t = spec.maturity
    fwd = forward(inputs.spot, inputs.rate_dom, inputs.rate_fgn, t)
    ratio = fwd / spec.strike  # 0 only when it underflows; ln(F/K) then tends to -inf
    log_fk = math.log(ratio) if ratio > 0.0 else -math.inf
    return fwd, math.exp(-inputs.rate_dom * t), math.sqrt(t), log_fk


def _price_with_vega(spec: VanillaSpec, terms: tuple[float, ...], sigma: float) -> tuple[float, float]:
    fwd, df, sqrt_t, log_fk = terms
    if sigma == 0.0:
        intrinsic = fwd - spec.strike if spec.kind == "call" else spec.strike - fwd
        return df * max(intrinsic, 0.0), 0.0
    vol_sqrt_t = sigma * sqrt_t
    d1 = (log_fk + 0.5 * sigma * sigma * spec.maturity) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    if spec.kind == "call":
        price = df * (fwd * norm_cdf(d1) - spec.strike * norm_cdf(d2))
    else:
        price = df * (spec.strike * norm_cdf(-d2) - fwd * norm_cdf(-d1))
    vega = df * fwd * _norm_pdf(d1) * sqrt_t
    return price, vega


def implied_vol(
    spec: VanillaSpec,
    market_price: float,
    spot: float,
    rate_dom: float,
    rate_fgn: float,
) -> float:
    """Invert gk_price for sigma.

    Safeguarded Newton/bisection on the bracket [1e-9, 5.0], widened once
    to 10.0.  Converges when the remaining price error pins sigma within
    VOL_TOL, or the bracket itself shrinks below VOL_TOL.
    """
    if not math.isfinite(market_price):
        raise ValidationError(f"market price must be finite, got {market_price}")
    terms = _terms(spec, PricingInputs(spot, rate_dom, rate_fgn, 0.0))  # checks spot and rates
    # open no-arbitrage band: discounted intrinsic (the sigma = 0 price), discounted cap
    fwd, df = terms[:2]
    lower = _price_with_vega(spec, terms, 0.0)[0]
    upper = df * (fwd if spec.kind == "call" else spec.strike)
    if market_price <= lower:
        raise NoImpliedVolError(
            f"no implied vol: below intrinsic (price {market_price:.12g} <= {lower:.12g})",
            reason="below_intrinsic",
        )
    if market_price >= upper:
        raise NoImpliedVolError(
            f"no implied vol: above cap (price {market_price:.12g} >= {upper:.12g})",
            reason="above_cap",
        )

    def value(sigma: float) -> tuple[float, float]:
        price, vega = _price_with_vega(spec, terms, sigma)
        return price - market_price, vega

    lo, hi = _BRACKET_LO, _BRACKET_HI
    if value(hi)[0] < 0.0:
        hi = _BRACKET_MAX
        if value(hi)[0] < 0.0:
            raise NoImpliedVolError(
                f"implied vol above the search bracket {_BRACKET_MAX}", reason="exceeds_bracket"
            )

    # rtsafe-style: Newton when it stays inside the bracket and halves the
    # step, otherwise bisection; globally convergent since price is monotone.
    # Internal stops sit below the public tolerances so bracket-placement
    # noise of a few price ulps cannot push the result past VOL_TOL.
    sigma = 0.5 * (lo + hi)
    step_prev = hi - lo
    step = step_prev
    for _ in range(200):
        diff, vega = value(sigma)
        if abs(diff) <= PRICE_TOL and vega > 0.0 and abs(diff) <= 0.5 * VOL_TOL * vega:
            return sigma
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        if hi - lo <= 0.25 * VOL_TOL:
            return 0.5 * (lo + hi)
        take_newton = vega > 0.0 and abs(2.0 * diff) <= abs(step_prev * vega)
        if take_newton:
            candidate = sigma - diff / vega
            take_newton = lo < candidate < hi
        if take_newton:
            step_prev, step = step, abs(diff / vega)
            sigma = candidate
        else:
            step_prev, step = step, 0.5 * (hi - lo)
            sigma = lo + step
    raise NoImpliedVolError("implied vol search did not converge", reason="no_convergence")
