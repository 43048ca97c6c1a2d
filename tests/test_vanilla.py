import math

import numpy as np
import pytest

from fxcorr import (
    FxPair,
    NoImpliedVolError,
    PricingInputs,
    ValidationError,
    VanillaSpec,
    forward,
    gk_price,
    implied_vol,
    norm_cdf,
)
from fxcorr.vanilla import VOL_TOL

from conftest import draw_invertible

PAIR = FxPair.parse("EUR/USD")

# Frozen from an independent high-precision evaluation of the textbook
# formula (spot 1.25, K 1.25, T 1, r_d 0.03, r_f 0.01, sigma 0.10).
ORACLE_CALL = 0.06208826018941123
ORACLE_PUT = 0.037582884938586386
ORACLE_FORWARD = 104.08107741923882


def _price_and_vega(spec, spot, sigma):
    from fxcorr import gk_vega

    inputs = PricingInputs(spot, 0.02, 0.01, sigma)
    return gk_price(spec, inputs), gk_vega(spec, inputs)


class TestNormCdf:
    def test_matches_erf_reference_to_1e15(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            reference = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(norm_cdf(x) - reference) <= 1e-15

    def test_symmetry(self):
        for x in [0.0, 0.5, 2.0, 6.0]:
            assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-16)


class TestForward:
    def test_equal_rates_gives_spot(self):
        assert forward(1.0, 0.03, 0.03, 2.0) == 1.0

    def test_oracle_value(self):
        assert forward(100.0, 0.05, 0.01, 1.0) == pytest.approx(ORACLE_FORWARD, abs=1e-12)

    def test_short_maturity_limit(self):
        assert forward(1.3, 0.05, 0.01, 1e-12) == pytest.approx(1.3, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            forward(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            forward(1.0, 0.0, 0.0, 0.0)


    @pytest.mark.parametrize("spot,rate_dom,rate_fgn,maturity", [
        (1.0, 0.0, 0.0, math.inf),
        (1.0, math.nan, 0.0, 1.0),
        (1.0, 0.0, math.nan, 1.0),
        (1.0, math.inf, 0.0, 1.0),
        (math.inf, 0.0, 0.0, 1.0),
        (math.nan, 0.0, 0.0, 1.0),
    ])
    def test_non_finite_inputs_rejected(self, spot, rate_dom, rate_fgn, maturity):
        with pytest.raises(ValidationError):
            forward(spot, rate_dom, rate_fgn, maturity)


class TestGkPrice:
    def test_zero_vol_call_is_discounted_intrinsic(self):
        spec = VanillaSpec(PAIR, 1.0, 2.0, "call")
        inputs = PricingInputs(1.2, 0.03, 0.01, 0.0)
        fwd = forward(1.2, 0.03, 0.01, 2.0)
        assert gk_price(spec, inputs) == pytest.approx(
            math.exp(-0.03 * 2.0) * (fwd - 1.0), rel=1e-15
        )

    def test_zero_vol_otm_is_zero(self):
        spec = VanillaSpec(PAIR, 2.0, 1.0, "call")
        assert gk_price(spec, PricingInputs(1.2, 0.03, 0.01, 0.0)) == 0.0

    def test_atm_forward_symmetry(self):
        # K = F makes d1 = -d2 = sigma sqrt(T) / 2
        spot, rd, rf, sigma, t = 1.25, 0.03, 0.01, 0.2, 2.0
        fwd = forward(spot, rd, rf, t)
        spec = VanillaSpec(PAIR, fwd, t, "call")
        expected = math.exp(-rd * t) * fwd * (2.0 * norm_cdf(0.5 * sigma * math.sqrt(t)) - 1.0)
        assert gk_price(spec, PricingInputs(spot, rd, rf, sigma)) == pytest.approx(
            expected, rel=1e-15
        )

    def test_oracle_call_and_put(self):
        spec_call = VanillaSpec(PAIR, 1.25, 1.0, "call")
        spec_put = VanillaSpec(PAIR, 1.25, 1.0, "put")
        inputs = PricingInputs(1.25, 0.03, 0.01, 0.10)
        assert abs(gk_price(spec_call, inputs) - ORACLE_CALL) <= 1e-12
        assert abs(gk_price(spec_put, inputs) - ORACLE_PUT) <= 1e-12

    def test_put_call_parity_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            spot = rng.uniform(0.5, 150.0)
            strike = spot * math.exp(rng.uniform(-1.5, 1.5))
            t = rng.uniform(0.05, 5.0)
            rd = rng.uniform(-0.01, 0.08)
            rf = rng.uniform(-0.01, 0.08)
            sigma = rng.uniform(0.01, 0.8)
            call = gk_price(VanillaSpec(PAIR, strike, t, "call"), PricingInputs(spot, rd, rf, sigma))
            put = gk_price(VanillaSpec(PAIR, strike, t, "put"), PricingInputs(spot, rd, rf, sigma))
            rhs = math.exp(-rd * t) * (forward(spot, rd, rf, t) - strike)
            scale = max(1.0, spot)
            assert abs(call - put - rhs) <= 1e-12 * scale

    def test_strictly_increasing_in_vol(self):
        # strict in exact arithmetic; in float64, strict wherever the
        # first-order increment vega * gap clears the price spacing,
        # non-decreasing everywhere else (deep ITM/OTM price graining)
        rng = np.random.default_rng(11)
        strict_checks = 0
        for _ in range(200):
            spot = rng.uniform(0.5, 2.0)
            strike = spot * math.exp(rng.uniform(-2.0, 2.0))
            t = rng.uniform(0.05, 5.0)
            spec = VanillaSpec(PAIR, strike, t, "call")
            sigmas = np.sort(rng.uniform(0.01, 1.5, 4))
            quotes = [
                (s, *_price_and_vega(spec, spot, s)) for s in sigmas
            ]
            for (s0, p0, v0), (s1, p1, _) in zip(quotes, quotes[1:]):
                if v0 * (s1 - s0) > 100 * np.spacing(max(p0, p1)):
                    assert p1 > p0
                    strict_checks += 1
                else:
                    assert p1 >= p0
        assert strict_checks > 400


class TestImpliedVol:
    def test_round_trip_simple(self):
        spec = VanillaSpec(PAIR, 1.3, 1.5, "call")
        price = gk_price(spec, PricingInputs(1.25, 0.03, 0.01, 0.2))
        assert implied_vol(spec, price, 1.25, 0.03, 0.01) == pytest.approx(0.2, abs=1e-10)

    def test_recovers_oracle_vol(self):
        spec = VanillaSpec(PAIR, 1.25, 1.0, "call")
        assert implied_vol(spec, ORACLE_CALL, 1.25, 0.03, 0.01) == pytest.approx(
            0.10, abs=1e-10
        )

    def test_below_intrinsic_rejected(self):
        spec = VanillaSpec(PAIR, 1.0, 1.0, "call")
        fwd = forward(1.25, 0.03, 0.01, 1.0)
        intrinsic = math.exp(-0.03) * (fwd - 1.0)
        with pytest.raises(NoImpliedVolError) as err:
            implied_vol(spec, intrinsic * 0.99, 1.25, 0.03, 0.01)
        assert err.value.reason == "below_intrinsic"

    def test_above_cap_rejected(self):
        spec = VanillaSpec(PAIR, 1.0, 1.0, "call")
        cap = math.exp(-0.03) * forward(1.25, 0.03, 0.01, 1.0)
        with pytest.raises(NoImpliedVolError) as err:
            implied_vol(spec, cap * 1.01, 1.25, 0.03, 0.01)
        assert err.value.reason == "above_cap"

    def test_put_band(self):
        spec = VanillaSpec(PAIR, 1.25, 1.0, "put")
        with pytest.raises(NoImpliedVolError):
            implied_vol(spec, math.exp(-0.03) * 1.25 * 1.01, 1.25, 0.03, 0.01)

    def test_bracket_expansion_beyond_five(self):
        spec = VanillaSpec(PAIR, 1.25, 1.0, "call")
        price = gk_price(spec, PricingInputs(1.25, 0.03, 0.01, 7.0))
        assert implied_vol(spec, price, 1.25, 0.03, 0.01) == pytest.approx(7.0, abs=1e-8)

    def test_vol_above_ten_fails(self):
        spec = VanillaSpec(PAIR, 1.25, 1.0, "call")
        price = gk_price(spec, PricingInputs(1.25, 0.03, 0.01, 12.0))
        with pytest.raises(NoImpliedVolError) as err:
            implied_vol(spec, price, 1.25, 0.03, 0.01)
        assert err.value.reason == "exceeds_bracket"

    def test_bracket_collapse_exit(self):
        # a deep in-the-money short call whose price error never meets the
        # Newton stop: the search ends when the bracket shrinks below VOL_TOL / 4
        spec = VanillaSpec(PAIR, 0.15965570232877008, 0.21011064332070134, "call")
        spot, rd, rf, sigma = 1.0, 0.041898637736990305, -0.01884667353061442, 0.8527203002944961
        price = gk_price(spec, PricingInputs(spot, rd, rf, sigma))
        assert abs(implied_vol(spec, price, spot, rd, rf) - sigma) <= VOL_TOL

    def test_round_trip_across_the_box(self):
        # sigma in [0.001, 3], T in [0.01, 10], log-moneyness in [-3, 3].
        # A float64 price pins sigma no tighter than spacing(price)/vega, so
        # draws whose prices cannot resolve sigma to 1e-10 (deep ITM/OTM
        # corners of the box) carry no testable information and are re-drawn.
        rng = np.random.default_rng(23)
        done = 0
        while done < 500:
            draw = draw_invertible(rng)
            if draw is None:
                continue
            spec, price, spot, rd, rf, sigma = draw
            recovered = implied_vol(spec, price, spot, rd, rf)
            assert abs(recovered - sigma) <= 1e-10, (sigma, spec)
            done += 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["strike", "maturity"])
    def test_spec_rejects(self, field, bad):
        args = {"strike": 1.25, "maturity": 1.0, field: bad}
        with pytest.raises(ValidationError, match=field):
            VanillaSpec(PAIR, args["strike"], args["maturity"], "call")

    @pytest.mark.parametrize("strike", [True, False])
    def test_spec_rejects_a_bool_strike(self, strike):
        with pytest.raises(ValidationError, match=f"strike must be positive and finite, got {strike}"):
            VanillaSpec(PAIR, strike, 1.0, "call")

    @pytest.mark.parametrize("maturity", [1.0, math.nan, -1.0])
    def test_spec_rejects_a_bad_kind_first(self, maturity):
        # the option terms (strike, kind) are checked before the maturity
        with pytest.raises(ValidationError, match="kind must be 'call' or 'put', got 'straddle'"):
            VanillaSpec(PAIR, 1.25, maturity, "straddle")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["spot", "rate_dom", "rate_fgn", "sigma"])
    def test_pricing_inputs_reject(self, field, bad):
        args = {"spot": 1.25, "rate_dom": 0.03, "rate_fgn": 0.01, "sigma": 0.1, field: bad}
        with pytest.raises(ValidationError):
            PricingInputs(**args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_implied_vol_rejects(self, slot, bad):
        # market price, spot, rate_dom, rate_fgn
        args = [0.06, 1.25, 0.03, 0.01]
        args[slot] = bad
        with pytest.raises(ValidationError):
            implied_vol(VanillaSpec(PAIR, 1.25, 1.0, "call"), *args)


class TestUnderflowingForward:
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_prices_at_the_limit(self, sigma):
        # F = 1e-300 * exp(-100) underflows to 0: the call is worthless and
        # the put pays the discounted strike, rather than ln(0) raising
        spot, rd, t = 1e-300, -10.0, 10.0
        inputs = PricingInputs(spot, rd, 0.0, sigma)
        assert forward(spot, rd, 0.0, t) == 0.0
        assert gk_price(VanillaSpec(PAIR, 1.0, t, "call"), inputs) == 0.0
        assert gk_price(VanillaSpec(PAIR, 1.0, t, "put"), inputs) == math.exp(-rd * t)
