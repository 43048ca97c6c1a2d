import math
import warnings

import numpy as np
import pytest

from fxcorr import (
    CalendarArbitrageError,
    ExtrapolationWarning,
    FxPair,
    PiecewiseConstant,
    UndefinedCorrelationError,
    ValidationError,
    VolTermStructure,
    bootstrap_piecewise_vol,
    forward_vol,
    horizon_vol,
    integrated_correlation,
    total_variance,
)
from fxcorr.term_structure import _bucket_vols, _span_vol

PAIR = FxPair.parse("EUR/USD")

# sqrt(0.12^2 * 2 - 0.10^2 * 1), frozen from direct high-precision arithmetic
FORWARD_VOL_10_12 = 0.13711309200802088


def random_structure(rng, n_points=None):
    n = n_points or rng.integers(1, 8)
    maturities = np.sort(rng.uniform(0.1, 5.0, n))
    while np.diff(maturities).min(initial=1.0) < 1e-3:
        maturities = np.sort(rng.uniform(0.1, 5.0, n))
    # build calendar-consistent quotes from positive forward variances
    rates = rng.uniform(0.0025, 0.16, n)  # instantaneous variance per bucket
    tv = np.cumsum(rates * np.diff(np.concatenate([[0.0], maturities])))
    vols = np.sqrt(tv / maturities)
    return VolTermStructure(PAIR, tuple(zip(maturities.tolist(), vols.tolist())))


class TestPiecewiseConstant:
    def test_requires_leading_zero(self):
        with pytest.raises(ValidationError):
            PiecewiseConstant((1.0, 2.0), (0.1,))

    def test_rejects_hairline_buckets(self):
        with pytest.raises(ValidationError):
            PiecewiseConstant((0.0, 1e-13), (0.1,))

    def test_value_count_must_match(self):
        with pytest.raises(ValidationError):
            PiecewiseConstant((0.0, 1.0, 2.0), (0.1,))

    def test_buckets_are_right_closed(self):
        pc = PiecewiseConstant((0.0, 1.0, 2.0), (0.1, 0.2))
        assert pc.value_at(1.0) == 0.1
        assert pc.value_at(1.0 + 1e-9) == 0.2
        assert pc.value_at(2.0) == 0.2

    def test_extrapolates_flat_with_warning(self):
        pc = PiecewiseConstant((0.0, 1.0), (0.1,))
        with pytest.warns(ExtrapolationWarning):
            assert pc.value_at(3.0) == 0.1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_breakpoints(self, bad):
        with pytest.raises(ValidationError, match="breakpoints must be finite"):
            PiecewiseConstant((0.0, 1.0, bad), (0.1, 0.2))

    @pytest.mark.parametrize("breakpoints, values", [((0.0,), ()), ((), ())])
    def test_needs_a_bucket(self, breakpoints, values):
        with pytest.raises(ValidationError, match="need at least one bucket"):
            PiecewiseConstant(breakpoints, values)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_value_at_needs_a_positive_time(self, t):
        with pytest.raises(ValidationError, match="t must be > 0"):
            PiecewiseConstant((0.0, 1.0), (0.1,)).value_at(t)


class TestStoredSequences:
    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
    def test_step_function_stores_tuples(self, make):
        step = PiecewiseConstant(make([0.0, 0.5, 1.0]), make([0.1, 0.2]))
        expected = PiecewiseConstant((0.0, 0.5, 1.0), (0.1, 0.2))
        assert type(step.breakpoints) is tuple and type(step.values) is tuple
        assert step == expected and hash(step) == hash(expected)
        assert step.value_at(0.75) == 0.2


class TestForwardVol:
    def test_flat_structure_returns_same_vol(self):
        assert forward_vol(0.1, 0.1, 1.0, 2.0) == pytest.approx(0.1, rel=1e-15)

    def test_oracle_value(self):
        assert forward_vol(0.10, 0.12, 1.0, 2.0) == pytest.approx(
            FORWARD_VOL_10_12, abs=1e-16
        )

    def test_calendar_arbitrage_reports_both_variances(self):
        with pytest.raises(CalendarArbitrageError, match="0.02"):
            forward_vol(0.20, 0.10, 1.0, 2.0)

    @pytest.mark.parametrize("near, far", [(math.nan, 0.1), (0.1, math.nan), (0.1, math.inf)])
    def test_rejects_non_finite_vols(self, near, far):
        with pytest.raises(ValidationError, match="vols must be finite"):
            forward_vol(near, far, 1.0, 2.0)

    def test_rejects_infinite_far_time(self):
        with pytest.raises(ValidationError, match="t_far < inf"):
            forward_vol(0.1, 0.1, 1.0, math.inf)

    def test_zero_forward_variance_allowed(self):
        # dyadic values make the two total variances exactly equal
        assert forward_vol(0.125, 0.0625, 1.0, 4.0) == 0.0

    def test_additivity_identity(self):
        # forward variance is exactly what makes total variance additive
        rng = np.random.default_rng(3)
        for _ in range(500):
            t1 = rng.uniform(0.1, 3.0)
            t2 = t1 + rng.uniform(0.1, 3.0)
            s1 = rng.uniform(0.05, 0.4)
            s2 = math.sqrt((s1 * s1 * t1 + rng.uniform(0.0, 0.1)) / t2)
            fv = forward_vol(s1, s2, t1, t2)
            lhs = s1 * s1 * t1 + fv * fv * (t2 - t1)
            assert lhs == pytest.approx(s2 * s2 * t2, abs=1e-15)


class TestSpanVol:
    def test_structure_read_names_the_pair_and_both_variances(self):
        # forward_vol's text, prefixed with the pair when the variances were read from a structure
        text = "negative forward variance on (1.0, 2.0]: total variance 0.02 at T=2.0 < 0.04 at T=1.0"
        with pytest.raises(CalendarArbitrageError) as spots:
            forward_vol(0.2, 0.1, 1.0, 2.0)
        with pytest.raises(CalendarArbitrageError) as structure:
            _span_vol(VolTermStructure(PAIR, ((1.0, 0.2),)), 1.0, 2.0, 0.04, 0.02)
        assert (str(spots.value), str(structure.value)) == (text, f"EUR/USD: {text}")


class TestBootstrap:
    def test_single_point(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.1),))
        pc = bootstrap_piecewise_vol(ts)
        assert pc.breakpoints == (0.0, 1.0)
        assert pc.values == (0.1,)

    def test_two_point_oracle(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.10), (2.0, 0.12)))
        pc = bootstrap_piecewise_vol(ts)
        assert pc.values[0] == 0.10
        assert pc.values[1] == pytest.approx(FORWARD_VOL_10_12, abs=1e-16)

    def test_buckets_follow_the_quotes(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.10), (2.0, 0.12)))
        pc = bootstrap_piecewise_vol(ts)
        assert list(zip(pc.breakpoints, pc.breakpoints[1:])) == [(0.0, 1.0), (1.0, 2.0)]
        assert pc.values[1] == pytest.approx(FORWARD_VOL_10_12, abs=1e-16)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ts = random_structure(rng)
            pc = bootstrap_piecewise_vol(ts)
            for t, sigma in ts.points:
                assert abs(total_variance(pc, t) - sigma * sigma * t) <= 1e-14


class TestTotalVariance:
    def test_constant(self):
        pc = PiecewiseConstant((0.0, 4.0), (0.2,))
        assert total_variance(pc, 4.0) == pytest.approx(0.16, rel=1e-15)

    def test_two_bucket_oracle(self):
        pc = PiecewiseConstant((0.0, 1.0, 2.0), (0.10, FORWARD_VOL_10_12))
        assert total_variance(pc, 2.0) == pytest.approx(0.0288, abs=1e-15)

    def test_partial_bucket(self):
        pc = PiecewiseConstant((0.0, 1.0), (0.1,))
        assert total_variance(pc, 0.5) == pytest.approx(0.005, rel=1e-15)

    def test_domain_error(self):
        pc = PiecewiseConstant((0.0, 1.0), (0.1,))
        with pytest.raises(ValidationError):
            total_variance(pc, 0.0)

    def test_extrapolation_warns_and_stays_flat(self):
        pc = PiecewiseConstant((0.0, 1.0, 2.0), (0.1, 0.2))
        with pytest.warns(ExtrapolationWarning):
            tv = total_variance(pc, 3.0)
        assert tv == pytest.approx(0.01 + 0.04 + 0.04, rel=1e-14)


class TestIntegratedCorrelation:
    def test_constants_factor_out(self):
        rho = PiecewiseConstant((0.0, 2.0), (0.5,))
        s1 = PiecewiseConstant((0.0, 2.0), (0.1,))
        s2 = PiecewiseConstant((0.0, 2.0), (0.3,))
        assert integrated_correlation(rho, s1, s2, 2.0) == pytest.approx(0.5, rel=1e-15)

    def test_two_bucket_average(self):
        rho = PiecewiseConstant((0.0, 1.0, 2.0), (1.0, 0.0))
        sigma = PiecewiseConstant((0.0, 2.0), (0.2,))
        assert integrated_correlation(rho, sigma, sigma, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero_rho(self):
        rho = PiecewiseConstant((0.0, 2.0), (0.0,))
        sigma = PiecewiseConstant((0.0, 2.0), (0.2,))
        assert integrated_correlation(rho, sigma, sigma, 2.0) == 0.0

    def test_bounded_by_max_rho(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            breaks = (0.0, 0.5, 1.3, 2.0)
            rho = PiecewiseConstant(breaks, tuple(rng.uniform(-1, 1, 3)))
            s1 = PiecewiseConstant(breaks, tuple(rng.uniform(0.05, 0.5, 3)))
            s2 = PiecewiseConstant(breaks, tuple(rng.uniform(0.05, 0.5, 3)))
            value = integrated_correlation(rho, s1, s2, 2.0)
            assert abs(value) <= max(abs(r) for r in rho.values) + 1e-15

    def test_zero_variance_leg_rejected(self):
        rho = PiecewiseConstant((0.0, 1.0), (0.5,))
        s1 = PiecewiseConstant((0.0, 1.0), (0.0,))
        s2 = PiecewiseConstant((0.0, 1.0), (0.2,))
        with pytest.raises(UndefinedCorrelationError):
            integrated_correlation(rho, s1, s2, 1.0)

    def test_rho_magnitude_validated(self):
        rho = PiecewiseConstant((0.0, 1.0), (1.5,))
        sigma = PiecewiseConstant((0.0, 1.0), (0.2,))
        with pytest.raises(ValidationError, match="rho"):
            integrated_correlation(rho, sigma, sigma, 1.0)

    def test_merged_grid_is_exact(self):
        # hand-integrable case with misaligned breakpoints
        rho = PiecewiseConstant((0.0, 0.5, 2.0), (0.8, 0.2))
        s1 = PiecewiseConstant((0.0, 1.0, 2.0), (0.1, 0.2))
        s2 = PiecewiseConstant((0.0, 2.0), (0.3,))
        cov = 0.8 * 0.1 * 0.3 * 0.5 + 0.2 * 0.1 * 0.3 * 0.5 + 0.2 * 0.2 * 0.3 * 1.0
        tv1 = 0.01 * 1.0 + 0.04 * 1.0
        tv2 = 0.09 * 2.0
        expected = cov / math.sqrt(tv1 * tv2)
        assert integrated_correlation(rho, s1, s2, 2.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_extrapolation_warns_and_stays_flat(self, short):
        inputs = [PiecewiseConstant((0.0, 2.0), (value,)) for value in (0.5, 0.1, 0.3)]
        inputs[short] = PiecewiseConstant((0.0, 1.0), (inputs[short].values[0],))
        with pytest.warns(ExtrapolationWarning, match="flat beyond T=1.0"):
            assert integrated_correlation(*inputs, 2.0) == pytest.approx(0.5, rel=1e-15)


class TestNonFiniteIntegrals:
    RHO = PiecewiseConstant((0.0, 1.0), (0.5,))
    SIGMA = PiecewiseConstant((0.0, 1.0), (0.2,))

    def test_nan_rho_rejected(self):
        rho = PiecewiseConstant((0.0, 1.0), (math.nan,))
        with pytest.raises(ValidationError, match="rho"):
            integrated_correlation(rho, self.SIGMA, self.SIGMA, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.2])
    @pytest.mark.parametrize("leg", [0, 1])
    def test_bad_vol_leg_rejected(self, bad, leg):
        legs = [self.SIGMA, self.SIGMA]
        legs[leg] = PiecewiseConstant((0.0, 0.5, 1.0), (0.2, bad))
        with pytest.raises(ValidationError, match="vol must be finite and >= 0"):
            integrated_correlation(self.RHO, *legs, 1.0)

    def test_infinite_correlation_horizon_rejected(self):
        with pytest.raises(ValidationError, match="horizon"):
            integrated_correlation(self.RHO, self.SIGMA, self.SIGMA, math.inf)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_infinite_total_variance_horizon_rejected(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            total_variance(self.SIGMA, horizon)

    @pytest.mark.parametrize("start,end", [(0.0, math.inf), (0.5, math.inf), (math.nan, 1.0)])
    def test_infinite_horizon_vol_end_rejected(self, start, end):
        ts = VolTermStructure(PAIR, ((1.0, 0.10),))
        with pytest.raises(ValidationError, match="need 0 <= start < end"):
            horizon_vol(ts, start, end)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("integral", [total_variance, integrated_correlation],
                             ids=["total_variance", "integrated_correlation"])
    def test_horizon_is_checked_as_a_time(self, integral, horizon):
        args = (self.SIGMA,) if integral is total_variance else (self.RHO, self.SIGMA, self.SIGMA)
        with pytest.raises(ValidationError, match="horizon must be finite, > 0 and strictly increasing"):
            integral(*args, horizon)

    @pytest.mark.parametrize("start,end", [(0.5, math.inf), (1.0, 1.0), (0.5, 0.2), (-0.1, 1.0)])
    def test_horizon_vol_names_the_one_span_rule(self, start, end):
        ts = VolTermStructure(PAIR, ((1.0, 0.10),))
        with pytest.raises(ValidationError, match=r"need 0 <= start < end < inf, got"):
            horizon_vol(ts, start, end)


class TestHorizonVol:
    def test_at_quoted_maturities(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.10), (2.0, 0.12)))
        assert horizon_vol(ts, 0.0, 1.0) == pytest.approx(0.10, rel=1e-15)
        assert horizon_vol(ts, 1.0, 2.0) == pytest.approx(FORWARD_VOL_10_12, abs=1e-15)

    def test_interpolates_in_total_variance(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.10), (2.0, 0.12)))
        tv_15 = 0.5 * (0.01 + 0.0288)
        assert horizon_vol(ts, 0.0, 1.5) == pytest.approx(math.sqrt(tv_15 / 1.5), rel=1e-14)

    def test_bad_horizon(self):
        ts = VolTermStructure(PAIR, ((1.0, 0.10),))
        with pytest.raises(ValidationError):
            horizon_vol(ts, 1.0, 1.0)

    def test_one_float_span_below_a_knot(self):
        # the interpolated total variance one float below the 3.25 knot must not round above the knot's
        ts = VolTermStructure(PAIR, ((0.99, 0.188), (3.25, 0.19)))
        assert horizon_vol(ts, 3.2499999999999996, 3.25) == 0.0
        assert ts.total_variance(3.2499999999999996) <= ts.total_variance(3.25)

    @pytest.mark.parametrize("times", [(1.0, 2.0), (0.25, 0.5, 1.5), (0.5, 2.0, 2.5, 3.0), (1, 3)],
                             ids=["quoted", "inside", "beyond", "ints"])
    def test_bucket_vols_are_horizon_vols_bit_for_bit(self, times):
        # one total-variance read per time, the same arithmetic as horizon_vol, as a plain tuple
        ts = VolTermStructure(PAIR, ((1.0, 0.10), (2.0, 0.12)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            got = _bucket_vols(ts, times)
            want = [horizon_vol(ts, a, b) for a, b in zip((0.0, *times), times)]
        assert type(got) is tuple and list(got) == want
