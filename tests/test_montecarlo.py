import math

import numpy as np
import pytest

from fxcorr import (
    BarrierPayoff,
    BasketPayoff,
    BucketedCorrelationMatrix,
    BucketStatus,
    FactorizationError,
    FxPair,
    MissingDataError,
    PiecewiseConstant,
    PricingInputs,
    SchemaError,
    SimulationConfig,
    ValidationError,
    VanillaPayoff,
    VanillaSpec,
    build_matrix,
    gk_price,
    payoff_from_dict,
    payoff_to_dict,
    price,
    simulate_increments,
    total_variance,
)

EURUSD = FxPair.parse("EUR/USD")
EURJPY = FxPair.parse("EUR/JPY")
USDJPY = FxPair.parse("USD/JPY")
JPYUSD = FxPair.parse("JPY/USD")


def manual_corr(labels, matrix, horizon=1.0):
    mat = np.asarray(matrix, dtype=float)
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    status = "psd" if min_eig >= -1e-10 else "indefinite"
    return BucketedCorrelationMatrix(
        tuple(labels), (0.0, horizon), (mat,), (BucketStatus(status, min_eig),)
    )


def flat_vol(sigma, horizon=1.0):
    return PiecewiseConstant((0.0, horizon), (sigma,))


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimulationConfig(0, 1, (1.0,))
        with pytest.raises(ValidationError):
            SimulationConfig(10, 1, (1.0, 0.5))
        with pytest.raises(ValidationError):
            SimulationConfig(10, 1, ())
        with pytest.raises(ValidationError):
            SimulationConfig(11, 1, (1.0,), antithetic=True)

    def test_horizon_is_last_grid_time(self):
        assert SimulationConfig(10, 1, (0.5, 1.0)).horizon == 1.0


class TestSimulateIncrements:
    def test_shape(self):
        config = SimulationConfig(1000, 7, (0.5, 1.0))
        y = simulate_increments([EURUSD], {EURUSD: flat_vol(0.2)}, None, config)
        assert y.shape == (1000, 2, 1)

    def test_lognormal_drift_identity(self):
        # no rates: E[Y(T)] = -sigma^2 T / 2
        sigma, t, n = 0.2, 1.0, 200_000
        config = SimulationConfig(n, 11, (t,))
        y = simulate_increments([EURUSD], {EURUSD: flat_vol(sigma, t)}, None, config)
        total = y[:, :, 0].sum(axis=1)
        se = total.std(ddof=1) / math.sqrt(n)
        assert abs(total.mean() - (-0.5 * sigma * sigma * t)) <= 4 * se

    def test_rate_differential_enters_the_drift(self, three_ccy_snapshot):
        # E[Y(T)] = (r_d - r_f - sigma^2/2) T with EUR at 2%, USD at 3%
        sigma, t, n = 0.2, 1.0, 200_000
        config = SimulationConfig(n, 83, (t,))
        y = simulate_increments(
            [EURUSD], {EURUSD: flat_vol(sigma, t)}, None, config,
            rates=three_ccy_snapshot.rates,
        )
        total = y[:, :, 0].sum(axis=1)
        want = (0.02 - 0.03 - 0.5 * sigma * sigma) * t
        se = total.std(ddof=1) / math.sqrt(n)
        assert abs(total.mean() - want) <= 4 * se

    def test_constant_correlation_recovered(self):
        rho, n = 0.7, 200_000
        corr = manual_corr(["EUR/JPY", "EUR/USD"], [[1.0, rho], [rho, 1.0]])
        config = SimulationConfig(n, 13, (1.0,))
        vols = {EURUSD: flat_vol(0.2), EURJPY: flat_vol(0.1)}
        y = simulate_increments([EURUSD, EURJPY], vols, corr, config)
        sample = np.corrcoef(y[:, 0, 0], y[:, 0, 1])[0, 1]
        se = (1 - rho * rho) / math.sqrt(n)
        assert abs(sample - rho) <= 4 * se

    def test_terminal_variance_matches_total_variance(self):
        vol = PiecewiseConstant((0.0, 1.0, 2.0), (0.10, 0.18))
        n = 200_000
        config = SimulationConfig(n, 17, (1.0, 2.0))
        y = simulate_increments([EURUSD], {EURUSD: vol}, None, config)
        total = y[:, :, 0].sum(axis=1)
        want = total_variance(vol, 2.0)
        got = total.var(ddof=1)
        # SE of a normal sample variance: var * sqrt(2 / (n - 1))
        assert abs(got - want) <= 4 * want * math.sqrt(2.0 / (n - 1))

    def test_consistent_triangle_collapses_cross_rate_residual(self, three_ccy_snapshot):
        # correlations from consistent vols make Y_ik - Y_ij - Y_jk a.s. zero;
        # the matrix is singular, so this also exercises the eigen fallback
        pairs = [EURJPY, EURUSD, USDJPY]
        corr = build_matrix(pairs, three_ccy_snapshot, [1.0])
        assert corr.statuses[0].min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        config = SimulationConfig(50_000, 19, (1.0,))
        vols = {p: flat_vol(0.2) for p in pairs}
        y = simulate_increments(pairs, vols, corr, config)
        residual = y[:, 0, 0] - y[:, 0, 1] - y[:, 0, 2]
        assert residual.var() <= 1e-24

    def test_grid_must_cover_vol_breakpoints(self):
        vol = PiecewiseConstant((0.0, 0.7, 2.0), (0.1, 0.2))
        config = SimulationConfig(100, 3, (1.0, 2.0))
        with pytest.raises(ValidationError, match="0.7"):
            simulate_increments([EURUSD], {EURUSD: vol}, None, config)

    def test_identical_seed_identical_paths(self):
        config = SimulationConfig(5000, 23, (0.5, 1.0))
        vols = {EURUSD: flat_vol(0.2)}
        a = simulate_increments([EURUSD], vols, None, config)
        b = simulate_increments([EURUSD], vols, None, config)
        assert np.array_equal(a, b)

    def test_indefinite_matrix_rejected(self):
        bad = manual_corr(
            ["EUR/JPY", "EUR/USD", "JPY/USD"],
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]],
        )
        assert bad.statuses[0].status == "indefinite"
        config = SimulationConfig(100, 3, (1.0,))
        vols = {p: flat_vol(0.2) for p in [EURUSD, EURJPY, JPYUSD]}
        with pytest.raises(FactorizationError, match="bucket 0"):
            simulate_increments([EURUSD, EURJPY, JPYUSD], vols, bad, config)


class TestPriceVanilla:
    def test_matches_analytic_within_4_se(self, three_ccy_snapshot):
        payoff = VanillaPayoff(EURUSD, 1.25, "call")
        config = SimulationConfig(400_000, 29, (1.0,))
        result = price(payoff, three_ccy_snapshot, config)
        spec = VanillaSpec(EURUSD, 1.25, 1.0, "call")
        analytic = gk_price(spec, PricingInputs(1.25, 0.02, 0.03, 0.2))
        assert result.standard_error > 0
        assert abs(result.price - analytic) <= 4 * result.standard_error
        assert result.discount_currency == "EUR"
        assert result.discount_rate == pytest.approx(0.02)

    def test_deterministic_across_worker_counts(self, three_ccy_snapshot):
        payoff = VanillaPayoff(EURUSD, 1.3, "put")
        config = SimulationConfig(60_000, 31, (0.5, 1.0))
        results = [
            price(payoff, three_ccy_snapshot, config, workers=w) for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_antithetic_agrees_with_plain_estimator(self, three_ccy_snapshot):
        payoff = VanillaPayoff(EURUSD, 1.25, "call")
        plain = price(payoff, three_ccy_snapshot, SimulationConfig(200_000, 37, (1.0,)))
        anti = price(
            payoff, three_ccy_snapshot, SimulationConfig(200_000, 37, (1.0,), antithetic=True)
        )
        gap = abs(plain.price - anti.price)
        assert gap <= 4 * math.hypot(plain.standard_error, anti.standard_error)
        assert anti.standard_error < plain.standard_error  # ATM payoff: antithetics help

    def test_orientation_flip_prices_the_reciprocal_rate(self, three_ccy_snapshot):
        # pricing a USD/EUR call exercises the sign-flip path for vols/corr
        payoff = VanillaPayoff(FxPair.parse("USD/EUR"), 0.8, "call")
        config = SimulationConfig(200_000, 41, (1.0,))
        result = price(payoff, three_ccy_snapshot, config)
        spec = VanillaSpec(FxPair.parse("USD/EUR"), 0.8, 1.0, "call")
        analytic = gk_price(spec, PricingInputs(0.8, 0.03, 0.02, 0.2))
        assert abs(result.price - analytic) <= 4 * result.standard_error


class TestPriceBasket:
    def test_weight_one_basket_equals_vanilla(self, three_ccy_snapshot):
        config = SimulationConfig(50_000, 43, (1.0,))
        vanilla = price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, config)
        basket = price(
            BasketPayoff({EURUSD: 1.0}, 1.25, "call"), three_ccy_snapshot, config
        )
        assert basket.price == pytest.approx(vanilla.price, rel=1e-15)

    def test_tiny_strike_basket_prices_the_forward_sum(self, three_ccy_snapshot):
        # strike ~ 0 makes the call payoff linear, with a known expectation
        weights = {EURUSD: 2.0, EURJPY: 0.01}
        config = SimulationConfig(400_000, 47, (1.0,))
        result = price(BasketPayoff(weights, 1e-8, "call"), three_ccy_snapshot, config)
        df = math.exp(-0.02)
        fwd_usd = 1.25 * math.exp((0.02 - 0.03) * 1.0)
        fwd_jpy = 125.0 * math.exp((0.02 - 0.0) * 1.0)
        expected = df * (2.0 * fwd_usd + 0.01 * fwd_jpy - 1e-8)
        assert abs(result.price - expected) <= 4 * result.standard_error

    def test_mixed_denomination_rejected(self):
        with pytest.raises(ValidationError, match="denominating"):
            BasketPayoff({EURUSD: 1.0, USDJPY: 1.0}, 1.0, "call")


class TestPriceBarrier:
    def payoff(self, style, level, monitoring=None):
        return BarrierPayoff(
            payoff_pair=EURUSD,
            strike=1.25,
            kind="call",
            barrier_pair=JPYUSD,
            barrier_level=level,
            direction="up",
            style=style,
            monitoring=monitoring,
        )

    def test_unreachable_barrier_equals_vanilla(self, three_ccy_snapshot):
        config = SimulationConfig(50_000, 53, (0.25, 0.5, 0.75, 1.0))
        knock_out = price(self.payoff("knock-out", 1e4), three_ccy_snapshot, config)
        vanilla = price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, config)
        assert knock_out.price == vanilla.price

    def test_in_out_parity(self, three_ccy_snapshot):
        level = 0.0115  # JPY/USD spot is 0.01; reachable up-barrier
        config = SimulationConfig(50_000, 59, (0.25, 0.5, 0.75, 1.0))
        k_in = price(self.payoff("knock-in", level), three_ccy_snapshot, config)
        k_out = price(self.payoff("knock-out", level), three_ccy_snapshot, config)
        vanilla = price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, config)
        assert k_in.price > 0 and k_out.price > 0
        assert k_in.price + k_out.price == pytest.approx(vanilla.price, rel=1e-12)

    def test_monitoring_must_lie_on_grid(self, three_ccy_snapshot):
        config = SimulationConfig(1000, 61, (0.5, 1.0))
        with pytest.raises(ValidationError, match="monitoring"):
            price(self.payoff("knock-out", 0.011, monitoring=(0.3,)),
                  three_ccy_snapshot, config)

    def test_monitoring_subset_loosens_the_barrier(self, three_ccy_snapshot):
        config = SimulationConfig(50_000, 67, (0.25, 0.5, 0.75, 1.0))
        full = price(self.payoff("knock-out", 0.0115), three_ccy_snapshot, config)
        sparse = price(
            self.payoff("knock-out", 0.0115, monitoring=(1.0,)), three_ccy_snapshot, config
        )
        assert sparse.price >= full.price

    def test_price_decreases_in_barrier_correlation(self, three_ccy_snapshot):
        # up-and-out call with a positively related barrier: higher rho kills
        # more of the big payoffs; checked under common random numbers
        prices = []
        for rho in (-0.5, 0.0, 0.5):
            corr = manual_corr(["EUR/USD", "JPY/USD"], [[1.0, rho], [rho, 1.0]])
            config = SimulationConfig(100_000, 71, (0.25, 0.5, 0.75, 1.0))
            result = price(
                self.payoff("knock-out", 0.0115), three_ccy_snapshot, config, corr=corr
            )
            prices.append(result.price)
        assert prices[0] > prices[1] > prices[2]

    def test_missing_correlation_entry(self, three_ccy_snapshot):
        corr = manual_corr(["EUR/USD", "EUR/JPY"], [[1.0, 0.5], [0.5, 1.0]])
        config = SimulationConfig(1000, 73, (1.0,))
        with pytest.raises(MissingDataError, match="correlation"):
            price(self.payoff("knock-out", 0.0115), three_ccy_snapshot, config, corr=corr)

    def test_per_path_in_out_parity_is_exact(self, three_ccy_snapshot):
        # evaluate the three payoffs on the same simulated paths
        pairs = (EURUSD, JPYUSD)
        corr = build_matrix(pairs, three_ccy_snapshot, [1.0])
        config = SimulationConfig(20_000, 79, (0.5, 1.0))
        vols = {p: flat_vol(0.2) for p in pairs}
        y = simulate_increments(pairs, vols, corr, config, rates=three_ccy_snapshot.rates)
        terminal = 1.25 * np.exp(y[:, :, 0].sum(axis=1))
        vanilla = np.maximum(terminal - 1.25, 0.0)
        barrier_path = 0.01 * np.exp(np.cumsum(y[:, :, 1], axis=1))
        breached = (barrier_path >= 0.0115).any(axis=1)
        k_in = vanilla * breached
        k_out = vanilla * ~breached
        assert np.array_equal(k_in + k_out, vanilla)


class TestPayoffDocuments:
    def test_vanilla_round_trip(self):
        payoff = VanillaPayoff(EURUSD, 1.25, "call")
        assert payoff_from_dict(payoff_to_dict(payoff)) == payoff

    def test_barrier_round_trip(self):
        payoff = BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.011, "down", "knock-in", (0.5, 1.0))
        assert payoff_from_dict(payoff_to_dict(payoff)) == payoff

    def test_basket_round_trip(self):
        payoff = BasketPayoff({EURUSD: 0.5, EURJPY: 0.004}, 1.0, "call")
        again = payoff_from_dict(payoff_to_dict(payoff))
        assert again.weights == payoff.weights
        assert (again.strike, again.kind) == (payoff.strike, payoff.kind)

    def test_unknown_type_rejected(self):
        from fxcorr import SchemaError

        with pytest.raises(SchemaError, match="unknown payoff type"):
            payoff_from_dict({"type": "asian"})

    def test_unknown_key_rejected(self):
        from fxcorr import SchemaError

        doc = payoff_to_dict(VanillaPayoff(EURUSD, 1.25, "call"))
        doc["barrier"] = 1.0
        with pytest.raises(SchemaError, match="unknown key"):
            payoff_from_dict(doc)


class TestPayoffNumbers:
    BARRIER = {
        "type": "barrier", "payoff_pair": "EUR/USD", "strike": 1.25, "kind": "call",
        "barrier_pair": "JPY/USD", "barrier_level": 0.0115, "direction": "up",
        "style": "knock-out",
    }

    @pytest.mark.parametrize("key", ["strike", "barrier_level"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, key, bad):
        with pytest.raises(SchemaError, match=f"field: {key}"):
            payoff_from_dict({**self.BARRIER, key: bad})

    def test_non_finite_weight_names_its_entry(self):
        doc = {"type": "basket", "strike": 1.0, "kind": "call", "weights": [
            {"pair": "EUR/USD", "weight": 1.0}, {"pair": "EUR/JPY", "weight": math.inf}]}
        with pytest.raises(SchemaError, match=r"weights\[1\]\.weight"):
            payoff_from_dict(doc)

    @pytest.mark.parametrize("bad", ["soon", True, None, math.nan, [0.5]])
    def test_monitoring_entries_must_be_numbers(self, bad):
        with pytest.raises(SchemaError, match=r"monitoring\[1\]"):
            payoff_from_dict({**self.BARRIER, "monitoring": [0.5, bad]})

    def test_integer_monitoring_time_accepted(self):
        payoff = payoff_from_dict({**self.BARRIER, "monitoring": [0.5, 1]})
        assert payoff.monitoring == (0.5, 1.0)
