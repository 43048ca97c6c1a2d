import collections
import hashlib
import itertools
import json
import math
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fxcorr import (
    BarrierPayoff,
    BasketPayoff,
    BucketedCorrelationMatrix,
    BucketStatus,
    CorrelationClampWarning,
    CorrelationRangeError,
    Currency,
    ExtrapolationWarning,
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
    VolTermStructure,
    build_matrix,
    canonicalize,
    gk_price,
    load_snapshot,
    loads_snapshot,
    payoff_from_dict,
    payoff_to_dict,
    price,
    simulate_increments,
    total_variance,
)
from fxcorr import montecarlo
from fxcorr.montecarlo import (
    _GRID_TOL, BLOCK_PATHS, _block_steps, _bridge, _grid_index, _payoff_evaluator, _prepare_steps, _run_blocks,
    _streams, _terminal_steps,
)
from fxcorr.term_structure import _bucket_vols

from conftest import snapshot_doc

EURUSD = FxPair.parse("EUR/USD")
EURJPY = FxPair.parse("EUR/JPY")
USDJPY = FxPair.parse("USD/JPY")
JPYUSD = FxPair.parse("JPY/USD")
USDEUR = FxPair.parse("USD/EUR")


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

    @pytest.mark.parametrize("grid", [(0.5, math.nan), (math.nan, 1.0), (0.5, math.inf), (math.inf,)])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="grid must be finite"):
            SimulationConfig(10, 1, grid)

    @pytest.mark.parametrize("n_paths", [0, -5, 100.5, 2.0, True, "100", None])
    def test_path_count_must_be_a_positive_integer(self, n_paths):
        with pytest.raises(ValidationError, match="n_paths must be an integer >= 1"):
            SimulationConfig(n_paths, 1, (1.0,))

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130, 1.0, "7", None, True])
    def test_seed_outside_the_philox_key_range_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer in"):
            SimulationConfig(10, seed, (1.0,))

    def test_largest_seed_prices(self):
        config = SimulationConfig(10, 2**128 - 1, (1.0,))
        assert config.seed == 2**128 - 1

    def test_horizon_is_last_grid_time(self):
        assert SimulationConfig(10, 1, (0.5, 1.0)).horizon == 1.0

    @pytest.mark.parametrize("antithetic", ["no", "", 1, 0, None, np.True_])
    @pytest.mark.parametrize("n_paths", [3, 4])
    def test_antithetic_must_be_a_bool(self, n_paths, antithetic):
        with pytest.raises(ValidationError, match="antithetic must be a bool"):
            SimulationConfig(n_paths, 1, (1.0,), antithetic)

    @pytest.mark.parametrize("grid", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "array"])
    def test_grid_is_stored_as_a_tuple(self, grid):
        assert SimulationConfig(10, 1, grid).grid == (0.5, 1.0)

    @pytest.mark.parametrize("grid", [[0.25, 0.5, 1.0], np.array([0.25, 0.5, 1.0])], ids=["list", "array"])
    @pytest.mark.parametrize("payoff", [
        VanillaPayoff(EURUSD, 1.25, "call"),
        BarrierPayoff(EURUSD, 1.25, "call", JPYUSD, 0.0115, "up", "knock-out"),
    ], ids=["vanilla", "barrier"])
    def test_any_grid_sequence_prices_as_the_tuple(self, three_ccy_snapshot, payoff, grid):
        expected = price(payoff, three_ccy_snapshot, SimulationConfig(1000, 3, (0.25, 0.5, 1.0)))
        assert price(payoff, three_ccy_snapshot, SimulationConfig(1000, 3, grid)) == expected


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

    def test_psd_block_of_an_indefinite_matrix_simulates(self):
        # Only the block of the simulated pairs is factorized, so a pair set
        # whose block is PSD simulates even when the whole matrix is not.
        labels = ["EUR/JPY", "EUR/USD", "JPY/USD"]
        full = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        bad = manual_corr(labels, full)
        assert bad.statuses[0].status == "indefinite"
        block = manual_corr(labels[:2], [row[:2] for row in full[:2]])
        config = SimulationConfig(100, 3, (0.5, 1.0))
        vols = {p: flat_vol(0.2) for p in [EURUSD, EURJPY]}
        a = simulate_increments([EURUSD, EURJPY], vols, bad, config)
        b = simulate_increments([EURUSD, EURJPY], vols, block, config)
        assert a.tobytes() == b.tobytes()

    def test_indefinite_block_names_its_bucket(self):
        bad = manual_corr(
            ["EUR/JPY", "EUR/USD", "JPY/USD"],
            [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]],
        )
        config = SimulationConfig(100, 3, (1.0,))
        vols = {p: flat_vol(0.2) for p in [EURUSD, EURJPY, JPYUSD]}
        with pytest.raises(FactorizationError, match=r"for bucket 0 is indefinite .*repair it before simulating"):
            simulate_increments([EURUSD, EURJPY, JPYUSD], vols, bad, config)

    def test_nan_correlation_breakpoint_rejected(self):
        # rejected where the matrix is built, before any simulation reads it
        with pytest.raises(ValidationError, match="breakpoints must be finite"):
            BucketedCorrelationMatrix(
                ("EUR/USD",), (0.0, math.nan, 1.0), (np.eye(1), np.eye(1)),
                (BucketStatus("psd", 1.0), BucketStatus("psd", 1.0)),
            )

    def test_no_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least one pair"):
            simulate_increments([], {}, None, SimulationConfig(100, 3, (1.0,)))

    def test_repeated_pair_rejected(self):
        vols = {EURUSD: flat_vol(0.2)}
        with pytest.raises(ValidationError, match="pairs must be distinct"):
            simulate_increments([EURUSD, EURUSD], vols, None, SimulationConfig(100, 3, (1.0,)))

    def test_pair_without_vols_rejected(self):
        vols = {EURUSD: flat_vol(0.2)}
        with pytest.raises(MissingDataError, match="no vol structure supplied for pair EUR/JPY"):
            simulate_increments([EURUSD, EURJPY], vols, None, SimulationConfig(100, 3, (1.0,)))

    def test_missing_rate_curve_names_the_currency(self, three_ccy_snapshot):
        rates = {c: curve for c, curve in three_ccy_snapshot.rates.items() if c.code != "USD"}
        config = SimulationConfig(100, 3, (1.0,))
        with pytest.raises(MissingDataError, match="no rate curve for currency USD"):
            simulate_increments([EURUSD], {EURUSD: flat_vol(0.2)}, None, config, rates=rates)


def measured_increments(pairs, vols, corr, config, rates=None, measure=None):
    """The engine's stepped increments under ``measure``'s measure, shaped
    (n_paths, n_steps, n_pairs) as ``simulate_increments`` returns them."""
    steps = _prepare_steps(pairs, vols, corr, config, rates, measure)
    out = np.empty((config.n_paths, len(config.grid), len(pairs)))

    def store(block, size):
        by_half = out[block * BLOCK_PATHS:][:size].reshape(2 if config.antithetic else 1, -1, *out.shape[1:])
        for m, begin, end, _, y in _block_steps(steps, config, block, size):
            by_half[:, begin:end, m] = y.T.reshape(len(by_half), end - begin, -1)

    _run_blocks(config, store)
    return out


class TestPricingMeasure:
    """With ``measure=d`` every pair is simulated under d's measure: a pair
    X_{a/b} with a != d gains the quanto drift (s_ab^2 + s_ad^2 - s_bd^2) dt / 2."""

    def simulate(self, snapshot, pairs, config, measure):
        corr = build_matrix(pairs, snapshot, config.grid)
        vols = {p: flat_vol(0.2) for p in (EURJPY, EURUSD, USDJPY)}  # the snapshot's vols
        return measured_increments(pairs, vols, corr, config, snapshot.rates, measure)

    def test_without_a_measure_is_simulate_increments(self, three_ccy_snapshot):
        pairs = [EURUSD, USDJPY]
        config = SimulationConfig(20_000, 101, MONTHLY)
        vols = {p: flat_vol(0.2) for p in pairs}
        corr = build_matrix(pairs, three_ccy_snapshot, config.grid)
        ours = measured_increments(pairs, vols, corr, config, three_ccy_snapshot.rates)
        assert ours.tobytes() == simulate_increments(pairs, vols, corr, config, three_ccy_snapshot.rates).tobytes()

    def test_product_is_a_martingale(self, three_ccy_snapshot):
        # E^EUR[X_EUR/USD(T) X_USD/JPY(T)] = F_EUR/JPY(T), the product being EUR/JPY
        n = 400_000
        config = SimulationConfig(n, 107, (0.5, 1.0))
        y = self.simulate(three_ccy_snapshot, [EURUSD, USDJPY], config, Currency("EUR"))
        product = 1.25 * 100.0 * np.exp(y.sum(axis=(1, 2)))
        se = product.std(ddof=1) / math.sqrt(n)
        assert abs(product.mean() - 125.0 * math.exp(0.02)) <= 4 * se

    @pytest.mark.parametrize("measure", ["EUR", "USD", "JPY"])
    def test_triangle_closes_path_by_path(self, three_ccy_snapshot, measure):
        # ln X_EUR/JPY = ln X_EUR/USD + ln X_USD/JPY at every step of every path
        pairs = [EURJPY, EURUSD, USDJPY]
        config = SimulationConfig(20_000, 109, MONTHLY)
        y = self.simulate(three_ccy_snapshot, pairs, config, Currency(measure))
        residual = np.cumsum(y[:, :, 0] - y[:, :, 1] - y[:, :, 2], axis=1)
        assert np.abs(residual).max() <= 1e-12

    def test_missing_link_vol_names_the_pair(self):
        config = SimulationConfig(100, 3, (1.0,))
        with pytest.raises(MissingDataError, match="no vol structure supplied for pair USD/EUR"):
            measured_increments([USDJPY], {USDJPY: flat_vol(0.2)}, None, config, measure=Currency("EUR"))

    def test_link_vol_is_read_in_either_orientation(self):
        config = SimulationConfig(100, 3, (1.0,))
        eur = Currency("EUR")
        vols = {USDJPY: flat_vol(0.2), EURJPY: flat_vol(0.1)}
        a = measured_increments([USDJPY], {**vols, EURUSD: flat_vol(0.3)}, None, config, measure=eur)
        b = measured_increments([USDJPY], {**vols, USDEUR: flat_vol(0.3)}, None, config, measure=eur)
        assert a.tobytes() == b.tobytes()
        # (0.2^2 + 0.3^2 - 0.1^2) / 2 more drift than under USD's own measure
        own = measured_increments([USDJPY], vols, None, config)
        np.testing.assert_allclose(a - own, 0.06, rtol=1e-12)

    @pytest.mark.parametrize("vol, accepted", [(0.0, False), (0.05, False), (0.1, True), (0.5, True), (0.55, False)])
    def test_link_vols_must_admit_a_correlation(self, vol, accepted):
        # USD/EUR 0.3 and JPY/EUR 0.2 leave |s_ab^2 + s_ad^2 - s_bd^2| <= 2 s_ab s_ad
        # for USD/JPY vols s_ab in [0.1, 0.5] only, correlation 1 at both ends
        config = SimulationConfig(100, 3, (0.5, 1.0))
        vols = {USDJPY: PiecewiseConstant((0.0, 0.5, 1.0), (0.2, vol)), EURJPY: flat_vol(0.2),
                USDEUR: flat_vol(0.3)}
        if accepted:
            measured_increments([USDJPY], vols, None, config, measure=Currency("EUR"))
        else:
            with pytest.raises(CorrelationRangeError, match=r"USD/JPY, USD/EUR and JPY/EUR on grid step \(0.5, 1.0\]"):
                measured_increments([USDJPY], vols, None, config, measure=Currency("EUR"))

    def test_price_rejects_a_zero_vol_barrier_pair_override(self, three_ccy_snapshot):
        # a zero-vol USD/JPY needs equal USD/EUR and JPY/EUR vols: here 0.2 and 0.3
        payoff = PINNED_PAYOFFS["down-in-cross"]
        config = SimulationConfig(1000, 113, (0.5, 1.0))
        vols = {EURUSD: flat_vol(0.2), USDJPY: flat_vol(0.0), EURJPY: flat_vol(0.3)}
        price(payoff, three_ccy_snapshot, config, vols={**vols, EURJPY: flat_vol(0.2)})
        with pytest.raises(CorrelationRangeError, match="USD/JPY, USD/EUR and JPY/EUR"):
            price(payoff, three_ccy_snapshot, config, vols=vols)

    def test_price_reads_link_vols_from_the_snapshot_under_an_override(self, three_ccy_snapshot):
        payoff = PINNED_PAYOFFS["down-in-cross"]
        config = SimulationConfig(20_000, 113, (0.5, 1.0))
        pairs = (EURUSD, USDJPY)
        derived = {p: _bucket_vols(three_ccy_snapshot.vol_structure(p), config.grid) for p in pairs}
        bucket = {p: PiecewiseConstant((0.0, *config.grid), vols) for p, vols in derived.items()}
        assert price(payoff, three_ccy_snapshot, config, vols=bucket) == price(payoff, three_ccy_snapshot, config)
        link = {**bucket, USDEUR: flat_vol(0.4)}  # a link, overriding the snapshot
        assert price(payoff, three_ccy_snapshot, config, vols=link) != price(payoff, three_ccy_snapshot, config)

    def test_price_derives_each_currency_pairs_vols_once(self, three_ccy_snapshot, monkeypatch):
        # USD/EUR paid, JPY/EUR barrier: the link EUR/USD is the paying pair inverted,
        # so USD/EUR, JPY/EUR and JPY/USD are derived and EUR/USD is not; the
        # matrix, over the same three currency pairs, derives none of them again
        payoff = BarrierPayoff(USDEUR, 0.8, "call", FxPair.parse("JPY/EUR"), 0.01, "up", "knock-out")
        config = SimulationConfig(1000, 113, (0.5, 1.0))
        expected = price(payoff, three_ccy_snapshot, config)
        derived, reads = [], []
        monkeypatch.setattr(montecarlo, "_bucket_vols",
                            lambda ts, times: derived.append(ts.pair) or _bucket_vols(ts, times))
        read = VolTermStructure._total_variance
        monkeypatch.setattr(VolTermStructure, "_total_variance", lambda ts, t: reads.append((ts, t)) or read(ts, t))
        assert price(payoff, three_ccy_snapshot, config) == expected
        assert len(derived) == 3
        assert len(reads) == len(set(reads)) == 3 * len(config.grid)  # each (structure, time) once

    def test_a_vols_override_does_not_reach_the_matrix(self, three_ccy_snapshot):
        # the matrix is the snapshot's, whatever vols the engine is given
        pairs = (USDEUR, FxPair.parse("JPY/EUR"))
        payoff = BarrierPayoff(pairs[0], 0.8, "call", pairs[1], 0.01, "up", "knock-out")
        config = SimulationConfig(20_000, 113, (0.5, 1.0))
        override = dict(zip(pairs, (flat_vol(0.25), flat_vol(0.2))))
        corr = build_matrix(pairs, three_ccy_snapshot, config.grid)
        assert (price(payoff, three_ccy_snapshot, config, vols=override)
                == price(payoff, three_ccy_snapshot, config, vols=override, corr=corr))


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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, three_ccy_snapshot, workers):
        config = SimulationConfig(100, 31, (1.0,))
        with pytest.raises(ValidationError, match="workers"):
            price(VanillaPayoff(EURUSD, 1.3, "put"), three_ccy_snapshot, config, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, True, math.inf, math.nan, "2", np.int64(2)],
                             ids=["1.5", "2.0", "True", "inf", "nan", "str", "int64"])
    def test_workers_must_be_an_integer(self, three_ccy_snapshot, workers):
        config = SimulationConfig(100, 31, (1.0,))
        with pytest.raises(ValidationError, match="workers must be an integer >= 1"):
            price(VanillaPayoff(EURUSD, 1.3, "put"), three_ccy_snapshot, config, workers=workers)

    @pytest.mark.parametrize("n_paths, antithetic", [(1, False), (2, True)])
    def test_one_effective_path_has_zero_standard_error(self, three_ccy_snapshot, n_paths, antithetic):
        config = SimulationConfig(n_paths, 31, (1.0,), antithetic)
        result = price(VanillaPayoff(EURUSD, 1.0, "call"), three_ccy_snapshot, config)
        assert result.price > 0.0 and result.standard_error == 0.0

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_one_leg_basket_is_the_vanilla_bit_for_bit(self, three_ccy_snapshot, kind, antithetic, workers):
        # one payoff formula: a vanilla pays sum_p w_p X_p(T) on one leg of weight 1
        config = SimulationConfig(2 * BLOCK_PATHS + 100, 43, MONTHLY, antithetic)
        vanilla = price(VanillaPayoff(EURUSD, 1.25, kind), three_ccy_snapshot, config, workers=workers)
        basket = price(BasketPayoff({EURUSD: 1.0}, 1.25, kind), three_ccy_snapshot, config, workers=workers)
        assert basket == vanilla

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


# 12 monthly steps with breakpoints inside the grid: vols at 0.25 and 0.5,
# correlation at 0.5, with a sign change between the two buckets
MONTHLY = tuple(k / 12 for k in range(1, 13))
PIECEWISE_VOLS = {
    EURJPY: PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.12, 0.18, 0.25)),
    EURUSD: PiecewiseConstant((0.0, 0.5, 1.0), (0.3, 0.1)),
    USDJPY: PiecewiseConstant((0.0, 0.25, 1.0), (0.15, 0.22)),
}
TWO_BUCKET_CORR = BucketedCorrelationMatrix(
    ("EUR/JPY", "EUR/USD", "JPY/USD"),
    (0.0, 0.5, 1.0),
    (np.array([[1.0, 0.6, 0.3], [0.6, 1.0, -0.2], [0.3, -0.2, 1.0]]),
     np.array([[1.0, -0.4, 0.5], [-0.4, 1.0, 0.1], [0.5, 0.1, 1.0]])),
    (BucketStatus("psd", 0.2), BucketStatus("psd", 0.2)),
)


class TestTerminalStep:
    """A basket reads only X(T), so ``price`` draws it in one step with the
    grid's summed drift and covariance."""

    def test_covariance_is_the_integrated_covariance(self, three_ccy_snapshot):
        pairs = (EURJPY, EURUSD, USDJPY)
        config = SimulationConfig(10, 1, MONTHLY)
        steps = _prepare_steps(pairs, PIECEWISE_VOLS, TWO_BUCKET_CORR, config, three_ccy_snapshot.rates)
        one = _terminal_steps(steps)
        scale, factor = one.scale[0, :, 0], one.factors[0]
        got = scale[:, None] * (factor @ factor.T) * scale[None, :]
        signs = np.array([-1.0 if canonicalize(p)[1] else 1.0 for p in pairs])
        expected = np.zeros((3, 3))
        for left, right in zip((0.0,) + MONTHLY, MONTHLY):
            mid = 0.5 * (left + right)
            d = np.array([PIECEWISE_VOLS[p].value_at(mid) for p in pairs]) * math.sqrt(right - left)
            c = TWO_BUCKET_CORR.matrices[TWO_BUCKET_CORR.bucket_index(mid)] * np.outer(signs, signs)
            expected += d[:, None] * c * d[None, :]
        assert signs[2] == -1.0  # USD/JPY is held as JPY/USD
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
        assert one.drift.shape == (1, 3, 1)
        np.testing.assert_allclose(one.drift[0, :, 0], steps.drift.sum(axis=0)[:, 0], rtol=1e-14)

    def test_one_step_grid_is_kept(self, three_ccy_snapshot):
        config = SimulationConfig(10, 1, (1.0,))
        vols = {p: flat_vol(0.2) for p in (EURJPY, EURUSD)}
        corr = manual_corr(["EUR/JPY", "EUR/USD"], [[1.0, 0.5], [0.5, 1.0]])
        steps = _prepare_steps((EURJPY, EURUSD), vols, corr, config, None)
        assert _terminal_steps(steps) is steps

    def test_agrees_with_summed_increments(self, three_ccy_snapshot):
        pairs = (EURJPY, EURUSD)  # the basket's slot order
        weights, strike = (0.01, 1.0), 2.5
        payoff = BasketPayoff(dict(zip(pairs, weights)), strike, "call")
        result = price(payoff, three_ccy_snapshot, SimulationConfig(200_000, 83, MONTHLY),
                       vols=PIECEWISE_VOLS, corr=TWO_BUCKET_CORR)
        y = simulate_increments(pairs, PIECEWISE_VOLS, TWO_BUCKET_CORR,
                                SimulationConfig(100_000, 89, MONTHLY), rates=three_ccy_snapshot.rates)
        terminal = np.array([125.0, 1.25]) * np.exp(y.sum(axis=1))
        values = np.maximum(terminal @ np.array(weights) - strike, 0.0)
        df = math.exp(-0.02)
        stepwise, stepwise_se = df * values.mean(), df * values.std(ddof=1) / math.sqrt(values.size)
        assert result.standard_error > 0 and stepwise_se > 0
        assert abs(result.price - stepwise) <= 4 * math.hypot(result.standard_error, stepwise_se)

    def test_tiny_strike_prices_the_forward_sum_on_a_piecewise_grid(self, three_ccy_snapshot):
        weights = {EURUSD: 2.0, EURJPY: 0.01}
        config = SimulationConfig(400_000, 97, MONTHLY)
        result = price(BasketPayoff(weights, 1e-8, "call"), three_ccy_snapshot, config,
                       vols=PIECEWISE_VOLS, corr=TWO_BUCKET_CORR)
        fwd_usd = 1.25 * math.exp(0.02 - 0.03)
        fwd_jpy = 125.0 * math.exp(0.02 - 0.0)
        expected = math.exp(-0.02) * (2.0 * fwd_usd + 0.01 * fwd_jpy - 1e-8)
        assert abs(result.price - expected) <= 4 * result.standard_error

    def test_zero_vol_leg(self, three_ccy_snapshot):
        # a zero-vol EUR/JPY ends at its forward, so the basket call is a
        # EUR/USD call with the strike lowered by 0.01 EUR/JPY forwards
        vols = {**PIECEWISE_VOLS, EURJPY: PiecewiseConstant((0.0, 1.0), (0.0,))}
        config = SimulationConfig(200_000, 101, MONTHLY)
        steps = _terminal_steps(
            _prepare_steps((EURJPY, EURUSD), vols, TWO_BUCKET_CORR, config, three_ccy_snapshot.rates)
        )
        assert np.isfinite(steps.factors[0]).all() and steps.scale[0, 0, 0] == 0.0
        payoff = BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call")
        result = price(payoff, three_ccy_snapshot, config, vols=vols, corr=TWO_BUCKET_CORR)
        strike = 2.5 - 0.01 * 125.0 * math.exp(0.02)
        sigma = math.sqrt(total_variance(vols[EURUSD], 1.0))
        analytic = gk_price(VanillaSpec(EURUSD, strike, 1.0, "call"), PricingInputs(1.25, 0.02, 0.03, sigma))
        assert result.standard_error > 0
        assert abs(result.price - analytic) <= 4 * result.standard_error


class TestVolOverrides:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.2])
    @pytest.mark.parametrize("name", ["vanilla", "basket"])
    def test_non_finite_or_negative_vol_rejected(self, three_ccy_snapshot, name, bad):
        payoff = PINNED_PAYOFFS[name]
        vols = {**PIECEWISE_VOLS, EURUSD: PiecewiseConstant((0.0, 0.5, 1.0), (0.2, bad))}
        config = SimulationConfig(1000, 1, MONTHLY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"vol of EUR/USD on bucket 1 \(0\.5, 1\.0\]"):
                price(payoff, three_ccy_snapshot, config, vols=vols, corr=TWO_BUCKET_CORR)

    def test_zero_vol_prices_the_discounted_intrinsic(self, three_ccy_snapshot):
        vols = {EURUSD: PiecewiseConstant((0.0, 1.0), (0.0,))}
        result = price(VanillaPayoff(EURUSD, 1.2, "call"), three_ccy_snapshot,
                       SimulationConfig(1000, 1, (0.5, 1.0)), vols=vols)
        expected = math.exp(-0.02) * (1.25 * math.exp(0.02 - 0.03) - 1.2)
        assert result.price == pytest.approx(expected, rel=1e-14)
        assert result.standard_error < 1e-12


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

    def test_checks_its_grid_once(self, three_ccy_snapshot, breakpoint_checks):
        # the vols of EUR/USD, JPY/USD and the JPY/EUR link and the matrix share one checked grid
        price(self.payoff("knock-out", 0.0115), three_ccy_snapshot, SimulationConfig(1000, 71, (0.25, 0.5, 1.0)))
        assert breakpoint_checks == ["bucket boundaries"]

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

    @pytest.mark.parametrize("direction, level, flipped", [("up", 1.3, "down"), ("down", 1.2, "up")])
    @pytest.mark.parametrize("style", ["knock-in", "knock-out"])
    def test_barrier_on_the_inverse_pair(self, three_ccy_snapshot, style, direction, level, flipped):
        # EUR/USD is 1/(USD/EUR): EUR/USD >= 1.3 is USD/EUR <= 1/1.3
        config = SimulationConfig(20_000, 83, (0.25, 0.5, 0.75, 1.0))
        payoff = BarrierPayoff(USDEUR, 0.8, "call", EURUSD, level, direction, style)
        restated = BarrierPayoff(USDEUR, 0.8, "call", USDEUR, 1.0 / level, flipped, style)
        result = price(payoff, three_ccy_snapshot, config)
        assert result == price(restated, three_ccy_snapshot, config)
        assert result.price > 0

    def test_per_path_in_out_parity_is_exact(self, three_ccy_snapshot):
        # the three payoffs evaluated on the paths ``price`` draws for a cross
        # and for an own-pair barrier
        config = SimulationConfig(20_000, 79, (0.25, 0.5, 0.75, 1.0))
        vols = {p: flat_vol(0.2) for p in (EURUSD, JPYUSD, EURJPY)}
        spots = {p: three_ccy_snapshot.spot(p) for p in vols}

        def values(payoff, pairs, bridged=True):
            corr = build_matrix(pairs, three_ccy_snapshot, [1.0]) if len(pairs) > 1 else None
            steps = _terminal_steps(_prepare_steps(pairs, vols, corr, config, three_ccy_snapshot.rates,
                                                   EURUSD.denominating), bridged)
            evaluate = _payoff_evaluator(payoff, pairs, np.array([spots[p] for p in pairs]), steps, config)
            return np.concatenate(_run_blocks(config, evaluate))

        vanilla = VanillaPayoff(EURUSD, 1.25, "call")
        alone = values(vanilla, (EURUSD,), bridged=False)  # the vanilla's own draw
        for pairs, level in [((EURUSD, JPYUSD), 0.0115), ((EURUSD,), 1.3)]:
            k_in, k_out = (values(replace(self.payoff(style, level), barrier_pair=pairs[-1]), pairs)
                           for style in ("knock-in", "knock-out"))
            assert (k_in > 0).any() and (k_out > 0).any()
            assert np.array_equal(k_in + k_out, values(vanilla, pairs))
            assert np.array_equal(values(vanilla, pairs), alone)  # the same paying leg, path by path

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("barrier", [JPYUSD, EURUSD], ids=["cross", "own-pair"])
    def test_unreachable_barrier_is_the_vanilla_bit_for_bit(self, three_ccy_snapshot, barrier, antithetic, workers):
        config = SimulationConfig(37_002, 131, PINNED_GRID, antithetic)
        payoff = BarrierPayoff(EURUSD, 1.25, "call", barrier, 1e4, "up", "knock-out")
        vanilla = price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, config)
        assert price(payoff, three_ccy_snapshot, config, workers=workers) == vanilla

    def test_smallest_level_is_compared_in_logs(self, three_ccy_snapshot):
        # 5e-324 / 125 underflows to 0, so the level is compared as ln(level) - ln(spot)
        config = SimulationConfig(1000, 139, (0.5, 1.0))
        payoff = BarrierPayoff(EURUSD, 1.25, "call", EURJPY, 5e-324, "down", "knock-out")
        vanilla = price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, config)
        assert price(payoff, three_ccy_snapshot, config) == vanilla

    @pytest.mark.parametrize("barrier, level", [(JPYUSD, 0.0104), (EURUSD, 1.3)], ids=["cross", "own-pair"])
    def test_agrees_with_stepped_increments(self, three_ccy_snapshot, barrier, level):
        # the bridged barrier pair against a stepped simulation of both pairs,
        # with piecewise vols and a correlation that changes sign; the JPY/EUR
        # link vol lies between |s_USD/EUR - s_USD/JPY| and their sum on every step
        vols = {**PIECEWISE_VOLS, EURJPY: PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.2, 0.18, 0.25))}
        payoff = BarrierPayoff(EURUSD, 1.25, "call", barrier, level, "up", "knock-out")
        result = price(payoff, three_ccy_snapshot, SimulationConfig(200_000, 137, MONTHLY),
                       vols=vols, corr=TWO_BUCKET_CORR)
        y = measured_increments((EURUSD, JPYUSD), vols, TWO_BUCKET_CORR,
                                SimulationConfig(200_000, 139, MONTHLY), three_ccy_snapshot.rates,
                                EURUSD.denominating)
        watched = y[:, :, 1 if barrier == JPYUSD else 0]
        knocked = (three_ccy_snapshot.spot(barrier) * np.exp(np.cumsum(watched, axis=1)) >= level).any(axis=1)
        values = np.maximum(1.25 * np.exp(y[:, :, 0].sum(axis=1)) - 1.25, 0.0) * ~knocked
        df = math.exp(-0.02)
        stepped, stepped_se = df * values.mean(), df * values.std(ddof=1) / math.sqrt(values.size)
        assert 0.2 < knocked.mean() < 0.8 and result.standard_error > 0
        assert abs(result.price - stepped) <= 4 * math.hypot(result.standard_error, stepped_se)


class TestBridge:
    """The barrier pair's steps given the paying pair's terminal normal use
    the closed-form Cholesky factor of I - q q^T."""

    @pytest.mark.parametrize("case", ["cross", "own-pair", "zero-correlation", "zero-vol"])
    def test_factor_is_the_conditional_covariance(self, case):
        rng = np.random.default_rng(17)
        s = rng.uniform(0.05, 0.4, 52) * np.sqrt(np.diff(np.sort(rng.uniform(0.0, 1.0, 53))))
        rho = rng.uniform(-0.95, 0.95, 52) if case == "cross" else np.full(52, float(case == "own-pair"))
        q, diagonal, weight = _bridge(rho, 0.0 * s if case == "zero-vol" else s)
        factor = np.diag(diagonal) + np.tril(-np.outer(q, weight), -1)
        np.testing.assert_allclose(factor @ factor.T, np.eye(52) - np.outer(q, q), rtol=0, atol=1e-15)
        if case == "own-pair":  # Z fixes the last step
            assert diagonal[-1] == 0.0
        if case.startswith("zero"):
            assert not q.any() and (factor == np.eye(52)).all()


@pytest.fixture
def normals_drawn(monkeypatch):
    """The normals the engine draws, counted by (block, pair slot) through a stand-in generator."""
    drawn = collections.Counter()
    real = np.random.Generator

    class Counting:
        def __init__(self, bit_generator):
            words = bit_generator.state["state"]["counter"]  # (block << 128) | (slot << 96), in 64-bit words
            self.key = int(words[2]), int(words[1]) >> 32
            self.rng = real(bit_generator)

        def standard_normal(self, out):
            drawn[self.key] += out.size
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(montecarlo.np.random, "Generator", Counting)
    return drawn


class TestBridgedPaths:
    """A barrier bridges its barrier pair only on the paths whose payoff is
    above 0 (an antithetic pair if either half is), up to its last
    monitoring time."""

    GRID = (0.25, 0.5, 0.75, 1.0)
    VOLS = {p: flat_vol(0.2) for p in (EURUSD, JPYUSD, EURJPY)}

    def block_values(self, snapshot, payoff, config, pairs=(EURUSD, JPYUSD)):
        """Each block's path values of ``payoff`` on the bridged steps of ``pairs`` (EUR/USD first), as
        ``price`` draws them; a vanilla reads the same terminal draws and bridges nothing."""
        corr = build_matrix(pairs, snapshot, [1.0]) if len(pairs) > 1 else None
        steps = _terminal_steps(_prepare_steps(pairs, self.VOLS, corr, config, snapshot.rates, EURUSD.denominating),
                                bridged=True)
        evaluate = _payoff_evaluator(payoff, pairs, np.array([snapshot.spot(p) for p in pairs]), steps, config)
        return _run_blocks(config, evaluate)

    # the own-pair barrier's bridge ends with t_M = 0: its last step would weight a normal by 0, and draws none
    @pytest.mark.parametrize("barrier, level, monitoring, n_bridged", [
        (JPYUSD, 0.0115, None, 4), (JPYUSD, 0.0115, (0.5,), 2), (EURUSD, 1.3, None, 3),
    ], ids=["every-step", "stops-early", "own-pair"])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_one_normal_per_paying_path_or_pair_and_step(self, three_ccy_snapshot, normals_drawn,
                                                         antithetic, barrier, level, monitoring, n_bridged):
        config = SimulationConfig(20_000, 149, self.GRID, antithetic)  # blocks of 16,384 and 3,616
        pairs = tuple(dict.fromkeys((EURUSD, barrier)))
        payoff = BarrierPayoff(EURUSD, 1.25, "call", barrier, level, "up", "knock-out", monitoring)
        vanilla = self.block_values(three_ccy_snapshot, VanillaPayoff(EURUSD, 1.25, "call"), config, pairs)
        assert not any(slot for _, slot in normals_drawn)  # a vanilla bridges nothing
        normals_drawn.clear()
        self.block_values(three_ccy_snapshot, payoff, config, pairs)
        for block, values in enumerate(vanilla):
            pays = values > 0.0
            if antithetic:
                pays = pays[:values.size // 2] | pays[values.size // 2:]
            assert 0 < pays.sum() < pays.size
            assert normals_drawn[block, 1] == pays.sum() * n_bridged
            assert normals_drawn[block, 0] == pays.size

    @pytest.mark.parametrize("kind, direction, level, antithetic", [
        ("put", "down", 0.0095, False), ("call", "up", 0.0115, True),
    ], ids=["put-down", "antithetic"])
    def test_per_path_in_out_parity(self, three_ccy_snapshot, kind, direction, level, antithetic):
        config = SimulationConfig(20_000, 151, self.GRID, antithetic)
        k_in, k_out = (np.concatenate(self.block_values(
            three_ccy_snapshot, BarrierPayoff(EURUSD, 1.25, kind, JPYUSD, level, direction, style), config))
            for style in ("knock-in", "knock-out"))
        vanilla = np.concatenate(self.block_values(three_ccy_snapshot, VanillaPayoff(EURUSD, 1.25, kind), config))
        assert (k_in > 0).any() and (k_out > 0).any()
        assert np.array_equal(k_in + k_out, vanilla)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("direction, level", [("up", 0.0105), ("down", 0.0095)])
    def test_each_path_weighs_its_bridge_and_the_mirrored_bridge(self, three_ccy_snapshot, direction, level,
                                                                 antithetic):
        # the bridge of ``_bridge``'s docstring run here on each block's slot-1 normals w, on -w, on eps w
        # (eps_m = 1 on even steps and -1 on odd ones) and on -eps w, from the paying paths' terminal normals
        # Z (-Z and -w on an antithetic block's second half): a knock-out path keeps its value times the
        # share of the four bridges that do not breach
        config = SimulationConfig(20_000, 163, self.GRID, antithetic)
        halves = 2 if antithetic else 1
        pairs = (EURUSD, JPYUSD)
        steps = _prepare_steps(pairs, self.VOLS, build_matrix(pairs, three_ccy_snapshot, [1.0]), config,
                               three_ccy_snapshot.rates, EURUSD.denominating)
        bridge = _terminal_steps(steps, bridged=True).bridge
        threshold = math.log(level) - math.log(three_ccy_snapshot.spot(JPYUSD))
        beyond = np.greater_equal if direction == "up" else np.less_equal
        payoff = BarrierPayoff(EURUSD, 1.25, "call", JPYUSD, level, direction, "knock-out")
        vanilla = self.block_values(three_ccy_snapshot, VanillaPayoff(EURUSD, 1.25, "call"), config)
        k_out = self.block_values(three_ccy_snapshot, payoff, config)
        eps = np.resize([1.0, -1.0], len(bridge))
        seen = set()
        for block, (values, out) in enumerate(zip(vanilla, k_out)):
            values, out = values.reshape(halves, -1), out.reshape(halves, -1)
            paths = np.flatnonzero((values > 0.0).any(axis=0))
            z = _streams(config, block, [0])[0].standard_normal(values.shape[1])[paths]
            z = np.stack([z, -z][:halves])
            hits = np.zeros(z.shape)
            for signs in (np.ones_like(eps), -np.ones_like(eps), eps, -eps):
                rng, = _streams(config, block, [1])
                rest, log_level, breached = z.copy(), np.zeros(z.shape), np.zeros(z.shape, dtype=bool)
                for sign, (q, diagonal, u, scale, drift) in zip(signs, bridge):
                    w = sign * rng.standard_normal(len(paths))
                    w = np.stack([w, -w][:halves])
                    log_level += scale * (q * rest + diagonal * w) + drift
                    rest -= u * w
                    breached |= beyond(log_level, threshold)
                hits += breached
            seen.update(np.unique(hits))
            assert np.array_equal(out[:, paths], values[:, paths] * ((4.0 - hits) / 4.0))
            assert np.array_equal(np.delete(out, paths, axis=1), np.delete(values, paths, axis=1))
        assert seen == {0.0, 1.0, 2.0, 3.0, 4.0}

    @pytest.mark.parametrize("style", ["knock-in", "knock-out"])
    def test_no_paying_path_draws_no_bridge(self, three_ccy_snapshot, normals_drawn, style):
        payoff = BarrierPayoff(EURUSD, 1e3, "call", JPYUSD, 0.0115, "up", style)
        result = price(payoff, three_ccy_snapshot, SimulationConfig(1000, 157, self.GRID))
        assert result.price == 0.0 and result.standard_error == 0.0
        assert dict(normals_drawn) == {(0, 0): 1000}


class TestRepairAndClamp:
    """``price`` hands ``repair`` and ``clamp`` to the matrix it builds: each
    gives the price of that matrix passed as ``corr=``, bit for bit."""

    GOLDEN = Path(__file__).parent / "data" / "golden"
    CONFIG = SimulationConfig(20_000, 5, (1.0,))

    def price_with_and_without(self, payoff, snapshot_file, error, **option):
        snap = load_snapshot(self.GOLDEN / snapshot_file)
        with pytest.raises(error):
            price(payoff, snap, self.CONFIG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = price(payoff, snap, self.CONFIG, **option)
            pairs = sorted(payoff.weights, key=lambda p: p.label)
            assert result == price(payoff, snap, self.CONFIG,
                                   corr=build_matrix(pairs, snap, self.CONFIG.grid, **option))
        return caught

    def test_repair_prices_an_indefinite_basket(self):
        payoff = BasketPayoff({FxPair.parse(p): 1.0 for p in ("AAA/BBB", "AAA/CCC", "AAA/DDD")}, 3.0, "call")
        assert self.price_with_and_without(payoff, "perturbed.json", FactorizationError, repair=True) == []

    def test_clamp_prices_an_out_of_range_basket(self):
        payoff = BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call")
        caught = self.price_with_and_without(payoff, "arb.json", CorrelationRangeError, clamp=True)
        # one notice from price, one from the build_matrix call above
        assert [w.category for w in caught] == [CorrelationClampWarning] * 2

    def test_clamp_leaves_the_quanto_check(self):
        # USD/JPY, USD/EUR and JPY/EUR vols of 5%, 30% and 40% imply -2.25
        barrier = BarrierPayoff(EURUSD, 1.25, "call", USDJPY, 110.0, "up", "knock-out")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorrelationClampWarning)
            with pytest.raises(CorrelationRangeError, match="USD/JPY, USD/EUR and JPY/EUR .* imply a correlation"):
                price(barrier, load_snapshot(self.GOLDEN / "arb.json"), self.CONFIG, clamp=True)


class TestCorrelationExtrapolation:
    """A correlation matrix shorter than the grid is reused flat beyond its
    horizon, with a warning, as a vol structure is."""

    def prepare(self, corr_horizon, grid=(0.5, 1.0, 2.0)):
        corr = manual_corr(["EUR/USD", "EUR/JPY"], [[1.0, 0.5], [0.5, 1.0]], corr_horizon)
        vols = {EURUSD: flat_vol(0.1, 2.0), EURJPY: flat_vol(0.2, 2.0)}
        return _prepare_steps([EURUSD, EURJPY], vols, corr, SimulationConfig(10, 1, grid), None)

    def test_warns_beyond_the_horizon(self):
        with pytest.warns(ExtrapolationWarning, match=r"correlation matrix extrapolated flat beyond T=0\.5 to t=1\.5"):
            steps = self.prepare(0.5)
        assert len(steps.factors) == 3
        assert all(np.array_equal(f, steps.factors[0]) for f in steps.factors)

    @pytest.mark.parametrize("corr_horizon", [2.0, 3.0])
    def test_silent_within_the_horizon(self, corr_horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.prepare(corr_horizon)

    def test_simulation_warns(self):
        corr = manual_corr(["EUR/USD", "EUR/JPY"], [[1.0, 0.5], [0.5, 1.0]], 0.5)
        vols = {EURUSD: flat_vol(0.1, 2.0), EURJPY: flat_vol(0.2, 2.0)}
        with pytest.warns(ExtrapolationWarning, match="correlation matrix extrapolated"):
            simulate_increments([EURUSD, EURJPY], vols, corr, SimulationConfig(10, 1, (0.5, 2.0)))


class TestGridCover:
    """The grid must include every breakpoint of every bucketed input before
    the grid's end, the input's last breakpoint included."""

    CONFIG = SimulationConfig(100, 1, (1.0, 2.0))
    SHORT_VOLS = {EURUSD: flat_vol(0.1, 1.5), EURJPY: flat_vol(0.2, 2.0)}
    LONG_VOLS = {EURUSD: flat_vol(0.1, 2.0), EURJPY: flat_vol(0.2, 2.0)}

    def corr(self, horizon):
        return manual_corr(["EUR/USD", "EUR/JPY"], [[1.0, 0.5], [0.5, 1.0]], horizon)

    @pytest.mark.parametrize("short", ["vols", "corr"])
    def test_simulation_rejects_an_input_ending_between_grid_times(self, short):
        vols, corr = (self.SHORT_VOLS, self.corr(2.0)) if short == "vols" else (self.LONG_VOLS, self.corr(1.5))
        what = "vols of EUR/USD" if short == "vols" else "the correlation matrix"
        with pytest.raises(ValidationError, match=f"grid must include breakpoint 1.5 of {what}"):
            simulate_increments([EURUSD, EURJPY], vols, corr, self.CONFIG)

    def test_price_rejects_a_vol_override_ending_between_grid_times(self, three_ccy_snapshot):
        with pytest.raises(ValidationError, match="grid must include breakpoint 1.5 of vols of EUR/USD"):
            price(VanillaPayoff(EURUSD, 1.25, "call"), three_ccy_snapshot, self.CONFIG,
                  vols={EURUSD: flat_vol(0.1, 1.5)})

    def test_price_rejects_a_matrix_ending_between_grid_times(self, three_ccy_snapshot):
        with pytest.raises(ValidationError, match="grid must include breakpoint 1.5 of the correlation matrix"):
            price(BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call"), three_ccy_snapshot, self.CONFIG,
                  corr=self.corr(1.5))


class TestEngineInputPasses:
    """``_prepare_steps`` maps each distinct breakpoint grid onto the steps
    once, and writes an input's name only into an error or a notice."""

    PAYOFF = BarrierPayoff(EURUSD, 1.25, "call", JPYUSD, 0.0115, "up", "knock-out")
    CONFIG = SimulationConfig(1000, 71, (0.25, 0.5, 1.0))

    def test_a_valid_price_names_no_pair(self, three_ccy_snapshot, monkeypatch):
        named, inside = [], []
        real_str, real_prepare = FxPair.__str__, montecarlo._prepare_steps

        def prepare(*args, **kwargs):
            inside.append(True)
            try:
                return real_prepare(*args, **kwargs)
            finally:
                inside.pop()

        def counting_str(pair):
            if inside:
                named.append(real_str(pair))
            return real_str(pair)
        monkeypatch.setattr(montecarlo, "_prepare_steps", prepare)
        monkeypatch.setattr(FxPair, "__str__", counting_str)
        price(self.PAYOFF, three_ccy_snapshot, self.CONFIG)
        assert named == []
        bad = {EURUSD: flat_vol(math.nan), JPYUSD: flat_vol(0.2)}  # the stand-in sees the message that is raised
        with pytest.raises(ValidationError, match=r"vol of EUR/USD on bucket 0 \(0\.0, 1\.0\]"):
            price(self.PAYOFF, three_ccy_snapshot, self.CONFIG, vols=bad)
        assert named == ["EUR/USD"]

    def test_a_shared_grid_is_mapped_once(self, three_ccy_snapshot, monkeypatch):
        # the vols of EUR/USD, JPY/USD and the JPY/EUR link and the matrix all lie on price's grid
        lookups = []
        real = montecarlo._bucket
        monkeypatch.setattr(montecarlo, "_bucket", lambda breakpoints, t: lookups.append(t) or real(breakpoints, t))
        price(self.PAYOFF, three_ccy_snapshot, self.CONFIG)
        assert lookups == [0.125, 0.375, 0.75]  # one lookup per step

    def test_each_override_read_past_its_end_gives_its_own_notice(self, three_ccy_snapshot):
        basket = BasketPayoff({EURUSD: 0.5, EURJPY: 0.005}, 1.25, "call")  # both in EUR: no link vols
        vols = {EURUSD: flat_vol(0.2, 0.5), EURJPY: flat_vol(0.25, 0.5)}  # one grid, both short of T=1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            price(basket, three_ccy_snapshot, SimulationConfig(1000, 71, (0.5, 1.0)), vols=vols)
        assert sorted(str(w.message) for w in caught if w.category is ExtrapolationWarning) == [
            f"vols of {pair} extrapolated flat beyond T=0.5 to t=0.75" for pair in ("EUR/JPY", "EUR/USD")
        ]


def _scanned_grid_index(grid, t):
    """The first grid time within the tolerance of t by a linear scan."""
    return next((m for m, g in enumerate(grid) if abs(g - t) <= _GRID_TOL), None)


class TestGridIndex:
    """``_grid_index`` against the linear scan, at and just beyond the tolerance."""

    @pytest.mark.parametrize("grid", [
        tuple(m / 52 for m in range(1, 53)),
        (0.25, 0.5, 0.5 + 0.4 * _GRID_TOL, 0.5 + 0.8 * _GRID_TOL, 0.5 + 1.6 * _GRID_TOL, 1.0),
        (3.118688607266795e-13, 5.113284003962863e-12, 1.0),  # |g - t| rounds down to tol for t - tol > g
        (4096.0, 4096.0 + 2.0 ** -40, 4096.0 + 2.0 ** -39, 8192.0),  # one ulp apart, less than tol
    ], ids=["weekly", "closer-than-tol", "tiny-times", "ulp-apart"])
    def test_matches_a_linear_scan(self, grid):
        rng = np.random.default_rng(29)
        times = [0.0, 2.0 * grid[-1], *rng.uniform(0.0, 1.1 * grid[-1], 50)]
        for g in grid:
            for t in (g - 2 * _GRID_TOL, g - _GRID_TOL, g, g + _GRID_TOL, g + 2 * _GRID_TOL,
                      *(g + _GRID_TOL * rng.uniform(-3.0, 3.0, 20))):
                times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        for t in times:
            assert _grid_index(grid, t) == _scanned_grid_index(grid, t), t


class TestNonFinitePayoffs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda k: VanillaPayoff(EURUSD, k, "put"),
        lambda k: BasketPayoff({EURUSD: 1.0}, k, "put"),
        lambda k: BarrierPayoff(EURUSD, k, "put", JPYUSD, 0.0115, "up", "knock-out"),
    ], ids=["vanilla", "basket", "barrier"])
    def test_strike_rejected(self, make, bad):
        with pytest.raises(ValidationError, match="strike must be positive and finite"):
            make(bad)

    @pytest.mark.parametrize("make, message", [
        (lambda: VanillaPayoff(EURUSD, 1.25, "straddle"), "kind must be 'call' or 'put'"),
        (lambda: BasketPayoff({EURUSD: 1.0}, 1.25, "straddle"), "kind must be 'call' or 'put'"),
        (lambda: BarrierPayoff(EURUSD, 1.25, "straddle", JPYUSD, 0.0115, "up", "knock-out"),
         "kind must be 'call' or 'put'"),
        (lambda: BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.0115, "sideways", "knock-out"),
         "direction must be 'up' or 'down'"),
        (lambda: BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.0115, "up", "knock-through"),
         "style must be 'knock-in' or 'knock-out'"),
        (lambda: BasketPayoff({}, 1.25, "call"), "basket weights must be non-empty"),
    ], ids=["vanilla-kind", "basket-kind", "barrier-kind", "direction", "style", "empty-basket"])
    def test_bad_term_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_basket_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="basket weight of EUR/JPY must be finite"):
            BasketPayoff({EURUSD: 1.0, EURJPY: bad}, 1.25, "call")

    def test_negative_basket_weight_allowed(self):
        assert BasketPayoff({EURUSD: 1.0, EURJPY: -0.5}, 1.25, "call").weights[EURJPY] == -0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_barrier_level_rejected(self, bad):
        with pytest.raises(ValidationError, match="barrier level must be positive and finite"):
            BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, bad, "up", "knock-out")

    @pytest.mark.parametrize("monitoring", [(0.5, math.nan), (math.nan,), (0.5, math.inf)])
    def test_monitoring_rejected(self, monitoring):
        with pytest.raises(ValidationError, match="monitoring times must be finite"):
            BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.0115, "up", "knock-out", monitoring)

    @pytest.mark.parametrize("make, message", [
        (lambda: VanillaPayoff(EURUSD, True, "call"), "strike must be positive and finite, got True"),
        (lambda: BasketPayoff({EURUSD: 1.0}, True, "call"), "strike must be positive and finite, got True"),
        (lambda: BarrierPayoff(EURUSD, True, "call", JPYUSD, 0.0115, "up", "knock-out"),
         "strike must be positive and finite, got True"),
        (lambda: BarrierPayoff(EURUSD, 1.25, "call", JPYUSD, True, "up", "knock-out"),
         "barrier level must be positive and finite, got True"),
        (lambda: BasketPayoff({EURUSD: 1.0, EURJPY: True}, 1.25, "call"),
         "basket weight of EUR/JPY must be finite, got True"),
        (lambda: BasketPayoff({EURUSD: False}, 1.25, "call"), "basket weight of EUR/USD must be finite, got False"),
    ], ids=["vanilla-strike", "basket-strike", "barrier-strike", "barrier-level", "weight-true", "weight-false"])
    def test_bool_number_rejected(self, make, message):
        # as the payoff document reader does
        with pytest.raises(ValidationError, match=message):
            make()

    @pytest.mark.parametrize("monitoring", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "array"])
    def test_monitoring_is_stored_as_a_tuple(self, monitoring):
        barrier = BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.0115, "up", "knock-out", monitoring)
        expected = BarrierPayoff(EURUSD, 1.25, "put", JPYUSD, 0.0115, "up", "knock-out", (0.5, 1.0))
        assert barrier.monitoring == (0.5, 1.0) and type(barrier.monitoring) is tuple
        assert barrier == expected and hash(barrier) == hash(expected)
        assert payoff_to_dict(barrier) == payoff_to_dict(expected)


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

    def test_first_bad_key_in_field_order_is_reported(self):
        # monitoring is the barrier's last field, so a bad strike is reported first
        with pytest.raises(SchemaError) as exc:
            payoff_from_dict({**self.BARRIER, "strike": "high", "monitoring": ["soon"]})
        assert exc.value.field == "strike"

    def test_integer_monitoring_time_accepted(self):
        payoff = payoff_from_dict({**self.BARRIER, "monitoring": [0.5, 1]})
        assert payoff.monitoring == (0.5, 1.0)


# Runs that cross block boundaries: one short block, a partial last block
# (37,002 = 2 x 16,384 + 4,234) and a partial last block again (40,000).
PINNED_RUNS = [(5, False), (37_002, False), (40_000, False), (37_002, True), (40_000, True)]
# 12 steps: enough for the terminal's left-to-right fold of the steps to
# differ from a pairwise sum in the last bit
PINNED_GRID = tuple(k / 12 for k in range(1, 13))
PINNED_PAYOFFS = {
    "vanilla": VanillaPayoff(EURUSD, 1.25, "call"),
    "basket": BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call"),
    "up-out-own-pair": BarrierPayoff(EURUSD, 1.2, "call", EURUSD, 1.45, "up", "knock-out"),
    "down-in-cross": BarrierPayoff(
        EURUSD, 1.3, "put", USDJPY, 94.0, "down", "knock-in", monitoring=(0.5, 1.0)
    ),
}


def pinned_increments_digest(snapshot, n_paths, antithetic, grid=PINNED_GRID):
    # the consistent triangle is singular, so the eigen factor is used
    pairs = [EURJPY, EURUSD, USDJPY]
    corr = build_matrix(pairs, snapshot, grid)
    config = SimulationConfig(n_paths, 97, grid, antithetic)
    vols = {p: flat_vol(0.2) for p in pairs}
    y = simulate_increments(pairs, vols, corr, config, rates=snapshot.rates)
    return hashlib.sha256(y.tobytes()).hexdigest()


def pinned_price(snapshot, payoff, n_paths, antithetic, workers, grid=PINNED_GRID):
    config = SimulationConfig(n_paths, 101, grid, antithetic)
    result = price(payoff, snapshot, config, workers=workers)
    return result.price.hex(), result.standard_error.hex()


class TestBitsArePinned:
    """Engine output bytes fixed by the RNG stream layout, the increment
    formula and the reductions' summation order; a layout or loop change
    that moves any bit fails here."""

    INCREMENTS = {
        (5, False): "d45f1f904369144e505852619326d5c4a66f22b440525cc612eab4a573a86de4",
        (37_002, False): "10e8d1d52c6d471a62626f7ee06980fe635298893042c1425b5d8e766f0e4f5e",
        (40_000, False): "f86f6b295daba9743a41fd22882c7c05df92ebbd04720601161b4f011c0f413d",
        (37_002, True): "b4a5d920457660315d34f9420096f4b4c6fd7a40453c2af53e908039bd57939b",
        (40_000, True): "dd53360ce35cf483072e30bc9f5544fd05783ff1e00a2e0cbcf6452310776224",
    }
    PRICES = {
        ("basket", 5, False): ("0x1.94be7fd6f4408p-3", "0x1.afe3613e7019ep-4"),
        ("basket", 37_002, False): ("0x1.6e33c68e7a587p-3", "0x1.81387d3ef3b11p-10"),
        ("basket", 40_000, False): ("0x1.6e0371ec0b8f0p-3", "0x1.72e61bc8b121fp-10"),
        ("basket", 37_002, True): ("0x1.67ccafbefd164p-3", "0x1.2a027a5ce2ce7p-10"),
        ("basket", 40_000, True): ("0x1.684852d3e5c77p-3", "0x1.1eb1db4344337p-10"),
        ("down-in-cross", 5, False): ("0x1.e19ea3fb6406cp-8", "0x1.e19ea3fb6406dp-8"),
        ("down-in-cross", 37_002, False): ("0x1.03590e3a9e00fp-5", "0x1.d841aa4cf3dd7p-13"),
        ("down-in-cross", 40_000, False): ("0x1.03857c396d207p-5", "0x1.c639aad1acf18p-13"),
        ("down-in-cross", 37_002, True): ("0x1.05534459590f9p-5", "0x1.675eaeafd5b86p-13"),
        ("down-in-cross", 40_000, True): ("0x1.04b27643e7026p-5", "0x1.5ad4d89b58c77p-13"),
        ("up-out-own-pair", 5, False): ("0x1.5d66960fadb15p-5", "0x1.b3eea3b06c2a0p-6"),
        ("up-out-own-pair", 37_002, False): ("0x1.6169cc2be0425p-6", "0x1.9800f32b41697p-13"),
        ("up-out-own-pair", 40_000, False): ("0x1.616c3bfda65e4p-6", "0x1.87e383734b3c3p-13"),
        ("up-out-own-pair", 37_002, True): ("0x1.5f78679a05adbp-6", "0x1.4e320405a0840p-13"),
        ("up-out-own-pair", 40_000, True): ("0x1.5ed56fdc6dc64p-6", "0x1.411863f07a933p-13"),
        ("vanilla", 5, False): ("0x1.157d2f44ad089p-3", "0x1.42f7eeee8d14fp-4"),
        ("vanilla", 37_002, False): ("0x1.79c0fb49aea9fp-4", "0x1.aa7dc2766efd4p-11"),
        ("vanilla", 40_000, False): ("0x1.79382dc62b0bdp-4", "0x1.9a95908d344adp-11"),
        ("vanilla", 37_002, True): ("0x1.723c07beffa6fp-4", "0x1.58586e7d2da26p-11"),
        ("vanilla", 40_000, True): ("0x1.73a2d7646c2a8p-4", "0x1.4bab3af76bcdcp-11"),
    }

    @pytest.mark.parametrize("n_paths, antithetic", PINNED_RUNS)
    def test_increments(self, three_ccy_snapshot, n_paths, antithetic):
        digest = pinned_increments_digest(three_ccy_snapshot, n_paths, antithetic)
        assert digest == self.INCREMENTS[n_paths, antithetic]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_paths, antithetic", PINNED_RUNS)
    @pytest.mark.parametrize("name", sorted(PINNED_PAYOFFS))
    def test_price(self, three_ccy_snapshot, name, n_paths, antithetic, workers):
        got = pinned_price(three_ccy_snapshot, PINNED_PAYOFFS[name], n_paths, antithetic, workers)
        assert got == self.PRICES[name, n_paths, antithetic]


class TestLongGridBitsArePinned:
    """260 steps: a long left-to-right fold of the step increments, pinned
    bit for bit."""

    GRID = tuple(k / 260 for k in range(1, 261))
    INCREMENTS = "d23d7b8b4480b3e61d38563c131cb96f43191b600e30d0349060f3e0329d5d65"
    PRICES = {
        ("down-in-cross", False): ("0x1.00e48c1d68aa6p-5", "0x1.3fb44a277acefp-12"),
        ("down-in-cross", True): ("0x1.061a998ea2f30p-5", "0x1.ea975106c8e0ap-13"),
        ("up-out-own-pair", False): ("0x1.f1e80a7f00be0p-7", "0x1.9467941a2fcb8p-13"),
        ("up-out-own-pair", True): ("0x1.e8d123009a859p-7", "0x1.4e43d31be11d9p-13"),
        ("vanilla", False): ("0x1.7bb14919c7d4cp-4", "0x1.22256bb0593c1p-10"),
        ("vanilla", True): ("0x1.74c05e152e60fp-4", "0x1.d1521ab22b0b7p-11"),
    }

    def test_increments(self, three_ccy_snapshot):
        digest = pinned_increments_digest(three_ccy_snapshot, 5_000, True, self.GRID)
        assert digest == self.INCREMENTS

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", ["down-in-cross", "up-out-own-pair", "vanilla"])
    def test_price(self, three_ccy_snapshot, name, antithetic, workers):
        payoff = PINNED_PAYOFFS[name]
        got = pinned_price(three_ccy_snapshot, payoff, 20_000, antithetic, workers, self.GRID)
        assert got == self.PRICES[name, antithetic]


class TestRunBlocks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_error_reaches_the_caller_and_cancels_the_rest(self, workers):
        # the other blocks sleep, so the caller sees block 0's error while blocks are still queued
        def apply(block, size):
            ran.append(block)
            if block == 0:
                raise KeyError("block 0 failed")
            time.sleep(0.05)

        ran = []
        with pytest.raises(KeyError) as exc:
            _run_blocks(SimulationConfig(20 * BLOCK_PATHS, 1, (1.0,)), apply, workers)
        assert type(exc.value) is KeyError and exc.value.args == ("block 0 failed",)
        assert 0 in ran and len(ran) < 20


NINE_CODES = ["USD", "AUD", "CAD", "CHF", "EUR", "GBP", "JPY", "NOK", "NZD", "SEK"]
NINE_PAIR_BASKET = BasketPayoff({FxPair.parse(f"USD/{c}"): 1 / 9 for c in NINE_CODES[1:]}, 1.0, "call")


def nine_pair_snapshot():
    """Every pair of ten currencies at spot 1, 20% vol and 1% rates."""
    labels = [f"{a}/{b}" for a, b in itertools.combinations(NINE_CODES, 2)]
    return loads_snapshot(json.dumps(snapshot_doc(
        spots={label: 1.0 for label in labels},
        vols={label: [(1.0, 0.2)] for label in labels},
        rates={code: [(1.0, 0.01)] for code in NINE_CODES},
    )))


class TestBlockMemory:
    """``price`` holds, per worker, two chunks of ``CHUNK_PATHS`` paths (the
    normals and the increments) and one float per path of its block (the
    payoff values; a barrier also keeps its terminal normals and bridges the
    paths that pay), whatever the number of blocks: the nine-pair basket's
    peak stays under one (9, 16,384) step array, which a step drawn whole
    would pass."""

    GRID = tuple(k / 52 for k in range(1, 53))
    PAYOFFS = {
        "barrier": BarrierPayoff(EURUSD, 1.25, "call", USDJPY, 110.0, "up", "knock-out"),
        "basket": BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call"),
    }
    # each payoff's peak in block rows of 16,384 floats (0.13 MB), at 1 and 3 blocks: measured 4.95 and 4.94
    # (barrier) and 2.28 and 2.31 (basket) at 52 steps, 5.69 and 5.72 and 2.88 and 2.90 at 260; a (2, 16,384)
    # array held again, two rows more, fails each bound, and one row more fails each at 260 steps
    PEAK_ROWS = {"barrier": 6.0, "basket": 3.25}

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("name", sorted(PAYOFFS))
    def test_peak_is_near_one_block(self, three_ccy_snapshot, name, blocks):
        antithetic = name == "basket"
        config = SimulationConfig(blocks * BLOCK_PATHS, 103, self.GRID, antithetic)
        tracemalloc.start()
        try:
            price(self.PAYOFFS[name], three_ccy_snapshot, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_ROWS[name] * BLOCK_PATHS * 8

    def nine_pair_peak(self, blocks, workers):
        snapshot = nine_pair_snapshot()
        config = SimulationConfig(blocks * BLOCK_PATHS, 103, self.GRID, antithetic=True)
        tracemalloc.start()
        try:
            price(NINE_PAIR_BASKET, snapshot, config, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_nine_pair_basket_holds_under_one_step_array(self, blocks):
        # the two chunk buffers and a chunk's transposed levels are (9, 2,048) each, and the block's
        # payoff values are (16,384,): about 0.8 of one (9, 16,384) step array, which the block
        # held three of, whole, before it was drawn in chunks
        step_bytes = 9 * BLOCK_PATHS * 8
        assert self.nine_pair_peak(blocks, workers=1) <= 1.0 * step_bytes

    def test_two_workers_hold_twice_one_worker(self):
        # each worker holds its own chunks and values, and nothing is shared that grows with them
        assert self.nine_pair_peak(3, workers=2) <= 2 * self.nine_pair_peak(3, workers=1)


class TestChunks:
    """A block draws each step in chunks of ``CHUNK_PATHS`` paths.  Philox is
    counter-based, so each pair slot's stream read in chunks gives the normals
    it gives whole, and no chunk size moves a bit: 1 (two draws a chunk, the
    fewest), 37 (no chunk boundary on a block's) and ``BLOCK_PATHS`` (each
    block in one chunk).  37,002 paths are 2 x 16,384 + 4,234, a multiple of
    no chunk size.  A chunk of 1, the slow case, runs only at 2 workers."""

    RUNS = [(1, 2), *itertools.product([37, BLOCK_PATHS], [1, 2, 3])]

    @pytest.mark.parametrize("chunk, workers", RUNS)
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", ["basket", "down-in-cross", "vanilla"])
    def test_prices_keep_their_bytes(self, three_ccy_snapshot, monkeypatch, name, antithetic, chunk, workers):
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
        got = pinned_price(three_ccy_snapshot, PINNED_PAYOFFS[name], 37_002, antithetic, workers)
        assert got == TestBitsArePinned.PRICES[name, 37_002, antithetic]

    @pytest.mark.parametrize("chunk", [1, 37, BLOCK_PATHS])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_increments_keep_their_bytes(self, three_ccy_snapshot, monkeypatch, antithetic, chunk):
        want = pinned_increments_digest(three_ccy_snapshot, 37_002, antithetic, (0.5, 1.0))
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
        assert pinned_increments_digest(three_ccy_snapshot, 37_002, antithetic, (0.5, 1.0)) == want

    def test_a_one_path_remainder_joins_the_chunk_before(self, monkeypatch):
        # 2,049 paths draw one chunk, as one block of 2,049 does: a last chunk of one path would be
        # a matrix-vector product, which BLAS rounds otherwise for some of its nine entries
        pairs = [FxPair.parse(f"{c}/USD") for c in sorted(NINE_CODES[1:])]
        matrix = np.corrcoef(np.random.default_rng(1).standard_normal((9, 40)))
        matrix = 0.5 * (matrix + matrix.T)
        np.fill_diagonal(matrix, 1.0)
        corr = manual_corr([p.label for p in pairs], matrix)
        vols = {p: flat_vol(0.2) for p in pairs}
        config = SimulationConfig(2049, 97, (1.0,))
        chunked = simulate_increments(pairs, vols, corr, config)
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", BLOCK_PATHS)
        assert chunked.tobytes() == simulate_increments(pairs, vols, corr, config).tobytes()

    @pytest.mark.parametrize("n_paths, antithetic", [(40_001, False), (37_002, True)])
    def test_nine_pair_basket_values_keep_their_bytes(self, monkeypatch, n_paths, antithetic):
        # each path's value, not only their sum: the weighted sum over nine legs is a BLAS
        # matrix-vector product, and a chunk must split no group of rows that it sums together
        snapshot = nine_pair_snapshot()
        payoff, pairs = montecarlo._simulated(NINE_PAIR_BASKET)
        config = SimulationConfig(n_paths, 5, (0.5, 1.0), antithetic)
        vols = {p: flat_vol(0.2) for p in pairs}
        steps = _terminal_steps(_prepare_steps(pairs, vols, build_matrix(pairs, snapshot, [1.0]), config,
                                               snapshot.rates, pairs[0].denominating))
        evaluate = _payoff_evaluator(payoff, pairs, np.array([snapshot.spot(p) for p in pairs]), steps, config)

        def values():
            return np.concatenate(_run_blocks(config, evaluate))

        chunked = values()
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", BLOCK_PATHS)
        assert (chunked > 0).any() and chunked.tobytes() == values().tobytes()


class TestStepMemory:
    """``price`` draws a block's one terminal step, and a barrier then bridges
    the paths that pay step by step in rows made once per block: the peak
    stays within ``TestBlockMemory``'s few block rows at 52 steps and at 260."""

    PAYOFFS, PEAK_ROWS = TestBlockMemory.PAYOFFS, TestBlockMemory.PEAK_ROWS

    @pytest.mark.parametrize("n_steps", [52, 260])
    @pytest.mark.parametrize("name", sorted(PAYOFFS))
    def test_peak_does_not_grow_with_steps(self, three_ccy_snapshot, name, n_steps):
        grid = tuple(k / n_steps for k in range(1, n_steps + 1))
        config = SimulationConfig(BLOCK_PATHS, 103, grid, name == "basket")
        tracemalloc.start()
        try:
            price(self.PAYOFFS[name], three_ccy_snapshot, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_ROWS[name] * BLOCK_PATHS * 8

