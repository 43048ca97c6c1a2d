"""The engine against closed forms from ``oracles.QuotedWorld``, which reads
the snapshot document's quotes and shares no code with the library.

Each Monte Carlo price must land within 4 standard errors of its closed
form at every seed.  These cases simulate pairs that share the paying
currency, so the pricing measure needs no quanto drift.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fxcorr import (
    BarrierPayoff,
    FxPair,
    SimulationConfig,
    bootstrap_piecewise_vol,
    build_matrix,
    loads_snapshot,
    price,
    simulate_increments,
)

from oracles import QuotedWorld, bvn_cdf

WORLD_DOC = json.loads((Path(__file__).parent / "data" / "golden" / "world.json").read_text())
N_PATHS = 400_000


@pytest.fixture(scope="module")
def world():
    return QuotedWorld(WORLD_DOC)


@pytest.fixture(scope="module")
def snapshot():
    return loads_snapshot(json.dumps(WORLD_DOC))


def test_bvn_cdf_at_the_origin_is_the_arcsine_law():
    for rho in np.linspace(-0.95, 0.95, 39):
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-13)


def test_bvn_cdf_factorizes_at_zero_correlation():
    assert bvn_cdf(0.3, -1.1, 0.0) == pytest.approx(
        0.5 * math.erfc(-0.3 / math.sqrt(2.0)) * 0.5 * math.erfc(1.1 / math.sqrt(2.0)), rel=1e-15
    )


@pytest.mark.parametrize("seed", [7, 11, 42])
@pytest.mark.parametrize("style", ["knock-out", "knock-in"])
def test_same_pair_barrier_monitored_once(world, snapshot, style, seed):
    # EUR/USD call struck at the forward, barrier half an SD above the
    # t1 forward, monitored at t1 = 0.5 only, expiry T = 1.
    t1, t = 0.5, 1.0
    strike = math.exp(world.log_forward("EUR", "USD", t))
    level = math.exp(world.log_forward("EUR", "USD", t1) + 0.5 * math.sqrt(world.variance("EUR", "USD", t1)))
    payoff = BarrierPayoff(FxPair.parse("EUR/USD"), strike, "call", FxPair.parse("EUR/USD"),
                           level, "up", style, monitoring=(t1,))
    result = price(payoff, snapshot, SimulationConfig(N_PATHS, seed, (t1, t)))
    want = world.one_date_barrier_call("EUR/USD", strike, "EUR/USD", level, "up", style, t1, t)
    assert abs(result.price - want) <= 4 * result.standard_error


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_geometric_basket_on_terminal_sums(world, snapshot, seed):
    exponents = {"EUR/GBP": 0.2, "EUR/JPY": 0.3, "EUR/USD": 0.5}
    pairs = [FxPair.parse(p) for p in exponents]
    grid = (0.5, 1.0)
    vols = {pair: bootstrap_piecewise_vol(snapshot.vol_structure(pair)) for pair in pairs}
    corr = build_matrix(pairs, snapshot, grid)
    y = simulate_increments(pairs, vols, corr, SimulationConfig(N_PATHS, seed, grid), rates=snapshot.rates)
    log_terminal = np.log([snapshot.spot(pair) for pair in pairs]) + y.sum(axis=1)
    strike = math.exp(sum(w * world.log_forward("EUR", p.split("/")[1], 1.0) for p, w in exponents.items()))
    payoff = world.discount("EUR", 1.0) * np.maximum(np.exp(log_terminal @ list(exponents.values())) - strike, 0.0)
    se = payoff.std(ddof=1) / math.sqrt(N_PATHS)
    want = world.geometric_basket_call(exponents, strike, 1.0)
    assert abs(payoff.mean() - want) <= 4 * se
