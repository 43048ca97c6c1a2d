"""A seed sweep: the engine's bias and its standard errors against exact
prices from ``oracles.QuotedWorld``, which shares no code with the library.

For each case, N prices at seeds that no other test uses give
z_s = (price_s - exact) / SE_s.  If the engine is unbiased and its standard
errors are right, each z_s is close to a standard normal (to ~1/sqrt(paths)
in the law of the SE itself), and so:

- the mean of z has sd 1/sqrt(N): |mean z| <= 4/sqrt(N) is a 4-sd bound on
  the bias, in units of one price's SE;
- the sample sd of z has sd about 1/sqrt(2N): |sd z - 1| <= 4/sqrt(2N) is a
  4-sd bound on the error of the reported SE.

A single price within 4 SE of its exact value (``test_oracles.py``) cannot
see a bias of half an SE; N = 300 prices see one of a quarter.  The seeds
are fixed, so the sweep is deterministic and cannot flake.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fxcorr import BarrierPayoff, BasketPayoff, FxPair, SimulationConfig, VanillaPayoff, loads_snapshot, price

from oracles import QuotedWorld

WORLD_DOC = json.loads((Path(__file__).parent / "data" / "golden" / "world.json").read_text())
SEEDS = range(70_000, 70_300)
N_PATHS = 20_000
GRID = (0.25, 0.5, 0.75, 1.0)  # the barriers are monitored at 0.5 only: the bridge steps past 0.25 unmonitored
T1, T = 0.5, 1.0


@pytest.fixture(scope="module")
def world():
    return QuotedWorld(WORLD_DOC)


@pytest.fixture(scope="module")
def snapshot():
    return loads_snapshot(json.dumps(WORLD_DOC))


def sweep(payoff, snapshot, exact):
    z = np.array([(r.price - exact) / r.standard_error
                  for r in (price(payoff, snapshot, SimulationConfig(N_PATHS, seed, GRID)) for seed in SEEDS)])
    return z.mean(), z.std(ddof=1)


def assert_unbiased_with_true_errors(mean_z, sd_z):
    n = len(SEEDS)
    assert abs(mean_z) <= 4 / math.sqrt(n), f"bias: mean z {mean_z:.3f}"
    assert abs(sd_z - 1.0) <= 4 / math.sqrt(2 * n), f"standard error: sd z {sd_z:.3f}"


def test_vanilla_against_garman_kohlhagen(world, snapshot):
    # Garman-Kohlhagen is Black on the lognormal X(T): the one-leg geometric basket
    strike = 1.05 * math.exp(world.log_forward("EUR", "USD", T))
    exact = world.geometric_basket_call({"EUR/USD": 1.0}, strike, T)
    assert_unbiased_with_true_errors(*sweep(VanillaPayoff(FxPair.parse("EUR/USD"), strike, "call"), snapshot, exact))


BARRIERS = [(pair, direction) for direction in ("up", "down") for pair in ("EUR/USD", "JPY/USD", "GBP/EUR")]


@pytest.mark.parametrize("style", ["knock-in", "knock-out"])
@pytest.mark.parametrize("barrier, direction", BARRIERS,
                         ids=[pair if direction == "up" else f"{pair}-down" for pair, direction in BARRIERS])
def test_one_date_barrier(world, snapshot, barrier, style, direction):
    # EUR/USD call struck at the forward, paid in EUR, the barrier half an SD above (up) or below (down)
    # its t1 forward; JPY/USD and GBP/EUR are not denominated in EUR, so they carry the quanto drift.
    # Each bridged path is weighed with its mirrored bridge, whose breach test turns with the direction
    a, b = barrier.split("/")
    strike = math.exp(world.log_forward("EUR", "USD", T))
    shift = 0.5 if direction == "up" else -0.5
    level = math.exp(world.log_forward(a, b, T1) + shift * math.sqrt(world.variance(a, b, T1)))
    payoff = BarrierPayoff(FxPair.parse("EUR/USD"), strike, "call", FxPair.parse(barrier), level, direction, style,
                           monitoring=(T1,))
    exact = world.one_date_barrier_call("EUR/USD", strike, barrier, level, direction, style, T1, T)
    assert_unbiased_with_true_errors(*sweep(payoff, snapshot, exact))


def test_zero_strike_basket_against_the_forward_sum(world, snapshot):
    # with a strike near 0 the call is always exercised: its price is the discounted forward sum less the strike
    weights = {"EUR/GBP": 0.6, "EUR/JPY": 0.002, "EUR/USD": 0.5}
    strike = 1e-9
    exact = world.discount("EUR", T) * (sum(w * math.exp(world.log_forward("EUR", p.split("/")[1], T))
                                             for p, w in weights.items()) - strike)
    payoff = BasketPayoff({FxPair.parse(p): w for p, w in weights.items()}, strike, "call")
    assert_unbiased_with_true_errors(*sweep(payoff, snapshot, exact))
