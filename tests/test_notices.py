"""Every notice names the line that called fxcorr, however deep inside the
library it is raised; in the CLI, the line in ``fxcorr/cli.py``."""

import json
import os
import subprocess
import sys
import warnings
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
    CorrQuery,
    ExtrapolationWarning,
    FxPair,
    PiecewiseConstant,
    SimulationConfig,
    VanillaPayoff,
    bucket_corrs,
    build_matrix,
    cross_corr,
    horizon_vol,
    implied_corr,
    integrated_correlation,
    load_snapshot,
    loads_snapshot,
    price,
    simulate_increments,
    term_corr,
    total_variance,
    triangle_corr,
)
from fxcorr import cli

from conftest import three_ccy_doc

GOLDEN = Path(__file__).parent / "data" / "golden"
EURUSD, EURJPY = FxPair.parse("EUR/USD"), FxPair.parse("EUR/JPY")
THREE = loads_snapshot(json.dumps(three_ccy_doc()))  # quotes end at T=2
ARB = load_snapshot(GOLDEN / "arb.json")  # EUR/USD vs EUR/JPY implies 1.03 over (0, 1]
BEYOND = CorrQuery.total(EURUSD, EURJPY, 3.0)
CLAMPED = CorrQuery.total(EURUSD, EURJPY, 1.0)
SHORT = PiecewiseConstant((0.0, 1.0), (0.1,))
LONG = PiecewiseConstant((0.0, 2.0), (0.1,))
SHORT_CORR = BucketedCorrelationMatrix(("EUR/JPY", "EUR/USD"), (0.0, 1.0), (np.eye(2),),
                                       (BucketStatus("psd", 1.0),))
TWO_STEPS = SimulationConfig(10, 1, (1.0, 2.0))
ARB_BASKET = BasketPayoff({EURUSD: 1.0, EURJPY: 0.01}, 2.5, "call")

CALLS = {
    # named a line inside fxcorr before every notice went through market_data._warn
    "horizon_vol": (ExtrapolationWarning, lambda: horizon_vol(THREE.vol_structure(EURUSD), 0.0, 3.0)),
    "implied_corr": (ExtrapolationWarning, lambda: implied_corr(BEYOND, THREE)),
    "bucket_corrs": (ExtrapolationWarning, lambda: bucket_corrs(BEYOND, THREE, [1.0, 3.0])),
    "term_corr": (ExtrapolationWarning, lambda: term_corr(BEYOND, THREE, [1.0, 3.0])),
    "build_matrix": (ExtrapolationWarning, lambda: build_matrix([EURUSD, EURJPY], THREE, [1.0, 3.0])),
    "price": (ExtrapolationWarning,
              lambda: price(VanillaPayoff(EURUSD, 1.25, "call"), THREE, SimulationConfig(10, 1, (3.0,)))),
    "vol": (ExtrapolationWarning, lambda: THREE.vol_structure(EURUSD).vol(3.0)),
    "implied_corr-clamp": (CorrelationClampWarning, lambda: implied_corr(CLAMPED, ARB, clamp=True)),
    "bucket_corrs-clamp": (CorrelationClampWarning, lambda: bucket_corrs(CLAMPED, ARB, [1.0], clamp=True)),
    "term_corr-clamp": (CorrelationClampWarning, lambda: term_corr(CLAMPED, ARB, [1.0], clamp=True)),
    "price-clamp": (CorrelationClampWarning,
                    lambda: price(ARB_BASKET, ARB, SimulationConfig(10, 1, (1.0,)), clamp=True)),
    "simulate_increments-vols": (ExtrapolationWarning,
                                 lambda: simulate_increments([EURUSD], {EURUSD: SHORT}, None, TWO_STEPS)),
    # named the caller already
    "total_variance-method": (ExtrapolationWarning, lambda: THREE.vol_structure(EURUSD).total_variance(3.0)),
    "value_at": (ExtrapolationWarning, lambda: SHORT.value_at(2.0)),
    "total_variance": (ExtrapolationWarning, lambda: total_variance(SHORT, 2.0)),
    "integrated_correlation": (ExtrapolationWarning,
                               lambda: integrated_correlation(PiecewiseConstant((0.0, 1.0), (0.5,)),
                                                              SHORT, SHORT, 2.0)),
    "build_matrix-clamp": (CorrelationClampWarning,
                           lambda: build_matrix([EURUSD, EURJPY], ARB, [1.0], clamp=True)),
    "triangle_corr-clamp": (CorrelationClampWarning, lambda: triangle_corr(0.4, 0.3, 0.05, clamp=True)),
    "simulate_increments-corr": (ExtrapolationWarning,
                                 lambda: simulate_increments([EURUSD, EURJPY], {EURUSD: LONG, EURJPY: LONG},
                                                             SHORT_CORR, TWO_STEPS)),
    # beyond the list above: the same rule serves every other path to a notice
    "cross_corr-clamp": (CorrelationClampWarning, lambda: cross_corr(0.3, 0.3, 0.6, 0.1, 0.2, 0.2, clamp=True)),
    "price-vols": (ExtrapolationWarning,
                   lambda: price(VanillaPayoff(EURUSD, 1.25, "call"), THREE, TWO_STEPS, vols={EURUSD: SHORT})),
    "price-corr": (ExtrapolationWarning,
                   lambda: price(ARB_BASKET, THREE, TWO_STEPS, corr=SHORT_CORR)),
}


@pytest.mark.parametrize("category, call", CALLS.values(), ids=CALLS.keys())
def test_notice_names_the_calling_line(category, call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert category in {w.category for w in caught}
    assert {w.filename for w in caught} == {__file__} and len({w.lineno for w in caught}) == 1


WORLD = load_snapshot(GOLDEN / "world.json")  # quotes end at T=2
SHARED = CorrQuery.total(EURUSD, FxPair.parse("GBP/USD"), 3.0)  # a cross query of three currencies
QUOTES = {
    "implied_corr": lambda: implied_corr(SHARED, WORLD),
    "bucket_corrs": lambda: bucket_corrs(SHARED, WORLD, (1, 3)),
    "term_corr": lambda: term_corr(SHARED, WORLD, (1, 3)),
}


@pytest.mark.parametrize("call", QUOTES.values(), ids=QUOTES.keys())
def test_a_structure_serving_two_roles_notifies_once(call):
    # EUR/USD serves sigma_ij and sigma_ik, GBP/USD sigma_mk and sigma_mj: each is read once at T=3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    messages = [str(w.message) for w in caught if w.category is ExtrapolationWarning]
    assert len(messages) == len(set(messages)) == 3


def test_a_failing_quote_query_reads_every_breakpoint_first():
    # every vol structure is read at T=1 and T=2 before bucket 0 raises its range error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CorrelationRangeError, match=r"^bucket 0 \(0.0, 1.0\]"):
            term_corr(CorrQuery.total(EURUSD, EURJPY, 2.0), ARB, (1, 2))
    beyond = "vol term structure extrapolated flat beyond T=1.0 to t=2.0"
    assert sorted(str(w.message) for w in caught) == [f"{pair}: {beyond}" for pair in ("EUR/JPY", "EUR/USD", "JPY/USD")]


def test_price_raises_each_notice_once():
    # the CLI's weekly barrier in process: every (currency pair, time) beyond the
    # last quote is read once, by price's vol derivation or by build_matrix
    payoff = BarrierPayoff(FxPair.parse("USD/EUR"), 0.8, "call", FxPair.parse("JPY/EUR"), 0.01, "up", "knock-out")
    grid = (0.5, 1.0, 1.5, 2.0, *(2 + k / 52 for k in range(1, 53)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        price(payoff, load_snapshot(GOLDEN / "world.json"), SimulationConfig(1000, 1, grid))
    messages = [str(w.message) for w in caught if w.category is ExtrapolationWarning]
    assert len(messages) == len(set(messages)) == 156


def test_the_default_filter_shows_each_cli_notice_once(tmp_path):
    # a USD/EUR call knocked out when JPY/EUR rises through 0.01, on a grid
    # of 52 weekly steps beyond the last quote (T=2): every notice comes
    # from one location, the line in cli.py that calls price
    payoff = tmp_path / "barrier.json"
    payoff.write_text(json.dumps({"type": "barrier", "payoff_pair": "USD/EUR", "strike": 0.8, "kind": "call",
                                  "barrier_pair": "JPY/EUR", "barrier_level": 0.01, "direction": "up",
                                  "style": "knock-out"}))
    grid = ",".join(["0.5", "1", "1.5", "2"] + [repr(2 + k / 52) for k in range(1, 53)])
    src = Path(cli.__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from fxcorr.cli import main; sys.exit(main(sys.argv[1:]))",
         "price", str(GOLDEN / "world.json"), str(payoff), "--grid", grid, "--paths", "1000"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": ""},
        check=True,
    )
    notices = [line for line in run.stderr.splitlines() if "Warning: " in line]
    assert len(notices) == len(set(notices)) == 156
    assert {line.split(": ")[0] for line in notices} == {f"{cli.__file__}:{_price_line()}"}


def _price_line() -> int:
    """The line of ``cli.py`` that calls ``price``."""
    lines = Path(cli.__file__).read_text().splitlines()
    return next(n for n, line in enumerate(lines, 1) if "= price(" in line)
