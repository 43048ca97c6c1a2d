import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fxcorr import FxPair, PricingInputs, VanillaSpec, forward, gk_price, gk_vega, loads_snapshot


def snapshot_doc(
    spots: dict[str, float],
    vols: dict[str, list[tuple[float, float]]],
    rates: dict[str, list[tuple[float, float]]],
    as_of: str = "2026-01-05",
) -> dict:
    return {
        "as_of": as_of,
        "spots": [{"pair": p, "value": v} for p, v in spots.items()],
        "vols": [
            {"pair": p, "points": [{"T": t, "sigma": s} for t, s in pts]}
            for p, pts in vols.items()
        ],
        "rates": [
            {"currency": c, "points": [{"T": t, "r": r} for t, r in pts]}
            for c, pts in rates.items()
        ],
    }


def json_with_huge_integer(doc: dict) -> str:
    """JSON text of ``doc`` with each ``"HUGE"`` string value replaced by a
    5,000-digit integer, longer than Python's default limit of 4,300 digits
    for converting a string to an int."""
    return json.dumps(doc).replace('"HUGE"', "9" * 5000)


def three_ccy_doc() -> dict:
    # Equal flat 20% vols on a consistent EUR/JPY/USD triangle: every
    # implied correlation comes out 0.5.
    return snapshot_doc(
        spots={"EUR/USD": 1.25, "EUR/JPY": 125.0, "USD/JPY": 100.0},
        vols={
            "EUR/USD": [(1.0, 0.2), (2.0, 0.2)],
            "EUR/JPY": [(1.0, 0.2), (2.0, 0.2)],
            "USD/JPY": [(1.0, 0.2), (2.0, 0.2)],
        },
        rates={
            "EUR": [(2.0, 0.02)],
            "USD": [(2.0, 0.03)],
            "JPY": [(2.0, 0.0)],
        },
    )


def four_ccy_equal_doc() -> dict:
    # Four currencies, all six pairs at the same vol: the cross formula's
    # numerator cancels and every cross correlation is exactly 0.
    pairs = ["AUD/CAD", "AUD/CHF", "AUD/DKK", "CAD/CHF", "CAD/DKK", "CHF/DKK"]
    return snapshot_doc(
        spots={p: 1.0 for p in pairs},
        vols={p: [(1.0, 0.2)] for p in pairs},
        rates={c: [(1.0, 0.01)] for c in ["AUD", "CAD", "CHF", "DKK"]},
    )


@pytest.fixture
def three_ccy_snapshot():
    return loads_snapshot(json.dumps(three_ccy_doc()))


@pytest.fixture
def four_ccy_equal_snapshot():
    return loads_snapshot(json.dumps(four_ccy_equal_doc()))


@pytest.fixture
def three_ccy_file(tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(three_ccy_doc(), indent=2))
    return path


_ROUND_TRIP_PAIR = FxPair.parse("EUR/USD")


@pytest.fixture
def breakpoint_checks(monkeypatch):
    """The ``what`` of each ``_check_breakpoints`` call, wherever fxcorr makes it."""
    from fxcorr import correlation, term_structure

    calls = []
    real = term_structure._check_breakpoints

    def counting(points, what):
        calls.append(what)
        return real(points, what)
    for module in (correlation, term_structure):
        monkeypatch.setattr(module, "_check_breakpoints", counting)
    return calls


def draw_invertible(rng: np.random.Generator):
    """One random (sigma, T, moneyness, rates) draw whose price actually
    pins sigma to 1e-10 in float64, or None for a dud draw.

    A double-precision price resolves sigma no better than
    spacing(price)/vega, so draws beyond that limit (price at the band
    edge, or graining above half the target tolerance) are rejected.
    """
    sigma = rng.uniform(0.001, 3.0)
    t = rng.uniform(0.01, 10.0)
    moneyness = rng.uniform(-3.0, 3.0)
    rd = rng.uniform(-0.01, 0.05)
    rf = rng.uniform(-0.01, 0.05)
    spot = 1.25
    fwd = forward(spot, rd, rf, t)
    strike = fwd / math.exp(moneyness)
    kind = "call" if rng.uniform() < 0.5 else "put"
    spec = VanillaSpec(_ROUND_TRIP_PAIR, strike, t, kind)
    inputs = PricingInputs(spot, rd, rf, sigma)
    price = gk_price(spec, inputs)
    intrinsic = math.exp(-rd * t) * max(
        (fwd - strike) if kind == "call" else (strike - fwd), 0.0
    )
    if price - intrinsic < 1e-300:
        return None
    vega = gk_vega(spec, inputs)
    if vega <= 0.0 or np.spacing(price) / vega > 1.5e-11:
        return None
    return spec, price, spot, rd, rf, sigma
