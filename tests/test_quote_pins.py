"""Pinned quote outputs: implied_corr, bucket_corrs, term_corr and
implied_vol on fixed inputs, compared bit for bit (``float.hex``) with
``tests/data/quote_pins.json``, along with the provenance JSON and the
errors and warnings a query raises.

A change to the quote path that claims to keep behaviour must leave every
pinned output as it is.  After a change that is meant to alter one,
regenerate the file with

    PYTHONPATH=src python tests/test_quote_pins.py

and explain the difference.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

from fxcorr import (
    CorrQuery,
    ExtrapolationWarning,
    FxPair,
    MissingDataError,
    PricingInputs,
    VanillaSpec,
    bucket_corrs,
    gk_price,
    gk_vega,
    implied_corr,
    implied_vol,
    load_snapshot,
    loads_snapshot,
    term_corr,
)

sys.path.insert(0, str(Path(__file__).parent))

from conftest import four_ccy_equal_doc  # noqa: E402

DATA = Path(__file__).parent / "data"
PINS = DATA / "quote_pins.json"
WORLD = DATA / "golden" / "world.json"

# (pair_a, pair_b, start, end); world.json quotes every pair at 0.5, 1 and 2
CORR_CASES = {
    "triangle-total": ("EUR/USD", "EUR/JPY", 0.0, 0.75),
    "triangle-bucket": ("USD/GBP", "USD/JPY", 0.5, 1.5),
    "triangle-beyond": ("GBP/EUR", "GBP/USD", 1.0, 3.0),
    "cross-total": ("GBP/JPY", "USD/EUR", 0.0, 1.5),
    "cross-bucket": ("JPY/USD", "EUR/GBP", 1.0, 2.0),
    "cross-shared-foreign": ("EUR/USD", "GBP/USD", 0.25, 2.0),
    "cross-shared-cross": ("EUR/USD", "GBP/EUR", 0.0, 0.4),
    "degenerate-same": ("EUR/USD", "EUR/USD", 0.5, 1.0),
    "degenerate-inverse": ("EUR/USD", "USD/EUR", 0.0, 1.0),
}

# (pair_a, pair_b, bucket boundaries)
TERM_CASES = {
    "triangle": ("USD/GBP", "USD/JPY", (0.25, 0.5, 1, 2)),
    "cross": ("JPY/USD", "EUR/GBP", (2, 0.5, 1)),
    "cross-beyond": ("GBP/JPY", "USD/EUR", (0.5, 2.5, 4)),
    "degenerate": ("EUR/USD", "USD/EUR", (0, 1, 2)),
}

# (kind, strike, maturity, spot, rate_dom, rate_fgn, sigma)
VANILLA_CASES = {
    "call-atm": ("call", 1.25, 0.75, 1.25, 0.02, 0.03, 0.1),
    "call-otm": ("call", 1.6, 2.0, 1.25, 0.02, 0.03, 0.25),
    "call-itm-short": ("call", 1.2, 0.05, 1.25, 0.04, 0.01, 0.15),
    "put-atm": ("put", 1.25, 0.75, 1.25, 0.02, 0.03, 0.1),
    "put-otm": ("put", 0.8, 3.0, 1.25, -0.005, 0.045, 0.4),
    "put-itm-long": ("put", 1.7, 7.5, 1.25, 0.01, 0.0, 1.2),
}

EUR_USD = FxPair.parse("EUR/USD")


def _corr_record(res) -> dict:
    return {"value": res.value.hex(), "provenance": json.dumps(res.provenance.to_dict())}


def _query(a: str, b: str, start: float, end: float) -> CorrQuery:
    return CorrQuery(FxPair.parse(a), FxPair.parse(b), (start, end))


def outputs() -> dict:
    """Every pinned output, computed by the library as it stands."""
    snap = load_snapshot(WORLD)
    out = {"corr": {}, "buckets": {}, "term": {}, "vanilla": {}, "warnings": {}}
    for name, (a, b, start, end) in CORR_CASES.items():
        out["corr"][name] = _corr_record(implied_corr(_query(a, b, start, end), snap))
    for name, (a, b, buckets) in TERM_CASES.items():
        query = _query(a, b, 0.0, max(buckets))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out["buckets"][name] = [_corr_record(r) for r in bucket_corrs(query, snap, buckets)]
            pc = term_corr(query, snap, buckets)
        out["term"][name] = {"breakpoints": list(pc.breakpoints), "values": [v.hex() for v in pc.values]}
        out["warnings"][name] = sum(issubclass(w.category, ExtrapolationWarning) for w in caught)
    for name, (kind, strike, t, spot, rd, rf, sigma) in VANILLA_CASES.items():
        spec = VanillaSpec(EUR_USD, strike, t, kind)
        inputs = PricingInputs(spot, rd, rf, sigma)
        price = gk_price(spec, inputs)
        out["vanilla"][name] = {
            "price": price.hex(),
            "vega": gk_vega(spec, inputs).hex(),
            "implied_vol": implied_vol(spec, price, spot, rd, rf).hex(),
        }
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def current():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        return outputs()


@pytest.mark.parametrize("section", ["corr", "buckets", "term", "vanilla", "warnings"])
def test_outputs_match_pins(section, pinned, current):
    assert current[section] == pinned[section]


def test_pins_cover_every_case(pinned):
    assert set(pinned["corr"]) == set(CORR_CASES)
    assert set(pinned["term"]) == set(TERM_CASES)
    assert set(pinned["vanilla"]) == set(VANILLA_CASES)


class TestErrorParity:
    """A missing vol is reported by role order, with its horizon and bucket."""

    @pytest.fixture
    def snap(self):
        doc = four_ccy_equal_doc()
        doc["vols"] = [v for v in doc["vols"] if v["pair"] != "CHF/DKK"]
        return loads_snapshot(json.dumps(doc))

    # AUD/CAD vs DKK/CHF is a cross query whose second role, sigma_mk, is
    # DKK/CHF: the only vol the snapshot lacks
    def test_implied_corr_names_second_role(self, snap):
        with pytest.raises(MissingDataError) as info:
            implied_corr(_query("AUD/CAD", "DKK/CHF", 0.0, 1.0), snap)
        assert str(info.value) == "no vol term structure for pair DKK/CHF (needed over (0.0, 1.0])"
        cause = info.value.__cause__
        assert type(cause) is MissingDataError
        assert str(cause) == "no vol term structure for pair DKK/CHF"
        assert cause.__cause__ is None

    def test_bucket_corrs_names_bucket_and_role(self, snap):
        with pytest.raises(MissingDataError) as info:
            bucket_corrs(_query("AUD/CAD", "DKK/CHF", 0.0, 1.0), snap, [0.5, 1.0])
        assert str(info.value) == (
            "bucket 0 (0.0, 0.5]: no vol term structure for pair DKK/CHF (needed over (0.0, 0.5])"
        )
        cause = info.value.__cause__
        assert type(cause) is MissingDataError
        assert str(cause) == "no vol term structure for pair DKK/CHF (needed over (0.0, 0.5])"
        assert str(cause.__cause__) == "no vol term structure for pair DKK/CHF"

    def test_first_missing_role_is_reported(self, snap):
        # DKK/CHF vs AUD/CAD: the missing pair is now the first role, sigma_ij
        with pytest.raises(MissingDataError, match=r"pair DKK/CHF \(needed over \(0.5, 2.0\]\)"):
            implied_corr(_query("DKK/CHF", "AUD/CAD", 0.5, 2.0), snap)

    def test_degenerate_query_needs_no_vol(self, snap):
        res = implied_corr(_query("DKK/CHF", "CHF/DKK", 0.0, 1.0), snap)
        assert (res.value, res.provenance.formula, res.provenance.vols) == (-1.0, "degenerate", ())

    def test_zero_vol_pair_needs_no_lookup(self, snap):
        # AUD/CHF vs CAD/CHF share their foreign currency: sigma_jk is the
        # "pair" CHF/CHF, a zero vol rather than a lookup
        res = implied_corr(_query("AUD/CHF", "CAD/CHF", 0.0, 1.0), snap)
        jk = [v for v in res.provenance.vols if v.role == "sigma_jk"]
        assert [(v.pair, v.sigma) for v in jk] == [("CHF/CHF", 0.0)]

def test_term_corr_beyond_last_quote_warns_per_role_and_bucket():
    # GBP/JPY vs USD/EUR is a cross query on four currencies: 6 vols.  Each
    # vol's total variance is read once at each breakpoint, and 2.5 and 4
    # lie beyond T=2: 12 warnings, each with its own message.
    snap = load_snapshot(WORLD)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        term_corr(_query("GBP/JPY", "USD/EUR", 0.0, 4.0), snap, [0.5, 2.5, 4])
    assert [w.category for w in caught] == [ExtrapolationWarning] * 12
    assert len({str(w.message) for w in caught}) == 12


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    PINS.write_text(json.dumps(outputs(), indent=1) + "\n")
