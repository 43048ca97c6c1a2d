import json
import math

import numpy as np
import pytest

from fxcorr import (
    BarrierPayoff,
    BasketPayoff,
    BucketedCorrelationMatrix,
    BucketStatus,
    CalendarArbitrageError,
    CorrQuery,
    Currency,
    ExtrapolationWarning,
    FxPair,
    MarketSnapshot,
    MissingDataError,
    PiecewiseConstant,
    PricingInputs,
    RateCurve,
    SchemaError,
    SimulationConfig,
    ValidationError,
    VanillaPayoff,
    VanillaSpec,
    VolTermStructure,
    bucket_corrs,
    build_matrix,
    canonicalize,
    check_spot_triangles,
    cross_corr,
    forward,
    forward_vol,
    horizon_vol,
    implied_vol,
    load_snapshot,
    loads_snapshot,
    payoff_from_dict,
    price,
    simulate_increments,
    term_corr,
    total_variance,
    triangle_corr,
)

from fxcorr.market_data import _loads_json

from conftest import json_with_huge_integer, snapshot_doc, three_ccy_doc


EUR = Currency("EUR")
USD = Currency("USD")
JPY = Currency("JPY")


class TestCurrencyAndPair:
    def test_currency_code_validation(self):
        assert Currency("USD").code == "USD"
        for bad in ["usd", "US", "USDX", "U$D", ""]:
            with pytest.raises(ValidationError):
                Currency(bad)

    def test_pair_parse_and_label(self):
        pair = FxPair.parse("EUR/USD")
        assert pair.denominating == EUR
        assert pair.foreign == USD
        assert pair.label == "EUR/USD"

    def test_pair_currencies_must_differ(self):
        with pytest.raises(ValidationError):
            FxPair(EUR, EUR)
        with pytest.raises(ValidationError):
            FxPair.parse("EURUSD")

    @pytest.mark.parametrize("bad", [5, None, ("EUR", "USD")])
    def test_pair_parse_rejects_a_non_string(self, bad):
        with pytest.raises(ValidationError, match="pair label must look like 'EUR/USD'"):
            FxPair.parse(bad)

    def test_document_pair_must_be_a_string(self):
        doc = three_ccy_doc()
        doc["spots"][0]["pair"] = 5
        with pytest.raises(SchemaError, match="expected a string") as info:
            loads_snapshot(json.dumps(doc))
        assert info.value.field == "spots[0].pair"

    def test_double_inverse_is_identity(self):
        pair = FxPair(EUR, USD)
        assert pair.inverse().inverse() == pair

    def test_canonicalize_orders_lexicographically(self):
        canon, flipped = canonicalize(FxPair(USD, EUR))
        assert canon == FxPair(EUR, USD)
        assert flipped is True
        canon, flipped = canonicalize(FxPair(EUR, USD))
        assert canon == FxPair(EUR, USD)
        assert flipped is False

    def test_canonicalize_idempotent(self):
        for label in ["EUR/USD", "USD/EUR", "JPY/USD", "USD/JPY"]:
            canon, _ = canonicalize(FxPair.parse(label))
            again, flipped = canonicalize(canon)
            assert again == canon
            assert flipped is False

    def test_canonicalize_maps_inverses_together(self):
        pair = FxPair(USD, JPY)
        canon_a, flip_a = canonicalize(pair)
        canon_b, flip_b = canonicalize(pair.inverse())
        assert canon_a == canon_b
        assert flip_a != flip_b


class TestVolTermStructure:
    def test_maturities_strictly_increasing(self):
        with pytest.raises(ValidationError):
            VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1), (1.0, 0.2)))

    def test_calendar_arbitrage_rejected(self):
        # 0.2^2 * 1 > 0.1^2 * 2: total variance falls
        with pytest.raises(CalendarArbitrageError):
            VolTermStructure(FxPair(EUR, USD), ((1.0, 0.2), (2.0, 0.1)))

    def test_total_variance_at_quotes(self):
        ts = VolTermStructure(FxPair(EUR, USD), ((1.0, 0.10), (2.0, 0.12)))
        assert ts.total_variance(1.0) == pytest.approx(0.01, rel=1e-15)
        assert ts.total_variance(2.0) == pytest.approx(0.0288, rel=1e-15)

    def test_total_variance_interpolates_linearly(self):
        ts = VolTermStructure(FxPair(EUR, USD), ((1.0, 0.10), (2.0, 0.12)))
        mid = ts.total_variance(1.5)
        assert mid == pytest.approx(0.5 * (0.01 + 0.0288), rel=1e-14)

    def test_total_variance_below_first_quote_flat_vol(self):
        ts = VolTermStructure(FxPair(EUR, USD), ((1.0, 0.10),))
        assert ts.total_variance(0.25) == pytest.approx(0.01 * 0.25, rel=1e-15)
        assert ts.vol(0.25) == pytest.approx(0.10, rel=1e-12)

    def test_total_variance_extrapolates_with_warning(self):
        ts = VolTermStructure(FxPair(EUR, USD), ((1.0, 0.10), (2.0, 0.12)))
        with pytest.warns(ExtrapolationWarning):
            tv = ts.total_variance(3.0)
        # last bucket's instantaneous variance rate continues flat
        assert tv == pytest.approx(0.0288 + (0.0288 - 0.01), rel=1e-12)

    @pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan])
    def test_total_variance_needs_a_positive_maturity(self, maturity):
        ts = VolTermStructure(FxPair(EUR, USD), ((1.0, 0.10),))
        with pytest.raises(ValidationError, match="maturity must be > 0"):
            ts.total_variance(maturity)


class TestRateCurve:
    def test_interpolates_integrated_rate(self):
        curve = RateCurve(EUR, ((1.0, 0.02), (2.0, 0.03)))
        # r*T between knots is linear: at T=1.5, (0.02 + 0.06)/2 = 0.04
        assert curve.integrated(1.5) == pytest.approx(0.04, rel=1e-14)
        assert curve.average(1.5) == pytest.approx(0.04 / 1.5, rel=1e-14)

    def test_flat_average_rate_outside_knots(self):
        curve = RateCurve(EUR, ((1.0, 0.02), (2.0, 0.03)))
        assert curve.average(0.5) == pytest.approx(0.02, rel=1e-14)
        assert curve.average(5.0) == pytest.approx(0.03, rel=1e-14)

    def test_increasing_maturities_required(self):
        with pytest.raises(ValidationError):
            RateCurve(EUR, ((1.0, 0.02), (1.0, 0.03)))

    @pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan])
    def test_integrated_needs_a_positive_maturity(self, maturity):
        with pytest.raises(ValidationError, match="maturity must be > 0"):
            RateCurve(EUR, ((1.0, 0.02),)).integrated(maturity)


class TestMarketSnapshot:
    def test_spot_lookup_both_orientations(self, three_ccy_snapshot):
        snap = three_ccy_snapshot
        assert snap.spot(FxPair(EUR, USD)) == 1.25
        assert snap.spot(FxPair(USD, EUR)) == 1.0 / 1.25

    def test_vol_lookup_is_orientation_invariant(self, three_ccy_snapshot):
        snap = three_ccy_snapshot
        a = snap.vol_structure(FxPair(EUR, USD))
        b = snap.vol_structure(FxPair(USD, EUR))
        assert a is b

    def test_missing_pair_raises(self, three_ccy_snapshot):
        with pytest.raises(MissingDataError):
            three_ccy_snapshot.spot(FxPair.parse("GBP/USD"))
        with pytest.raises(MissingDataError):
            three_ccy_snapshot.vol_structure(FxPair.parse("GBP/USD"))

    def test_all_currencies_need_rate_curves(self):
        pair = FxPair(EUR, USD)
        vols = {pair: VolTermStructure(pair, ((1.0, 0.1),))}
        with pytest.raises(ValidationError, match="rate curve"):
            MarketSnapshot({pair: 1.25}, vols, {EUR: RateCurve(EUR, ((1.0, 0.02),))})

    def test_inconsistent_inverse_spots_rejected(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25, "USD/EUR": 0.9},
            vols={"EUR/USD": [(1.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        with pytest.raises(ValidationError, match="inconsistent spots"):
            loads_snapshot(json.dumps(doc))

    def test_consistent_inverse_spots_accepted(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25, "USD/EUR": 0.8},
            vols={"EUR/USD": [(1.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        snap = loads_snapshot(json.dumps(doc))
        assert snap.spot(FxPair(USD, EUR)) == 0.8

    def test_inverse_vols_must_agree(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.1)], "USD/EUR": [(1.0, 0.11)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        with pytest.raises(ValidationError, match="inverse-pair vols"):
            loads_snapshot(json.dumps(doc))

    def test_canonical_entry_listed_second_is_kept(self):
        # USD/EUR is listed first and agrees within tolerance; the canonical
        # EUR/USD entries that follow replace it, spot and vol alike.
        doc = snapshot_doc(
            spots={"USD/EUR": 0.8000000000001, "EUR/USD": 1.25},
            vols={"USD/EUR": [(1.0, 0.1000000000001)], "EUR/USD": [(1.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        snap = loads_snapshot(json.dumps(doc))
        assert snap.spots == {FxPair(EUR, USD): 1.25}
        assert snap.spot(FxPair(EUR, USD)) == 1.25
        assert snap.spot(FxPair(USD, EUR)) == 1 / 1.25
        assert snap.vols[FxPair(EUR, USD)].points == ((1.0, 0.1),)
        assert snap.vol_structure(FxPair(USD, EUR)).points == ((1.0, 0.1),)

    def test_flipped_vol_structure_is_restated_canonically(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"USD/EUR": [(1.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        snap = loads_snapshot(json.dumps(doc))
        assert list(snap.vols) == [FxPair(EUR, USD)]
        assert snap.vols[FxPair(EUR, USD)].pair == FxPair(EUR, USD)

    def test_invalid_entry_is_reported_before_disagreeing_orientations(self):
        ts = VolTermStructure(FxPair(EUR, JPY), ((1.0, 0.1),))
        rates = {c: RateCurve(c, ((1.0, 0.0),)) for c in (EUR, USD, JPY)}
        spots = {FxPair(EUR, USD): 1.25, FxPair(USD, EUR): 0.9}
        with pytest.raises(ValidationError, match="registered under"):
            MarketSnapshot(spots, {FxPair(EUR, USD): ts}, rates)

    def test_missing_rate_curve_raises(self, three_ccy_snapshot):
        with pytest.raises(MissingDataError, match="no rate curve for currency GBP"):
            three_ccy_snapshot.rate_curve(Currency("GBP"))

    def test_inverse_vols_must_quote_the_same_maturities(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.1)], "USD/EUR": [(1.0, 0.1), (2.0, 0.1)]},
            rates={"EUR": [(2.0, 0.0)], "USD": [(2.0, 0.0)]},
        )
        with pytest.raises(ValidationError, match="pair and inverse quote different maturities"):
            loads_snapshot(json.dumps(doc))

    def test_structure_registered_under_another_pair_rejected(self):
        ts = VolTermStructure(FxPair(EUR, JPY), ((1.0, 0.1),))
        rates = {c: RateCurve(c, ((1.0, 0.0),)) for c in (EUR, USD, JPY)}
        with pytest.raises(ValidationError, match="term structure for EUR/JPY registered under EUR/USD"):
            MarketSnapshot({}, {FxPair(EUR, USD): ts}, rates)

    def test_rate_curve_registered_under_another_currency_rejected(self):
        # filed under EUR, USD's curve would answer every EUR rate query
        rates = {EUR: RateCurve(USD, ((1.0, 0.03),)), USD: RateCurve(USD, ((1.0, 0.03),))}
        with pytest.raises(ValidationError, match="rate curve for USD registered under EUR"):
            MarketSnapshot({FxPair(EUR, USD): 1.2}, {}, rates)


class TestSnapshotDocument:
    def test_round_trip_is_bit_identical(self):
        snap = loads_snapshot(json.dumps(three_ccy_doc()))
        again = loads_snapshot(snap.dumps())
        assert again.spots == snap.spots
        for pair in snap.vols:
            assert again.vols[pair].points == snap.vols[pair].points
        for ccy in snap.rates:
            assert again.rates[ccy].points == snap.rates[ccy].points
        assert again.dumps() == snap.dumps()

    def test_unknown_key_rejected(self):
        doc = three_ccy_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown key"):
            loads_snapshot(json.dumps(doc))

    def test_unknown_nested_key_names_field(self):
        doc = three_ccy_doc()
        doc["vols"][0]["smile"] = []
        with pytest.raises(SchemaError, match=r"vols\[0\]"):
            loads_snapshot(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = three_ccy_doc()
        del doc["rates"]
        with pytest.raises(SchemaError, match="missing key"):
            loads_snapshot(json.dumps(doc))

    def test_bad_number_type_names_field(self):
        doc = three_ccy_doc()
        doc["spots"][0]["value"] = "1.25"
        with pytest.raises(SchemaError, match=r"spots\[0\]\.value"):
            loads_snapshot(json.dumps(doc))

    def test_syntax_error_reports_line(self):
        with pytest.raises(SchemaError, match="line"):
            loads_snapshot('{\n "spots": [,]\n}')

    def test_duplicate_pair_rejected(self):
        doc = three_ccy_doc()
        doc["spots"].append({"pair": "EUR/USD", "value": 1.25})
        with pytest.raises(SchemaError, match="duplicate"):
            loads_snapshot(json.dumps(doc))

    def test_calendar_arbitrage_on_load(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25},
            vols={"EUR/USD": [(1.0, 0.2), (2.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)]},
        )
        with pytest.raises(CalendarArbitrageError, match="calendar arbitrage"):
            loads_snapshot(json.dumps(doc))


class TestSpotTriangles:
    def test_consistent_triple_has_no_violation(self, three_ccy_snapshot):
        assert check_spot_triangles(three_ccy_snapshot, 1e-10) == []

    def test_violation_magnitude(self):
        # EUR/JPY quoted 130 vs implied 1.25 * 100 = 125: off by 130/125 - 1
        doc = three_ccy_doc()
        doc["spots"][1]["value"] = 130.0
        snap = loads_snapshot(json.dumps(doc))
        violations = check_spot_triangles(snap, 1e-8)
        assert len(violations) == 1
        assert violations[0].magnitude == pytest.approx(0.04, rel=1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, three_ccy_snapshot, tol):
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            check_spot_triangles(three_ccy_snapshot, tol)

    def test_two_pairs_no_complete_triangle(self):
        doc = snapshot_doc(
            spots={"EUR/USD": 1.25, "EUR/JPY": 125.0},
            vols={"EUR/USD": [(1.0, 0.1)]},
            rates={"EUR": [(1.0, 0.0)], "USD": [(1.0, 0.0)], "JPY": [(1.0, 0.0)]},
        )
        snap = loads_snapshot(json.dumps(doc))
        assert check_spot_triangles(snap, 1e-10) == []


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("section, index, key, field", [
        ("vols", 0, "sigma", r"vols\[0\]\.points\[0\]\.sigma"),
        ("vols", 1, "T", r"vols\[0\]\.points\[1\]\.T"),
        ("rates", 0, "r", r"rates\[0\]\.points\[0\]\.r"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_point_fields_rejected(self, section, index, key, field, bad):
        doc = three_ccy_doc()
        doc[section][0]["points"][index][key] = bad
        with pytest.raises(SchemaError, match=field):
            loads_snapshot(json.dumps(doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_spot_rejected(self, bad):
        doc = three_ccy_doc()
        doc["spots"][1]["value"] = bad
        with pytest.raises(SchemaError, match=r"spots\[1\]\.value"):
            loads_snapshot(json.dumps(doc))


class TestUndecodableText:
    def test_huge_integer_spot_is_a_schema_error(self):
        doc = three_ccy_doc()
        doc["spots"][0]["value"] = "HUGE"
        with pytest.raises(SchemaError, match="invalid JSON"):
            loads_snapshot(json_with_huge_integer(doc))

    def test_deep_nesting_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            loads_snapshot("[" * 100_000)


def _parse_edited_snapshot(edit):
    doc = three_ccy_doc()
    edit(doc)
    return lambda: loads_snapshot(json.dumps(doc))


def _parse_payoff(doc):
    return lambda: payoff_from_dict(doc)


class TestFieldPaths:
    """``SchemaError.field`` is the path of the offending key in both documents."""

    @pytest.mark.parametrize("parse, field", [
        pytest.param(_parse_payoff({"type": "basket", "strike": 1.0, "kind": "call",
                                    "weights": [{"pair": 5, "weight": 1.0}]}),
                     "weights[0].pair", id="basket-pair-not-a-string"),
        pytest.param(_parse_payoff({"type": "vanilla", "pair": "EURUSD", "strike": 1.25,
                                    "kind": "call"}),
                     "pair", id="malformed-pair"),
        pytest.param(_parse_payoff({"type": "barrier", "payoff_pair": "EUR/USD", "strike": 1.25,
                                    "kind": "call", "barrier_pair": "JPYUSD",
                                    "barrier_level": 0.0115, "direction": "up",
                                    "style": "knock-out"}),
                     "barrier_pair", id="malformed-barrier-pair"),
        pytest.param(_parse_edited_snapshot(lambda d: d["vols"][0].update(smile=[])),
                     "vols[0].smile", id="unknown-nested-key"),
        pytest.param(_parse_edited_snapshot(lambda d: d.update(extra=1)),
                     "extra", id="unknown-top-level-key"),
        pytest.param(_parse_edited_snapshot(lambda d: d["vols"][0].pop("points")),
                     "vols[0].points", id="missing-nested-key"),
        pytest.param(_parse_edited_snapshot(lambda d: d.pop("rates")),
                     "rates", id="missing-top-level-key"),
    ])
    def test_field_is_the_key_path(self, parse, field):
        with pytest.raises(SchemaError) as exc:
            parse()
        assert exc.value.field == field


class TestDuplicateKeys:
    """A key given twice in one object is a SchemaError at its path: the last value is not kept."""

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda d: d.update(DUP=[]), "spots", id="top-level"),
        pytest.param(lambda d: d["vols"][0]["points"][1].update(DUP=0.3), "vols[0].points[1].sigma", id="nested"),
    ])
    def test_snapshot_key_given_twice(self, edit, field):
        doc = three_ccy_doc()
        edit(doc)
        key = field.rsplit(".", 1)[-1]
        with pytest.raises(SchemaError, match=f"duplicate key '{key}'") as exc:
            loads_snapshot(json.dumps(doc).replace('"DUP"', f'"{key}"'))
        assert exc.value.field == field

    def test_payoff_key_given_twice(self):
        text = '{"type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call", "strike": 1.5}'
        with pytest.raises(SchemaError, match="duplicate key 'strike'") as exc:
            payoff_from_dict(_loads_json(text))
        assert exc.value.field == "strike"


class TestUndecodableFile:
    def test_non_utf8_snapshot_file_is_a_schema_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_bytes(b"\xff" + json.dumps(three_ccy_doc()).encode())
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_snapshot(path)


class TestNonFiniteConstructors:
    """The Python constructors reject what the document reader rejects."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_rate(self, bad):
        with pytest.raises(ValidationError, match="rate must be finite"):
            RateCurve(EUR, ((1.0, 0.02), (2.0, bad)))

    @pytest.mark.parametrize("bad", BAD)
    def test_rate_maturity(self, bad):
        with pytest.raises(ValidationError, match="EUR rate maturities must be finite"):
            RateCurve(EUR, ((1.0, 0.02), (bad, 0.03)))

    @pytest.mark.parametrize("bad", BAD)
    def test_vol_maturity(self, bad):
        with pytest.raises(ValidationError, match="EUR/USD vol maturities must be finite"):
            VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1), (bad, 0.1)))

    @pytest.mark.parametrize("bad", BAD)
    def test_vol(self, bad):
        with pytest.raises(ValidationError, match="vol must be finite and >= 0"):
            VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1), (2.0, bad)))

    @pytest.mark.parametrize("bad", [math.inf, 1e-310])  # 1 / 1e-310 overflows
    @pytest.mark.parametrize("flip", [False, True])
    def test_spot(self, flip, bad):
        pair = FxPair(USD, EUR) if flip else FxPair(EUR, USD)
        rates = {c: RateCurve(c, ((1.0, 0.0),)) for c in (EUR, USD)}
        with pytest.raises(ValidationError, match="must be positive and finite"):
            MarketSnapshot({pair: bad}, {}, rates)

    def test_empty_curves(self):
        with pytest.raises(ValidationError, match="EUR rate maturities must contain at least one time"):
            RateCurve(EUR, ())
        with pytest.raises(ValidationError, match="EUR/USD vol maturities must contain at least one time"):
            VolTermStructure(FxPair(EUR, USD), ())


class TestStoredPoints:
    """Curve points are stored as a tuple of tuples, whatever sequence is given."""

    @pytest.mark.parametrize("make", [lambda pts: [list(p) for p in pts], np.array], ids=["lists", "array"])
    def test_vol_points(self, make):
        points = ((0.5, 0.1), (1.0, 0.12))
        curve = VolTermStructure(FxPair(EUR, USD), make(points))
        expected = VolTermStructure(FxPair(EUR, USD), points)
        assert type(curve.points) is tuple and all(type(p) is tuple for p in curve.points)
        assert curve == expected and hash(curve) == hash(expected)
        assert curve.total_variance(0.75) == expected.total_variance(0.75)

    @pytest.mark.parametrize("make", [lambda pts: [list(p) for p in pts], np.array], ids=["lists", "array"])
    def test_rate_points(self, make):
        points = ((0.5, 0.01), (1.0, 0.02))
        curve = RateCurve(EUR, make(points))
        expected = RateCurve(EUR, points)
        assert type(curve.points) is tuple and all(type(p) is tuple for p in curve.points)
        assert curve == expected and hash(curve) == hash(expected)
        assert curve.integrated(0.75) == expected.integrated(0.75)


class TestBoolTimes:
    """Every time list goes through one check, which rejects bools as the
    document reader does."""

    @pytest.mark.parametrize("make, what", [
        (lambda: SimulationConfig(100, 1, (True,)), "grid"),
        (lambda: SimulationConfig(100, 1, (0.5, True, 2.0)), "grid"),
        (lambda: VolTermStructure(FxPair(EUR, USD), ((True, 0.1),)), "EUR/USD vol maturities"),
        (lambda: RateCurve(EUR, ((True, 0.02),)), "EUR rate maturities"),
        (lambda: PiecewiseConstant((0.0, True), (0.1,)), "breakpoints"),
        (lambda: total_variance(PiecewiseConstant((0.0, 1.0), (0.1,)), True), "horizon"),
        (lambda: SimulationConfig(100, 1, ("1",)), "grid"),
    ], ids=["grid", "grid-middle", "vol-maturity", "rate-maturity", "breakpoint", "horizon", "grid-str"])
    def test_rejected(self, make, what):
        with pytest.raises(ValidationError, match=f"{what} must be finite, > 0 and strictly increasing"):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: VanillaSpec(FxPair(EUR, USD), 1.0, True, "call"), "maturity must be positive and finite"),
        (lambda: forward(1.0, 0.01, 0.0, True), "maturity must be positive"),
        (lambda: horizon_vol(VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1),)), 0.0, True),
         "need 0 <= start < end"),
        (lambda: forward_vol(0.1, 0.1, 0.0, True), "need 0 <= t_near < t_far"),
        (lambda: CorrQuery.total(FxPair(EUR, USD), FxPair(EUR, JPY), True), "horizon"),
        (lambda: RateCurve(EUR, ((1.0, 0.02),)).integrated(True), "maturity must be > 0"),
        (lambda: RateCurve(EUR, ((1.0, 0.02),)).average(True), "maturity must be > 0"),
        (lambda: VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1),)).total_variance(True), "maturity must be > 0"),
        (lambda: VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1),)).vol(True), "maturity must be > 0"),
        (lambda: PiecewiseConstant((0.0, 1.0), (0.1,)).value_at(True), "t must be > 0"),
        (lambda: loads_snapshot(json.dumps(three_ccy_doc())).average_rate(EUR, True), "maturity must be > 0"),
        (lambda: PricingInputs(True, 0.0, 0.0, 0.1), "spot must be positive and finite, got True"),
        (lambda: PricingInputs(1.0, 0.0, 0.0, True), "sigma must be finite and >= 0, got True"),
    ], ids=["vanilla-spec", "forward", "horizon-vol", "forward-vol", "corr-query",
            "integrated", "average", "total-variance", "vol", "value-at", "average-rate", "spot", "sigma"])
    def test_single_time_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    @pytest.mark.parametrize("buckets", [[True], [0.5, True], "12", ["1"]],
                             ids=["true", "true-last", "str", "strs"])
    def test_bucket_boundaries_must_be_numbers(self, buckets):
        # float() would take each of these, and the build would run on (0, 1] or (0, 1], (1, 2]
        snapshot = loads_snapshot(json.dumps(three_ccy_doc()))
        pairs = [FxPair(EUR, USD), FxPair(EUR, JPY)]
        for build in (lambda: build_matrix(pairs, snapshot, buckets),
                      lambda: term_corr(CorrQuery.total(*pairs, 1.0), snapshot, buckets)):
            with pytest.raises(ValidationError, match="bucket boundaries must be numbers"):
                build()


class TestTimeLists:
    """A scalar or None where a list of times belongs is bad input, rejected
    by the one time-list rule, not a TypeError."""

    @pytest.mark.parametrize("make, what", [
        (lambda s, a, b: term_corr(CorrQuery.total(a, b, 1.0), s, 1.0), "bucket boundaries"),
        (lambda s, a, b: bucket_corrs(CorrQuery.total(a, b, 1.0), s, None), "bucket boundaries"),
        (lambda s, a, b: build_matrix([a, b], s, 1.0), "bucket boundaries"),
        (lambda s, a, b: SimulationConfig(10, 1, 1.0), "grid"),
        (lambda s, a, b: BarrierPayoff(a, 1.2, "call", b, 140.0, "up", "knock-out", monitoring=1.0),
         "monitoring times"),
    ], ids=["term-corr", "bucket-corrs", "build-matrix", "simulation-grid", "barrier-monitoring"])
    def test_rejected(self, make, what):
        snapshot = loads_snapshot(json.dumps(three_ccy_doc()))
        with pytest.raises(ValidationError, match=f"^{what} must be a sequence of times, got (1.0|None)$"):
            make(snapshot, FxPair(EUR, USD), FxPair(EUR, JPY))


def _matrix(breakpoints, n=1):
    return BucketedCorrelationMatrix(("EUR/USD",), breakpoints, (np.eye(1),) * n, (BucketStatus("psd", 1.0),) * n)


def _override(vol):
    return {FxPair(EUR, USD): PiecewiseConstant((0.0, 1.0), (vol,))}


VANILLA = VanillaPayoff(FxPair(EUR, USD), 1.25, "call")
ONE_STEP = SimulationConfig(10, 1, (1.0,))
STEP_VALUES = r"^step values must be real numbers, not bools or strings, got "


class TestBucketedInputs:
    """Every bucketed or time-list input is checked where it enters: a bad one
    raises ValidationError naming it, never TypeError or ValueError."""

    @pytest.mark.parametrize("make, message", [
        (lambda s: PiecewiseConstant(1.0, (0.1,)), r"^breakpoints must be a sequence of times, got 1.0$"),
        (lambda s: PiecewiseConstant(None, (0.1,)), r"^breakpoints must be a sequence of times, got None$"),
        (lambda s: PiecewiseConstant((0.0, "1.0"), (0.1,)), "breakpoints must be finite, > 0 and strictly"),
        (lambda s: PiecewiseConstant((0.0, 1.0), 0.1), r"^1 buckets need 1 values, got 0.1$"),
        (lambda s: PiecewiseConstant((0.0, 1.0), None), r"^1 buckets need 1 values, got None$"),
        (lambda s: _matrix(1.0), r"^breakpoints must be a sequence of times, got 1.0$"),
        (lambda s: _matrix((0.5, 1.0, 2.0), 2), r"must start at 0, got \(0.5, 1.0, 2.0\)"),
        (lambda s: _matrix((-1.0, 1.0)), r"must start at 0, got \(-1.0, 1.0\)"),
        (lambda s: _matrix((math.nan, 1.0)), r"must start at 0, got \(nan, 1.0\)"),
        (lambda s: VolTermStructure(FxPair(EUR, USD), 1.0), r"^EUR/USD vol points must be \(T, value\) pairs, got 1.0"),
        (lambda s: VolTermStructure(FxPair(EUR, USD), ((1.0,),)), r"^EUR/USD vol points must be \(T, value\) pairs"),
        (lambda s: VolTermStructure(FxPair(EUR, USD), ((1.0, 0.1, 2.0),)), "EUR/USD vol points must be"),
        (lambda s: RateCurve(EUR, None), r"^EUR rate points must be \(T, value\) pairs, got None$"),
        (lambda s: RateCurve(EUR, ((1.0,),)), r"^EUR rate points must be \(T, value\) pairs"),
        (lambda s: RateCurve(EUR, ((1.0, 0.02, 2.0),)), "EUR rate points must be"),
        (lambda s: price(VANILLA, s, ONE_STEP, vols=_override(True)), STEP_VALUES + r"\(True,\)$"),
        (lambda s: price(VANILLA, s, ONE_STEP, vols=_override("0.2")), STEP_VALUES + r"\('0.2',\)$"),
        (lambda s: simulate_increments([FxPair(EUR, USD)], _override(True), None, ONE_STEP),
         STEP_VALUES + r"\(True,\)$"),
        (lambda s: simulate_increments([FxPair(EUR, USD)], _override("0.2"), None, ONE_STEP),
         STEP_VALUES + r"\('0.2',\)$"),
        (lambda s: total_variance(PiecewiseConstant((0.0, 1.0), (True,)), 1.0), STEP_VALUES + r"\(True,\)$"),
        (lambda s: PiecewiseConstant((0.0, 1.0, 2.0), (0.1, "0.1")), STEP_VALUES + r"\(0.1, '0.1'\)$"),
        (lambda s: PiecewiseConstant((0.0, 1.0), np.array([True])), STEP_VALUES),
    ], ids=["step-breakpoints-scalar", "step-breakpoints-none", "step-breakpoints-str", "step-values-scalar",
            "step-values-none", "matrix-scalar", "matrix-start-0.5", "matrix-start-negative", "matrix-start-nan",
            "vol-points-scalar", "vol-points-short", "vol-points-long", "rate-points-none", "rate-points-short",
            "rate-points-long", "price-vol-true", "price-vol-str", "simulate-vol-true", "simulate-vol-str",
            "step-values-bool", "step-values-str", "step-values-bool-array"])
    def test_rejected(self, make, message):
        snapshot = loads_snapshot(json.dumps(three_ccy_doc()))
        with pytest.raises(ValidationError, match=message):
            make(snapshot)


class TestScalarRule:
    """Every scalar input goes through one rule: a real number, not a bool
    or a string, finite, and above 0 or at least 0 where the input needs it."""

    @pytest.mark.parametrize("make, message", [
        (lambda: VolTermStructure(FxPair(EUR, USD), ((1.0, True),)), "EUR/USD: vol must be finite and >= 0, got True"),
        (lambda: RateCurve(EUR, ((1.0, True),)), "EUR: rate must be finite, got True"),
        (lambda: forward(True, 0.0, 0.0, 1.0), "spot must be positive and finite, got True"),
        (lambda: forward_vol(True, 0.1, 0.0, 1.0), "vols must be finite and >= 0, got True"),
        (lambda: BasketPayoff({FxPair(EUR, USD): "1"}, 1.0, "call"), "basket weight of EUR/USD must be finite, got 1"),
        (lambda: VanillaPayoff(FxPair(EUR, USD), "1", "call"), "strike must be positive and finite, got 1"),
        (lambda: triangle_corr(0.1, 0.1, True), "cross vols must be finite and >= 0, got True"),
        (lambda: implied_vol(VanillaSpec(FxPair(EUR, USD), 1.0, 1.0, "call"), True, 1.0, 0.0, 0.0),
         "market price must be finite, got True"),
        (lambda: MarketSnapshot({FxPair(EUR, USD): True}, {},
                                {c: RateCurve(c, ((1.0, 0.0),)) for c in (EUR, USD)}),
         "spot for EUR/USD must be positive and finite, got True"),
        (lambda: MarketSnapshot({FxPair(EUR, USD): "1.25"}, {},
                                {c: RateCurve(c, ((1.0, 0.0),)) for c in (EUR, USD)}),
         "spot for EUR/USD must be positive and finite, got 1.25"),
        (lambda: cross_corr(True, 0.1, 0.1, 0.1, 0.1, 0.0), "queried vols must be real numbers"),
        (lambda: cross_corr(0.1, "0.1", 0.1, 0.1, 0.1, 0.0), "queried vols must be real numbers"),
        (lambda: triangle_corr(True, 0.1, 0.1), "queried vols must be real numbers"),
    ], ids=["structure-vol", "rate", "forward-spot", "forward-vol", "basket-weight",
            "payoff-strike", "triangle-cross-vol", "market-price", "spot-bool", "spot-string",
            "cross-queried-vol-bool", "cross-queried-vol-string", "triangle-queried-vol-bool"])
    def test_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


class TestEntryLists:
    """The record walker's messages and key paths, in both documents."""

    @pytest.mark.parametrize("parse, message, field", [
        pytest.param(_parse_edited_snapshot(lambda d: d.update(spots={})),
                     "expected a list", "spots", id="spots-not-a-list"),
        pytest.param(_parse_edited_snapshot(lambda d: d["rates"].__setitem__(1, 5)),
                     "expected an object", "rates[1]", id="rate-not-an-object"),
        pytest.param(_parse_edited_snapshot(lambda d: d["vols"][2].update(points=None)),
                     "expected a list", "vols[2].points", id="points-not-a-list"),
        pytest.param(_parse_edited_snapshot(lambda d: d["vols"][0]["points"].__setitem__(1, [])),
                     "expected an object", "vols[0].points[1]", id="point-not-an-object"),
        pytest.param(_parse_edited_snapshot(lambda d: d["rates"][0]["points"][0].pop("r")),
                     "missing key 'r'", "rates[0].points[0].r", id="point-missing-key"),
        pytest.param(_parse_edited_snapshot(lambda d: d["vols"].append(d["vols"][0])),
                     "duplicate vol structure for EUR/USD", "vols[3]", id="duplicate-vols"),
        pytest.param(_parse_edited_snapshot(lambda d: d["rates"].append(d["rates"][2])),
                     "duplicate rate curve for JPY", "rates[3]", id="duplicate-rates"),
        pytest.param(_parse_edited_snapshot(lambda d: d["rates"][0].update(currency="eur")),
                     "currency code must be", "rates[0].currency", id="bad-currency"),
        pytest.param(_parse_payoff({"type": "basket", "strike": 1.0, "kind": "call", "weights": []}),
                     "expected a non-empty list", "weights", id="weights-empty"),
        pytest.param(_parse_payoff({"type": "basket", "strike": 1.0, "kind": "call", "weights": 5}),
                     "expected a non-empty list", "weights", id="weights-not-a-list"),
        pytest.param(_parse_payoff({"type": "basket", "strike": 1.0, "kind": "call",
                                    "weights": [{"pair": "EUR/USD", "weight": 1.0}, "EUR/JPY"]}),
                     "expected an object", "weights[1]", id="weight-not-an-object"),
        pytest.param(_parse_payoff({"type": "basket", "strike": 1.0, "kind": "call",
                                    "weights": [{"pair": "EUR/USD", "weight": 1.0},
                                                {"pair": "EUR/USD", "weight": 2.0}]}),
                     "duplicate basket pair EUR/USD", "weights[1]", id="duplicate-weights"),
        pytest.param(_parse_payoff({"type": "barrier", "payoff_pair": "EUR/USD", "strike": 1.25,
                                    "kind": "call", "barrier_pair": "JPY/USD",
                                    "barrier_level": 0.0115, "direction": "up",
                                    "style": "knock-out", "monitoring": 1.0}),
                     "expected a list", "monitoring", id="monitoring-not-a-list"),
        pytest.param(lambda: loads_snapshot("[]"),
                     "top level must be an object", "$", id="snapshot-not-an-object"),
        pytest.param(_parse_payoff([]),
                     "payoff document must be an object", "$", id="payoff-not-an-object"),
    ])
    def test_message_and_field(self, parse, message, field):
        with pytest.raises(SchemaError, match=message) as exc:
            parse()
        assert exc.value.field == field
