"""Round-trip properties of the two documents on generated valid inputs, and the
exactness of the barrier evaluator's knock-in/knock-out split."""

import itertools
import sys

from hypothesis import example, given, settings, strategies as st

from fxcorr import (
    BarrierPayoff,
    BasketPayoff,
    Currency,
    FxPair,
    MarketSnapshot,
    RateCurve,
    VanillaPayoff,
    VolTermStructure,
    loads_snapshot,
    payoff_from_dict,
    payoff_to_dict,
)

CODES = ["AUD", "CAD", "EUR", "JPY", "USD"]
PAIRS = [FxPair.parse(f"{a}/{b}") for a, b in itertools.permutations(CODES, 2)]

deterministic = settings(derandomize=True, deadline=None, max_examples=200)

positive = st.floats(min_value=1e-4, max_value=1e4)
kinds = st.sampled_from(["call", "put"])


@st.composite
def times(draw, max_size=5):
    """Strictly increasing, finite, positive times."""
    return tuple(sorted(draw(st.sets(st.floats(min_value=1e-3, max_value=30.0), min_size=1,
                                     max_size=max_size))))


@st.composite
def vol_points(draw):
    # vols that never fall over increasing maturities keep total variance
    # non-decreasing, rounding included
    maturities = draw(times())
    vols = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=2.0),
                                min_size=len(maturities), max_size=len(maturities))))
    return tuple(zip(maturities, vols))


@st.composite
def snapshots(draw):
    currencies = draw(st.lists(st.sampled_from(CODES), min_size=2, max_size=5, unique=True))
    # each currency pair at most once, in either orientation
    pairs = [FxPair.parse(f"{a}/{b}" if draw(st.booleans()) else f"{b}/{a}")
             for a, b in itertools.combinations(currencies, 2)]
    spots = {pair: draw(positive) for pair in draw(st.lists(st.sampled_from(pairs), unique=True))}
    vols = {pair: VolTermStructure(pair, draw(vol_points()))
            for pair in draw(st.lists(st.sampled_from(pairs), unique=True))}
    rates = {}
    for code in currencies:
        maturities = draw(times())
        values = draw(st.lists(st.floats(min_value=-0.1, max_value=0.3),
                               min_size=len(maturities), max_size=len(maturities)))
        rates[Currency(code)] = RateCurve(Currency(code), tuple(zip(maturities, values)))
    return MarketSnapshot(spots, vols, rates, as_of=draw(st.text(max_size=12)))


@st.composite
def payoffs(draw):
    strike, kind = draw(positive), draw(kinds)
    shape = draw(st.sampled_from(["vanilla", "basket", "barrier"]))
    if shape == "vanilla":
        return VanillaPayoff(draw(st.sampled_from(PAIRS)), strike, kind)
    if shape == "basket":
        denominating = draw(st.sampled_from(CODES))
        legs = draw(st.lists(st.sampled_from([c for c in CODES if c != denominating]),
                             min_size=1, unique=True))
        weights = st.floats(min_value=-10.0, max_value=10.0)
        return BasketPayoff({FxPair.parse(f"{denominating}/{c}"): draw(weights) for c in legs},
                            strike, kind)
    return BarrierPayoff(
        draw(st.sampled_from(PAIRS)), strike, kind, draw(st.sampled_from(PAIRS)), draw(positive),
        draw(st.sampled_from(["up", "down"])), draw(st.sampled_from(["knock-in", "knock-out"])),
        draw(st.none() | times()),
    )


class TestRoundTrips:
    @deterministic
    @given(snapshots())
    def test_snapshot_document(self, snapshot):
        text = snapshot.dumps()
        assert loads_snapshot(text).dumps() == text

    @deterministic
    @given(payoffs())
    def test_payoff_document(self, payoff):
        assert payoff_from_dict(payoff_to_dict(payoff)) == payoff


class TestKnockShares:
    """A bridged barrier path of value v pays v (4 - hits) / 4 as a knock-out and v less that as a
    knock-in (``montecarlo._payoff_evaluator``), hits the number of its four bridges that breach: the
    two always add up to v, subnormal and near-overflow values included."""

    @deterministic
    @given(st.floats(min_value=0.0, allow_infinity=False), st.integers(min_value=0, max_value=4))
    @example(5e-324, 2)  # v (2/4) + v (2/4) would be 0: 5e-324 / 2 rounds to even, down
    @example(3 * 5e-324, 1)
    @example(sys.float_info.min * (1 + 2**-52), 1)  # a normal v whose v / 4 is subnormal
    @example(sys.float_info.max, 1)
    @example(sys.float_info.max, 3)
    def test_knock_in_plus_knock_out_is_the_value(self, v, hits):
        knock_out = v * ((4 - hits) / 4)
        knock_in = v - knock_out
        assert 0.0 <= knock_in <= v and knock_in + knock_out == v
