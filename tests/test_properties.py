"""Round-trip properties of the two documents on generated valid inputs."""

import itertools

from hypothesis import given, settings, strategies as st

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
