"""Market inputs: currencies, FX pairs, vol term structures, and rate curves.

Pair convention (important): a pair is written ``"EUR/USD"`` with the
*denominating* currency first, so ``EUR/USD = 1.25`` means one US dollar
costs 1.25 euros.  This matches the rate X_{denominating/foreign} used by
every formula in the library, and is the opposite of the interbank ticker
convention for some pairs.  All storage is canonical (denominating =
lexicographically smaller code); both orientations are indexed when the
snapshot is built, through the identity X_{j/i} = 1/X_{i/j}, and implied
vols are orientation-invariant.

Snapshot file schema (JSON, strict — unknown keys and duplicate keys are rejected)::

    {
      "as_of": "2026-01-05",
      "spots": [{"pair": "EUR/USD", "value": 1.25}, ...],
      "vols":  [{"pair": "EUR/USD", "points": [{"T": 1.0, "sigma": 0.10}, ...]}, ...],
      "rates": [{"currency": "EUR", "points": [{"T": 1.0, "r": 0.02}, ...]}, ...]
    }

Maturities are plain year fractions; vols and rates are absolute
(0.10 = 10%).  Rates are already-averaged continuously compounded rates
r(T); missing maturities are filled by linear interpolation of r(T)*T
with flat extrapolation of r beyond the endpoints.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CalendarArbitrageError,
    ExtrapolationWarning,
    MissingDataError,
    SchemaError,
    ValidationError,
)

_CODE_RE = re.compile(r"^[A-Z]{3}$")

SPOT_INVERSE_TOL = 1e-10
VOL_INVERSE_TOL = 1e-10


def _interpolate(ts: Sequence[float], ys: Sequence[float], t: float) -> float:
    """Linear interpolation of the knots (ts, ys) at ts[0] < t <= ts[-1], kept between its two knots:
    rounding can carry it past the later one, and a span just below a knot would then read a falling
    total variance."""
    n = bisect_left(ts, t)
    if ts[n] == t:
        return ys[n]
    lo, hi = ys[n - 1], ys[n]
    value = lo + (t - ts[n - 1]) / (ts[n] - ts[n - 1]) * (hi - lo)
    return value if (value <= hi) == (lo <= hi) else hi  # rounding never carries it back past lo


def _time_list(times: Iterable[float], what: str) -> tuple:
    """A list of times as a tuple; a scalar or None is not one."""
    try:
        return tuple(times)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of times, got {times!r}") from None


def _check_times(times: Iterable[float], what: str) -> tuple[float, ...]:
    """The one check of a time list, as a tuple: non-empty, not bools, finite, > 0 and strictly increasing."""
    times = _time_list(times, what)
    if not times:
        raise ValidationError(f"{what} must contain at least one time")
    for prev, t in zip((0.0, *times), times):
        if not (_is_real(t) and prev < t < math.inf):
            raise ValidationError(f"{what} must be finite, > 0 and strictly increasing, got {times}")
    return times


def _check_points(points, what: str) -> tuple[tuple[float, float], ...]:
    """The one points rule of both curves: (T, value) pairs, from a list or an array of them, as tuples."""
    try:
        pairs = tuple(map(tuple, points))
    except TypeError:  # a scalar or None, or a flat list of numbers
        pairs = None
    if pairs is None or any(len(p) != 2 for p in pairs):
        raise ValidationError(f"{what} points must be (T, value) pairs, got {points!r}")
    return pairs


def _is_real(value) -> bool:
    """A real number, not a bool (a float passes first: the ABC check is far slower)."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(value, what: str, rule: str) -> None:
    """The one scalar-input rule: a real number, not a bool, below inf and, as
    ``rule`` (the message text) says, "finite", "finite and >= 0", or above 0
    ("positive and finite" or "> 0 and finite").  A float skips the call
    to _is_real: quote queries check every vol they read."""
    low = -math.inf if rule == "finite" else 0.0  # of the rules bounded by 0, only ">= 0" admits 0
    real = type(value) is float or _is_real(value)
    if not (real and low <= value < math.inf and (value > low or rule == "finite and >= 0")):
        raise ValidationError(f"{what} must be {rule}, got {value}")


def _check_strike_kind(strike, kind) -> None:
    """An option's strike and kind: a strike > 0 and finite, a kind "call" or "put"."""
    _check_real(strike, "strike", "positive and finite")
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be 'call' or 'put', got {kind!r}")


def _check_span(start, end, names: str = "start < end") -> None:
    """The one check of a span (start, end]: real numbers, not bools, 0 <= start < end < inf."""
    if not (_is_real(start) and _is_real(end) and 0 <= start < end < math.inf):
        raise ValidationError(f"need 0 <= {names} < inf, got ({start}, {end})")


def _warn(message: str, category: type[Warning]) -> None:
    """The one ``warnings.warn`` call: a notice names the first frame outside fxcorr's
    modules, ``fxcorr.cli`` counting as a caller, as pandas' ``find_stack_level`` does."""
    frame, level = sys._getframe(1), 2
    while (name := frame.f_globals.get("__name__", "")).startswith("fxcorr.") and name != "fxcorr.cli":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _warn_flat(what: str, horizon: float, t: float) -> None:
    """The one flat-extrapolation notice."""
    _warn(f"{what} extrapolated flat beyond T={horizon} to t={t}", ExtrapolationWarning)


@dataclass(frozen=True, order=True)
class Currency:
    """A currency identified by its 3-letter uppercase code."""

    code: str

    def __post_init__(self):
        if not isinstance(self.code, str) or not _CODE_RE.match(self.code):
            raise ValidationError(f"currency code must be 3 ASCII uppercase letters, got {self.code!r}")

    def __str__(self) -> str:
        return self.code


@dataclass(frozen=True)
class FxPair:
    """Ordered currency pair: one unit of ``foreign`` priced in ``denominating``."""

    denominating: Currency
    foreign: Currency

    def __post_init__(self):
        if self.denominating == self.foreign:
            raise ValidationError(f"pair currencies must differ, got {self.denominating}/{self.foreign}")

    @classmethod
    def parse(cls, label: str) -> "FxPair":
        """Parse a ``"EUR/USD"`` label (denominating first)."""
        parts = label.split("/") if isinstance(label, str) else ()
        if len(parts) != 2:
            raise ValidationError(f"pair label must look like 'EUR/USD', got {label!r}")
        return cls(Currency(parts[0]), Currency(parts[1]))

    def inverse(self) -> "FxPair":
        return FxPair(self.foreign, self.denominating)

    @property
    def label(self) -> str:
        return f"{self.denominating}/{self.foreign}"

    def __str__(self) -> str:
        return self.label


def canonicalize(pair: FxPair) -> tuple[FxPair, bool]:
    """Return the lexicographically ordered pair and whether it was flipped.

    The canonical orientation has the smaller currency code as the
    denominating currency.  Deterministic and idempotent.
    """
    if pair.denominating.code <= pair.foreign.code:
        return pair, False
    return pair.inverse(), True


@dataclass(frozen=True)
class VolTermStructure:
    """Implied vols sigma(0, T_n) for one pair at increasing maturities.

    Total variance sigma^2(0,T_n)*T_n must be non-decreasing in n
    (calendar-arbitrage-free), which is what makes the structure
    bootstrappable into forward vols.
    """

    pair: FxPair
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _check_points(self.points, f"{self.pair} vol"))
        _check_times(self.maturities, f"{self.pair} vol maturities")
        prev_t = 0.0
        prev_tv = 0.0
        for n, (t, sigma) in enumerate(self.points):
            _check_real(sigma, f"{self.pair}: vol", "finite and >= 0")
            tv = sigma * sigma * t
            if tv < prev_tv:
                raise CalendarArbitrageError(
                    f"{self.pair}: calendar arbitrage at point {n}: "
                    f"total variance falls from {prev_tv:.12g} (T={prev_t}) to {tv:.12g} (T={t})"
                )
            prev_t, prev_tv = t, tv
        # knots for total_variance, built once: it runs for every horizon vol
        object.__setattr__(self, "_knots", (self.maturities, [s * s * t for t, s in self.points]))

    @property
    def maturities(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    def total_variance(self, maturity: float) -> float:
        """Total variance sigma^2(0,T)*T at any T > 0.

        Linear interpolation in total variance between quotes; constant
        instantaneous vol below the first quote; flat extrapolation of the
        last bucket's instantaneous vol beyond the last quote (warns).
        """
        _check_real(maturity, "maturity", "> 0 and finite")
        return self._total_variance(maturity)

    def _total_variance(self, maturity: float) -> float:
        # total_variance without the maturity check
        ts, tvs = self._knots
        if maturity <= ts[0]:
            return tvs[0] / ts[0] * maturity
        if maturity > ts[-1]:
            _warn_flat(f"{self.pair}: vol term structure", ts[-1], maturity)
            t0, tv0 = (ts[-2], tvs[-2]) if len(ts) > 1 else (0.0, 0.0)  # the last bucket starts at 0 or a knot
            return tvs[-1] + (tvs[-1] - tv0) / (ts[-1] - t0) * (maturity - ts[-1])
        return _interpolate(ts, tvs, maturity)

    def vol(self, maturity: float) -> float:
        """Spot implied vol sigma(0,T) at any T > 0 (see total_variance)."""
        return math.sqrt(self.total_variance(maturity) / maturity)


@dataclass(frozen=True)
class RateCurve:
    """Average continuously compounded rates r(T) for one currency."""

    currency: Currency
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _check_points(self.points, f"{self.currency} rate"))
        ts = _check_times([t for t, _ in self.points], f"{self.currency} rate maturities")
        for _, r in self.points:
            _check_real(r, f"{self.currency}: rate", "finite")
        object.__setattr__(self, "_knots", (ts, [r * t for t, r in self.points]))

    def integrated(self, maturity: float) -> float:
        """Integrated rate r(T)*T, linear in T between knots, flat r outside."""
        _check_real(maturity, "maturity", "> 0 and finite")
        ts, rts = self._knots
        if maturity <= ts[0]:
            return self.points[0][1] * maturity
        if maturity >= ts[-1]:
            return self.points[-1][1] * maturity
        return _interpolate(ts, rts, maturity)

    def average(self, maturity: float) -> float:
        """Average rate r(T) = integrated(T)/T."""
        return self.integrated(maturity) / maturity


@dataclass(frozen=True)
class TriangleViolation:
    """A spot triple violating the no-arbitrage cross-rate identity."""

    currencies: tuple[Currency, Currency, Currency]
    magnitude: float


class MarketSnapshot:
    """Immutable snapshot of spots, vol term structures, and rate curves.

    Everything is stored under canonical (lexicographic) pair orientation;
    queries in either orientation are answered through the inversion
    identity.  Safe for concurrent reads after construction.
    """

    def __init__(
        self,
        spots: Mapping[FxPair, float],
        vols: Mapping[FxPair, VolTermStructure],
        rates: Mapping[Currency, RateCurve],
        as_of: str = "",
    ):
        for pair, value in spots.items():
            _check_real(value, f"spot for {pair}", "positive and finite")
            if not 1.0 / value < math.inf:  # both orientations are served
                raise ValidationError(f"spot for {pair} and its inverse must be positive and finite, got {value}")
        for pair, ts in vols.items():
            if ts.pair != pair:
                raise ValidationError(f"term structure for {ts.pair} registered under {pair}")
        for ccy, curve in rates.items():
            if curve.currency != ccy:
                raise ValidationError(f"rate curve for {curve.currency} registered under {ccy}")
        canon_spots = _canonical(spots, lambda cpair, value: 1.0 / value, _check_inverse_spots)
        canon_vols = _canonical(vols, lambda cpair, ts: VolTermStructure(cpair, ts.points), _check_inverse_vols)

        referenced = {c for pair in (*canon_spots, *canon_vols) for c in (pair.denominating, pair.foreign)}
        missing = sorted(c.code for c in referenced if c not in rates)
        if missing:
            raise ValidationError(f"no rate curve for referenced currencies: {', '.join(missing)}")

        self._spots = MappingProxyType(canon_spots)
        self._vols = MappingProxyType(canon_vols)
        # the one lookup of each: (code, code) in both orientations, built once
        self._spot_index = _both_ways(canon_spots, lambda value: 1.0 / value)
        self._vol_index = _both_ways(canon_vols, lambda ts: ts)
        self._rates = MappingProxyType(dict(rates))
        self.as_of = as_of

    @property
    def spots(self) -> Mapping[FxPair, float]:
        return self._spots

    @property
    def vols(self) -> Mapping[FxPair, VolTermStructure]:
        return self._vols

    @property
    def rates(self) -> Mapping[Currency, RateCurve]:
        return self._rates

    def currencies(self) -> tuple[Currency, ...]:
        return tuple(sorted(self._rates))

    def pairs(self) -> tuple[FxPair, ...]:
        return tuple(sorted(self._vols, key=lambda p: p.label))

    def spot(self, pair: FxPair) -> float:
        value = self._spot_index.get((pair.denominating.code, pair.foreign.code))
        if value is None:
            raise MissingDataError(f"no spot for pair {pair}")
        return value

    def vol_structure(self, pair: FxPair) -> VolTermStructure:
        """Vol term structure for a pair in either orientation (vols are invariant)."""
        return self._vol_by_code(pair.denominating.code, pair.foreign.code)

    def _vol_by_code(self, a: str, b: str) -> VolTermStructure:
        ts = self._vol_index.get((a, b))
        if ts is None:
            raise MissingDataError(f"no vol term structure for pair {a}/{b}")
        return ts

    def rate_curve(self, currency: Currency) -> RateCurve:
        if currency not in self._rates:
            raise MissingDataError(f"no rate curve for currency {currency}")
        return self._rates[currency]

    def average_rate(self, currency: Currency, maturity: float) -> float:
        return self.rate_curve(currency).average(maturity)

    def to_document(self) -> dict:
        """Schema-shaped dict (canonical orientations), ready for JSON."""
        return {
            "as_of": self.as_of,
            "spots": [
                {"pair": pair.label, "value": self._spots[pair]}
                for pair in sorted(self._spots, key=lambda p: p.label)
            ],
            "vols": [
                {
                    "pair": pair.label,
                    "points": [{"T": t, "sigma": s} for t, s in self._vols[pair].points],
                }
                for pair in sorted(self._vols, key=lambda p: p.label)
            ],
            "rates": [
                {
                    "currency": ccy.code,
                    "points": [{"T": t, "r": r} for t, r in self._rates[ccy].points],
                }
                for ccy in sorted(self._rates)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), indent=2)


def _canonical(entries: Mapping[FxPair, object], restate, agree) -> dict:
    """Entries under their canonical pairs.  A flipped entry is restated,
    a pair given in both orientations must agree, and the canonical entry
    is kept."""
    canon: dict = {}
    for pair, value in entries.items():
        cpair, flipped = canonicalize(pair)
        if flipped:
            value = restate(cpair, value)
        if cpair in canon:
            agree(cpair, canon[cpair], value)
        if not (flipped and cpair in canon):
            canon[cpair] = value
    return canon


def _both_ways(canon: Mapping[FxPair, object], invert) -> dict[tuple[str, str], object]:
    """Canonical entries keyed by (code, code) in both orientations."""
    index = {}
    for pair, value in canon.items():
        a, b = pair.denominating.code, pair.foreign.code
        index[a, b], index[b, a] = value, invert(value)
    return index


def _check_inverse_spots(pair: FxPair, a: float, b: float) -> None:
    if abs(b / a - 1.0) > SPOT_INVERSE_TOL:
        raise ValidationError(
            f"inconsistent spots for {pair} and its inverse: "
            f"{a:.12g} vs {b:.12g} (relative tolerance {SPOT_INVERSE_TOL})"
        )


def _check_inverse_vols(pair: FxPair, a: VolTermStructure, b: VolTermStructure) -> None:
    # Var(Y_{j/i}) = Var(-Y_{i/j}): implied vols of inverse pairs must agree.
    if a.maturities != b.maturities:
        raise ValidationError(f"{pair}: vol structures for pair and inverse quote different maturities")
    for (t, sa), (_, sb) in zip(a.points, b.points):
        if abs(sa - sb) > VOL_INVERSE_TOL * max(1.0, abs(sa)):
            raise ValidationError(
                f"{pair}: inverse-pair vols differ at T={t}: {sa:.12g} vs {sb:.12g}"
            )


# ---------------------------------------------------------------------------
# Snapshot document parsing


class _Repeats(dict):
    """A decoded object that gave ``key`` more than once (the last value kept), rejected by ``_require_keys``."""


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # mark the object: its path is known only where it is checked
        seen = set()
        obj = _Repeats(obj)
        obj.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return obj


def _loads_json(text: str | bytes):
    """Decode JSON text or file bytes; any decoding failure is a SchemaError."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, digit limit, deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str = "") -> None:
    if type(obj) is _Repeats:
        raise SchemaError(f"duplicate key {obj.key!r}", field=_path(where, obj.key))
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", field=_path(where, key))
    for key in sorted(required):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", field=_path(where, key))


def _number(value, field: str) -> float:
    """A document number as a float; booleans and non-finite values are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", field=field)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, and integers too large
        raise SchemaError("expected a finite number", field=field)
    return float(value)


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise SchemaError("expected a string", field=field)
    return value


def _label(obj: dict, key: str, where: str = "", parse=FxPair.parse):
    """A pair label (or, with ``parse=Currency``, a currency code) parsed;
    a malformed one is a SchemaError at its key path."""
    field = _path(where, key)
    try:
        return parse(_string(obj[key], field))
    except ValidationError as exc:
        raise SchemaError(str(exc), field=field) from exc


def _entries(
    obj: dict, key: str, fields: set[str] | None, where: str = "", nonempty: bool = False
) -> Iterator[tuple[object, str]]:
    """Yield each entry of the list ``obj[key]`` with its key path.  Every
    entry must be an object with exactly ``fields``; ``None`` leaves the
    entries to the caller."""
    path = _path(where, key)
    items = obj[key]
    if not isinstance(items, list) or (nonempty and not items):
        raise SchemaError("expected a non-empty list" if nonempty else "expected a list", field=path)
    for n, item in enumerate(items):
        item_path = f"{path}[{n}]"
        if fields is not None:
            if not isinstance(item, dict):
                raise SchemaError("expected an object", field=item_path)
            _require_keys(item, fields, fields, item_path)
        yield item, item_path


def _points(entry: dict, value_key: str, where: str) -> tuple[tuple[float, float], ...]:
    """An entry's ``points`` as (T, value) tuples."""
    return tuple(
        (_number(pt["T"], f"{path}.T"), _number(pt[value_key], f"{path}.{value_key}"))
        for pt, path in _entries(entry, "points", {"T", value_key}, where)
    )


def _unique(seen: Mapping, key, what: str, where: str):
    """``key`` unless an earlier entry already gave it."""
    if key in seen:
        raise SchemaError(f"duplicate {what} {key}", field=where)
    return key


def loads_snapshot(text: str | bytes) -> MarketSnapshot:
    """Parse and fully validate a snapshot document from JSON text."""
    doc = _loads_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", field="$")
    _require_keys(doc, {"as_of", "spots", "vols", "rates"}, {"spots", "vols", "rates"})
    as_of = _string(doc.get("as_of", ""), "as_of")

    spots: dict[FxPair, float] = {}
    for entry, where in _entries(doc, "spots", {"pair", "value"}):
        pair = _unique(spots, _label(entry, "pair", where), "spot for", where)
        spots[pair] = _number(entry["value"], f"{where}.value")

    vols: dict[FxPair, VolTermStructure] = {}
    for entry, where in _entries(doc, "vols", {"pair", "points"}):
        pair = _unique(vols, _label(entry, "pair", where), "vol structure for", where)
        vols[pair] = VolTermStructure(pair, _points(entry, "sigma", where))

    rates: dict[Currency, RateCurve] = {}
    for entry, where in _entries(doc, "rates", {"currency", "points"}):
        ccy = _unique(rates, _label(entry, "currency", where, Currency), "rate curve for", where)
        rates[ccy] = RateCurve(ccy, _points(entry, "r", where))

    return MarketSnapshot(spots, vols, rates, as_of=as_of)


def load_snapshot(source: str | Path) -> MarketSnapshot:
    """Load a snapshot from a file path (see loads_snapshot)."""
    return loads_snapshot(Path(source).read_bytes())


def check_spot_triangles(snapshot: MarketSnapshot, tol: float) -> list[TriangleViolation]:
    """Check X_{i/k} = X_{i/j} * X_{j/k} on every fully quoted currency triple.

    For each sorted triple (i, j, k) with all three spots present, reports
    |X_{i/j} * X_{j/k} / X_{i/k} - 1| when it exceeds ``tol``.  An empty
    list means the spots are arbitrage-consistent at that tolerance, which
    must be finite and >= 0.
    """
    _check_real(tol, "tol", "finite and >= 0")
    index = snapshot._spot_index
    violations = []
    for i, j, k in combinations(sorted({a for a, _ in index}), 3):
        x_ij, x_jk, x_ik = index.get((i, j)), index.get((j, k)), index.get((i, k))
        if x_ij is None or x_jk is None or x_ik is None:
            continue
        magnitude = abs(x_ij * x_jk / x_ik - 1.0)
        if magnitude > tol:
            violations.append(TriangleViolation((Currency(i), Currency(j), Currency(k)), magnitude))
    return violations
