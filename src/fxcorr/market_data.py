"""Market inputs: currencies, FX pairs, vol term structures, and rate curves.

Pair convention (important): a pair is written ``"EUR/USD"`` with the
*denominating* currency first, so ``EUR/USD = 1.25`` means one US dollar
costs 1.25 euros.  This matches the rate X_{denominating/foreign} used by
every formula in the library, and is the opposite of the interbank ticker
convention for some pairs.  All storage is canonical (denominating =
lexicographically smaller code); lookups in either orientation are
answered via the identity X_{j/i} = 1/X_{i/j}, and implied vols are
orientation-invariant.

Snapshot file schema (JSON, strict — unknown keys are rejected)::

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


def _check_times(times: Sequence[float], what: str) -> None:
    """The one check of a time list: non-empty, finite, > 0 and strictly increasing."""
    if not times:
        raise ValidationError(f"{what} must contain at least one time")
    for prev, t in zip((0.0, *times), times):
        if not prev < t < math.inf:
            raise ValidationError(f"{what} must be finite, > 0 and strictly increasing, got {times}")


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
class VolQuote:
    """A single implied-vol quote for a pair at one maturity."""

    pair: FxPair
    maturity: float
    implied_vol: float

    def __post_init__(self):
        if not 0 < self.maturity < math.inf:
            raise ValidationError(f"maturity must be positive and finite, got {self.maturity}")
        if not 0 <= self.implied_vol < math.inf:
            raise ValidationError(f"implied vol must be finite and >= 0, got {self.implied_vol}")


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
        _check_times(self.maturities, f"{self.pair} vol maturities")
        prev_t = 0.0
        prev_tv = 0.0
        for n, (t, sigma) in enumerate(self.points):
            if not 0 <= sigma < math.inf:
                raise ValidationError(f"{self.pair}: vol must be finite and >= 0, got {sigma} at point {n}")
            tv = sigma * sigma * t
            if tv < prev_tv:
                raise CalendarArbitrageError(
                    f"{self.pair}: calendar arbitrage at point {n}: "
                    f"total variance falls from {prev_tv:.12g} (T={prev_t}) to {tv:.12g} (T={t})"
                )
            prev_t, prev_tv = t, tv
        # knots for total_variance, built once: it runs for every horizon vol
        object.__setattr__(self, "_knots", (self.maturities, [s * s * t for t, s in self.points]))

    @classmethod
    def from_quotes(cls, quotes: Iterable[VolQuote]) -> "VolTermStructure":
        quotes = sorted(quotes, key=lambda q: q.maturity)
        pairs = {q.pair for q in quotes}
        if len(pairs) != 1:
            raise ValidationError("quotes must all reference the same pair")
        return cls(quotes[0].pair, tuple((q.maturity, q.implied_vol) for q in quotes))

    @property
    def maturities(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    def total_variance(self, maturity: float) -> float:
        """Total variance sigma^2(0,T)*T at any T > 0.

        Linear interpolation in total variance between quotes; constant
        instantaneous vol below the first quote; flat extrapolation of the
        last bucket's instantaneous vol beyond the last quote (warns).
        """
        if not maturity > 0:
            raise ValidationError(f"maturity must be > 0, got {maturity}")
        ts, tvs = self._knots
        if maturity <= ts[0]:
            return tvs[0] / ts[0] * maturity
        if maturity > ts[-1]:
            warnings.warn(
                f"{self.pair}: vol term structure extrapolated flat beyond T={ts[-1]} to T={maturity}",
                ExtrapolationWarning,
                stacklevel=2,
            )
            if len(ts) == 1:
                slope = tvs[0] / ts[0]
            else:
                slope = (tvs[-1] - tvs[-2]) / (ts[-1] - ts[-2])
            return tvs[-1] + slope * (maturity - ts[-1])
        n = bisect_left(ts, maturity)
        if ts[n] == maturity:
            return tvs[n]
        w = (maturity - ts[n - 1]) / (ts[n] - ts[n - 1])
        return tvs[n - 1] + w * (tvs[n] - tvs[n - 1])

    def vol(self, maturity: float) -> float:
        """Spot implied vol sigma(0,T) at any T > 0 (see total_variance)."""
        return math.sqrt(self.total_variance(maturity) / maturity)


@dataclass(frozen=True)
class RateCurve:
    """Average continuously compounded rates r(T) for one currency."""

    currency: Currency
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ts = tuple(t for t, _ in self.points)
        _check_times(ts, f"{self.currency} rate maturities")
        for t, r in self.points:
            if not math.isfinite(r):
                raise ValidationError(f"{self.currency}: rate must be finite, got {r} at T={t}")
        object.__setattr__(self, "_knots", (ts, [r * t for t, r in self.points]))

    def integrated(self, maturity: float) -> float:
        """Integrated rate r(T)*T, linear in T between knots, flat r outside."""
        if not maturity > 0:
            raise ValidationError(f"maturity must be > 0, got {maturity}")
        ts, rts = self._knots
        if maturity <= ts[0]:
            return self.points[0][1] * maturity
        if maturity >= ts[-1]:
            return self.points[-1][1] * maturity
        n = bisect_left(ts, maturity)
        if ts[n] == maturity:
            return rts[n]
        w = (maturity - ts[n - 1]) / (ts[n] - ts[n - 1])
        return rts[n - 1] + w * (rts[n] - rts[n - 1])

    def average(self, maturity: float) -> float:
        """Average rate r(T) = integrated(T)/T."""
        return self.integrated(maturity) / maturity

    def forward(self, start: float, end: float) -> float:
        """Average rate over a future bucket (start, end]."""
        if not 0 <= start < end:
            raise ValidationError(f"need 0 <= start < end, got ({start}, {end})")
        if start == 0:
            return self.average(end)
        return (self.integrated(end) - self.integrated(start)) / (end - start)


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
        canon_spots: dict[FxPair, float] = {}
        for pair, value in spots.items():
            if not (0 < value < math.inf and 1.0 / value < math.inf):  # both orientations are served
                raise ValidationError(f"spot for {pair} and its inverse must be positive and finite, got {value}")
            cpair, flipped = canonicalize(pair)
            stored = 1.0 / value if flipped else value
            if cpair in canon_spots:
                existing = canon_spots[cpair]
                if abs(stored / existing - 1.0) > SPOT_INVERSE_TOL:
                    raise ValidationError(
                        f"inconsistent spots for {cpair} and its inverse: "
                        f"{existing:.12g} vs {stored:.12g} (relative tolerance {SPOT_INVERSE_TOL})"
                    )
                if not flipped:
                    canon_spots[cpair] = stored
            else:
                canon_spots[cpair] = stored

        canon_vols: dict[FxPair, VolTermStructure] = {}
        for pair, ts in vols.items():
            if ts.pair != pair:
                raise ValidationError(f"term structure for {ts.pair} registered under {pair}")
            cpair, flipped = canonicalize(pair)
            restated = VolTermStructure(cpair, ts.points) if flipped else ts
            if cpair in canon_vols:
                existing = canon_vols[cpair]
                _check_inverse_vols(cpair, existing, restated)
                if not flipped:
                    canon_vols[cpair] = restated
            else:
                canon_vols[cpair] = restated

        referenced: set[Currency] = set()
        for pair in list(canon_spots) + list(canon_vols):
            referenced.add(pair.denominating)
            referenced.add(pair.foreign)
        missing = sorted(c.code for c in referenced if c not in rates)
        if missing:
            raise ValidationError(f"no rate curve for referenced currencies: {', '.join(missing)}")

        self._spots = MappingProxyType(canon_spots)
        self._vols = MappingProxyType(canon_vols)
        # the one vol lookup: (code, code) in both orientations, built once
        self._vol_index: dict[tuple[str, str], VolTermStructure] = {}
        for pair, ts in canon_vols.items():
            a, b = pair.denominating.code, pair.foreign.code
            self._vol_index[a, b] = self._vol_index[b, a] = ts
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
        cpair, flipped = canonicalize(pair)
        if cpair not in self._spots:
            raise MissingDataError(f"no spot for pair {pair}")
        value = self._spots[cpair]
        return 1.0 / value if flipped else value

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

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps() + "\n")


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


def _loads_json(text: str | bytes):
    """Decode JSON text or file bytes; any decoding failure is a SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, digit limit, deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str = "") -> None:
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
    list means the spots are arbitrage-consistent at that tolerance.
    """
    currencies: set[Currency] = set()
    for pair in snapshot.spots:
        currencies.add(pair.denominating)
        currencies.add(pair.foreign)

    def spot_or_none(a: Currency, b: Currency) -> float | None:
        try:
            return snapshot.spot(FxPair(a, b))
        except MissingDataError:
            return None

    violations = []
    for i, j, k in combinations(sorted(currencies), 3):
        x_ij = spot_or_none(i, j)
        x_jk = spot_or_none(j, k)
        x_ik = spot_or_none(i, k)
        if x_ij is None or x_jk is None or x_ik is None:
            continue
        magnitude = abs(x_ij * x_jk / x_ik - 1.0)
        if magnitude > tol:
            violations.append(TriangleViolation((i, j, k), magnitude))
    return violations
