"""Forward vols, piecewise-constant instantaneous structures, and their integrals.

Spot implied vols at increasing maturities bootstrap into forward vols via

    sigma^2(T1, T2) = [sigma^2(0,T2) T2 - sigma^2(0,T1) T1] / (T2 - T1)

and, under piecewise-constant time dependence, instantaneous vols and
correlations equal the forward quantities on each bucket.  All integrals
here are exact bucket sums over merged breakpoint grids, not quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import takewhile

from .errors import CalendarArbitrageError, UndefinedCorrelationError, ValidationError
from .market_data import VolTermStructure, _check_real, _check_span, _check_times, _is_real, _time_list, _warn_flat

MIN_BUCKET_WIDTH = 1e-12
_Breakpoints = type("_Breakpoints", (tuple,), {})  # a grid normalize_breakpoints checked: not checked again


def _check_breakpoints(points: Iterable[float], what: str) -> tuple[float, ...]:
    """The one bucket-grid rule, as a tuple: 0, then times as ``_check_times`` takes them, with each bucket
    (T_n, T_n+1] at least MIN_BUCKET_WIDTH wide, checked first (up to any non-number) to name the bucket."""
    points = _time_list(points, what)
    if len(points) < 2 or not (_is_real(points[0]) and points[0] == 0.0):
        raise ValidationError(f"{what} need at least one bucket and must start at 0, got {points}")
    for n, (left, right) in enumerate(zip(points, takewhile(_is_real, points[1:]))):
        if right - left < MIN_BUCKET_WIDTH:
            raise ValidationError(f"bucket {n} has width {right - left:.3g} < {MIN_BUCKET_WIDTH}")
    _check_times(points[1:], what)
    return points


def _bucket(breakpoints: Sequence[float], t: float) -> int:
    """The one bucket lookup: n for t in (T_n, T_n+1], the last bucket for t past the end."""
    return min(bisect_left(breakpoints, t, 1), len(breakpoints) - 1) - 1


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function on buckets (T_n, T_n+1], starting at 0."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if type(self.breakpoints) is not _Breakpoints:
            object.__setattr__(self, "breakpoints", _check_breakpoints(self.breakpoints, "breakpoints"))
        n = len(self.breakpoints) - 1
        values = tuple(self.values) if isinstance(self.values, Iterable) else None  # a list or an array, as a tuple
        if values is None or len(values) != n:
            raise ValidationError(f"{n} buckets need {n} values, got {self.values!r}")
        if not all(map(_is_real, values)):  # NaN and inf are checked where the values are integrated or simulated
            raise ValidationError(f"step values must be real numbers, not bools or strings, got {values}")
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> float:
        return self.breakpoints[-1]

    def value_at(self, t: float) -> float:
        """Value on the bucket containing t; flat beyond the horizon (warns)."""
        _check_real(t, "t", "> 0 and finite")
        if t > self.horizon:
            _warn_flat("step function", self.horizon, t)
        return self._value(t)

    def _value(self, t: float) -> float:
        return self.values[_bucket(self.breakpoints, t)]


def forward_vol(sigma_near: float, sigma_far: float, t_near: float, t_far: float) -> float:
    """Forward implied vol sigma(t_near, t_far) from two spot vols.

    Raises CalendarArbitrageError when the forward variance is negative;
    an exactly zero forward variance is allowed and yields 0.
    """
    _check_span(t_near, t_far, "t_near < t_far")
    for sigma in (sigma_near, sigma_far):
        _check_real(sigma, "vols", "finite and >= 0")
    return _span_vol(None, t_near, t_far, sigma_near * sigma_near * t_near, sigma_far * sigma_far * t_far)


def bootstrap_piecewise_vol(ts: VolTermStructure) -> PiecewiseConstant:
    """Instantaneous (forward) vols per quote bucket, first bucket from 0.

    The result reproduces every quoted total variance exactly:
    total_variance(result, T_n) == sigma(0,T_n)^2 * T_n.
    """
    return PiecewiseConstant((0.0, *ts.maturities), _bucket_vols(ts, ts.maturities))


def _bucket_vols(ts: VolTermStructure, times: Sequence[float]) -> tuple[float, ...]:
    """The one bucket-vol reader: ``horizon_vol`` of each bucket of (0, *times), bit for bit, one read per time."""
    vols, start, tv_start = [], 0.0, 0.0
    for end in times:  # a plain loop: a comprehension's frame costs more than these few reads
        tv_end = ts._total_variance(end)
        vols.append(_span_vol(ts, start, end, tv_start, tv_end))
        start, tv_start = end, tv_end
    return tuple(vols)


def total_variance(sigma: PiecewiseConstant, horizon: float) -> float:
    """Integral of sigma(t)^2 over (0, horizon], exact bucket sums."""
    _check_times((horizon,), "horizon")
    if horizon > sigma.horizon:
        _warn_flat("total variance", sigma.horizon, horizon)
    total = 0.0
    for _, width, value in _merged_buckets((sigma,), horizon):
        total += value * value * width
    return total


def _merged_buckets(structures: Sequence[PiecewiseConstant], horizon: float):
    """Yield (mid, width, *values) for each bucket of the structures' merged
    breakpoints on (0, horizon], each structure flat beyond its own horizon."""
    points = sorted({0.0, horizon, *(b for s in structures for b in s.breakpoints if 0.0 < b < horizon)})
    for left, right in zip(points, points[1:]):
        mid = 0.5 * (left + right)
        yield (mid, right - left, *(s._value(mid) for s in structures))


def integrated_correlation(
    rho: PiecewiseConstant,
    sigma_a: PiecewiseConstant,
    sigma_b: PiecewiseConstant,
    horizon: float,
) -> float:
    """Term correlation over (0, horizon] from instantaneous inputs:

        integral of rho(t) sigma_a(t) sigma_b(t) dt
        / sqrt(total variance of a * total variance of b)

    Exact on the merged bucket grid.  Bounded by max |rho(t)|, hence in
    [-1, 1]; only floating-point headroom is clipped.
    """
    _check_times((horizon,), "horizon")
    tv_a = tv_b = covariance = 0.0
    for mid, width, r, a, b in _merged_buckets((rho, sigma_a, sigma_b), horizon):
        if not abs(r) <= 1.0:
            raise ValidationError(f"|rho| > 1 on bucket around t={mid}: {r}")
        if not (0 <= a < math.inf and 0 <= b < math.inf):
            raise ValidationError(f"vol must be finite and >= 0 on bucket around t={mid}: {a}, {b}")
        tv_a += a * a * width
        tv_b += b * b * width
        covariance += r * a * b * width
    if tv_a == 0.0 or tv_b == 0.0:
        which = "both legs" if tv_a == tv_b == 0.0 else "one leg"
        raise UndefinedCorrelationError(
            f"correlation undefined over (0, {horizon}]: {which} of zero total variance"
        )
    shortest = min(rho.horizon, sigma_a.horizon, sigma_b.horizon)
    if horizon > shortest:
        _warn_flat("integrated correlation input", shortest, horizon)
    result = covariance / math.sqrt(tv_a * tv_b)
    return max(-1.0, min(1.0, result))


def horizon_vol(ts: VolTermStructure, start: float, end: float) -> float:
    """Implied vol of a quoted structure over (start, end], interpolating in
    total variance at non-quoted horizons."""
    _check_span(start, end)
    tv_end = ts._total_variance(end)
    tv_start = ts._total_variance(start) if start > 0 else 0.0
    return _span_vol(ts, start, end, tv_start, tv_end)


def _span_vol(ts: VolTermStructure | None, start: float, end: float, tv_start: float, tv_end: float) -> float:
    """The one forward-variance check: the vol over (start, end] from the total variances at its ends,
    read from ``ts`` (named in the error) or, with None, from two spot vols."""
    if tv_end < tv_start:
        raise CalendarArbitrageError(
            f"{'' if ts is None else f'{ts.pair}: '}negative forward variance on ({start}, {end}]: "
            f"total variance {tv_end:.12g} at T={end} < {tv_start:.12g} at T={start}"
        )
    return math.sqrt((tv_end - tv_start) / (end - start))
