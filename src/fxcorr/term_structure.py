"""Forward vols, piecewise-constant instantaneous structures, and their integrals.

Spot implied vols at increasing maturities bootstrap into forward vols via

    sigma^2(T1, T2) = [sigma^2(0,T2) T2 - sigma^2(0,T1) T1] / (T2 - T1)

and, under piecewise-constant time dependence, instantaneous vols and
correlations equal the forward quantities on each bucket.  All integrals
here are exact bucket sums over merged breakpoint grids, not quadrature.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import CalendarArbitrageError, ExtrapolationWarning, UndefinedCorrelationError, ValidationError
from .market_data import VolTermStructure, _check_times

MIN_BUCKET_WIDTH = 1e-12


def _check_bucket_widths(breakpoints: Sequence[float]) -> None:
    for n in range(1, len(breakpoints)):
        width = breakpoints[n] - breakpoints[n - 1]
        if width < MIN_BUCKET_WIDTH:
            raise ValidationError(f"bucket {n - 1} has width {width:.3g} < {MIN_BUCKET_WIDTH}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function on buckets (T_n, T_n+1], starting at 0."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ValidationError("need at least one bucket")
        if self.breakpoints[0] != 0.0:
            raise ValidationError(f"breakpoints must start at 0, got {self.breakpoints[0]}")
        _check_bucket_widths(self.breakpoints)
        _check_times(self.breakpoints[1:], "breakpoints")
        if len(self.values) != len(self.breakpoints) - 1:
            raise ValidationError(
                f"{len(self.breakpoints) - 1} buckets need {len(self.breakpoints) - 1} values, "
                f"got {len(self.values)}"
            )

    @property
    def horizon(self) -> float:
        return self.breakpoints[-1]

    def value_at(self, t: float) -> float:
        """Value on the bucket containing t; flat beyond the horizon (warns)."""
        if not t > 0:
            raise ValidationError(f"t must be > 0, got {t}")
        if t > self.horizon:
            warnings.warn(
                f"step function extrapolated flat beyond T={self.horizon} to t={t}",
                ExtrapolationWarning,
                stacklevel=2,
            )
        return self._value(t)

    def _value(self, t: float) -> float:
        return self.values[-1] if t > self.horizon else self.values[bisect_left(self.breakpoints, t) - 1]


def forward_vol(sigma_near: float, sigma_far: float, t_near: float, t_far: float) -> float:
    """Forward implied vol sigma(t_near, t_far) from two spot vols.

    Raises CalendarArbitrageError when the forward variance is negative;
    an exactly zero forward variance is allowed and yields 0.
    """
    if not 0 <= t_near < t_far < math.inf:
        raise ValidationError(f"need 0 <= t_near < t_far < inf, got ({t_near}, {t_far})")
    if not (0 <= sigma_near < math.inf and 0 <= sigma_far < math.inf):
        raise ValidationError(f"vols must be finite and >= 0, got {sigma_near} and {sigma_far}")
    tv_near = sigma_near * sigma_near * t_near
    tv_far = sigma_far * sigma_far * t_far
    if tv_far < tv_near:
        raise CalendarArbitrageError(
            f"negative forward variance on ({t_near}, {t_far}]: "
            f"total variance {tv_far:.12g} at T={t_far} < {tv_near:.12g} at T={t_near}"
        )
    return math.sqrt((tv_far - tv_near) / (t_far - t_near))


def bootstrap_piecewise_vol(ts: VolTermStructure) -> PiecewiseConstant:
    """Instantaneous (forward) vols per quote bucket, first bucket from 0.

    The result reproduces every quoted total variance exactly:
    total_variance(result, T_n) == sigma(0,T_n)^2 * T_n.
    """
    return _bucket_vols(ts, ts.maturities)


def _bucket_vols(ts: VolTermStructure, times: Sequence[float]) -> PiecewiseConstant:
    """``horizon_vol`` of each bucket of (0, *times), as a step function."""
    breakpoints = (0.0, *times)
    values = tuple(horizon_vol(ts, a, b) for a, b in zip(breakpoints, breakpoints[1:]))
    return PiecewiseConstant(breakpoints, values)


def total_variance(sigma: PiecewiseConstant, horizon: float) -> float:
    """Integral of sigma(t)^2 over (0, horizon], exact bucket sums."""
    _check_times((horizon,), "horizon")
    if horizon > sigma.horizon:
        warnings.warn(
            f"total variance extrapolated flat beyond T={sigma.horizon} to T={horizon}",
            ExtrapolationWarning,
            stacklevel=2,
        )
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
    beyond = [s.horizon for s in (rho, sigma_a, sigma_b) if horizon > s.horizon]
    if beyond:
        warnings.warn(
            f"integrated correlation extrapolates an input flat beyond T={beyond[0]}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    result = covariance / math.sqrt(tv_a * tv_b)
    return max(-1.0, min(1.0, result))


def horizon_vol(ts: VolTermStructure, start: float, end: float) -> float:
    """Implied vol of a quoted structure over (start, end], interpolating in
    total variance at non-quoted horizons."""
    if not 0 <= start < end < math.inf:
        raise ValidationError(f"need 0 <= start < end < inf, got ({start}, {end})")
    tv_end = ts.total_variance(end)
    tv_start = ts.total_variance(start) if start > 0 else 0.0
    if tv_end < tv_start:
        raise CalendarArbitrageError(
            f"{ts.pair}: negative forward variance on ({start}, {end}]"
        )
    return math.sqrt((tv_end - tv_start) / (end - start))
