"""Independent oracles for the test suite.

Driver world: each currency gets one exposure vector per time bucket over
d independent Brownian drivers, and the log-increment of the rate
X_{a/b} over a bucket is (v_b - v_a) . dW.  Everything observable then
follows from plain covariance algebra, with no reference to the library's
correlation formulas:

    bucket variance rate of (a, b)      |v_b - v_a|^2
    bucket correlation of (a,b), (c,d)  (v_b - v_a).(v_d - v_c) / norms
    total variance to a boundary        sum of bucket rates * widths

These are the quantities the triangle and cross formulas must reproduce.

Quoted world: the Gaussian law of log-rates under the measure of one
currency d, read straight from a snapshot document's quotes.  With
L_c = ln X_{d/c} and v_xy the quoted total variance of pair x/y (v_xx = 0):

    ln X_{a/b}              L_b - L_a
    E^d L_c(t)              ln F_{d/c}(t) - v_dc(t) / 2
    cov(L_x(t), L_y(t))     (v_dx(t) + v_dy(t) - v_xy(t)) / 2

This prices closed forms (a geometric basket, a barrier monitored once)
that the Monte Carlo engine must reproduce within its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fxcorr import Currency, FxPair, MarketSnapshot, RateCurve, VolTermStructure


@dataclass
class DriverWorld:
    """Piecewise-constant exposures per currency over shared bucket boundaries."""

    boundaries: tuple[float, ...]                 # 0 = b0 < b1 < ... < bN
    exposures: tuple[dict[str, np.ndarray], ...]  # one dict per bucket

    @classmethod
    def random(
        cls,
        codes: list[str],
        rng: np.random.Generator,
        boundaries: tuple[float, ...] = (0.0, 1.0),
        n_drivers: int = 3,
        scale: float = 0.15,
    ) -> "DriverWorld":
        buckets = []
        for _ in range(len(boundaries) - 1):
            buckets.append({c: rng.normal(0.0, scale, n_drivers) for c in codes})
        return cls(tuple(boundaries), tuple(buckets))

    @property
    def codes(self) -> list[str]:
        return sorted(self.exposures[0])

    def bucket_vector(self, bucket: int, a: str, b: str) -> np.ndarray:
        return self.exposures[bucket][b] - self.exposures[bucket][a]

    def bucket_vol(self, bucket: int, a: str, b: str) -> float:
        return float(np.linalg.norm(self.bucket_vector(bucket, a, b)))

    def bucket_corr(self, bucket: int, a: str, b: str, c: str, d: str) -> float:
        va = self.bucket_vector(bucket, a, b)
        vb = self.bucket_vector(bucket, c, d)
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    def total_variance(self, a: str, b: str, horizon: float) -> float:
        total = 0.0
        for n in range(len(self.boundaries) - 1):
            width = min(horizon, self.boundaries[n + 1]) - self.boundaries[n]
            if width <= 0:
                break
            total += self.bucket_vol(n, a, b) ** 2 * width
        return total

    def vol(self, a: str, b: str, horizon: float) -> float:
        return math.sqrt(self.total_variance(a, b, horizon) / horizon)

    def integrated_corr(self, a: str, b: str, c: str, d: str, horizon: float) -> float:
        cov = 0.0
        for n in range(len(self.boundaries) - 1):
            width = min(horizon, self.boundaries[n + 1]) - self.boundaries[n]
            if width <= 0:
                break
            va = self.bucket_vector(n, a, b)
            vb = self.bucket_vector(n, c, d)
            cov += float(va @ vb) * width
        return cov / math.sqrt(
            self.total_variance(a, b, horizon) * self.total_variance(c, d, horizon)
        )

    def snapshot(self, rate: float = 0.0) -> MarketSnapshot:
        """Quote every pair at every bucket boundary, with flat rates and
        arbitrage-consistent spots."""
        codes = self.codes
        maturities = self.boundaries[1:]
        levels = {c: 0.1 * n for n, c in enumerate(codes)}
        spots = {}
        vols = {}
        for i, a in enumerate(codes):
            for b in codes[i + 1:]:
                pair = FxPair(Currency(a), Currency(b))
                spots[pair] = math.exp(levels[b] - levels[a])
                points = tuple((t, self.vol(a, b, t)) for t in maturities)
                vols[pair] = VolTermStructure(pair, points)
        rates = {
            Currency(c): RateCurve(Currency(c), ((maturities[-1], rate),)) for c in codes
        }
        return MarketSnapshot(spots, vols, rates, as_of="driver-world")


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(30)


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """Bivariate normal CDF P(Z1 <= h, Z2 <= k) at correlation rho, |rho| <= 0.95.

    Plackett's identity dPhi2/drho = phi2(h, k; rho), integrated from the
    independent case at 0 to rho with 30-node Gauss-Legendre.
    """
    r = 0.5 * rho * (_GL_NODES + 1.0)
    q = 1.0 - r * r
    density = np.exp(-(h * h - 2.0 * r * h * k + k * k) / (2.0 * q)) / (2.0 * math.pi * np.sqrt(q))
    return norm_cdf(h) * norm_cdf(k) + 0.5 * rho * float(_GL_WEIGHTS @ density)


class QuotedWorld:
    """Forwards, discount factors and the joint law of log-rates from a
    snapshot document, at quoted vol maturities only."""

    def __init__(self, doc: dict):
        self.spots = {e["pair"]: e["value"] for e in doc["spots"]}
        self.sigmas = {e["pair"]: {p["T"]: p["sigma"] for p in e["points"]} for e in doc["vols"]}
        self.rates = {e["currency"]: [(p["T"], p["r"]) for p in e["points"]] for e in doc["rates"]}

    def integrated_rate(self, ccy: str, t: float) -> float:
        """r(t) t: linear in t between knots, flat r outside them."""
        ts, rs = zip(*self.rates[ccy])
        if not ts[0] < t < ts[-1]:
            return (rs[0] if t <= ts[0] else rs[-1]) * t
        return float(np.interp(t, ts, [u * r for u, r in zip(ts, rs)]))

    def discount(self, ccy: str, t: float) -> float:
        return math.exp(-self.integrated_rate(ccy, t))

    def log_forward(self, a: str, b: str, t: float) -> float:
        if a == b:
            return 0.0
        spot = self.spots.get(f"{a}/{b}") or 1.0 / self.spots[f"{b}/{a}"]
        return math.log(spot) + self.integrated_rate(a, t) - self.integrated_rate(b, t)

    def variance(self, a: str, b: str, t: float) -> float:
        if a == b:
            return 0.0
        sigma = (self.sigmas.get(f"{a}/{b}") or self.sigmas[f"{b}/{a}"])[t]  # quoted maturities only
        return sigma * sigma * t

    def log_law(self, measure: str, pairs: list[str], t: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean vector and covariance of ln X_p(t) for pairs "a/b" under the
        measure of the currency ``measure``."""
        d = measure
        codes = sorted({c for p in pairs for c in p.split("/")} | {d})
        mean = np.array([self.log_forward(d, c, t) - 0.5 * self.variance(d, c, t) for c in codes])
        cov = np.array([[0.5 * (self.variance(d, x, t) + self.variance(d, y, t) - self.variance(x, y, t))
                         for y in codes] for x in codes])
        legs = np.zeros((len(pairs), len(codes)))
        for n, p in enumerate(pairs):
            a, b = p.split("/")
            legs[n, codes.index(b)] += 1.0
            legs[n, codes.index(a)] -= 1.0
        return legs @ mean, legs @ cov @ legs.T

    def geometric_basket_call(self, exponents: dict[str, float], strike: float, t: float) -> float:
        """Call on prod_p X_p(t)^w_p, pairs sharing one denominating currency:
        Black on the lognormal geometric average."""
        pairs = list(exponents)
        d = pairs[0].split("/")[0]
        mean, cov = self.log_law(d, pairs, t)
        w = np.array([exponents[p] for p in pairs])
        m, v = float(w @ mean), float(w @ cov @ w)
        d2 = (m - math.log(strike)) / math.sqrt(v)
        d1 = d2 + math.sqrt(v)
        return self.discount(d, t) * (math.exp(m + 0.5 * v) * norm_cdf(d1) - strike * norm_cdf(d2))

    def one_date_barrier_call(
        self, pair: str, strike: float, barrier_pair: str, level: float,
        direction: str, style: str, t1: float, t: float,
    ) -> float:
        """Call on X_pair(t) knocked in or out by X_barrier(t1) at ``level``
        (touching counts as a breach), t1 <= t."""
        d = pair.split("/")[0]
        (m,), var = self.log_law(d, [pair], t)
        (_, m1), cov = self.log_law(d, [pair, barrier_pair], t1)  # increments after t1 are independent
        s, s1, c = math.sqrt(var[0, 0]), math.sqrt(cov[1, 1]), cov[0, 1]
        g = 1.0 if (direction == "up") == (style == "knock-in") else -1.0  # sign of the paying event
        dT = (m - math.log(strike)) / s
        b = g * (m1 - math.log(level)) / s1
        rho = g * c / (s * s1)
        share = math.exp(m + 0.5 * s * s) * bvn_cdf(dT + s, b + g * c / s1, rho)
        return self.discount(d, t) * (share - strike * bvn_cdf(dT, b, rho))
