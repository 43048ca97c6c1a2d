"""Seeded inputs for the benchmark workloads.

Every market is drawn from one currency log-factor model, so the quotes
are arbitrage-consistent as a whole.  Each currency a has a log-value x_a
driven by three common factors and its own noise; on each segment between
quoted maturities its instantaneous covariance is B_k B_k^T + diag(eta_k^2).
The variance rate of the pair a/b is then |B_a - B_b|^2 + eta_a^2 + eta_b^2,
its total variance is piecewise linear between the quoted maturities
(exactly the library's interpolation rule), and every bucket's matrix of
squared horizon vols is a Euclidean distance matrix, so every implied
correlation is a true correlation and every bucket is PSD.

The seed perturbs loadings, noise, spots and rates by a few percent
around a fixed G10-like base, and payoffs are placed in vol-normalised
units (strikes at the forward, the barrier a fixed number of standard
deviations away), so run-to-run figures compare across seeds.

Only files and argv reach the program; nothing here imports fxcorr.
"""

from __future__ import annotations

import math

import numpy as np

MATURITIES = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
_SEGMENT_SCALE = (0.9, 0.95, 1.0, 1.05, 1.08, 1.1)

# code: (value in USD, rate level, loadings on (risk, dollar, europe), own vol)
_BASE = {
    "USD": (1.0, 0.045, (-0.02, 0.07, 0.00), 0.03),
    "EUR": (1.1, 0.030, (0.01, -0.02, 0.05), 0.04),
    "JPY": (0.0068, 0.001, (-0.07, -0.01, 0.00), 0.05),
    "GBP": (1.27, 0.045, (0.03, -0.01, 0.04), 0.04),
    "CHF": (1.12, 0.010, (-0.04, -0.01, 0.05), 0.04),
    "AUD": (0.66, 0.040, (0.08, 0.00, 0.00), 0.04),
    "CAD": (0.73, 0.040, (0.04, 0.03, 0.00), 0.03),
    "NZD": (0.60, 0.045, (0.08, 0.00, -0.01), 0.05),
    "SEK": (0.095, 0.030, (0.04, -0.02, 0.05), 0.05),
    "NOK": (0.093, 0.040, (0.05, -0.01, 0.04), 0.05),
}
G10 = tuple(_BASE)

TERM_BUCKETS = (0.25, 0.5, 1.0, 2.0)


def canonical_pairs(codes) -> list[tuple[str, str]]:
    codes = sorted(codes)
    return [(a, b) for n, a in enumerate(codes) for b in codes[n + 1:]]


def label(a: str, b: str) -> str:
    return f"{a}/{b}"


def make_snapshot(rng: np.random.Generator, codes) -> dict:
    """A snapshot document (canonical orientations) for the given currencies."""
    codes = tuple(codes)
    n_seg = len(MATURITIES)
    loadings = np.array([_BASE[c][2] for c in codes]) * (1.0 + 0.05 * rng.standard_normal((len(codes), 3)))
    own = np.array([_BASE[c][3] for c in codes]) * (1.0 + 0.05 * rng.standard_normal(len(codes)))
    level = np.array(_SEGMENT_SCALE) * (1.0 + 0.02 * rng.standard_normal(n_seg))
    tilt = 1.0 + 0.05 * rng.standard_normal(n_seg)
    widths = np.diff((0.0,) + MATURITIES)
    index = {c: n for n, c in enumerate(codes)}

    def variance_rate(a: str, b: str, seg: int) -> float:
        diff = level[seg] * (loadings[index[a]] - loadings[index[b]])
        return float(diff @ diff + (level[seg] * tilt[seg]) ** 2
                     * (own[index[a]] ** 2 + own[index[b]] ** 2))

    logv = {c: math.log(_BASE[c][0]) + 0.03 * rng.standard_normal() for c in codes}

    spots, vols = [], []
    for a, b in canonical_pairs(codes):
        spots.append({"pair": label(a, b), "value": math.exp(logv[b] - logv[a])})
        total, points = 0.0, []
        for seg, t in enumerate(MATURITIES):
            total += variance_rate(a, b, seg) * widths[seg]
            points.append({"T": t, "sigma": math.sqrt(total / t)})
        vols.append({"pair": label(a, b), "points": points})
    rates = [
        {"currency": c, "points": [
            {"T": t, "r": _BASE[c][1] + 0.002 * rng.standard_normal()} for t in MATURITIES
        ]}
        for c in sorted(codes)
    ]
    return {"as_of": "2026-01-05", "spots": spots, "vols": vols, "rates": rates}


class Market:
    """Read-side view of a snapshot document, for inputs and oracles.

    Mirrors the documented rules (total variance linear between quotes,
    constant instantaneous vol before the first quote; rates linear in
    r(T)*T), independently of the library's code.
    """

    def __init__(self, doc: dict):
        self.spots = {e["pair"]: e["value"] for e in doc["spots"]}
        self.vols = {e["pair"]: [(p["T"], p["sigma"]) for p in e["points"]] for e in doc["vols"]}
        self.rates = {e["currency"]: [(p["T"], p["r"]) for p in e["points"]] for e in doc["rates"]}
        self.codes = sorted(self.rates)

    def spot(self, a: str, b: str) -> float:
        if a < b:
            return self.spots[label(a, b)]
        return 1.0 / self.spots[label(b, a)]

    def total_variance(self, a: str, b: str, t: float) -> float:
        if a == b or t == 0.0:
            return 0.0
        points = self.vols[label(*sorted((a, b)))]
        ts = [p[0] for p in points]
        tvs = [s * s * m for m, s in points]
        if t <= ts[0]:
            return tvs[0] / ts[0] * t
        for n in range(1, len(ts)):
            if t == ts[n]:
                return tvs[n]
            if t < ts[n]:
                w = (t - ts[n - 1]) / (ts[n] - ts[n - 1])
                return tvs[n - 1] + w * (tvs[n] - tvs[n - 1])
        raise ValueError(f"t={t} beyond the last quote")

    def squared_vols(self, start: float, end: float) -> tuple[list[str], np.ndarray]:
        """The matrix D of squared horizon vols over (start, end], D_aa = 0."""
        codes = self.codes
        d = np.zeros((len(codes), len(codes)))
        for x, a in enumerate(codes):
            for y in range(x + 1, len(codes)):
                b = codes[y]
                d[x, y] = d[y, x] = (
                    self.total_variance(a, b, end) - self.total_variance(a, b, start)
                ) / (end - start)
        return codes, d

    def rate(self, code: str, t: float) -> float:
        """Average rate r(T), linear in r(T)*T, flat r outside the quotes."""
        points = self.rates[code]
        if t <= points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            return points[-1][1]
        for (t0, r0), (t1, r1) in zip(points, points[1:]):
            if t == t1:
                return r1
            if t < t1:
                w = (t - t0) / (t1 - t0)
                return (r0 * t0 + w * (r1 * t1 - r0 * t0)) / t
        raise AssertionError("unreachable")

    def forward(self, a: str, b: str, t: float) -> float:
        return self.spot(a, b) * math.exp((self.rate(a, t) - self.rate(b, t)) * t)


def oriented(rng: np.random.Generator, a: str, b: str) -> str:
    return label(a, b) if rng.random() < 0.5 else label(b, a)


def quote_ops(rng: np.random.Generator, market: Market, n_each: int) -> list[dict]:
    """A shuffled mix of equal thirds: implied_corr, term_corr, implied_vol.

    implied_corr queries are 45% triangle, 45% cross and 10% degenerate,
    over a random total horizon in [0.1, 5].  implied_vol inverts the
    Garman-Kohlhagen price of the quoted vol at a quoted maturity, with the
    strike within one standard deviation of the forward.
    """
    codes = market.codes
    ops = []
    for n in range(n_each):
        a, b, c, d = rng.choice(codes, size=4, replace=False)
        shape = n % 20
        maturity = round(float(rng.uniform(0.1, 5.0)), 4)
        if shape < 9:
            ops.append({"op": "corr", "pair_a": label(a, b), "pair_b": label(a, c),
                        "maturity": maturity, "formula": "triangle"})
        elif shape < 18:
            ops.append({"op": "corr", "pair_a": label(a, b), "pair_b": label(c, d if shape % 2 else b),
                        "maturity": maturity, "formula": "cross"})
        else:
            ops.append({"op": "corr", "pair_a": label(a, b),
                        "pair_b": label(a, b) if shape % 2 else label(b, a),
                        "maturity": maturity, "formula": "degenerate"})
    for _ in range(n_each):
        a, b, c, d = rng.choice(codes, size=4, replace=False)
        ops.append({"op": "term", "pair_a": oriented(rng, a, b), "pair_b": oriented(rng, c, d)
                    if rng.random() < 0.5 else oriented(rng, a, c), "buckets": list(TERM_BUCKETS)})
    for _ in range(n_each):
        a, b = rng.choice(codes, size=2, replace=False)
        t = float(rng.choice(MATURITIES))
        sigma = math.sqrt(market.total_variance(a, b, t) / t)
        fwd = market.forward(a, b, t)
        strike = fwd * math.exp(float(rng.uniform(-1.0, 1.0)) * sigma * math.sqrt(t))
        kind = "call" if rng.random() < 0.5 else "put"
        ops.append({"op": "vol", "pair": label(a, b), "strike": strike, "maturity": t,
                    "kind": kind, "sigma": sigma,
                    "price": gk_price(market.spot(a, b), market.rate(a, t), market.rate(b, t),
                                      sigma, strike, t, kind)})
    return [ops[n] for n in rng.permutation(len(ops))]


def gk_price(spot, rate_dom, rate_fgn, sigma, strike, t, kind) -> float:
    """Garman-Kohlhagen price, written here so the checks do not trust the library."""
    fwd = spot * math.exp((rate_dom - rate_fgn) * t)
    sd = sigma * math.sqrt(t)
    d1 = (math.log(fwd / strike) + 0.5 * sd * sd) / sd
    d2 = d1 - sd
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    if kind == "call":
        return math.exp(-rate_dom * t) * (fwd * cdf(d1) - strike * cdf(d2))
    return math.exp(-rate_dom * t) * (strike * cdf(-d2) - fwd * cdf(-d1))
