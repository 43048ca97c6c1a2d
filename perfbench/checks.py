"""Output checks for every workload, and self-tests that make each check fire.

Each check returns a list of problems; an empty list means the output
passed.  The correlation oracle is the squared-vol matrix D of a bucket:

    Cov(Y_ij, Y_mk) = (D_ik + D_mj - D_jk - D_im) / 2

which covers the triangle (m = i), cross and degenerate cases at once and
shares no code with the library's formulas.

Run ``python3 perfbench/checks.py`` to run the self-tests alone.
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_TOL = 1e-12
MC_Z = 4.0
PARITY_REL = 1e-12


def oracle_corr(codes, d: np.ndarray, pairs_a, pairs_b) -> np.ndarray:
    """Correlations between log-increments of pairs_a[n] and pairs_b[m]."""
    index = {c: n for n, c in enumerate(codes)}
    i = np.array([index[p.split("/")[0]] for p in pairs_a])
    j = np.array([index[p.split("/")[1]] for p in pairs_a])
    m = np.array([index[p.split("/")[0]] for p in pairs_b])
    k = np.array([index[p.split("/")[1]] for p in pairs_b])
    ii, jj = i[:, None], j[:, None]
    mm, kk = m[None, :], k[None, :]
    cov = 0.5 * (d[ii, kk] + d[mm, jj] - d[jj, kk] - d[ii, mm])
    return cov / np.sqrt(d[i, j][:, None] * d[m, k][None, :])


def check_quote(op: dict, output, market, vol_tol: float) -> list[str]:
    """One quotes-g10 operation's output against the oracle."""
    if op["op"] == "vol":
        if not abs(output - op["sigma"]) <= vol_tol:
            return [f"implied_vol {op['pair']} recovered {output!r}, expected {op['sigma']!r}"]
        return []
    if op["op"] == "corr":
        spans = [(0.0, op["maturity"])]
        values = [output]
    else:
        points = (0.0,) + tuple(op["buckets"])
        spans = list(zip(points, points[1:]))
        values = list(output)
        if len(values) != len(spans):
            return [f"term_corr returned {len(values)} buckets, expected {len(spans)}"]
    problems = []
    for (start, end), value in zip(spans, values):
        codes, d = market.squared_vols(start, end)
        want = float(oracle_corr(codes, d, [op["pair_a"]], [op["pair_b"]])[0, 0])
        if not abs(value - want) <= ORACLE_TOL:
            problems.append(f"corr {op['pair_a']} vs {op['pair_b']} over ({start}, {end}]: "
                            f"{value!r}, oracle {want!r}")
    return problems


def check_price_doc(doc: dict, n_paths: int, currency: str) -> list[str]:
    """Shape of a price output: finite non-negative price, positive SE."""
    result = doc.get("result", {})
    price, se = result.get("price"), result.get("standard_error")
    if not (isinstance(price, float) and math.isfinite(price) and price >= 0):
        return [f"price {price!r} is not a finite non-negative number"]
    if not (isinstance(se, float) and se > 0 and math.isfinite(se)):
        return [f"standard error {se!r} is not positive"]
    if result.get("n_paths") != n_paths or result.get("discount_currency") != currency:
        return [f"result reports {result.get('n_paths')} paths in {result.get('discount_currency')}"]
    return []


def check_same_result(doc: dict, reference: dict, what: str) -> list[str]:
    if doc.get("result") != reference.get("result"):
        return [f"result differs from {what}"]
    return []


def check_within_se(result: dict, expected: float, what: str) -> list[str]:
    z = (result["price"] - expected) / result["standard_error"]
    if not abs(z) <= MC_Z:
        return [f"{what}: price {result['price']!r} is {z:.2f} SE from {expected!r}"]
    return []


def check_parity(knock_in: float, knock_out: float, vanilla: float) -> list[str]:
    if not abs(knock_in + knock_out - vanilla) <= PARITY_REL * abs(vanilla):
        return [f"knock-in {knock_in!r} + knock-out {knock_out!r} != vanilla {vanilla!r}"]
    return []


# ---------------------------------------------------------------------------
# Self-tests: each feeds a check a deliberately wrong output.


def _expect(condition, what: str = "a check") -> None:
    if not condition:
        raise AssertionError(f"self-test failed: {what}")


def self_test() -> None:
    """Raise AssertionError unless every check passes good output and fires on bad."""
    from inputs import Market, make_snapshot

    market = Market(make_snapshot(np.random.default_rng(0), ("EUR", "JPY", "USD", "GBP")))
    corr = {"op": "corr", "pair_a": "EUR/USD", "pair_b": "USD/JPY", "maturity": 0.7}
    codes, d = market.squared_vols(0.0, 0.7)
    value = float(oracle_corr(codes, d, ["EUR/USD"], ["USD/JPY"])[0, 0])
    _expect(check_quote(corr, value, market, 1e-10) == [])
    _expect(check_quote(corr, value + 1e-9, market, 1e-10), "corr check did not fire")
    _expect(check_quote(dict(corr, pair_b="JPY/USD"), value, market, 1e-10), "orientation")
    _expect(check_quote({"op": "corr", "pair_a": "EUR/USD", "pair_b": "USD/EUR",
                         "maturity": 1.0}, -1.0, market, 1e-10) == [], "degenerate")
    term = {"op": "term", "pair_a": "EUR/USD", "pair_b": "GBP/JPY", "buckets": [0.5, 1.0]}
    _expect(check_quote(term, [0.0, 0.0], market, 1e-10), "term check did not fire")
    _expect(check_quote(term, [0.0], market, 1e-10), "bucket count check did not fire")
    vol = {"op": "vol", "pair": "EUR/USD", "sigma": 0.1}
    _expect(check_quote(vol, 0.1, market, 1e-10) == [])
    _expect(check_quote(vol, 0.1 + 1e-9, market, 1e-10), "implied vol check did not fire")

    result = {"price": 0.05, "standard_error": 1e-4, "n_paths": 10, "discount_currency": "USD"}
    _expect(check_price_doc({"result": result}, 10, "USD") == [])
    _expect(check_price_doc({"result": dict(result, price=float("nan"))}, 10, "USD"))
    _expect(check_price_doc({"result": dict(result, standard_error=0.0)}, 10, "USD"))
    _expect(check_price_doc({"result": result}, 20, "USD"))
    _expect(check_same_result({"result": result}, {"result": result}, "ref") == [])
    _expect(check_same_result({"result": dict(result, price=0.05000000000000001)},
                              {"result": result}, "ref"), "same-result check did not fire")
    _expect(check_within_se(result, 0.0503, "gk") == [])
    _expect(check_within_se(result, 0.0505, "gk"))
    _expect(check_parity(0.02, 0.03, 0.05) == [])
    _expect(check_parity(0.02, 0.03, 0.0500001))


if __name__ == "__main__":
    self_test()
    print("all check self-tests passed")
