"""Batch command-line front end.

Every subcommand reads a snapshot file, prints a JSON document with a
``result`` section and a ``manifest`` section (floats in round-trip
repr), and exits with a stable status code:

    0  success
    2  no implied vol exists (below intrinsic / above cap)
    3  missing market data (vol, spot, rate, or correlation entry)
    4  implied correlation outside [-1, 1] without --clamp
    5  calendar arbitrage (decreasing total variance)
    1  any other error

``--pretty`` switches to a human-readable rendering (10 significant
digits).  The only environment variable honoured is FXCORR_SNAPSHOT, an
optional default snapshot path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .correlation import CorrQuery, bucket_corrs, build_matrix, implied_corr, normalize_breakpoints
from .errors import (
    CalendarArbitrageError,
    CorrelationRangeError,
    FxCorrError,
    MissingDataError,
    NoImpliedVolError,
    ValidationError,
)
from .market_data import FxPair, MarketSnapshot, _loads_json, check_spot_triangles, load_snapshot
from .montecarlo import SimulationConfig, payoff_from_dict, payoff_to_dict, price
from .term_structure import bootstrap_piecewise_vol, total_variance
from .vanilla import VanillaSpec, implied_vol

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_IMPLIED_VOL = 2
EXIT_MISSING_DATA = 3
EXIT_CORR_RANGE = 4
EXIT_CALENDAR = 5


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, keeping exit status 2 reserved for no-implied-vol
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _comma_pairs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fxcorr",
        description="Implied FX correlations and multi-FX option pricing from a market snapshot.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    default_snapshot = os.environ.get("FXCORR_SNAPSHOT")

    def add_snapshot(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "snapshot",
            nargs="?" if default_snapshot else None,
            default=default_snapshot,
            help="snapshot file (JSON; defaults to $FXCORR_SNAPSHOT when set)",
        )
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("implied-vol", help="invert a vanilla price for its implied vol")
    add_snapshot(p)
    p.add_argument("--pair", required=True, help="pair label, denominating first (EUR/USD)")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--maturity", type=float, required=True, help="year fraction")
    p.add_argument("--price", type=float, required=True, help="market price, denominating units")
    p.add_argument("--kind", choices=["call", "put"], required=True)

    p = sub.add_parser("corr", help="implied correlation between two pairs")
    add_snapshot(p)
    p.add_argument("--pair-a", required=True)
    p.add_argument("--pair-b", required=True)
    p.add_argument("--clamp", action="store_true", help="clamp out-of-range results to +/-1")
    p.add_argument("--audit", action="store_true", help="include the full provenance record")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--maturity", type=float, help="total horizon (0, T]")
    group.add_argument("--buckets", type=_comma_floats, help="bucket boundaries, e.g. 0.5,1,2")

    p = sub.add_parser("corr-matrix", help="bucketed correlation matrix across pairs")
    add_snapshot(p)
    p.add_argument("--pairs", type=_comma_pairs, required=True, help="e.g. EUR/USD,EUR/JPY,JPY/USD")
    p.add_argument("--buckets", type=_comma_floats, required=True)
    p.add_argument("--repair", action="store_true", help="clip indefinite buckets' eigenvalues at 0 and "
                   "rescale to a unit diagonal; reports the Frobenius distance moved")
    p.add_argument("--clamp", action="store_true")

    p = sub.add_parser("price", help="Monte Carlo price of a payoff file")
    add_snapshot(p)
    p.add_argument("payoff", help="payoff spec file (JSON)")
    p.add_argument("--grid", type=_comma_floats, required=True,
                   help="simulation grid times; the last one is the maturity")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--repair", action="store_true")
    p.add_argument("--clamp", action="store_true")

    p = sub.add_parser("bootstrap", help="piecewise-constant forward vols for one pair")
    add_snapshot(p)
    p.add_argument("--pair", required=True)

    p = sub.add_parser("validate", help="run snapshot checks incl. spot triangles")
    add_snapshot(p)
    p.add_argument("--tol", type=float, default=1e-8, help="spot-triangle relative tolerance")

    return parser


def _manifest(args: argparse.Namespace, resolved: dict) -> dict:
    """Embedded in every output document: what produced the result.

    ``config`` is every option as parsed, in declaration order, with the
    values a command resolved (normalized buckets, the payoff document) in
    place of what was typed."""
    inputs = {"snapshot": args.snapshot}
    if hasattr(args, "payoff"):
        inputs["payoff"] = args.payoff
    config = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in {**vars(args), **resolved}.items()
        if key not in ("subcommand", "snapshot", "pretty") and value is not None
    }
    return {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "config": config,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(result: dict, args: argparse.Namespace, pretty_lines: list[str], **resolved) -> None:
    if args.pretty:
        for line in pretty_lines:
            print(line)
    else:
        doc = {"result": result, "manifest": _manifest(args, resolved)}
        try:  # strict JSON: a result that is not finite is an error, not Infinity or NaN
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            raise ValidationError("the result holds a value that is not finite") from None
        print(text)


def _g10(x: float) -> str:
    return format(x, ".10g")


def _cmd_implied_vol(args, snapshot: MarketSnapshot) -> int:
    pair = FxPair.parse(args.pair)
    spec = VanillaSpec(pair, args.strike, args.maturity, args.kind)
    spot = snapshot.spot(pair)
    rate_dom = snapshot.average_rate(pair.denominating, args.maturity)
    rate_fgn = snapshot.average_rate(pair.foreign, args.maturity)
    sigma = implied_vol(spec, args.price, spot, rate_dom, rate_fgn)
    result = {
        "implied_vol": sigma,
        "spot": spot,
        "rate_dom": rate_dom,
        "rate_fgn": rate_fgn,
    }
    _emit(result, args, [_g10(sigma)])
    return EXIT_OK


def _cmd_corr(args, snapshot: MarketSnapshot) -> int:
    pair_a = FxPair.parse(args.pair_a)
    pair_b = FxPair.parse(args.pair_b)
    resolved = {}
    if args.maturity is not None:
        res = implied_corr(CorrQuery.total(pair_a, pair_b, args.maturity), snapshot, clamp=args.clamp)
        result = {"correlation": res.value, "degenerate": res.degenerate}
        if args.audit:
            result["provenance"] = res.provenance.to_dict()
        pretty = [f"corr({pair_a}, {pair_b}; T={_g10(args.maturity)}) = {_g10(res.value)}"]
        if args.audit:
            pretty.append(f"  formula: {res.provenance.formula}")
            for v in res.provenance.vols:
                pretty.append(f"  {v.role} [{v.pair}] ({_g10(v.start)}, {_g10(v.end)}]: {_g10(v.sigma)}")
    else:
        breakpoints = resolved["buckets"] = normalize_breakpoints(args.buckets)
        query = CorrQuery.total(pair_a, pair_b, breakpoints[-1])
        results = bucket_corrs(query, snapshot, breakpoints, clamp=args.clamp)
        result = {"buckets": [
            {"start": r.provenance.start, "end": r.provenance.end, "correlation": r.value,
             **({"provenance": r.provenance.to_dict()} if args.audit else {})}
            for r in results
        ]}
        pretty = [f"corr({pair_a}, {pair_b}) per bucket:"] + [
            f"  ({_g10(r.provenance.start)}, {_g10(r.provenance.end)}]: {_g10(r.value)}"
            for r in results
        ]
    _emit(result, args, pretty, **resolved)
    return EXIT_OK


def _cmd_corr_matrix(args, snapshot: MarketSnapshot) -> int:
    pairs = [FxPair.parse(label) for label in args.pairs]
    matrix = build_matrix(pairs, snapshot, args.buckets, repair=args.repair, clamp=args.clamp)
    result = matrix.to_dict()
    pretty = [f"pairs: {', '.join(matrix.pairs)}"]
    for bucket in result["buckets"]:
        pretty.append(
            f"bucket ({_g10(bucket['start'])}, {_g10(bucket['end'])}]: "
            f"{bucket['status']} (min eigenvalue {_g10(bucket['min_eigenvalue'])})"
        )
        for row in bucket["matrix"]:
            pretty.append("  " + "  ".join(_g10(x) for x in row))
    _emit(result, args, pretty, buckets=matrix.breakpoints)
    return EXIT_OK


def _cmd_price(args, snapshot: MarketSnapshot) -> int:
    payoff = payoff_from_dict(_loads_json(Path(args.payoff).read_bytes()))
    result_obj = price(
        payoff, snapshot, SimulationConfig(args.paths, args.seed, args.grid, args.antithetic),
        workers=args.workers, repair=args.repair, clamp=args.clamp,
    )
    result = result_obj.to_dict()
    pretty = [
        f"price = {_g10(result_obj.price)} {result_obj.discount_currency}",
        f"standard error = {_g10(result_obj.standard_error)}",
        f"paths = {result_obj.n_paths}",
    ]
    _emit(result, args, pretty, payoff=payoff_to_dict(payoff))
    return EXIT_OK


def _cmd_bootstrap(args, snapshot: MarketSnapshot) -> int:
    pair = FxPair.parse(args.pair)
    ts = snapshot.vol_structure(pair)
    pc = bootstrap_piecewise_vol(ts)
    buckets = list(zip(pc.breakpoints, pc.breakpoints[1:], pc.values))
    residuals = [
        total_variance(pc, t) - sigma * sigma * t for t, sigma in ts.points
    ]
    result = {
        "pair": ts.pair.label,
        "buckets": [
            {"start": start, "end": end, "sigma": sigma} for start, end, sigma in buckets
        ],
        "reconstruction_residuals": residuals,
    }
    pretty = [f"forward vols for {ts.pair}:"]
    for start, end, sigma in buckets:
        pretty.append(f"  ({_g10(start)}, {_g10(end)}]: {_g10(sigma)}")
    pretty.append(f"max reconstruction residual: {_g10(max(abs(r) for r in residuals))}")
    _emit(result, args, pretty)
    return EXIT_OK


def _cmd_validate(args, snapshot: MarketSnapshot) -> int:
    violations = check_spot_triangles(snapshot, args.tol)
    result = {
        "as_of": snapshot.as_of,
        "pairs": [p.label for p in snapshot.pairs()],
        "currencies": [c.code for c in snapshot.currencies()],
        "triangle_violations": [
            {"currencies": [c.code for c in v.currencies], "magnitude": v.magnitude}
            for v in violations
        ],
        "consistent": not violations,
    }
    pretty = [f"snapshot {args.snapshot}: {len(result['pairs'])} vol pairs, "
              f"{len(result['currencies'])} currencies"]
    if violations:
        for v in violations:
            names = "/".join(c.code for c in v.currencies)
            pretty.append(f"  triangle violation {names}: {_g10(v.magnitude)}")
    else:
        pretty.append("  spot triangles consistent")
    _emit(result, args, pretty)
    return EXIT_OK if not violations else EXIT_ERROR


_COMMANDS = {
    "implied-vol": _cmd_implied_vol,
    "corr": _cmd_corr,
    "corr-matrix": _cmd_corr_matrix,
    "price": _cmd_price,
    "bootstrap": _cmd_bootstrap,
    "validate": _cmd_validate,
}

# (error class, exit status, stderr prefix): the first matching row applies
_EXITS = (
    (NoImpliedVolError, EXIT_NO_IMPLIED_VOL, ""),
    (MissingDataError, EXIT_MISSING_DATA, "missing data: "),
    (CorrelationRangeError, EXIT_CORR_RANGE, "correlation out of range: "),
    (CalendarArbitrageError, EXIT_CALENDAR, "calendar arbitrage: "),
    ((FxCorrError, OSError), EXIT_ERROR, ""),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)  # the snapshot is required unless FXCORR_SNAPSHOT is set
    try:
        return _COMMANDS[args.subcommand](args, load_snapshot(args.snapshot))
    except (FxCorrError, OSError) as exc:
        status, prefix = next((status, prefix) for cls, status, prefix in _EXITS if isinstance(exc, cls))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    raise SystemExit(main())
