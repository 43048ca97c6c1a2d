"""Processes the benchmark starts: set-up probes, traced CLI calls, the
in-process quotes loop and the Monte Carlo engine probe.

    child.py setup SNAPSHOT
    child.py cli TRACE_OUT -- ARGV...
    child.py quotes OPS SNAPSHOT OUT [--trace]
    child.py engine SNAPSHOT PAYOFF GRID PATHS SEED ANTITHETIC OUT

Each writes its measurements to a file or to stdout for run.py to read.
Timestamps are ``time.perf_counter`` values, which on Linux come from the
system-wide monotonic clock, so the parent can compare them with its own.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402


def setup(snapshot: str) -> None:
    """A fresh interpreter's set-up: import numpy, import fxcorr.cli, load."""
    import numpy  # noqa: F401
    t_numpy = time.perf_counter()
    import fxcorr.cli  # noqa: F401
    t_fxcorr = time.perf_counter()
    from fxcorr.market_data import load_snapshot
    load_snapshot(snapshot)
    t_loaded = time.perf_counter()
    print(json.dumps([T_START, t_numpy, t_fxcorr, t_loaded]))


def cli(trace_out: str, argv: list[str]) -> int:
    """``fxcorr ARGV`` in-process with every layer boundary traced."""
    import numpy  # noqa: F401
    t_numpy = time.perf_counter()
    import fxcorr.cli
    t_fxcorr = time.perf_counter()
    from tracer import Tracer, patch

    tracer = Tracer()
    tracer.close(tracer.open("setup.import_numpy", T_START), t_numpy)
    tracer.close(tracer.open("setup.import_fxcorr", t_numpy), t_fxcorr)
    missing, _ = patch(tracer)
    out_path = trace_out + ".out"
    stdout = sys.stdout
    with open(out_path, "w") as sys.stdout:
        code = fxcorr.cli.main(argv)
    sys.stdout = stdout
    tracer.save(trace_out)
    with open(trace_out + ".json", "w") as fh:
        json.dump({"t_start": T_START, "missing": missing}, fh)
    return code


def quotes(ops_path: str, snapshot_path: str, out: str, trace: bool) -> None:
    """Closed loop of library queries, in whole passes over the op list.

    Each line on stdin holds a number of seconds: the loop runs that long,
    then answers ``done`` and waits for the next line, until stdin closes.
    The first pass keeps every output for the checks; later passes count
    outputs that differ from the first.  With ``trace``, passes alternate
    between untraced and traced, so overhead is measured in one process.
    """
    import numpy as np
    from fxcorr import correlation, market_data, vanilla
    from fxcorr.correlation import CorrQuery
    from fxcorr.market_data import FxPair
    from fxcorr.vanilla import VanillaSpec

    with open(ops_path) as fh:
        ops = json.load(fh)
    snap = market_data.load_snapshot(snapshot_path)

    def make(op):
        if op["op"] == "vol":
            pair = FxPair.parse(op["pair"])
            spec = VanillaSpec(pair, op["strike"], op["maturity"], op["kind"])

            def run():
                t = spec.maturity
                return vanilla.implied_vol(
                    spec, op["price"], snap.spot(pair),
                    snap.average_rate(pair.denominating, t), snap.average_rate(pair.foreign, t),
                )
            return run
        a, b = FxPair.parse(op["pair_a"]), FxPair.parse(op["pair_b"])
        if op["op"] == "corr":
            maturity = op["maturity"]

            def run():
                res = correlation.implied_corr(CorrQuery.total(a, b, maturity), snap)
                res.provenance.to_dict()
                return res.value
            return run
        buckets = tuple(op["buckets"])

        def run():
            return tuple(correlation.term_corr(CorrQuery.total(a, b, buckets[-1]), snap, buckets).values)
        return run

    calls = [make(op) for op in ops]
    first = [None] * len(calls)
    errors: dict[int, str] = {}
    mismatches = np.zeros(len(calls), dtype=np.int64)
    # 8 bytes a sample, so the worker's peak RSS does not grow with the op count
    latency = {False: array("d"), True: array("d")}
    tracer = None
    if trace:
        from tracer import Tracer, patch
        tracer = Tracer()
    clock = time.perf_counter
    passes = 0

    def run_until(deadline: float) -> None:
        nonlocal passes
        while passes == 0 or clock() < deadline:
            traced = trace and passes % 2 == 1
            if traced:
                _, unpatch = patch(tracer)
            samples = latency[traced]
            for n, call in enumerate(calls):
                if traced:
                    tracer.op_id = len(samples)
                    root = tracer.open("op")
                t0 = clock()
                try:
                    value = call()
                except Exception as exc:  # a failed query is a failed operation
                    value = exc
                t1 = clock()
                if traced:
                    tracer.close(root, t1)
                samples.append(t1 - t0)
                if isinstance(value, Exception):
                    errors.setdefault(n, f"{type(value).__name__}: {value}")
                    mismatches[n] += 1
                elif passes == 0:
                    first[n] = value
                elif value != first[n]:
                    mismatches[n] += 1
            if traced:
                unpatch()
            passes += 1

    loop_wall = 0.0
    for line in sys.stdin:
        segment_start = clock()
        run_until(segment_start + float(line))
        loop_wall += clock() - segment_start
        print("done", flush=True)
    np.savez(out, untraced=np.frombuffer(latency[False]), traced=np.frombuffer(latency[True]),
             mismatches=mismatches)
    with open(out + ".json", "w") as fh:
        json.dump({"first": first, "errors": {str(k): v for k, v in errors.items()},
                   "passes": passes, "loop_wall": loop_wall,
                   "vol_tol": vanilla.VOL_TOL}, fh)
    if trace:
        tracer.save(out + ".trace.npz")


def engine(snapshot_path, payoff_path, grid, paths, seed, antithetic, out) -> None:
    """The Monte Carlo engine alone, with vols and correlations supplied."""
    from fxcorr import montecarlo
    from fxcorr.correlation import build_matrix
    from fxcorr.market_data import load_snapshot
    from fxcorr.term_structure import PiecewiseConstant, horizon_vol

    snap = load_snapshot(snapshot_path)
    with open(payoff_path) as fh:
        payoff = montecarlo.payoff_from_dict(json.load(fh))
    grid = tuple(float(t) for t in grid.split(","))
    config = montecarlo.SimulationConfig(int(paths), int(seed), grid, antithetic == "1")
    if isinstance(payoff, montecarlo.BasketPayoff):
        pairs = tuple(sorted(payoff.weights, key=lambda p: p.label))
    else:
        pairs = (payoff.payoff_pair, payoff.barrier_pair)
    bounds = (0.0,) + grid
    vols = {
        pair: PiecewiseConstant(bounds, tuple(
            horizon_vol(snap.vol_structure(pair), a, b) for a, b in zip(bounds, bounds[1:])))
        for pair in pairs
    }
    corr = build_matrix(pairs, snap, grid)
    result = {}
    for workers in (1, 2):
        w0, c0 = time.perf_counter(), time.process_time()
        montecarlo.price(payoff, snap, config, vols=vols, corr=corr, workers=workers)
        result[f"price_w{workers}_wall"] = time.perf_counter() - w0
        result[f"price_w{workers}_cpu"] = time.process_time() - c0
    w0 = time.perf_counter()
    montecarlo.simulate_increments(pairs, vols, corr, config, snap.rates)
    result["simulate_wall"] = time.perf_counter() - w0
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    command, args = sys.argv[1], sys.argv[2:]
    if command == "setup":
        setup(args[0])
    elif command == "cli":
        sys.exit(cli(args[0], args[2:]))
    elif command == "quotes":
        quotes(args[0], args[1], args[2], "--trace" in args[3:])
    elif command == "engine":
        engine(*args)
    else:
        sys.exit(f"unknown command {command!r}")
