"""fxcorr benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/fxcorr``, used as a user would: the CLI as a subprocess for the
heavy commands, the library in a worker process for the quick queries.
One client drives each workload in a closed loop for S seconds.  Inputs
are generated from the seed and reach the program only as files and argv.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` a separate traced run reports per-layer metrics instead.
The lines before it are a JSON report with sample counts, the environment,
calibration timings and every check.  See perfbench/README.md.
"""

import os

# Every process the benchmark starts, and numpy here, runs BLAS single-threaded,
# so the thread count is the one --workers asks for.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import nesting_violations, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = str(HERE / "child.py")
# Set-up probes are spread evenly through the closed loop, so the slowest of
# them see the host's loaded state as the slowest passes do.
SETUP_PROBES = 20
CHILD_TIMEOUT = 120.0
MC_PATHS = 200_000
# time_to_target_se_s aims at a standard error of this share of the price.
TARGET_SE_SHARE = {"basket-g10": 1e-3, "barrier-weekly": 1e-3}
# Percentiles finer than p99 measure the machine's hiccups, not the program:
# the 10th-slowest of ~100k quotes-g10 queries ranged 0.7-4.1 ms across runs,
# and their p99.9 had an interquartile spread of 0.22 over ten seeds.
TAIL_CAP = 99.0
# The 2-core VM switches every few seconds between a fast state and a loaded
# one in which pure-Python work runs 1.4-1.9x slower.  A 30-s run spent 28-68%
# of its time loaded in a 5-minute trace, so the median of ~100k quotes-g10
# queries lands in either state; and some runs have no fast state at all.
# quotes-g10's latency_p50_s and every setup_s are therefore taken over the
# slowest share of short passes or probes, which each run in one state.  A CLI
# run has only ~30 calls of ~1 s, and uses the median of all of them.
SLOW_SHARE = 0.2
# In the report but not in BENCHMARK.json: with one client in a closed loop,
# ops_per_s is 1 / mean latency, which repeats latency_p50_s with more noise;
# latency_all_p50_s is the median over every operation, in either state.
REPORT_ONLY = ("ops_per_s", "latency_all_p50_s")
LAYERS = ("setup", "cli", "market_data", "term_structure", "vanilla", "correlation", "montecarlo")


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child would not start)."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path | None = None,
          talk=None, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run a child to completion: wall time from spawn to exit, and its peak RSS.

    With ``talk``, the child's stdin and stdout are pipes, and ``talk(proc)``
    converses with it before it is waited for.
    """
    pipe = subprocess.PIPE if talk else None
    with open(stdout_path, "wb") as out, open(stderr_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe or out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            if talk:
                talk(proc)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "t0": t0, "t1": t1, "wall": t1 - t0, "rss_mb": usage.ru_maxrss / 1024.0}


def fxcorr_cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "fxcorr.cli", *argv]


def calibrate() -> float:
    """A fixed pure-Python loop; its time shows how loaded the machine is."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - t0


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, capped at
    TAIL_CAP; the median if that falls below it.  Returns (value,
    percentile, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    idx = min(n - 11, math.ceil(TAIL_CAP / 100.0 * n) - 1)
    if idx < 0 or ordered[idx] < median:
        return median, 50.0, n // 2
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.snapshot = work / "snapshot.json"

    def write_snapshot(self, codes) -> None:
        doc = inputs.make_snapshot(self.rng, codes)
        self.snapshot.write_text(json.dumps(doc, indent=1))
        self.market = inputs.Market(doc)


class PriceWorkload(Workload):
    """CLI ``price`` at 200k paths, 2 workers, repeated by one client.

    Every output is checked; the model checks run once per run, untimed.
    """

    grid: tuple[float, ...] = ()
    antithetic = False

    def write_payoff(self, name: str, doc: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(doc))
        return path

    def price_argv(self, payoff: Path, workers: int = 2) -> list[str]:
        argv = ["price", str(self.snapshot), str(payoff), "--grid", ",".join(map(repr, self.grid)),
                "--paths", str(MC_PATHS), "--seed", str(self.seed % 2**31), "--workers", str(workers)]
        return argv + (["--antithetic"] if self.antithetic else [])

    def argv(self) -> list[str]:
        return self.price_argv(self.payoff)

    def check_op(self, doc, first):
        problems = checks.check_price_doc(doc, MC_PATHS, "USD")
        if first is not None:
            problems += checks.check_same_result(doc, first, "the first operation")
        return problems

    def price_once(self, payoff: Path, workers: int = 2) -> tuple[dict | None, list[str]]:
        out = self.work / f"check-{payoff.stem}-w{workers}.json"
        res = spawn(fxcorr_cli(self.price_argv(payoff, workers)), out, self.work / "check.err")
        if res["rc"] != 0:
            return None, [f"{payoff.stem} with {workers} workers exited {res['rc']}"]
        doc = json.loads(out.read_text())
        return doc, checks.check_price_doc(doc, MC_PATHS, "USD")

    def run_checks(self, reference):
        doc, problems = self.price_once(self.payoff, workers=1)
        if doc is not None:
            problems += checks.check_same_result(doc, reference, "--workers 2")
        return problems + self.model_checks(reference["result"])


class BasketG10(PriceWorkload):
    name = "basket-g10"
    grid = tuple((m + 1) / 12 for m in range(12))
    antithetic = True

    def prepare(self) -> None:
        self.write_snapshot(inputs.G10)
        legs = [c for c in inputs.G10 if c != "USD"]
        self.weights = {c: 1.0 / (len(legs) * self.market.spot("USD", c)) for c in legs}
        self.payoff = self.write_payoff("basket.json", self.basket_doc(self.forward()))

    def forward(self) -> float:
        t = self.grid[-1]
        return sum(w * self.market.forward("USD", c, t) for c, w in self.weights.items())

    def basket_doc(self, strike: float) -> dict:
        return {"type": "basket", "kind": "call", "strike": strike,
                "weights": [{"pair": f"USD/{c}", "weight": w} for c, w in self.weights.items()]}

    def model_checks(self, result):
        strike = 1e-9
        doc, problems = self.price_once(self.write_payoff("basket-zero-strike.json", self.basket_doc(strike)))
        if doc is None:
            return problems
        t = self.grid[-1]
        expected = math.exp(-self.market.rate("USD", t) * t) * (self.forward() - strike)
        return problems + checks.check_within_se(doc["result"], expected, "zero-strike basket vs forward")


class BarrierWeekly(PriceWorkload):
    name = "barrier-weekly"
    grid = tuple((w + 1) / 52 for w in range(52))

    def prepare(self) -> None:
        self.write_snapshot(inputs.G10)
        t = self.grid[-1]
        self.strike = self.market.forward("USD", "EUR", t)
        sigma = math.sqrt(self.market.total_variance("JPY", "EUR", t) / t)
        level = self.market.forward("JPY", "EUR", t) * math.exp(0.8 * sigma * math.sqrt(t))
        self.barrier = {"type": "barrier", "payoff_pair": "USD/EUR", "strike": self.strike,
                        "kind": "call", "barrier_pair": "JPY/EUR", "barrier_level": level,
                        "direction": "up", "style": "knock-out"}
        self.payoff = self.write_payoff("barrier.json", self.barrier)

    def model_checks(self, result):
        t = self.grid[-1]
        vanilla_path = self.write_payoff("vanilla.json", {"type": "vanilla", "pair": "USD/EUR",
                                                          "strike": self.strike, "kind": "call"})
        vanilla, problems = self.price_once(vanilla_path)
        knock_in, more = self.price_once(self.write_payoff("knock-in.json",
                                                           dict(self.barrier, style="knock-in")))
        problems += more
        if vanilla is None or knock_in is None:
            return problems
        sigma = math.sqrt(self.market.total_variance("USD", "EUR", t) / t)
        gk = inputs.gk_price(self.market.spot("USD", "EUR"), self.market.rate("USD", t),
                             self.market.rate("EUR", t), sigma, self.strike, t, "call")
        problems += checks.check_within_se(vanilla["result"], gk, "vanilla USD/EUR vs Garman-Kohlhagen")
        problems += checks.check_parity(knock_in["result"]["price"], result["price"],
                                        vanilla["result"]["price"])
        return problems


class QuotesG10(Workload):
    name = "quotes-g10"

    def prepare(self) -> None:
        self.write_snapshot(inputs.G10)
        self.ops = inputs.quote_ops(self.rng, self.market, n_each=100)
        self.ops_path = self.work / "ops.json"
        self.ops_path.write_text(json.dumps(self.ops))


WORKLOADS = {w.name: w for w in (QuotesG10, BasketG10, BarrierWeekly)}


# ---------------------------------------------------------------------------
# Measurement


def setup_probe(wl: Workload) -> dict:
    """A fresh interpreter that imports fxcorr.cli and loads the snapshot."""
    out = wl.work / "setup.json"
    res = spawn([sys.executable, CHILD, "setup", str(wl.snapshot)], out, wl.work / "setup.err")
    if res["rc"] != 0:
        raise BenchError("set-up probe failed: " + (wl.work / "setup.err").read_text()[-2000:])
    t_start, t_numpy, t_fxcorr, t_loaded = json.loads(out.read_text())
    res.update(interpreter=t_start - res["t0"], import_numpy=t_numpy - t_start,
               import_fxcorr=t_fxcorr - t_numpy, load_snapshot=t_loaded - t_fxcorr)
    return res


def cli_loop(wl: PriceWorkload, seconds: float, trace: bool) -> dict:
    """Closed loop of CLI calls; with ``trace``, untraced and traced calls alternate.

    Set-up probes run between calls, one every ``seconds / SETUP_PROBES``,
    after one warm-up probe (bytecode, page cache) that is not reported.
    """
    ops, probes = [], []
    setup_probe(wl)
    start = time.perf_counter()
    deadline = start + seconds
    while not ops or time.perf_counter() < deadline:
        probe_due = start + (len(probes) + 0.5) * seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and time.perf_counter() >= probe_due:
            probes.append(setup_probe(wl))
            continue
        n = len(ops)
        traced = trace and n % 2 == 1
        out = wl.work / f"op-{n}.json"
        if traced:
            argv = [sys.executable, CHILD, "cli", str(wl.work / f"trace-{n}.npz"), "--", *wl.argv()]
            out = wl.work / f"trace-{n}.npz.out"
            res = spawn(argv, wl.work / f"op-{n}.stdout", wl.work / f"op-{n}.err")
        else:
            res = spawn(fxcorr_cli(wl.argv()), out, wl.work / f"op-{n}.err")
        res.update(traced=traced, out=out, index=n)
        ops.append(res)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(wl))
    loop_wall = sum(op["wall"] for op in ops)

    problems: dict[int, list[str]] = {}
    first = None
    for op in ops:
        if op["rc"] != 0:
            err = (wl.work / f"op-{op['index']}.err").read_text()[-500:]
            problems[op["index"]] = [f"exit code {op['rc']}: {err}"]
            continue
        doc = json.loads(op["out"].read_text())
        found = wl.check_op(doc, first)
        if found:
            problems[op["index"]] = found
        elif first is None:
            first = doc
        op["output_bytes"] = op["out"].stat().st_size
    run_problems = wl.run_checks(first) if first is not None else ["no operation succeeded"]
    return {"ops": ops, "probes": probes, "loop_wall": loop_wall, "problems": problems,
            "run_problems": run_problems}


def load_cli_traces(wl: Workload, ops: list[dict]) -> dict:
    """Merge each traced call's spans under a root span from spawn to exit."""
    names, name_id, parent, op_ids, start, end = [], [], [], [], [], []
    counters: dict[str, float] = {}
    missing = set()
    traced = [op for op in ops if op["traced"] and op["rc"] == 0]
    for k, op in enumerate(traced):
        path = wl.work / f"trace-{op['index']}.npz"
        meta = json.loads(Path(str(path) + ".json").read_text())
        missing.update(meta["missing"])
        with np.load(path) as data:
            local = {n: i for i, n in enumerate(data["names"].tolist())}
            base = sum(len(a) for a in start)
            remap = np.array([_name_index(names, n) for n in local], dtype=np.int32)
            root = base
            name_id.append(np.array([_name_index(names, "op"), _name_index(names, "setup.interpreter")],
                                    dtype=np.int32))
            parent.append(np.array([-1, root], dtype=np.int32))
            start.append(np.array([op["t0"], op["t0"]]))
            end.append(np.array([op["t1"], meta["t_start"]]))
            p = data["parent"]
            name_id.append(remap[data["name_id"]] if len(p) else np.zeros(0, np.int32))
            parent.append(np.where(p < 0, root, p + base + 2).astype(np.int32))
            start.append(data["start"])
            end.append(data["end"])
            op_ids.append(np.full(len(p) + 2, k, dtype=np.int32))
            for cname, cvalue in zip(data["counter_names"].tolist(), data["counter_values"].tolist()):
                counters[cname] = counters.get(cname, 0.0) + cvalue
        counters["cli.output_bytes"] = counters.get("cli.output_bytes", 0.0) + op["output_bytes"]
    return _trace(names, name_id, parent, op_ids, start, end, counters, len(traced), missing)


def _name_index(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def _trace(names, name_id, parent, op_ids, start, end, counters, n_ops, missing) -> dict:
    cat = lambda parts, dtype: np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)
    return {"names": names, "name_id": cat(name_id, np.int32), "parent": cat(parent, np.int32),
            "op": cat(op_ids, np.int32), "start": cat(start, float), "end": cat(end, float),
            "counters": counters, "n_ops": n_ops, "missing": sorted(missing)}


def load_quote_trace(path: Path) -> dict:
    with np.load(path) as data:
        counters = dict(zip(data["counter_names"].tolist(), data["counter_values"].tolist()))
        n_ops = int(np.sum(data["parent"] == -1))
        return _trace(data["names"].tolist(), [data["name_id"]], [data["parent"]], [data["op"]],
                      [data["start"]], [data["end"]], counters, n_ops, ())


def save_trace(trace: dict, path: Path) -> None:
    np.savez(path, names=np.array(trace["names"], dtype=str), name_id=trace["name_id"],
             parent=trace["parent"], op=trace["op"], start=trace["start"], end=trace["end"])


def layer_metrics(trace: dict, probes: list[dict], extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced operation) and the accounting."""
    names, name_id = trace["names"], trace["name_id"]
    duration = trace["end"] - trace["start"]
    own = self_times(trace["parent"], trace["start"], trace["end"])
    n_ops = max(trace["n_ops"], 1)
    c = trace["counters"]
    by_name = lambda weights: dict(zip(names, np.bincount(name_id, weights, minlength=len(names)) / n_ops))
    incl, own_by_name, calls = by_name(duration), by_name(own), by_name(None)

    def self_of(prefix):
        return float(sum(v for k, v in own_by_name.items() if k.startswith(prefix)))

    def count(name):
        return c.get(name, 0.0) / n_ops

    med = lambda key: statistics.median(p[key] for p in probes)
    build = float(incl.get("correlation.build_matrix", 0.0))
    price = extra.get("price_wall", 0.0)
    m = {
        "setup.interpreter_s": (med("interpreter"), "s"),
        "setup.import_numpy_s": (med("import_numpy"), "s"),
        "setup.import_fxcorr_s": (med("import_fxcorr"), "s"),
        "market_data.load_snapshot_s": (med("load_snapshot"), "s"),
        "market_data.snapshot_bytes": (float(extra["snapshot_bytes"]), "bytes"),
        "correlation.build_matrix_s": (build, "s"),
        "correlation.entries": (count("correlation.entries"), "count"),
        "correlation.entries_per_s": (count("correlation.entries") / build if build else 0.0, "1/s"),
        "correlation.buckets": (count("correlation.buckets"), "count"),
        "correlation.implied_corr_s": (float(incl.get("correlation.implied_corr", 0.0)), "s"),
        "correlation.term_corr_s": (float(incl.get("correlation.term_corr", 0.0)), "s"),
        "correlation.vols_used": (count("correlation.vols_used"), "count"),
        "correlation.queries_triangle": (count("correlation.queries_triangle"), "count"),
        "correlation.queries_cross": (count("correlation.queries_cross"), "count"),
        "correlation.queries_degenerate": (count("correlation.queries_degenerate"), "count"),
        "term_structure.horizon_vol_s": (float(incl.get("term_structure.horizon_vol", 0.0)), "s"),
        "term_structure.horizon_vol_calls": (float(calls.get("term_structure.horizon_vol", 0.0)), "count"),
        "vanilla.implied_vol_s": (float(incl.get("vanilla.implied_vol", 0.0)), "s"),
        "vanilla.implied_vol_calls": (float(calls.get("vanilla.implied_vol", 0.0)), "count"),
        "vanilla.implied_vol_failed": (count("vanilla.implied_vol.failed"), "count"),
        "montecarlo.price_s": (price, "s"),
        "montecarlo.simulate_s": (extra.get("simulate_wall", 0.0), "s"),
        "montecarlo.path_steps_per_s": (extra.get("path_steps", 0.0) / price if price else 0.0, "1/s"),
        "montecarlo.cpu_per_wall": (extra.get("cpu_per_wall", 0.0), "ratio"),
        "montecarlo.scaling_2w": (extra.get("scaling_2w", 0.0), "ratio"),
        "montecarlo.blocks": (count("montecarlo.blocks"), "count"),
        "cli.main_s": (float(incl.get("cli.main", 0.0)), "s"),
        "cli.self_s": (self_of("cli."), "s"),
        "cli.output_bytes": (count("cli.output_bytes"), "bytes"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (self_of(layer + "."), "s")
    wall = float(incl.get("op", 0.0))
    unattributed = float(own_by_name.get("op", 0.0))
    m["trace.op_wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.overhead_s"] = (extra["overhead"], "s")
    accounting = {
        "traced_ops": trace["n_ops"],
        "mean_traced_wall_s": wall,
        "mean_layer_self_sum_s": sum(m[f"{layer}.self_s"][0] for layer in LAYERS),
        "mean_unattributed_s": unattributed,
        "tracing_overhead_s": extra["overhead"],
        "nesting_violations": nesting_violations(trace["parent"], trace["start"], trace["end"]),
        "note": "spans that nest tile each operation, so per operation the layer self times plus the "
                "unattributed time equal the traced wall time; traced wall minus untraced wall is the "
                "tracing overhead",
        "boundaries_not_found": trace["missing"],
        "unmeasured": "normal draws, increment assembly, payoff evaluation and reduction inside "
                      "montecarlo.price have no public entry point, so they are not timed apart; "
                      "montecarlo.simulate_s covers draws and assembly together",
        "not_exercised": sorted(k for k, (v, u) in m.items() if v == 0.0 and u == "s"),
    }
    return m, accounting


def run_cli(wl: PriceWorkload, seconds: float, trace: bool) -> dict:
    loop = cli_loop(wl, seconds, trace)
    ops, probes = loop["ops"], loop["probes"]
    failed_all = bool(loop["run_problems"])
    failed = sum(1 for op in ops if failed_all or op["index"] in loop["problems"])
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall"] for op in plain]
    res = {"attempted": len(ops), "failed": failed, "problems": loop["problems"],
           "run_problems": loop["run_problems"], "probes": probes}
    if not trace:
        ok = len(plain) - sum(1 for op in plain if failed_all or op["index"] in loop["problems"])
        rss = [op["rss_mb"] for op in plain]
        res["e2e"], res["tail"] = latency_metrics(walls, 1, 1.0, ok / loop["loop_wall"],
                                                  time_to_target_factor(wl, ops), statistics.median(rss), len(rss))
        return res
    traced = [op for op in ops if op["traced"]]
    extra = {"snapshot_bytes": wl.snapshot.stat().st_size,
             "overhead": (statistics.median(op["wall"] for op in traced) - statistics.median(walls))
             if traced and walls else 0.0}
    extra.update(engine_probe(wl))
    return traced_result(res, load_cli_traces(wl, ops), probes, extra, wl.name)


def traced_result(res: dict, spans: dict, probes: list[dict], extra: dict, name: str) -> dict:
    save_trace(spans, ROOT / ".perfbench" / f"trace-{name}.npz")
    res["per_layer"], res["accounting"] = layer_metrics(spans, probes, extra)
    if res["accounting"]["nesting_violations"]:
        res["run_problems"] = res["run_problems"] + ["trace spans do not nest"]
    return res


def slowest(values: list[float], share: float = SLOW_SHARE) -> list[float]:
    """The highest ``share`` of ``values``, at least one."""
    return sorted(values)[-max(1, round(share * len(values))):]


def latency_metrics(walls: list[float], ops_per_pass: int, share: float, ops_per_s: float,
                    target_factor: float, rss_mb: float, rss_samples: int) -> tuple[dict, dict]:
    """End-to-end metrics as (value, unit, samples), and where the tail fell.

    ``walls`` holds whole passes of ``ops_per_pass`` operations in order.
    latency_p50_s is the median, over the slowest ``share`` of passes, of
    the pass's wall time per operation; the tail is over every operation.
    """
    n = len(walls)
    passes = [sum(walls[i:i + ops_per_pass]) / ops_per_pass for i in range(0, n, ops_per_pass)]
    loaded = slowest(passes, share)
    p50 = statistics.median(loaded)
    tail_value, pct, beyond = tail(walls)
    return {
        "latency_p50_s": (p50, "s", len(loaded)),
        "latency_tail_s": (tail_value, "s", n),
        "latency_all_p50_s": (statistics.median(walls), "s", n),
        "ops_per_s": (ops_per_s, "1/s", n),
        "time_to_target_se_s": (p50 * target_factor, "s", len(loaded)),
        "peak_rss_mb": (rss_mb, "MB", rss_samples),
    }, {"percentile": pct, "samples_beyond": beyond, "passes": len(passes), "loaded_passes": len(loaded),
        "ops_per_pass": ops_per_pass,
        "pass_quantiles_s": dict(zip(("p5", "p10", "p25", "p50", "p75", "p90", "p95"),
                                     np.quantile(passes, [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]).tolist()))}


def time_to_target_factor(wl: PriceWorkload, ops: list[dict]) -> float:
    """(standard error / target)^2; 1 for outputs that are exact in one call."""
    share = TARGET_SE_SHARE.get(wl.name)
    if share is None:
        return 1.0
    for op in ops:
        if op["rc"] == 0:
            result = json.loads(op["out"].read_text())["result"]
            return (result["standard_error"] / (share * result["price"])) ** 2
    return math.nan


def engine_probe(wl: PriceWorkload) -> dict:
    out = wl.work / "engine.json"
    argv = [sys.executable, CHILD, "engine", str(wl.snapshot), str(wl.payoff),
            ",".join(map(repr, wl.grid)), str(MC_PATHS), str(wl.seed % 2**31), "1" if wl.antithetic else "0",
            str(out)]
    res = spawn(argv, wl.work / "engine.stdout", wl.work / "engine.err")
    if res["rc"] != 0:
        raise BenchError("engine probe failed: " + (wl.work / "engine.err").read_text()[-2000:])
    e = json.loads(out.read_text())
    return {"price_wall": e["price_w2_wall"], "path_steps": MC_PATHS * len(wl.grid),
            "simulate_wall": e["simulate_wall"], "cpu_per_wall": e["price_w2_cpu"] / e["price_w2_wall"],
            "scaling_2w": e["price_w1_wall"] / e["price_w2_wall"]}


def run_quotes(wl: QuotesG10, seconds: float, trace: bool) -> dict:
    """One worker runs the closed loop in SETUP_PROBES segments of equal
    length; a set-up probe runs after each, while the worker waits."""
    out = wl.work / "quotes.npz"
    argv = [sys.executable, CHILD, "quotes", str(wl.ops_path), str(wl.snapshot), str(out)]
    probes = []
    setup_probe(wl)

    def talk(proc):
        with proc.stdin, proc.stdout:
            for _ in range(SETUP_PROBES):
                proc.stdin.write(f"{seconds / SETUP_PROBES!r}\n".encode())
                proc.stdin.flush()
                if not proc.stdout.readline():
                    return
                probes.append(setup_probe(wl))

    proc = spawn(argv + (["--trace"] if trace else []), wl.work / "quotes.stdout", wl.work / "quotes.err",
                 talk, CHILD_TIMEOUT + seconds)
    if proc["rc"] != 0:
        raise BenchError("quotes worker failed: " + (wl.work / "quotes.err").read_text()[-2000:])
    meta = json.loads((wl.work / "quotes.npz.json").read_text())
    with np.load(out) as data:
        untraced, traced, mismatches = data["untraced"], data["traced"], data["mismatches"]
    passes = meta["passes"]
    problems = {}
    for n, op in enumerate(wl.ops):
        if str(n) in meta["errors"]:
            problems[n] = [meta["errors"][str(n)]]
        else:
            found = checks.check_quote(op, meta["first"][n], wl.market, meta["vol_tol"])
            if found:
                problems[n] = found
    failed = sum(passes if n in problems else int(mismatches[n]) for n in range(len(wl.ops)))
    res = {"attempted": passes * len(wl.ops), "failed": failed, "problems": problems, "run_problems": [],
           "probes": probes}
    walls = untraced.tolist()
    if not trace:
        ops_per_s = (res["attempted"] - failed) / meta["loop_wall"]
        res["e2e"], res["tail"] = latency_metrics(walls, len(wl.ops), SLOW_SHARE, ops_per_s, 1.0,
                                                  proc["rss_mb"], 1)
        return res
    extra = {"snapshot_bytes": wl.snapshot.stat().st_size,
             "overhead": float(np.median(traced) - np.median(untraced))}
    return traced_result(res, load_quote_trace(Path(str(out) + ".trace.npz")), probes, extra, wl.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fxcorr" / "cli.py").is_file():
        print(f"error: no fxcorr sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    checks.self_test()

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        calibration_start = calibrate()
        if isinstance(wl, QuotesG10):
            res = run_quotes(wl, args.seconds, bool(args.trace))
        else:
            res = run_cli(wl, args.seconds, bool(args.trace))
        calibration_end = calibrate()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    probes = res["probes"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "client": "one client, closed loop",
        "environment": environment(),
        "calibration_s": {"start": calibration_start, "end": calibration_end},
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "problems": {str(k): v for k, v in list(res["problems"].items())[:20]},
        "run_checks": res["run_problems"] or "passed",
        "setup_probe_walls_s": sorted(p["wall"] for p in probes),
    }
    if args.trace:
        metrics = res["per_layer"]
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["accounting"] = res["accounting"]
    else:
        loaded_probes = slowest([p["wall"] for p in probes])
        metrics = {"setup_s": (statistics.median(loaded_probes), "s", len(loaded_probes))}
        metrics.update(res["e2e"])
        report["end_to_end"] = {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in metrics.items()}
        report["end_to_end"]["fail_ratio"] = {"value": report["fail_ratio"], "unit": "ratio",
                                              "samples": res["attempted"]}
        report["latency_tail"] = res["tail"]
    print(json.dumps(report, indent=1))
    result = {
        "correct": res["failed"] == 0 and not res["run_problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if k not in REPORT_ONLY},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
