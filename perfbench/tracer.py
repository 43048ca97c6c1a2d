"""Span and counter recorder for the traced benchmark run.

Spans are recorded from outside the library: ``patch`` replaces each
layer's public entry points, wherever an fxcorr module has bound them,
with a wrapper that opens a span, calls the original and closes the span.
A span holds a name, start, end, parent and operation id; spans stay in
compact arrays in memory and are written out once, at the end.  Counters
are taken in the same wrappers, from the arguments and results of the
call.  Only calls on the recording thread are traced.

A layer's self time is its spans' durations minus the parts covered by
their child spans, so the self times of one operation's span tree add up
to the operation's wall time, provided the spans nest
(``nesting_violations`` counts the ones that do not).
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._stack = [-1]
        self._thread = threading.get_ident()

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter() if start is None else start)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if end is None else end
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; open/close inlined to keep overhead low."""
        tracer, nid, stack, clock = self, self._name(name), self._stack, time.perf_counter
        get_ident, thread, ends = threading.get_ident, self._thread, self.end
        add_name, add_parent, add_op = self.name_id.append, self.parent.append, self.op.append
        add_start, add_end = self.start.append, self.end.append
        starts = self.start

        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_op(tracer.op_id)
            add_end(math.nan)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[idx] = clock()
                stack.pop()
                tracer.count(name + ".failed")
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 counter_names=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()), dtype=float))


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries


def _after_load(tracer, result, args, kwargs):
    tracer.count("market_data.snapshot_bytes", os.path.getsize(args[0] if args else kwargs["source"]))


def _after_implied_corr(tracer, result, args, kwargs):
    tracer.count(f"correlation.queries_{result.provenance.formula}")
    tracer.count("correlation.vols_used", len(result.provenance.vols))


def _after_build_matrix(tracer, result, args, kwargs):
    n = len(result.pairs)
    tracer.count("correlation.entries", n * (n - 1) // 2 * result.n_buckets)
    tracer.count("correlation.buckets", result.n_buckets)


def _after_price(tracer, result, args, kwargs):
    from fxcorr import montecarlo

    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.count("montecarlo.blocks", math.ceil(config.n_paths / montecarlo.BLOCK_PATHS))


# (module, function, span name, counter hook): the layer boundaries.
BOUNDARIES = (
    ("cli", "main", "cli.main", None),
    ("market_data", "load_snapshot", "market_data.load_snapshot", _after_load),
    ("term_structure", "horizon_vol", "term_structure.horizon_vol", None),
    ("correlation", "implied_corr", "correlation.implied_corr", _after_implied_corr),
    ("correlation", "term_corr", "correlation.term_corr", None),
    ("correlation", "build_matrix", "correlation.build_matrix", _after_build_matrix),
    ("vanilla", "implied_vol", "vanilla.implied_vol", None),
    ("montecarlo", "price", "montecarlo.price", _after_price),
    ("montecarlo", "simulate_increments", "montecarlo.simulate_increments", None),
)


def patch(tracer: Tracer):
    """Trace every boundary function wherever fxcorr modules bind it.

    Returns the list of boundaries that were not found, and a callable
    that restores the original bindings.
    """
    import importlib

    homes = {}
    for module_name in {b[0] for b in BOUNDARIES}:
        try:
            homes[module_name] = importlib.import_module(f"fxcorr.{module_name}")
        except ImportError:
            pass
    modules = [m for name, m in list(sys.modules.items()) if name == "fxcorr" or name.startswith("fxcorr.")]
    restore, missing = [], []
    for module_name, func_name, span, hook in BOUNDARIES:
        original = getattr(homes.get(module_name), func_name, None)
        if original is None:
            missing.append(span)
            continue
        wrapper = tracer.wrap(span, original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))

    def unpatch():
        for module, attr, original in restore:
            setattr(module, attr, original)

    return missing, unpatch


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=duration[inner], minlength=len(duration))
    return duration - covered


def nesting_violations(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> int:
    """Spans left open, ending before they start, reaching outside their
    parent, or overlapping an earlier sibling.  Self times are only
    meaningful when there are none: then no time is counted twice."""
    bad = ~(end >= start)
    inner = parent >= 0
    outer = parent[inner]
    bad[inner] |= (start[inner] < start[outer]) | (end[inner] > end[outer])
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    bad[order[1:][same & (start[order][1:] < end[order][:-1])]] = True
    return int(np.sum(bad))
