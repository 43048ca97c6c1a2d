"""Correlated multi-FX Monte Carlo with deterministic parallel execution.

Each pair's log-increment over a grid step (t_m, t_m+1] is

    (r_d - r_f - sigma^2/2) dt + sigma sqrt(dt) (L z)

with per-step constant vols and correlation factor L, so the stepping is
exact in the marginals (no discretization bias).  Rates enter as exact
integrated-rate differences over the step.

Vanillas and baskets read only X(T), and the sum of a grid's steps is one
Gaussian step with drift sum_m drift_m and covariance sum_m D_m C_m D_m,
where D_m = diag(sigma_m sqrt(dt_m)) and C_m is step m's correlation.  So
``price`` draws them in that one step; the grid still sets the maturity
and the breakpoint checks.  A barrier draws its paying pair the same way,
from the same stream, and then its barrier pair step by step given that
draw (a Brownian bridge), so an unreachable barrier is the vanilla bit for
bit.  A path whose payoff is 0 is worth 0 whatever its barrier does, so
only the paths that pay are bridged, and only up to the last monitoring
time.  Each bridged path is read on four bridges from one draw: the bridge
driven by its normals w, the one driven by eps w (the signs alternating
step by step, again an exact draw), and the mirrors of both, driven by -w
and -eps w, whose levels are a line in Z less the bridges'.  It pays its
value times the share of the four that breach (knock-in) or do not
(knock-out), so knock-in plus knock-out is still the vanilla path by path.
Every pair is simulated under the measure of the paying currency.

Determinism: paths are partitioned into fixed-size blocks and every
(block, pair-slot) draws its own segment of a counter-based generator
keyed by the seed, so path p is identical no matter how blocks are
scheduled across workers.  Reductions accumulate per-block partial sums
in block order, which keeps results bit-identical for any worker count.

Layout: no block is held whole.  The block runner only schedules blocks,
and each stage opens the block's streams it reads: Philox is counter-based,
so a stream read in chunks gives the normals it gives whole.  ``_block_steps``
yields a block's steps one after another, each in chunks of ``CHUNK_PATHS``
paths through two reused buffers (the normals and the increments), so a
worker holds two chunks and one float per path whatever the number of
steps.  A chunk is a range of draws in each half of the block, which its
consumers write through a (halves, draws) view of their block arrays.  The
draws know no payoff: a barrier's payoff stage keeps its paying pair's
terminal normals, frees the chunk buffers, and bridges the paths that pay
itself, whole, from the block's slot-1 stream.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Iterable, Iterator, Literal, Mapping, Sequence

import numpy as np

from .correlation import PSD_TOL, RANGE_SNAP, BucketedCorrelationMatrix, build_matrix, normalize_breakpoints
from .errors import (
    CorrelationRangeError, FactorizationError, MissingDataError, SchemaError, ValidationError,
)
from .market_data import (
    Currency, FxPair, MarketSnapshot, RateCurve, canonicalize,
    _check_real, _check_strike_kind, _check_times, _entries, _label, _number, _require_keys, _string, _unique,
    _warn_flat,
)
from .term_structure import PiecewiseConstant, _bucket, _bucket_vols

BLOCK_PATHS = 16384
CHUNK_PATHS = 2048  # a multiple of 8: the payoff's BLAS matvec sums rows in groups, which no chunk may split
_GRID_TOL = 1e-12


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, seed, monitoring grid, and the antithetic flag.

    The path count is an integer >= 1 (not a bool).  The seed is an
    integer in [0, 2**128), the Philox key range.  The grid
    must contain every breakpoint of every piecewise-constant input below
    its last point (checked at simulation time).
    """

    n_paths: int
    seed: int
    grid: tuple[float, ...]
    antithetic: bool = False

    def __post_init__(self):
        if isinstance(self.n_paths, bool) or not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise ValidationError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and 0 <= self.seed < 2**128):
            raise ValidationError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        object.__setattr__(self, "grid", _check_times(self.grid, "grid"))  # a list or an array is stored as a tuple
        if not isinstance(self.antithetic, bool):
            raise ValidationError(f"antithetic must be a bool, got {self.antithetic!r}")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic sampling requires an even n_paths")

    @property
    def horizon(self) -> float:
        return self.grid[-1]


@dataclass(frozen=True)
class VanillaPayoff:
    """max(±(X(T) - K), 0) in the pair's denominating currency."""

    pair: FxPair
    strike: float
    kind: Literal["call", "put"]

    def __post_init__(self):
        _check_strike_kind(self.strike, self.kind)


@dataclass(frozen=True)
class BasketPayoff:
    """max(±(sum of w_p X_p(T) - K), 0); pairs share one denominating currency."""

    weights: Mapping[FxPair, float]
    strike: float
    kind: Literal["call", "put"]

    def __post_init__(self):
        _check_strike_kind(self.strike, self.kind)
        if not self.weights:
            raise ValidationError("basket weights must be non-empty")
        for pair, weight in self.weights.items():
            _check_real(weight, f"basket weight of {pair}", "finite")
        denoms = {p.denominating for p in self.weights}
        if len(denoms) != 1:
            raise ValidationError(
                "basket pairs must share one denominating currency, got "
                + ", ".join(sorted(c.code for c in denoms))
            )


@dataclass(frozen=True)
class BarrierPayoff:
    """Vanilla payoff on one pair gated by a barrier on another pair.

    The barrier triggers when the barrier pair touches or crosses
    ``barrier_level`` at a monitoring time (discrete monitoring only, no
    continuity correction): X >= level for ``up``, X <= level for
    ``down``.  ``monitoring`` defaults to every grid time.
    """

    payoff_pair: FxPair
    strike: float
    kind: Literal["call", "put"]
    barrier_pair: FxPair
    barrier_level: float
    direction: Literal["up", "down"]
    style: Literal["knock-in", "knock-out"]
    monitoring: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_strike_kind(self.strike, self.kind)
        _check_real(self.barrier_level, "barrier level", "positive and finite")
        if self.direction not in ("up", "down"):
            raise ValidationError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.style not in ("knock-in", "knock-out"):
            raise ValidationError(f"style must be 'knock-in' or 'knock-out', got {self.style!r}")
        if self.monitoring is not None:
            object.__setattr__(self, "monitoring", _check_times(self.monitoring, "monitoring times"))  # as a tuple


PayoffSpec = VanillaPayoff | BasketPayoff | BarrierPayoff


@dataclass(frozen=True)
class PricingResult:
    price: float
    standard_error: float
    n_paths: int
    discount_currency: str
    discount_rate: float

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Engine


@dataclass(frozen=True)
class _Steps:
    """Per-step constants: everything the inner loop needs."""

    scale: np.ndarray       # (M, P, 1), sigma sqrt(dt)
    drift: np.ndarray       # (M, P, 1), includes the dt factor
    factors: tuple[np.ndarray, ...]  # per step, (P, P) with L L^T = C
    bridge: np.ndarray | None = None  # (M, 5): a barrier pair's q, L_mm, u (see _bridge), scale, drift


def _grid_index(grid: tuple[float, ...], t: float) -> int | None:
    """Index of the first grid time within ``_GRID_TOL`` of t, or None."""
    for m in range(bisect_left(grid, t - 2 * _GRID_TOL), len(grid)):  # none before: |g - t| > tol even rounded
        if abs(grid[m] - t) <= _GRID_TOL:
            return m
    return None


def _grid_buckets(grid: tuple[float, ...], mids: list[float], breakpoints: tuple[float, ...],
                  what: Callable[[], str], mapped: dict[tuple[float, ...], list[int]]) -> list[int]:
    """Each grid step's bucket of a bucketed input, at the step's mid: the grid must include every breakpoint
    before its end, and steps past the input's end read its last bucket, with one notice naming the input.
    ``mapped`` holds each breakpoint grid already mapped, and ``what()`` is called only for an error or a notice."""
    if breakpoints not in mapped:
        for b in breakpoints[1:]:
            if b < grid[-1] - _GRID_TOL and _grid_index(grid, b) is None:
                raise ValidationError(f"grid must include breakpoint {b} of {what()}")
        mapped[breakpoints] = [_bucket(breakpoints, t) for t in mids]
    if mids[-1] > breakpoints[-1]:
        _warn_flat(what(), breakpoints[-1], mids[-1])
    return mapped[breakpoints]


def _factor_matrix(matrix: np.ndarray, what: str) -> np.ndarray:
    # Cholesky when strictly PD; eigenvalue factor for PSD-but-singular
    # matrices (consistent triangles are structurally rank-deficient).
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(matrix)
        if eigvals[0] < -PSD_TOL:
            raise FactorizationError(
                f"correlation matrix for {what} is indefinite "
                f"(min eigenvalue {eigvals[0]:.3g}); repair it before simulating"
            ) from None
        return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))


def _prepare_steps(
    pairs: Sequence[FxPair],
    vols: Mapping[FxPair, PiecewiseConstant],
    corr: BucketedCorrelationMatrix | None,
    config: SimulationConfig,
    rates: Mapping[Currency, RateCurve] | None,
    measure: Currency | None = None,
) -> _Steps:
    """``measure=None`` gives each pair a/b the drift of its own measure, that
    of a.  With a currency d, every pair is simulated under d's measure: a
    pair with a != d gains the quanto drift (s_ab^2 + s_ad^2 - s_bd^2) dt / 2,
    which needs ``vols`` for a/d and for b/d (unless b is d), in either
    orientation."""
    n_pairs = len(pairs)
    if n_pairs == 0:
        raise ValidationError("need at least one pair")
    if len(set(pairs)) != n_pairs:
        raise ValidationError("pairs must be distinct")
    links = _links(pairs, measure)
    grid = np.array((0.0,) + config.grid)
    dt = np.diff(grid)
    mids = (0.5 * (grid[:-1] + grid[1:])).tolist()
    mapped = {}  # each distinct breakpoint grid is mapped onto the steps once
    sigma = []  # per pair, each step's vol
    for pair in (*pairs, *links):  # a vol is the same in either orientation
        structure = vols.get(pair, vols.get(pair.inverse()))
        if structure is None:
            raise MissingDataError(f"no vol structure supplied for pair {pair}")
        values, bounds = structure.values, structure.breakpoints
        for n, s in enumerate(values):
            if not (type(s) is float and 0.0 <= s < math.inf):  # the message is built only for a bad vol
                _check_real(s, f"vol of {pair} on bucket {n} ({bounds[n]}, {bounds[n + 1]}]", "finite and >= 0")
        sigma.append([values[n] for n in _grid_buckets(config.grid, mids, bounds, lambda: f"vols of {pair}", mapped)])
    if corr is not None:
        buckets = _grid_buckets(config.grid, mids, corr.breakpoints, lambda: "the correlation matrix", mapped)
    sigma = np.column_stack(sigma)  # per step, in rows
    rate_diff = 0.0
    if rates is not None:
        currencies = dict.fromkeys(c for pair in pairs for c in (pair.denominating, pair.foreign))
        if missing := [c for c in currencies if c not in rates]:
            raise MissingDataError(f"no rate curve for currency {missing[0]}")
        integrated = {c: np.diff([0.0] + [rates[c].integrated(t) for t in config.grid]) for c in currencies}
        rate_diff = np.stack([integrated[p.denominating] - integrated[p.foreign] for p in pairs], axis=1)
    variance = sigma * sigma * dt[:, None]  # per step: the simulated pairs, then the links
    drift = rate_diff - 0.5 * variance[:, :n_pairs]
    to_measure = {link.denominating: v for link, v in zip(links, variance[:, n_pairs:].T)}
    for p, pair in enumerate(pairs):  # X_{a/b}, a != d: + (s_ab^2 + s_ad^2 - s_bd^2) dt / 2
        if measure not in (None, pair.denominating):
            v_ab, v_ad, v_bd = variance[:, p], to_measure[pair.denominating], to_measure.get(pair.foreign, 0.0)
            covariance = 0.5 * (v_ab + v_ad - v_bd)  # of ln X_a/b and ln X_a/d: a correlation in [-1, 1]
            bad = np.abs(covariance) - np.sqrt(v_ab * v_ad) > RANGE_SNAP * (v_ab + v_ad + v_bd)
            if bad.any():
                m = int(bad.argmax())
                raise CorrelationRangeError(
                    f"vols of {pair}, {pair.denominating}/{measure} and {pair.foreign}/{measure} on grid "
                    f"step ({grid[m]}, {grid[m + 1]}] imply a correlation outside [-1, 1]"
                )
            drift[:, p] += covariance

    if corr is None:
        factors = (np.eye(n_pairs),) * len(mids)
    else:
        labels = list(corr.pairs)
        indices = []
        signs = np.empty(n_pairs)
        for p, pair in enumerate(pairs):
            cpair, flipped = canonicalize(pair)
            if cpair.label not in labels:
                raise MissingDataError(f"missing correlation entry for pair {pair}")
            indices.append(labels.index(cpair.label))
            signs[p] = -1.0 if flipped else 1.0
        block = np.ix_(indices, indices)
        bucket_factors = {  # the one PSD gate, on the block that is simulated
            n: _factor_matrix(corr.matrices[n][block] * np.outer(signs, signs), f"bucket {n}")
            for n in dict.fromkeys(buckets)
        }
        factors = tuple(bucket_factors[n] for n in buckets)

    return _Steps((sigma[:, :n_pairs] * np.sqrt(dt)[:, None])[..., None], drift[..., None], factors)


def _links(pairs: Sequence[FxPair], measure: Currency | None) -> list[FxPair]:
    """The pairs c/d whose vols set the quanto drift of the pairs that are
    not denominated in the measure currency d."""
    return [FxPair(c, measure) for c in dict.fromkeys(
        c for pair in pairs if measure not in (None, pair.denominating)
        for c in (pair.denominating, pair.foreign) if c != measure)]


def _terminal_steps(steps: _Steps, bridged: bool = False) -> _Steps:
    """The grid's steps as one step with the same terminal law, for payoffs
    that read only X(T): drift sum_m drift_m and covariance sum_m D_m C_m D_m,
    D_m = diag(sigma_m sqrt(dt_m)).  ``bridged`` (a barrier, paying pair first)
    collapses the paying pair alone, as for a vanilla, and bridges the last."""
    if bridged:
        pay = _terminal_steps(_Steps(steps.scale[:, :1], steps.drift[:, :1], (np.eye(1),) * len(steps.factors)))
        rho = np.clip([f[0] @ f[-1] for f in steps.factors], -1.0, 1.0)  # 1 for a barrier on the paying pair
        return replace(pay, bridge=np.stack([*_bridge(rho, steps.scale[:, 0, 0]), steps.scale[:, -1, 0],
                                             steps.drift[:, -1, 0]], axis=1))
    if len(steps.factors) == 1:
        return steps
    covariance = sum(root @ root.T for root in (s * f for s, f in zip(steps.scale, steps.factors)))
    scale = np.sqrt(np.diag(covariance))
    inverse = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)  # zero-vol legs
    correlation = covariance * np.outer(inverse, inverse)
    np.fill_diagonal(correlation, 1.0)
    factor = _factor_matrix(correlation, "the summed grid steps")
    return _Steps(scale[None, :, None], steps.drift.sum(axis=0, keepdims=True), (factor,))


def _bridge(rho: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardized barrier-pair steps x = q Z + L w given the paying pair's
    terminal normal Z, whose steps have sd s and correlation rho with them:
    q = rho s / |s| and L L^T = I - q q^T (Glasserman 2003, 3.1), L_mm =
    sqrt(t_m / t_m-1), L_mk = -q_m u_k, u_k = q_k / sqrt(t_k t_k-1) or 0, for
    t_m = 1 - sum_{k<=m} q_k^2 (summed from the tail: an own-pair barrier's
    t_M is exactly 0).  Returns q, diag(L) and u."""
    share = np.divide(s * s, s @ s, out=np.zeros_like(s), where=s @ s > 0)  # 0 for a zero-vol paying pair
    q, q2 = rho * np.sqrt(share), rho * rho * share
    t = np.append(np.cumsum(q2[:0:-1])[::-1], 0.0) + ((1.0 - rho * rho) * share).sum()
    diagonal = np.sqrt(np.divide(t, t + q2, out=np.ones_like(t), where=t + q2 > 0))  # t_m-1 = t_m + q_m^2
    return q, diagonal, np.divide(q, np.sqrt(t * (t + q2)), out=np.zeros_like(q), where=t * (t + q2) > 0)


def _streams(config: SimulationConfig, block: int, slots: Iterable[int]) -> list[np.random.Generator]:
    """One path block's Philox streams, one per pair slot: slot p draws pair
    p's normals, and a barrier bridges from slot 1.  Counter layout: bits
    128 and up the block, bits 96..127 the slot, the rest the stream."""
    return [np.random.Generator(np.random.Philox(key=config.seed, counter=(block << 128) | (slot << 96)))
            for slot in slots]


def _block_steps(steps: _Steps, config: SimulationConfig, block: int, size: int
                 ) -> Iterator[tuple[int, int, int, np.ndarray, np.ndarray]]:
    """Yield one path block's (m, start, end, z, y) chunks, step by step: grid step m on draws start..end
    of each half of the block (an antithetic block's second half mirrors its first), z their (rows,
    halves * (end - start)) normals and y their increments, half after half, in two reused buffers:
    read each chunk before asking for the next."""
    n_steps, n_pairs = steps.drift.shape[:2]
    halves = 2 if config.antithetic else 1
    n_draw = size // halves
    # two columns at least: BLAS computes a one-column product as a matrix-vector one, which rounds otherwise
    width = max(CHUNK_PATHS, 2) // halves
    cuts = [*range(0, max(n_draw - 1, 1), width), n_draw]  # a last chunk of one draw joins the one before
    rngs = _streams(config, block, range(n_pairs))
    z_flat, y_flat = np.empty((2, n_pairs * halves * min(n_draw, width + 1)))  # each chunk's (rows, paths)
    for m in range(n_steps):
        for start, end in zip(cuts, cuts[1:]):  # each slot's stream continues chunk by chunk, step by step
            k = end - start
            z = z_flat[:n_pairs * halves * k].reshape(n_pairs, halves * k)
            y = y_flat[:n_pairs * halves * k].reshape(n_pairs, halves * k)
            for row, rng in zip(z, rngs):
                rng.standard_normal(out=row[:k])
            if config.antithetic:
                np.negative(z[:, :k], out=z[:, k:])
            np.matmul(steps.factors[m], z, out=y)
            y *= steps.scale[m]
            y += steps.drift[m]
            yield m, start, end, z, y


def _run_blocks(config: SimulationConfig, apply: Callable[[int, int], object], workers: int = 1) -> list:
    """``apply(block, size)`` on every path block, block b from path b BLOCK_PATHS on, on a pool of ``workers``
    threads, the results in block order; ``apply`` opens the block's draws it reads."""
    sizes = [min(BLOCK_PATHS, config.n_paths - start) for start in range(0, config.n_paths, BLOCK_PATHS)]
    with ThreadPoolExecutor(max_workers=workers) as pool:  # map cancels the queued blocks when one raises
        return list(pool.map(apply, range(len(sizes)), sizes))


def simulate_increments(
    pairs: Sequence[FxPair],
    vols: Mapping[FxPair, PiecewiseConstant],
    corr: BucketedCorrelationMatrix | None,
    config: SimulationConfig,
    rates: Mapping[Currency, RateCurve] | None = None,
) -> np.ndarray:
    """Simulate log-increments, shaped (n_paths, n_steps, n_pairs).

    ``corr=None`` simulates independent pairs; otherwise only the block of
    ``pairs`` in each bucket is factorized, and it must be PSD.
    ``rates=None`` drops the rate-differential part of the drift (pure
    -sigma^2/2 dt).  Each pair a/b follows the drift of its own measure,
    that of a.
    """
    steps = _prepare_steps(pairs, vols, corr, config, rates)
    out = np.empty((config.n_paths,) + steps.drift.shape[:2])
    halves = 2 if config.antithetic else 1

    def store(block: int, size: int) -> None:
        by_half = out[block * BLOCK_PATHS:][:size].reshape(halves, -1, *out.shape[1:])
        for m, begin, end, _, y in _block_steps(steps, config, block, size):
            by_half[:, begin:end, m] = y.T.reshape(halves, end - begin, -1)

    _run_blocks(config, store)
    return out


def _simulated(payoff: PayoffSpec) -> tuple[PayoffSpec, tuple[FxPair, ...]]:
    """The payoff as simulated and its pairs, the paying pair first (basket legs all pay in one currency,
    sorted by label).  A barrier on the inverse of its payoff pair is simulated as the barrier on the
    payoff pair at 1/level, direction flipped, so a barrier has one pair or two."""
    if isinstance(payoff, VanillaPayoff):
        return payoff, (payoff.pair,)
    if isinstance(payoff, BasketPayoff):
        return payoff, tuple(sorted(payoff.weights, key=lambda p: p.label))
    if payoff.barrier_pair == payoff.payoff_pair.inverse():
        payoff = replace(payoff, barrier_pair=payoff.payoff_pair, barrier_level=1.0 / payoff.barrier_level,
                         direction="down" if payoff.direction == "up" else "up")
    return payoff, tuple(dict.fromkeys((payoff.payoff_pair, payoff.barrier_pair)))


def _payoff_evaluator(
    payoff: PayoffSpec,
    pairs: tuple[FxPair, ...],
    spots: np.ndarray,
    steps: _Steps,
    config: SimulationConfig,
) -> Callable[[int, int], np.ndarray]:
    """``evaluate(block, size)``, one evaluator for every payoff as ``_simulated`` gives it, on ``price``'s
    ``_terminal_steps``: pay max(±(sum_p w_p X_p(T) - K), 0) on the terminal log-levels, which it draws
    itself (the one step, chunk by chunk).  A barrier keeps its paying pair's
    terminal normals Z and, once the chunk buffers are freed, on the paths that pay (an antithetic pair
    if either half pays), moves the barrier pair's log-level by x_m = q_m (Z - S_m) + L_mm w_m
    (``steps.bridge``'s rows), one w_m per path or pair from the block's slot-1 stream
    (none where L_mm and u_m are both 0), up to the last monitoring time, testing it at each
    monitoring time (each a grid time, all of them by default).  The same normals drive a second bridge
    as eps_m w_m, eps_m = 1 on even steps and -1 on odd ones.  The bridge on -w has x'_m = 2 q_m Z - x_m,
    so its level is 2 (c_m Z + D_m) - level, c_m and D_m the running sums of scale q and drift, and so
    has the bridge on -eps w against the one on eps w.  A path pays its value v times (4 - hits) / 4 on a
    knock-out and v less that on a knock-in, hits the number of the four bridges that breach.  A path
    that pays 0 is worth 0 in either style whatever its barrier does, so knock-in and knock-out bridge
    the same paths.  A vanilla or a barrier pays on one leg of weight 1."""
    sign = 1.0 if payoff.kind == "call" else -1.0
    weights = np.array([payoff.weights[pair] for pair in pairs] if isinstance(payoff, BasketPayoff) else [1.0])
    halves = 2 if config.antithetic else 1
    is_barrier = isinstance(payoff, BarrierPayoff)
    monitor = set(range(len(config.grid))) if is_barrier and payoff.monitoring is None else set()
    if is_barrier:
        for t in payoff.monitoring or ():
            if (m := _grid_index(config.grid, t)) is None:
                raise ValidationError(f"barrier monitoring time {t} is not a grid time")
            monitor.add(m)
        beyond = np.greater_equal if payoff.direction == "up" else np.less_equal
        q, diagonal, u, scale, drift = steps.bridge[:max(monitor) + 1].T
        # levels net of the running drift D_m, which the thresholds take: a bridge breaches where
        # beyond(level, bound_m), and its mirror, at 2 c_m Z - level, where beyond(line_m Z - bound_m, level)
        bound = math.log(payoff.barrier_level) - math.log(spots[-1]) - np.cumsum(drift)
        by_rest = scale * q
        line = 2.0 * np.cumsum(by_rest)

    def knock_out_shares(block: int, z_pay: np.ndarray) -> np.ndarray:
        """(4 - hits) / 4 on each paying path or pair of terminal normals ``z_pay``, hits the number of its four
        bridges that breach: those driven by w and by eps w, and their mirrors.  The steps write into the
        buffers made here, with no temporaries, and the buffers are freed on return."""
        rests = np.stack([z_pay, z_pay])  # Z - S_m on the bridges driven by w and by eps w
        levels, (w, work) = np.zeros((2, *rests.shape))  # a w weighted by 0 is not drawn, but must be finite
        bridges, mirrors, flags = np.zeros((3, *rests.shape), dtype=bool)  # which breach, by bridge
        rng, = _streams(config, block, [1])
        for m in range(len(q)):
            if diagonal[m] or u[m]:  # else t_m = 0 (an own-pair bridge's end): w is weighted by 0, and not drawn
                rng.standard_normal(out=w[0])
                if halves == 2:
                    np.negative(w[0], out=w[1])
            plus, minus = (np.add, np.subtract) if m % 2 == 0 else (np.subtract, np.add)  # eps_m = 1 or -1
            for level, rest in zip(levels, rests):
                np.multiply(rest, by_rest[m], out=work)
                level += work
            np.multiply(w, scale[m] * diagonal[m], out=work)
            levels[0] += work
            plus(levels[1], work, out=levels[1])
            w *= u[m]
            rests[0] -= w
            minus(rests[1], w, out=rests[1])
            if m in monitor:  # w is spent until the next draw: it holds the mirrors' line
                np.multiply(z_pay, line[m], out=w)
                w -= bound[m]
                bridges |= beyond(levels, bound[m], out=flags)
                mirrors |= beyond(w, levels, out=flags)
        w.fill(1.0)
        for hit in (*bridges, *mirrors):
            np.subtract(w, 0.25, out=w, where=hit)
        return w

    def terminal(block: int, size: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The block's path values by half and a barrier's terminal normals Z: the chunk buffers die on return."""
        value = np.empty((halves, size // halves))  # by half: returned in path order
        z_pay = np.empty_like(value) if is_barrier else None  # the paying pair's terminal normals Z
        exp_out = np.empty(0)  # the chunk's terminal levels: one buffer per block, grown for a longer last chunk
        for _, begin, end, z, y in _block_steps(steps, config, block, size):  # the one step, chunk by chunk
            if exp_out.size < y.size:
                exp_out = np.empty(y.size)
            x_t = np.exp(y.T, out=exp_out[:y.size].reshape(y.shape[::-1]))  # (paths, legs) in C order
            x_t *= spots[:len(weights)]
            # x * 1.0 == x: one leg pays its own level bit for bit
            value[:, begin:end] = (x_t @ weights).reshape(halves, -1)
            if is_barrier:
                z_pay[:, begin:end] = z[0].reshape(halves, -1)
        value -= payoff.strike
        value *= sign
        np.maximum(value, 0.0, out=value)
        return value, z_pay

    def evaluate(block: int, size: int) -> np.ndarray:
        value, z_pay = terminal(block, size)
        if is_barrier and (pays := (value > 0.0).any(axis=0)).any():  # else nothing is drawn, nor past the last
            z_pay = z_pay.compress(pays, axis=1)  # monitoring time; in C order, as the draws into w[0] need
            # knock-out keeps kept = v (4 - hits) / 4 and knock-in v - kept: they add up to v bit for bit for every
            # finite v >= 0 (tests/test_properties.py).  Where kept >= v / 2, v - kept is exact (Sterbenz); where
            # kept is v / 4, fl(3v/4) misses 3v/4 by half an ulp of v only when v's significand is even, and
            # ties-to-even gives back v.  Paying v hits / 4 would not do: an odd subnormal v / 2 rounds, twice
            for row, kept in zip(value, knock_out_shares(block, z_pay)):  # boolean indexing in 1-d needs no index
                paid = row[pays]
                kept *= paid
                row[pays] = kept if payoff.style == "knock-out" else np.subtract(paid, kept, out=paid)
        return value.ravel()

    return evaluate


def price(
    payoff: PayoffSpec,
    snapshot: MarketSnapshot,
    config: SimulationConfig,
    *,
    vols: Mapping[FxPair, PiecewiseConstant] | None = None,
    corr: BucketedCorrelationMatrix | None = None,
    workers: int = 1,
    repair: bool = False,
    clamp: bool = False,
) -> PricingResult:
    """Discounted Monte Carlo price with standard error.

    Maturity is the last grid time.  When ``vols``/``corr`` are not given
    they are derived from the snapshot: per-step forward vols on the grid,
    and the implied correlation matrix across the payoff's pairs with the
    grid as buckets.  ``vols`` must be finite and non-negative.  A vanilla
    or basket draws one terminal step from the grid's summed drift and
    covariance, and a barrier draws its paying pair so and then, on the
    paths that pay (in antithetic sampling, the pairs of which either half
    pays), its barrier pair step by step given that draw up to the last
    monitoring time.  Each such path is weighed by the share of four
    bridges from one draw that breach (0, 1/4, ..., 1): its bridge, the
    bridge on the same normals with alternating signs, and the mirrors of
    both on the negated normals; the knock-in and knock-out prices still
    add up to the vanilla's, path by path and bit for bit.  The
    grid sets the maturity and must cover every breakpoint.  A barrier on
    the inverse of its payoff pair is priced as the barrier on the payoff
    pair at 1/level, direction flipped.

    Every pair is simulated under the measure of the paying pair's
    denominating currency d, the currency the price is paid in.  A
    barrier pair a/b with a != d gains the quanto drift
    (s_ab^2 + s_ad^2 - s_bd^2) dt / 2, the covariance of its log-rate with
    that of a/d.  The vols of a/d and b/d come from ``vols`` when it holds
    them (in either orientation), and otherwise from the snapshot's
    per-step forward vols on the grid, even when ``vols`` is given.  So an
    override can mix vols that no triangle holds: where the three vols of
    a step imply a correlation of a/b with a/d outside [-1, 1],
    ``CorrelationRangeError`` is raised (``clamp`` does not apply to it).
    Deterministic for fixed (seed, n_paths, grid, antithetic), whatever
    ``workers`` is.
    """
    if isinstance(workers, bool) or not (isinstance(workers, int) and workers >= 1):
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")
    payoff, pairs = _simulated(payoff)
    disc_ccy = pairs[0].denominating
    horizon = config.horizon

    derive = (*(pairs if vols is None else ()), *_links(pairs, disc_ccy))
    vols, derived = dict(vols or {}), {}  # derived: the snapshot's bucket vols by stored pair, for the matrix
    grid = config.grid  # checked as bucket boundaries once, at the first derived pair or in the matrix
    for pair in derive:  # a vol is the same in either orientation: derive each currency pair once
        if pair not in vols and pair.inverse() not in vols:
            ts = snapshot.vol_structure(pair)
            derived[ts.pair] = _bucket_vols(ts, config.grid)
            grid = normalize_breakpoints(grid)
            vols[pair] = PiecewiseConstant(grid, derived[ts.pair])
    if corr is None and len(pairs) > 1:
        corr = build_matrix(pairs, snapshot, grid, repair=repair, clamp=clamp, _vols=derived)

    steps = _prepare_steps(pairs, vols, corr, config, snapshot.rates, disc_ccy)
    steps = _terminal_steps(steps, bridged=isinstance(payoff, BarrierPayoff))
    spots = np.array([snapshot.spot(pair) for pair in pairs])
    evaluate = _payoff_evaluator(payoff, pairs, spots, steps, config)

    disc_rate = snapshot.average_rate(disc_ccy, horizon)
    df = math.exp(-disc_rate * horizon)

    def block_sums(block: int, size: int) -> tuple[float, float]:
        values = evaluate(block, size)
        if config.antithetic:
            values = 0.5 * (values[:size // 2] + values[size // 2:])
        return float(values.sum()), float((values * values).sum())

    n_eff = config.n_paths // 2 if config.antithetic else config.n_paths  # exact: every block size is even
    # plain left-to-right adds in block order: sum() compensates float adds
    # since Python 3.12, so the result bytes would depend on the interpreter
    total = 0.0
    total_sq = 0.0
    for s1, s2 in _run_blocks(config, block_sums, workers):
        total += s1
        total_sq += s2
    mean = total / n_eff
    if n_eff > 1:
        variance = max(total_sq - n_eff * mean * mean, 0.0) / (n_eff - 1)
        stderr = df * math.sqrt(variance / n_eff)
    else:
        stderr = 0.0
    return PricingResult(df * mean, stderr, config.n_paths, disc_ccy.code, disc_rate)


# ---------------------------------------------------------------------------
# Payoff document parsing (JSON, strict keys)


_PAYOFF_TYPES = {"vanilla": VanillaPayoff, "basket": BasketPayoff, "barrier": BarrierPayoff}


def payoff_from_dict(doc: dict) -> PayoffSpec:
    """Build a payoff from its document form: ``type`` and the payoff's
    fields, each required unless it has a default.

    Schemas::

        {"type": "vanilla", "pair": "EUR/USD", "strike": 1.25, "kind": "call"}
        {"type": "basket", "weights": [{"pair": ..., "weight": ...}, ...],
         "strike": ..., "kind": ...}
        {"type": "barrier", "payoff_pair": ..., "strike": ..., "kind": ...,
         "barrier_pair": ..., "barrier_level": ..., "direction": "up"|"down",
         "style": "knock-in"|"knock-out", "monitoring": [t, ...]}   # optional
    """
    if not isinstance(doc, dict):
        raise SchemaError("payoff document must be an object", field="$")
    kind_of = doc.get("type")
    cls = _PAYOFF_TYPES.get(kind_of) if isinstance(kind_of, str) else None
    if cls is None:
        raise SchemaError(
            f"unknown payoff type {kind_of!r} (expected vanilla, basket, or barrier)", field="type"
        )
    names = [f.name for f in fields(cls)]  # read in field order: the first bad key is reported
    required = [f.name for f in fields(cls) if f.default is MISSING]
    _require_keys(doc, {"type", *names}, {"type", *required})
    return cls(**{name: _payoff_field(doc, name) for name in names if name in doc})


def _payoff_field(doc: dict, key: str):
    if key.endswith("pair"):
        return _label(doc, key)
    if key in ("strike", "barrier_level"):
        return _number(doc[key], key)
    if key == "monitoring":
        return tuple(_number(t, where) for t, where in _entries(doc, key, None))
    if key == "weights":
        weights: dict[FxPair, float] = {}
        for entry, where in _entries(doc, key, {"pair", "weight"}, nonempty=True):
            pair = _unique(weights, _label(entry, "pair", where), "basket pair", where)
            weights[pair] = _number(entry["weight"], f"{where}.weight")
        return weights
    return _string(doc[key], key)


def payoff_to_dict(payoff: PayoffSpec) -> dict:
    """The document ``payoff_from_dict`` reads: pairs as labels, weights
    sorted by label, and an unset ``monitoring`` left out."""
    doc = {"type": next(name for name, cls in _PAYOFF_TYPES.items() if isinstance(payoff, cls))}
    for f in fields(payoff):
        value = getattr(payoff, f.name)
        if isinstance(value, FxPair):
            value = value.label
        elif f.name == "weights":
            value = [{"pair": pair.label, "weight": weight}
                     for pair, weight in sorted(value.items(), key=lambda kv: kv[0].label)]
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            doc[f.name] = value
    return doc
