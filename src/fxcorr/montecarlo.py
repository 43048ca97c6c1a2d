"""Correlated multi-FX Monte Carlo with deterministic parallel execution.

Each pair's log-increment over a grid step (t_m, t_m+1] is

    (r_d - r_f - sigma^2/2) dt + sigma sqrt(dt) (L z)

with per-step constant vols and correlation factor L, so the stepping is
exact in the marginals (no discretization bias).  Rates enter as exact
integrated-rate differences over the step.

A basket reads only X(T), and the sum of a grid's steps is one Gaussian
step with drift sum_m drift_m and covariance sum_m D_m C_m D_m, where
D_m = diag(sigma_m sqrt(dt_m)) and C_m is step m's correlation.  So
``price`` draws a basket in that one step; its grid still sets the
maturity and the breakpoint checks.  Vanillas and barriers are stepped on
the grid, which keeps an unreachable barrier equal to the vanilla.

Determinism: paths are partitioned into fixed-size blocks and every
(block, pair-slot) draws its own segment of a counter-based generator
keyed by the seed, so path p is identical no matter how blocks are
scheduled across workers, and the first listed pair's driving stream does
not depend on how many pairs are simulated alongside it (with a Cholesky
factor its paths are bit-identical too, which is what makes an
unreachable barrier reproduce the plain vanilla price exactly).
Reductions accumulate per-block partial sums in block order, which keeps
results bit-identical for any worker count.

Layout: no block is held whole.  A block streams one grid step at a time:
each pair slot's stream draws the step's normals into a reused
(n_pairs, size) buffer, a second one receives the increments, and one
payoff evaluator folds them left to right into a running (n_pairs, size)
log-level, so a worker's memory does not grow with the number of steps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator, Literal, Mapping, Sequence

import numpy as np

from .correlation import PSD_TOL, BucketedCorrelationMatrix, build_matrix, canonicalize
from .errors import FactorizationError, MissingDataError, SchemaError, ValidationError
from .market_data import (
    Currency, FxPair, MarketSnapshot, RateCurve,
    _check_times, _entries, _label, _number, _require_keys, _string, _unique,
)
from .term_structure import PiecewiseConstant, horizon_vol

BLOCK_PATHS = 16384
_GRID_TOL = 1e-12


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, seed, monitoring grid, and the antithetic flag.

    The grid must contain every breakpoint of every piecewise-constant
    input below its last point (checked at simulation time).
    """

    n_paths: int
    seed: int
    grid: tuple[float, ...]
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be positive, got {self.n_paths}")
        _check_times(self.grid, "grid")
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
            if not math.isfinite(weight):
                raise ValidationError(f"basket weight of {pair} must be finite, got {weight}")
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
        if not 0 < self.barrier_level < math.inf:
            raise ValidationError(f"barrier level must be positive and finite, got {self.barrier_level}")
        if self.direction not in ("up", "down"):
            raise ValidationError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.style not in ("knock-in", "knock-out"):
            raise ValidationError(f"style must be 'knock-in' or 'knock-out', got {self.style!r}")
        if self.monitoring is not None:
            _check_times(self.monitoring, "monitoring times")


PayoffSpec = VanillaPayoff | BasketPayoff | BarrierPayoff


def _check_strike_kind(strike: float, kind: str) -> None:
    if not 0 < strike < math.inf:
        raise ValidationError(f"strike must be positive and finite, got {strike}")
    if kind not in ("call", "put"):
        raise ValidationError(f"kind must be 'call' or 'put', got {kind!r}")


@dataclass(frozen=True)
class PricingResult:
    price: float
    standard_error: float
    n_paths: int
    discount_currency: str
    discount_rate: float

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Engine


@dataclass(frozen=True)
class _Steps:
    """Per-step constants: everything the inner loop needs."""

    scale: np.ndarray       # (M, P, 1), sigma sqrt(dt)
    drift: np.ndarray       # (M, P, 1), includes the dt factor
    factors: tuple[np.ndarray, ...]  # per step, (P, P) with L L^T = C


def _grid_index(grid: tuple[float, ...], t: float) -> int | None:
    """Index of the first grid time within ``_GRID_TOL`` of t, or None."""
    return next((m for m, g in enumerate(grid) if abs(g - t) <= _GRID_TOL), None)


def _require_grid_covers(grid: tuple[float, ...], breakpoints: Sequence[float], what: str) -> None:
    for b in breakpoints:  # the skip test is false for NaN, so NaN raises
        if not (b <= _GRID_TOL or b >= grid[-1] - _GRID_TOL) and _grid_index(grid, b) is None:
            raise ValidationError(f"grid must include breakpoint {b} of {what}")


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
) -> _Steps:
    n_pairs = len(pairs)
    if n_pairs == 0:
        raise ValidationError("need at least one pair")
    if len(set(pairs)) != n_pairs:
        raise ValidationError("pairs must be distinct")
    for pair in pairs:
        if pair not in vols:
            raise MissingDataError(f"no vol structure supplied for pair {pair}")
        structure = vols[pair]
        _require_grid_covers(config.grid, structure.breakpoints, f"vols of {pair}")
        for n, s in enumerate(structure.values):
            if not 0.0 <= s < math.inf:
                left, right = structure.breakpoints[n:n + 2]
                raise ValidationError(
                    f"vol of {pair} on bucket {n} ({left}, {right}] must be finite and >= 0, got {s}"
                )
    if corr is not None:
        _require_grid_covers(config.grid, corr.breakpoints, "the correlation matrix")

    grid = np.array((0.0,) + config.grid)
    dt = np.diff(grid)
    mids = (0.5 * (grid[:-1] + grid[1:])).tolist()
    sigma = np.array([[vols[pair].value_at(t) for pair in pairs] for t in mids])
    rate_diff = 0.0
    if rates is not None:
        currencies = dict.fromkeys(c for pair in pairs for c in (pair.denominating, pair.foreign))
        integrated = {c: np.diff([0.0] + [rates[c].integrated(t) for t in config.grid]) for c in currencies}
        rate_diff = np.stack([integrated[p.denominating] - integrated[p.foreign] for p in pairs], axis=1)
    drift = rate_diff - 0.5 * sigma * sigma * dt[:, None]

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
        buckets = [corr.bucket_index(min(t, corr.breakpoints[-1])) for t in mids]
        block = np.ix_(indices, indices)
        bucket_factors = {  # the one PSD gate, on the block that is simulated
            n: _factor_matrix(corr.matrices[n][block] * np.outer(signs, signs), f"bucket {n}")
            for n in dict.fromkeys(buckets)
        }
        factors = tuple(bucket_factors[n] for n in buckets)

    return _Steps((sigma * np.sqrt(dt)[:, None])[..., None], drift[..., None], factors)


def _terminal_steps(steps: _Steps) -> _Steps:
    """The grid's steps as one step with the same terminal law, for payoffs
    that read only X(T): drift sum_m drift_m and covariance
    sum_m D_m C_m D_m, where D_m = diag(sigma_m sqrt(dt_m))."""
    if len(steps.factors) == 1:
        return steps
    covariance = sum(root @ root.T for root in (s * f for s, f in zip(steps.scale, steps.factors)))
    scale = np.sqrt(np.diag(covariance))
    inverse = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)  # zero-vol legs
    correlation = covariance * np.outer(inverse, inverse)
    np.fill_diagonal(correlation, 1.0)
    factor = _factor_matrix(correlation, "the summed grid steps")
    return _Steps(scale[None, :, None], steps.drift.sum(axis=0, keepdims=True), (factor,))


def _block_steps(
    steps: _Steps, config: SimulationConfig, block: int, size: int
) -> Iterator[np.ndarray]:
    """Yield one path block's (n_pairs, size) increments grid step by grid
    step, in one reused buffer: read each step before asking for the next."""
    n_steps, n_pairs = steps.drift.shape[:2]
    n_draw = size // 2 if config.antithetic else size
    # counter layout: bits 128+ block, bits 96..127 pair slot, rest stream
    rngs = [np.random.Generator(np.random.Philox(key=config.seed, counter=(block << 128) | (slot << 96)))
            for slot in range(n_pairs)]
    z, y = np.empty((2, n_pairs, size))
    for m in range(n_steps):
        for slot, rng in enumerate(rngs):  # each slot's stream continues step by step
            rng.standard_normal(out=z[slot, :n_draw])
        if config.antithetic:
            np.negative(z[:, :n_draw], out=z[:, n_draw:])
        np.matmul(steps.factors[m], z, out=y)
        y *= steps.scale[m]
        y += steps.drift[m]
        yield y


def _run_blocks(
    steps: _Steps,
    config: SimulationConfig,
    apply: Callable[[int, int, Iterator[np.ndarray]], object],
    workers: int = 1,
) -> list:
    """``apply(first_path, size, step_increments)`` on every path block, on
    up to ``workers`` threads; the results come back in block order."""

    def run(block: int) -> object:
        start = block * BLOCK_PATHS
        size = min(BLOCK_PATHS, config.n_paths - start)
        return apply(start, size, _block_steps(steps, config, block, size))

    blocks = range(math.ceil(config.n_paths / BLOCK_PATHS))
    if workers <= 1:
        return [run(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, blocks))


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
    -sigma^2/2 dt).
    """
    steps = _prepare_steps(pairs, vols, corr, config, rates)
    out = np.empty((config.n_paths,) + steps.drift.shape[:2])

    def store(start: int, size: int, step_increments: Iterator[np.ndarray]) -> None:
        for m, y in enumerate(step_increments):
            out[start:start + size, m] = y.T

    _run_blocks(steps, config, store)
    return out


def _involved_pairs(payoff: PayoffSpec) -> tuple[FxPair, ...]:
    """The simulated pairs, the paying pair first (basket legs all pay in one currency)."""
    if isinstance(payoff, VanillaPayoff):
        return (payoff.pair,)
    if isinstance(payoff, BasketPayoff):
        return tuple(sorted(payoff.weights, key=lambda p: p.label))
    pairs = [payoff.payoff_pair]
    if payoff.barrier_pair != payoff.payoff_pair:
        pairs.append(payoff.barrier_pair)
    return tuple(pairs)


def _monitoring_indices(payoff: BarrierPayoff, grid: tuple[float, ...]) -> set[int]:
    if payoff.monitoring is None:
        return set(range(len(grid)))
    indices = set()
    for t in payoff.monitoring:
        if (m := _grid_index(grid, t)) is None:
            raise ValidationError(f"barrier monitoring time {t} is not a grid time")
        indices.add(m)
    return indices


def _payoff_evaluator(
    payoff: PayoffSpec,
    pairs: tuple[FxPair, ...],
    spots: np.ndarray,
    config: SimulationConfig,
) -> Callable[[int, Iterator[np.ndarray]], np.ndarray]:
    """One evaluator for every payoff: fold a block's step increments left
    to right into one running (n_pairs, size) log-level, test the barrier
    slot's level at monitoring steps, then pay on the terminal levels."""
    index = {pair: p for p, pair in enumerate(pairs)}
    sign = 1.0 if payoff.kind == "call" else -1.0
    is_basket = isinstance(payoff, BasketPayoff)
    is_barrier = isinstance(payoff, BarrierPayoff)
    monitor: set[int] = set()
    if is_basket:
        weights = np.array([payoff.weights[pair] for pair in pairs])
    elif is_barrier:
        slot, watch = index[payoff.payoff_pair], index[payoff.barrier_pair]
        monitor = _monitoring_indices(payoff, config.grid)
        beyond = np.greater_equal if payoff.direction == "up" else np.less_equal
    else:
        slot = index[payoff.pair]

    def evaluate(size: int, step_increments: Iterator[np.ndarray]) -> np.ndarray:
        level = np.zeros((len(pairs), size))
        breached = np.zeros(size, dtype=bool)
        watched = np.empty(size if monitor else 0)
        for m, y in enumerate(step_increments):
            level += y
            if m in monitor:
                np.exp(level[watch], out=watched)
                watched *= spots[watch]
                breached |= beyond(watched, payoff.barrier_level)
        del y  # a view of the step buffers: free them before the terminal payoff
        if is_basket:
            terminal = np.ascontiguousarray(level.T)  # (paths, pairs) rows for the matvec
            np.exp(terminal, out=terminal)
            terminal *= spots
            value = terminal @ weights
        else:
            value = np.exp(level[slot])
            value *= spots[slot]
        value -= payoff.strike
        value *= sign
        np.maximum(value, 0.0, out=value)
        if is_barrier:
            value *= breached if payoff.style == "knock-in" else ~breached
        return value

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
    grid as buckets.  ``vols`` must be finite and non-negative.  A basket
    draws one terminal step from the grid's summed drift and covariance;
    its grid sets the maturity and must cover every breakpoint, as for
    the other payoffs.  A barrier on the inverse of its payoff pair is
    priced as the barrier on the payoff pair at 1/level, direction
    flipped.  Deterministic for fixed (seed, n_paths, grid, antithetic),
    whatever ``workers`` is.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    if isinstance(payoff, BarrierPayoff) and payoff.barrier_pair == payoff.payoff_pair.inverse():
        payoff = replace(payoff, barrier_pair=payoff.payoff_pair, barrier_level=1.0 / payoff.barrier_level,
                         direction="down" if payoff.direction == "up" else "up")
    pairs = _involved_pairs(payoff)
    disc_ccy = pairs[0].denominating
    horizon = config.horizon

    if vols is None:
        vols = {}
        boundaries = (0.0,) + config.grid
        for pair in pairs:
            ts = snapshot.vol_structure(pair)
            values = tuple(
                horizon_vol(ts, a, b) for a, b in zip(boundaries, boundaries[1:])
            )
            vols[pair] = PiecewiseConstant(boundaries, values)
    if corr is None and len(pairs) > 1:
        corr = build_matrix(pairs, snapshot, config.grid, repair=repair, clamp=clamp)

    steps = _prepare_steps(pairs, vols, corr, config, snapshot.rates)
    if isinstance(payoff, BasketPayoff):
        steps = _terminal_steps(steps)
    spots = np.array([snapshot.spot(pair) for pair in pairs])
    evaluate = _payoff_evaluator(payoff, pairs, spots, config)

    disc_rate = snapshot.average_rate(disc_ccy, horizon)
    df = math.exp(-disc_rate * horizon)

    def block_sums(start: int, size: int, step_increments: Iterator[np.ndarray]) -> tuple[float, float, int]:
        values = evaluate(size, step_increments)
        if config.antithetic:
            half = len(values) // 2
            values = 0.5 * (values[:half] + values[half:])
        return float(values.sum()), float((values * values).sum()), values.size

    partials = _run_blocks(steps, config, block_sums, workers)
    total = 0.0
    total_sq = 0.0
    n_eff = 0
    for s1, s2, n in partials:
        total += s1
        total_sq += s2
        n_eff += n
    mean = total / n_eff
    if n_eff > 1:
        variance = max(total_sq - n_eff * mean * mean, 0.0) / (n_eff - 1)
        stderr = df * math.sqrt(variance / n_eff)
    else:
        stderr = 0.0
    return PricingResult(df * mean, stderr, config.n_paths, disc_ccy.code, disc_rate)


# ---------------------------------------------------------------------------
# Payoff document parsing (JSON, strict keys)


def payoff_from_dict(doc: dict) -> PayoffSpec:
    """Build a payoff from its document form.

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
    if kind_of == "vanilla":
        keys = {"type", "pair", "strike", "kind"}
        _require_keys(doc, keys, keys)
        return VanillaPayoff(
            _label(doc, "pair"), _number(doc["strike"], "strike"), _string(doc["kind"], "kind")
        )
    if kind_of == "basket":
        keys = {"type", "weights", "strike", "kind"}
        _require_keys(doc, keys, keys)
        weights: dict[FxPair, float] = {}
        for entry, where in _entries(doc, "weights", {"pair", "weight"}, nonempty=True):
            pair = _unique(weights, _label(entry, "pair", where), "basket pair", where)
            weights[pair] = _number(entry["weight"], f"{where}.weight")
        return BasketPayoff(weights, _number(doc["strike"], "strike"), _string(doc["kind"], "kind"))
    if kind_of == "barrier":
        keys = {"type", "payoff_pair", "strike", "kind",
                "barrier_pair", "barrier_level", "direction", "style"}
        _require_keys(doc, keys | {"monitoring"}, keys)
        monitoring = None
        if "monitoring" in doc:
            monitoring = tuple(_number(t, where) for t, where in _entries(doc, "monitoring", None))
        return BarrierPayoff(
            _label(doc, "payoff_pair"),
            _number(doc["strike"], "strike"),
            _string(doc["kind"], "kind"),
            _label(doc, "barrier_pair"),
            _number(doc["barrier_level"], "barrier_level"),
            _string(doc["direction"], "direction"),
            _string(doc["style"], "style"),
            monitoring,
        )
    raise SchemaError(
        f"unknown payoff type {kind_of!r} (expected vanilla, basket, or barrier)", field="type"
    )


def payoff_to_dict(payoff: PayoffSpec) -> dict:
    if isinstance(payoff, VanillaPayoff):
        return {"type": "vanilla", "pair": payoff.pair.label,
                "strike": payoff.strike, "kind": payoff.kind}
    if isinstance(payoff, BasketPayoff):
        return {
            "type": "basket",
            "weights": [
                {"pair": pair.label, "weight": weight}
                for pair, weight in sorted(payoff.weights.items(), key=lambda kv: kv[0].label)
            ],
            "strike": payoff.strike,
            "kind": payoff.kind,
        }
    doc = {
        "type": "barrier",
        "payoff_pair": payoff.payoff_pair.label,
        "strike": payoff.strike,
        "kind": payoff.kind,
        "barrier_pair": payoff.barrier_pair.label,
        "barrier_level": payoff.barrier_level,
        "direction": payoff.direction,
        "style": payoff.style,
    }
    if payoff.monitoring is not None:
        doc["monitoring"] = list(payoff.monitoring)
    return doc
