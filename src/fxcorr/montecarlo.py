"""Correlated multi-FX Monte Carlo with deterministic parallel execution.

Each pair's log-increment over a grid step (t_m, t_m+1] is

    (r_d - r_f - sigma^2/2) dt + sigma sqrt(dt) (L z)

with per-step constant vols and correlation factor L, so the stepping is
exact in the marginals (no discretization bias).  Rates enter as exact
integrated-rate differences over the step.

Determinism: paths are partitioned into fixed-size blocks and every
(block, pair-slot) draws its own segment of a counter-based generator
keyed by the seed, so path p is identical no matter how blocks are
scheduled across workers, and the first listed pair's driving stream does
not depend on how many pairs are simulated alongside it (with a Cholesky
factor its paths are bit-identical too, which is what makes an
unreachable barrier reproduce the plain vanilla price exactly).
Reductions accumulate per-block partial sums in block order, which keeps
results bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .correlation import PSD_TOL, BucketedCorrelationMatrix, build_matrix, canonicalize
from .errors import FactorizationError, MissingDataError, SchemaError, ValidationError
from .market_data import Currency, FxPair, MarketSnapshot, RateCurve, _number
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
        if not self.grid:
            raise ValidationError("grid must contain at least one time")
        prev = 0.0
        for t in self.grid:
            if t <= prev:
                raise ValidationError(f"grid must be strictly increasing and > 0, got {self.grid}")
            prev = t
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
        if not self.barrier_level > 0:
            raise ValidationError(f"barrier level must be positive, got {self.barrier_level}")
        if self.direction not in ("up", "down"):
            raise ValidationError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.style not in ("knock-in", "knock-out"):
            raise ValidationError(f"style must be 'knock-in' or 'knock-out', got {self.style!r}")
        if self.monitoring is not None:
            if not self.monitoring:
                raise ValidationError("monitoring times must be non-empty when given")
            prev = 0.0
            for t in self.monitoring:
                if t <= prev:
                    raise ValidationError("monitoring times must be strictly increasing and > 0")
                prev = t


PayoffSpec = VanillaPayoff | BasketPayoff | BarrierPayoff


def _check_strike_kind(strike: float, kind: str) -> None:
    if not strike > 0:
        raise ValidationError(f"strike must be positive, got {strike}")
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
        return {
            "price": self.price,
            "standard_error": self.standard_error,
            "n_paths": self.n_paths,
            "discount_currency": self.discount_currency,
            "discount_rate": self.discount_rate,
        }


# ---------------------------------------------------------------------------
# Engine


@dataclass(frozen=True)
class _Steps:
    """Per-step constants: everything the inner loop needs."""

    dt: np.ndarray          # (M,)
    sqrt_dt: np.ndarray     # (M,)
    sigma: np.ndarray       # (M, P)
    drift: np.ndarray       # (M, P), includes the dt factor
    factors: tuple[np.ndarray, ...]  # per step, (P, P) with L L^T = C


def _require_grid_covers(grid: tuple[float, ...], breakpoints: Sequence[float], what: str) -> None:
    horizon = grid[-1]
    for b in breakpoints:
        if b <= _GRID_TOL or b >= horizon - _GRID_TOL:
            continue
        if not any(abs(g - b) <= _GRID_TOL for g in grid):
            raise ValidationError(f"grid must include breakpoint {b} of {what}")


def _factor_matrix(matrix: np.ndarray, bucket: int) -> np.ndarray:
    # Cholesky when strictly PD; eigenvalue factor for PSD-but-singular
    # matrices (consistent triangles are structurally rank-deficient).
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(matrix)
        if eigvals[0] < -PSD_TOL:
            raise FactorizationError(
                f"correlation matrix for bucket {bucket} is indefinite "
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
        _require_grid_covers(config.grid, vols[pair].breakpoints, f"vols of {pair}")
    if corr is not None:
        _require_grid_covers(config.grid, corr.breakpoints, "the correlation matrix")

    grid = (0.0,) + config.grid
    n_steps = len(config.grid)
    dt = np.diff(np.asarray(grid))
    sigma = np.empty((n_steps, n_pairs))
    drift = np.empty((n_steps, n_pairs))
    for m in range(n_steps):
        mid = 0.5 * (grid[m] + grid[m + 1])
        for p, pair in enumerate(pairs):
            s = vols[pair].value_at(mid)
            sigma[m, p] = s
            rate_diff = 0.0
            if rates is not None:
                r_dom = rates[pair.denominating]
                r_fgn = rates[pair.foreign]
                rate_diff = (r_dom.integrated(grid[m + 1]) - _integrated(r_dom, grid[m])) - (
                    r_fgn.integrated(grid[m + 1]) - _integrated(r_fgn, grid[m])
                )
            drift[m, p] = rate_diff - 0.5 * s * s * dt[m]

    if corr is None:
        identity = np.eye(n_pairs)
        factors = tuple(identity for _ in range(n_steps))
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
        bucket_factors: dict[int, np.ndarray] = {}
        factor_list = []
        for m in range(n_steps):
            mid = 0.5 * (grid[m] + grid[m + 1])
            bucket = corr.bucket_index(min(mid, corr.breakpoints[-1]))
            if bucket not in bucket_factors:
                status = corr.statuses[bucket]
                if status.status == "indefinite":
                    raise FactorizationError(
                        f"correlation matrix bucket {bucket} is indefinite "
                        f"(min eigenvalue {status.min_eigenvalue:.3g}) and repair is disabled"
                    )
                sub = corr.matrices[bucket][np.ix_(indices, indices)]
                oriented = sub * np.outer(signs, signs)
                bucket_factors[bucket] = _factor_matrix(oriented, bucket)
            factor_list.append(bucket_factors[bucket])
        factors = tuple(factor_list)

    return _Steps(dt, np.sqrt(dt), sigma, drift, factors)


def _integrated(curve: RateCurve, t: float) -> float:
    return curve.integrated(t) if t > 0 else 0.0


def _block_bounds(n_paths: int) -> list[tuple[int, int]]:
    return [(b, min(b + BLOCK_PATHS, n_paths)) for b in range(0, n_paths, BLOCK_PATHS)]


def _block_normals(seed: int, block: int, n_steps: int, n_draw: int, n_pairs: int) -> np.ndarray:
    # counter layout: bits 128+ block, bits 96..127 pair slot, rest stream
    columns = []
    for slot in range(n_pairs):
        bitgen = np.random.Philox(key=seed, counter=(block << 128) | (slot << 96))
        columns.append(np.random.Generator(bitgen).standard_normal((n_steps, n_draw)))
    return np.stack(columns, axis=-1)


def _block_increments(
    steps: _Steps, config: SimulationConfig, block: int, size: int
) -> np.ndarray:
    n_steps, n_pairs = steps.sigma.shape
    if config.antithetic:
        half = size // 2
        z = _block_normals(config.seed, block, n_steps, half, n_pairs)
        z = np.concatenate([z, -z], axis=1)
    else:
        z = _block_normals(config.seed, block, n_steps, size, n_pairs)
    y = np.empty((size, n_steps, n_pairs))
    for m in range(n_steps):
        correlated = z[m] @ steps.factors[m].T
        y[:, m, :] = steps.drift[m] + (steps.sigma[m] * steps.sqrt_dt[m]) * correlated
    return y


def simulate_increments(
    pairs: Sequence[FxPair],
    vols: Mapping[FxPair, PiecewiseConstant],
    corr: BucketedCorrelationMatrix | None,
    config: SimulationConfig,
    rates: Mapping[Currency, RateCurve] | None = None,
) -> np.ndarray:
    """Simulate log-increments, shaped (n_paths, n_steps, n_pairs).

    ``corr=None`` simulates independent pairs.  ``rates=None`` drops the
    rate-differential part of the drift (pure -sigma^2/2 dt).
    """
    steps = _prepare_steps(pairs, vols, corr, config, rates)
    blocks = _block_bounds(config.n_paths)
    out = np.empty((config.n_paths, steps.sigma.shape[0], steps.sigma.shape[1]))
    for block, (b0, b1) in enumerate(blocks):
        out[b0:b1] = _block_increments(steps, config, block, b1 - b0)
    return out


def _involved_pairs(payoff: PayoffSpec) -> tuple[FxPair, ...]:
    if isinstance(payoff, VanillaPayoff):
        return (payoff.pair,)
    if isinstance(payoff, BasketPayoff):
        return tuple(sorted(payoff.weights, key=lambda p: p.label))
    pairs = [payoff.payoff_pair]
    if payoff.barrier_pair != payoff.payoff_pair:
        pairs.append(payoff.barrier_pair)
    return tuple(pairs)


def discount_currency(payoff: PayoffSpec) -> Currency:
    """The single currency the payoff pays in (and is discounted with)."""
    if isinstance(payoff, VanillaPayoff):
        return payoff.pair.denominating
    if isinstance(payoff, BasketPayoff):
        return next(iter(payoff.weights)).denominating
    return payoff.payoff_pair.denominating


def _monitoring_indices(payoff: BarrierPayoff, grid: tuple[float, ...]) -> np.ndarray:
    if payoff.monitoring is None:
        return np.arange(len(grid))
    indices = []
    for t in payoff.monitoring:
        matches = [m for m, g in enumerate(grid) if abs(g - t) <= _GRID_TOL]
        if not matches:
            raise ValidationError(f"barrier monitoring time {t} is not a grid time")
        indices.append(matches[0])
    return np.asarray(indices)


def _payoff_evaluator(
    payoff: PayoffSpec,
    pairs: tuple[FxPair, ...],
    spots: np.ndarray,
    config: SimulationConfig,
) -> Callable[[np.ndarray], np.ndarray]:
    index = {pair: p for p, pair in enumerate(pairs)}
    sign = 1.0 if payoff.kind == "call" else -1.0

    if isinstance(payoff, VanillaPayoff):
        p = index[payoff.pair]

        def evaluate(y: np.ndarray) -> np.ndarray:
            terminal = spots[p] * np.exp(y[:, :, p].sum(axis=1))
            return np.maximum(sign * (terminal - payoff.strike), 0.0)

        return evaluate

    if isinstance(payoff, BasketPayoff):
        weights = np.array([payoff.weights[pair] for pair in pairs])

        def evaluate(y: np.ndarray) -> np.ndarray:
            terminal = spots * np.exp(y.sum(axis=1))
            basket = terminal @ weights
            return np.maximum(sign * (basket - payoff.strike), 0.0)

        return evaluate

    p_pay = index[payoff.payoff_pair]
    p_bar = index[payoff.barrier_pair]
    monitor = _monitoring_indices(payoff, config.grid)
    knock_in = payoff.style == "knock-in"
    up = payoff.direction == "up"

    def evaluate(y: np.ndarray) -> np.ndarray:
        terminal = spots[p_pay] * np.exp(y[:, :, p_pay].sum(axis=1))
        vanilla = np.maximum(sign * (terminal - payoff.strike), 0.0)
        barrier_path = spots[p_bar] * np.exp(np.cumsum(y[:, :, p_bar], axis=1))
        watched = barrier_path[:, monitor]
        if up:
            breached = (watched >= payoff.barrier_level).any(axis=1)
        else:
            breached = (watched <= payoff.barrier_level).any(axis=1)
        return vanilla * (breached if knock_in else ~breached)

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
    grid as buckets.  Deterministic for fixed (seed, n_paths, grid,
    antithetic), whatever ``workers`` is.
    """
    pairs = _involved_pairs(payoff)
    disc_ccy = discount_currency(payoff)
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
    spots = np.array([snapshot.spot(pair) for pair in pairs])
    evaluate = _payoff_evaluator(payoff, pairs, spots, config)

    disc_rate = snapshot.average_rate(disc_ccy, horizon)
    df = math.exp(-disc_rate * horizon)

    blocks = _block_bounds(config.n_paths)

    def run_block(item: tuple[int, tuple[int, int]]) -> tuple[float, float, int]:
        block, (b0, b1) = item
        values = evaluate(_block_increments(steps, config, block, b1 - b0))
        if config.antithetic:
            half = (b1 - b0) // 2
            values = 0.5 * (values[:half] + values[half:])
        return float(values.sum()), float((values * values).sum()), values.size

    if workers <= 1:
        partials = [run_block(item) for item in enumerate(blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_block, enumerate(blocks)))

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
        _check_keys(doc, {"type", "pair", "strike", "kind"})
        return VanillaPayoff(
            FxPair.parse(_str_field(doc, "pair")),
            _num_field(doc, "strike"),
            _str_field(doc, "kind"),
        )
    if kind_of == "basket":
        _check_keys(doc, {"type", "weights", "strike", "kind"})
        entries = doc["weights"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("expected a non-empty list", field="weights")
        weights: dict[FxPair, float] = {}
        for n, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SchemaError("expected an object", field=f"weights[{n}]")
            _check_keys(entry, {"pair", "weight"}, prefix=f"weights[{n}]")
            pair = FxPair.parse(_str_field(entry, "pair"))
            if pair in weights:
                raise SchemaError(f"duplicate basket pair {pair}", field=f"weights[{n}]")
            weights[pair] = _number(entry["weight"], f"weights[{n}].weight")
        return BasketPayoff(weights, _num_field(doc, "strike"), _str_field(doc, "kind"))
    if kind_of == "barrier":
        _check_keys(
            doc,
            {
                "type", "payoff_pair", "strike", "kind",
                "barrier_pair", "barrier_level", "direction", "style", "monitoring",
            },
        )
        monitoring = None
        if "monitoring" in doc:
            times = doc["monitoring"]
            if not isinstance(times, list):
                raise SchemaError("expected a list of times", field="monitoring")
            monitoring = tuple(_number(t, f"monitoring[{n}]") for n, t in enumerate(times))
        return BarrierPayoff(
            FxPair.parse(_str_field(doc, "payoff_pair")),
            _num_field(doc, "strike"),
            _str_field(doc, "kind"),
            FxPair.parse(_str_field(doc, "barrier_pair")),
            _num_field(doc, "barrier_level"),
            _str_field(doc, "direction"),
            _str_field(doc, "style"),
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


def _check_keys(doc: dict, allowed: set[str], prefix: str = "") -> None:
    for key in doc:
        if key not in allowed:
            where = f"{prefix}.{key}" if prefix else key
            raise SchemaError(f"unknown key {key!r}", field=where)
    for key in allowed - {"monitoring"}:
        if key not in doc:
            where = f"{prefix}.{key}" if prefix else key
            raise SchemaError(f"missing key {key!r}", field=where)


def _str_field(doc: dict, key: str) -> str:
    value = doc[key]
    if not isinstance(value, str):
        raise SchemaError("expected a string", field=key)
    return value


def _num_field(doc: dict, key: str) -> float:
    return _number(doc[key], key)
