"""Implied correlations between FX rates from implied volatilities.

One formula gives the correlation of any two rates X_{i/j}, X_{m/k}:

    rho = (s_ik^2 + s_mj^2 - s_jk^2 - s_im^2) / (2 s_ij s_mk)

where s_ab is the implied vol of X_{a/b} over the common horizon and a
"pair" of one currency with itself has zero vol.  The currency triangle,
two rates sharing their denominating currency, is the case m = i: s_im = 0
and three vols suffice.  Vols are orientation invariant, so flipping one
queried pair negates the result exactly.  The formula evaluates on floats
for one query and elementwise for a whole matrix, by index into the vols
between the pairs' currencies; buckets use forward vols.  Only the matrix
code imports numpy, when it runs: the quote functions do not need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    CorrelationClampWarning,
    CorrelationRangeError,
    MissingDataError,
    UndefinedCorrelationError,
    ValidationError,
)
from .market_data import FxPair, MarketSnapshot, _check_real, _is_real, _time_list, _warn, canonicalize
from .term_structure import PiecewiseConstant, _Breakpoints, _bucket, _bucket_vols, _check_breakpoints, horizon_vol

RANGE_SNAP = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class CorrQuery:
    """Correlation between the log-increments of two pairs over a horizon.

    ``horizon`` is (start, end] in year fractions; a total-horizon query
    uses start = 0.  Degenerate queries (same pair, or a pair and its
    inverse) are answered as +/-1 with a degenerate provenance record.
    """

    pair_a: FxPair
    pair_b: FxPair
    horizon: tuple[float, float]

    def __post_init__(self):
        try:
            horizon = tuple(self.horizon)
        except TypeError:  # a single number
            horizon = (self.horizon,)
        object.__setattr__(self, "horizon", horizon)  # a list or an array as a tuple: the query stays hashable
        start, end = horizon if len(horizon) == 2 else (None, None)
        if not (_is_real(start) and _is_real(end) and 0 <= start < end < math.inf):
            raise ValidationError(f"horizon must be finite with 0 <= start < end, got {horizon}")

    @classmethod
    def total(cls, pair_a: FxPair, pair_b: FxPair, maturity: float) -> "CorrQuery":
        return cls(pair_a, pair_b, (0.0, maturity))


@dataclass(frozen=True)
class VolUsed:
    """One vol input to a correlation formula, identified by its role."""

    role: str
    pair: str
    start: float
    end: float
    sigma: float


@dataclass(frozen=True)
class CorrProvenance:
    """Which formula produced a correlation and from which vols."""

    formula: str  # "triangle" | "cross" | "degenerate"
    pair_a: str
    pair_b: str
    start: float
    end: float
    vols: tuple[VolUsed, ...] = ()
    clamped: bool = False

    def to_dict(self) -> dict:
        d = dict(vars(self))
        d["vols"] = [dict(vars(v)) for v in d.pop("vols")]  # popped and set again: last, as the documents have it
        return d


@dataclass(frozen=True)
class CorrResult:
    value: float
    provenance: CorrProvenance

    @property
    def degenerate(self) -> bool:
        return self.provenance.formula == "degenerate"


def _bound(raw: float, clamp: bool, describe: Callable[[], str]) -> tuple[float, bool]:
    # Values within floating-point headroom of the bounds snap silently.
    if abs(raw) <= 1.0:
        return raw, False
    if abs(raw) <= 1.0 + RANGE_SNAP:
        return math.copysign(1.0, raw), False
    if clamp:
        _warn(f"implied correlation {raw:.12g} clamped to {math.copysign(1.0, raw):+.0f} ({describe()})",
              CorrelationClampWarning)
        return math.copysign(1.0, raw), True
    raise CorrelationRangeError(
        f"implied correlation {raw:.12g} outside [-1, 1]: {describe()}; "
        "the input vols admit arbitrage (pass clamp to force the nearest bound)"
    )


def _formula(s_ij, s_mk, s_ik, s_mj, s_jk, s_im):
    # The one correlation formula, on floats or elementwise on arrays.
    return (s_ik * s_ik + s_mj * s_mj - s_jk * s_jk - s_im * s_im) / (2.0 * s_ij * s_mk)


def _kernel(s_ij, s_mk, s_ik, s_mj, s_jk, s_im, clamp: bool, describe: Callable[[], str]) -> tuple[float, bool]:
    """Bounded correlation of X_{i/j}, X_{m/k} from six vols that are real numbers, and
    whether it was clamped.  ``describe()`` names the inputs, called only for a notice or an error."""
    # written as "not in range" so that NaN fails the check
    if not (0.0 < s_ij < math.inf and 0.0 < s_mk < math.inf):
        raise UndefinedCorrelationError(f"zero or non-finite implied vol for a queried pair: {describe()}")
    raw = _formula(s_ij, s_mk, s_ik, s_mj, s_jk, s_im)
    if not abs(raw) <= 1.0:  # a non-finite cross vol (an overflowed total variance) always lands here
        for s in (s_ik, s_mj, s_jk, s_im):
            _check_real(s, "cross vols", "finite and >= 0")
    return _bound(raw, clamp, describe)


def _checked_kernel(s_ij, s_mk, *cross, clamp: bool, describe: Callable[[], str]) -> float:
    """The kernel on vols a caller passed in: the queried vols real numbers and,
    unless the kernel rejects a queried vol first, the cross vols finite and >= 0."""
    if not (_is_real(s_ij) and _is_real(s_mk)):
        raise ValidationError(f"queried vols must be real numbers, not bools or strings: {describe()}")
    if 0.0 < s_ij < math.inf and 0.0 < s_mk < math.inf:
        for s in cross:
            _check_real(s, "cross vols", "finite and >= 0")
    return _kernel(s_ij, s_mk, *cross, clamp, describe)[0]


def triangle_corr(sigma_ik: float, sigma_ij: float, sigma_jk: float, *, clamp: bool = False) -> float:
    """Correlation of rates X_{i/k}, X_{i/j} sharing denominating currency i,
    from their vols and the cross vol of X_{j/k}."""
    return _checked_kernel(
        sigma_ij, sigma_ik, sigma_ik, sigma_ij, sigma_jk, 0.0, clamp=clamp,
        describe=lambda: f"triangle vols ({sigma_ik}, {sigma_ij}, {sigma_jk})",
    )


def cross_corr(
    sigma_ij: float,
    sigma_mk: float,
    sigma_ik: float,
    sigma_mj: float,
    sigma_jk: float,
    sigma_im: float,
    *,
    clamp: bool = False,
) -> float:
    """Correlation of rates X_{i/j}, X_{m/k} with different denominating
    currencies, from the vols of all six cross rates of {i, j, k, m}."""
    return _checked_kernel(
        sigma_ij, sigma_mk, sigma_ik, sigma_mj, sigma_jk, sigma_im, clamp=clamp,
        describe=lambda: f"cross vols ({sigma_ij}, {sigma_mk}, {sigma_ik}, {sigma_mj}, {sigma_jk}, {sigma_im})",
    )


def _plan(query: CorrQuery, snapshot: MarketSnapshot, start: float, end: float) -> tuple[str, str, str, tuple]:
    """A query's formula, its pairs' labels and its vols as (role, "a/b" label, term structure
    or None), looked up once for every horizon.  Lookups run in role order,
    so the first missing vol is the one reported, needed over (start, end]."""
    i, j = query.pair_a.denominating.code, query.pair_a.foreign.code
    m, k = query.pair_b.denominating.code, query.pair_b.foreign.code
    if (m, k) == (i, j) or (m, k) == (j, i):
        formula, roles = "degenerate", ()
    elif m == i:
        formula, roles = "triangle", (("sigma_ik", i, k), ("sigma_ij", i, j), ("sigma_jk", j, k))
    else:
        formula, roles = "cross", (("sigma_ij", i, j), ("sigma_mk", m, k), ("sigma_ik", i, k),
                                   ("sigma_mj", m, j), ("sigma_jk", j, k), ("sigma_im", i, m))
    try:  # a currency with itself has zero vol: no structure
        return formula, f"{i}/{j}", f"{m}/{k}", tuple(
            (role, f"{a}/{b}", None if a == b else snapshot._vol_by_code(a, b)) for role, a, b in roles)
    except MissingDataError as exc:
        raise MissingDataError(f"{exc} (needed over ({start}, {end}])") from exc


def _correlate(plan: tuple, sigma, start: float, end: float, clamp: bool) -> tuple[float, bool]:
    """A planned query's correlation from its role-ordered vols over (start, end], and whether it was clamped."""
    formula, label_a, label_b, _ = plan
    if formula == "degenerate":
        return (1.0 if label_a == label_b else -1.0), False
    # the triangle (s_ik, s_ij, s_jk) is the case s_mk = s_ik, s_mj = s_ij, s_im = 0
    six = sigma if formula == "cross" else (sigma[1], sigma[0], sigma[0], sigma[1], sigma[2], 0.0)
    return _kernel(*six, clamp, lambda: f"{label_a} vs {label_b} over ({start}, {end}]")


def _record(plan: tuple, start: float, end: float, sigma, value: float, clamped: bool) -> CorrResult:
    """An evaluated correlation with its provenance: every vol that fed it, by role."""
    formula, label_a, label_b, vols = plan
    used = tuple(VolUsed(role, label, start, end, s) for (role, label, _), s in zip(vols, sigma))
    return CorrResult(value, CorrProvenance(formula, label_a, label_b, start, end, used, clamped))


def _read_once(plan: tuple, zero, read: Callable) -> list:
    """``read(structure)`` for each role of a plan, once per distinct structure, and ``zero`` for no structure."""
    done = {id(None): zero}  # by identity
    return [done[id(ts)] if id(ts) in done else done.setdefault(id(ts), read(ts)) for _, _, ts in plan[3]]


def implied_corr(query: CorrQuery, snapshot: MarketSnapshot, *, clamp: bool = False) -> CorrResult:
    """Correlation between the log-increments of the two pairs exactly as
    oriented in the query, with a provenance record listing every vol that
    fed the formula (3 for a triangle, 6 for a cross query).
    """
    start, end = query.horizon
    plan = _plan(query, snapshot, start, end)
    sigma = _read_once(plan, 0.0, lambda ts: horizon_vol(ts, start, end))
    return _record(plan, start, end, sigma, *_correlate(plan, sigma, start, end, clamp))


def normalize_breakpoints(buckets: Iterable[float]) -> tuple[float, ...]:
    """Sorted bucket boundaries with a leading 0 (added when absent); a grid it returned passes through."""
    if type(buckets) is _Breakpoints:
        return buckets
    buckets = _time_list(buckets, "bucket boundaries")
    if not all(map(_is_real, buckets)):  # before float(), which takes bools and numeric strings
        raise ValidationError(f"bucket boundaries must be numbers, got {buckets}")
    return _Breakpoints(_check_breakpoints((0.0, *sorted({float(b) for b in buckets} - {0.0})), "bucket boundaries"))


def _bucket_loop(query: CorrQuery, snapshot: MarketSnapshot, buckets: Iterable[float], clamp: bool):
    """The one per-bucket loop: the breakpoints, the query's plan and each bucket's (left, right, vols,
    value, clamped).  One plan serves every bucket, so a missing vol fails bucket 0, and each distinct
    vol structure is read once, by ``_bucket_vols``, at every breakpoint before bucket 0 is evaluated."""
    breakpoints = normalize_breakpoints(buckets)
    rows = []
    for n, (left, right) in enumerate(zip(breakpoints, breakpoints[1:])):
        try:
            if n == 0:
                plan = _plan(query, snapshot, left, right)
                columns = _read_once(plan, (0.0,) * len(breakpoints), lambda ts: _bucket_vols(ts, breakpoints[1:]))
            sigma = [column[n] for column in columns]
            rows.append((left, right, sigma, *_correlate(plan, sigma, left, right, clamp)))
        except (CorrelationRangeError, MissingDataError, UndefinedCorrelationError) as exc:
            raise type(exc)(f"bucket {n} ({left}, {right}]: {exc}") from exc
    return breakpoints, plan, rows


def bucket_corrs(
    query: CorrQuery,
    snapshot: MarketSnapshot,
    buckets: Iterable[float],
    *,
    clamp: bool = False,
) -> list[CorrResult]:
    """Implied correlation over each bucket, from forward vols.

    ``buckets`` are breakpoints; the query's own horizon is ignored in
    favour of the bucket grid.  Errors carry the offending bucket index.
    """
    _, plan, rows = _bucket_loop(query, snapshot, buckets, clamp)
    return [_record(plan, *row) for row in rows]


def term_corr(
    query: CorrQuery,
    snapshot: MarketSnapshot,
    buckets: Iterable[float],
    *,
    clamp: bool = False,
) -> PiecewiseConstant:
    """Per-bucket implied correlations as a step function: the values of
    bucket_corrs, with the same notices and errors, and no provenance (use
    bucket_corrs or implied_corr for the vols behind each value)."""
    breakpoints, _, rows = _bucket_loop(query, snapshot, buckets, clamp)
    return PiecewiseConstant(breakpoints, tuple(value for *_, value, _ in rows))


@dataclass(frozen=True)
class BucketStatus:
    """PSD diagnosis of one bucket's correlation matrix."""

    status: str  # "psd" | "repaired" | "indefinite"
    min_eigenvalue: float
    frobenius_change: float = 0.0


@dataclass(frozen=True, eq=False)
class BucketedCorrelationMatrix:
    """Per-bucket correlation matrices across a set of canonical pairs."""

    pairs: tuple[str, ...]
    breakpoints: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]
    statuses: tuple[BucketStatus, ...]

    def __post_init__(self):
        import numpy as np
        for name in ("pairs", "statuses"):  # lists as tuples, as in the other frozen inputs
            object.__setattr__(self, name, tuple(getattr(self, name)))
        breakpoints = self.breakpoints  # a grid normalize_breakpoints checked is stored as a plain tuple
        object.__setattr__(self, "breakpoints", tuple(breakpoints) if type(breakpoints) is _Breakpoints
                           else _check_breakpoints(breakpoints, "breakpoints"))
        flipped = [canonicalize(FxPair.parse(label))[1] for label in self.pairs]
        if any(flipped) or len(set(self.pairs)) != len(self.pairs):  # the labels build_matrix writes
            raise ValidationError(f"pairs must be distinct labels in canonical orientation, got {self.pairs}")
        if len(self.matrices) != len(self.breakpoints) - 1:
            raise ValidationError("one matrix per bucket required")
        if len(self.statuses) != len(self.matrices):
            raise ValidationError("one status per bucket required")
        if not all(isinstance(status, BucketStatus) for status in self.statuses):
            raise ValidationError(f"statuses must be BucketStatus records, got {self.statuses}")
        n = len(self.pairs)
        for k, mat in enumerate(self.matrices):
            try:
                mat = np.asarray(mat)  # an array or nested lists
            except ValueError:
                raise ValidationError(f"bucket {k} matrix has rows of different lengths") from None
            if mat.shape != (n, n):
                raise ValidationError(f"matrix shape {mat.shape} does not match {n} pairs")
            if mat.dtype.kind not in "iuf":
                raise ValidationError(f"bucket {k} holds {mat.dtype} entries, not numbers")
            if not np.isfinite(mat).all():
                raise ValidationError(f"bucket {k} has a non-finite entry")
        stack = np.array(self.matrices, dtype=float)  # a copy: the caller's arrays cannot change it
        valid = ((stack == stack.transpose(0, 2, 1)) & (np.abs(stack) <= 1.0)).all(axis=(1, 2))
        valid &= (np.diagonal(stack, axis1=1, axis2=2) == 1.0).all(axis=1)
        if not valid.all():
            raise ValidationError(f"bucket {np.argmin(valid)} is not symmetric with a unit diagonal and entries in [-1, 1]")
        stack.setflags(write=False)
        object.__setattr__(self, "matrices", tuple(stack))

    @property
    def n_buckets(self) -> int:
        return len(self.matrices)

    def bucket_index(self, t: float) -> int:
        if not (_is_real(t) and 0 < t <= self.breakpoints[-1]):
            raise ValidationError(f"t={t} outside ({self.breakpoints[0]}, {self.breakpoints[-1]}]")
        return _bucket(self.breakpoints, t)

    def to_dict(self) -> dict:
        return {
            "pairs": list(self.pairs),
            "buckets": [
                {
                    "start": self.breakpoints[n],
                    "end": self.breakpoints[n + 1],
                    "matrix": [list(row) for row in self.matrices[n]],
                    **vars(self.statuses[n]),
                }
                for n in range(self.n_buckets)
            ],
        }


def _clip_to_psd(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """One-pass eigenvalue clipping at 0 plus unit-diagonal renormalization."""
    import numpy as np
    eigvals, eigvecs = np.linalg.eigh(matrix)
    clipped = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    scale = np.sqrt(np.maximum(np.diag(clipped), 1e-300))
    repaired = clipped / np.outer(scale, scale)
    repaired = 0.5 * (repaired + repaired.T)
    np.fill_diagonal(repaired, 1.0)
    np.clip(repaired, -1.0, 1.0, out=repaired)
    change = float(np.linalg.norm(repaired - matrix, ord="fro"))
    return repaired, change


def build_matrix(
    pairs: Sequence[FxPair],
    snapshot: MarketSnapshot,
    buckets: Iterable[float],
    *,
    repair: bool = False,
    clamp: bool = False,
    _vols: Mapping[FxPair, tuple[float, ...]] | None = None,
) -> BucketedCorrelationMatrix:
    """Pairwise term correlations assembled into one matrix per bucket.

    Pairs are restated in canonical orientation.  Each entry equals the
    implied_corr query for its two pairs over the bucket, bit for bit, and
    is evaluated once, from one table of bucket vols; the matrices are
    symmetric by construction, eigenvalue-checked in one call.  Indefinite
    buckets are either flagged or, with ``repair``, made PSD by clipping
    their eigenvalues at 0 and rescaling to a unit diagonal (not the nearest
    such matrix), reporting the Frobenius distance moved.  ``_vols`` holds the
    bucket vols ``price`` derived from the snapshot, by stored pair: not derived again.
    """
    import numpy as np
    canon, seen = [], set()  # the set makes the duplicate check one hash per pair
    for pair in pairs:
        cpair, _ = canonicalize(pair)
        if cpair in seen:
            raise ValidationError(f"pair {pair} duplicates {cpair} after canonicalization")
        canon.append(cpair)
        seen.add(cpair)
    if len(canon) < 2:
        raise ValidationError("need at least two pairs")
    breakpoints = normalize_breakpoints(buckets)

    # The vol of each currency pair over each bucket, NaN for a pair with
    # no vol structure (raised, by role, by the first entry using it).
    spans = list(zip(breakpoints, breakpoints[1:]))
    codes = sorted({c.code for p in canon for c in (p.denominating, p.foreign)})
    s = np.zeros((len(spans), len(codes), len(codes)))
    for a, b in combinations(range(len(codes)), 2):
        try:
            ts = snapshot._vol_by_code(codes[a], codes[b])
            vols = (_vols or {}).get(ts.pair) or _bucket_vols(ts, breakpoints[1:])
        except MissingDataError:
            vols = math.nan
        s[:, a, b] = s[:, b, a] = vols

    i = np.array([codes.index(p.denominating.code) for p in canon])
    j = np.array([codes.index(p.foreign.code) for p in canon])
    rows, cols = np.triu_indices(len(canon), 1)
    sigma = (s[:, i[rows], j[rows]], s[:, i[cols], j[cols]], s[:, i[rows], j[cols]],
             s[:, i[cols], j[rows]], s[:, j[rows], j[cols]], s[:, i[rows], i[cols]])
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = _formula(*sigma)  # (buckets, entries)
    # An entry outside [-1, 1] or not finite is settled as its query would be, bucket
    # by bucket in row-major order: a missing vol raised by role, else clamped or raised.
    for n, e in np.argwhere(~(np.abs(upper) <= 1.0)).tolist():
        (left, right), pa, pb = spans[n], canon[rows[e]], canon[cols[e]]
        try:
            _plan(CorrQuery(pa, pb, (left, right)), snapshot, left, right)
            upper[n, e] = _kernel(*(float(v[n, e]) for v in sigma), clamp,
                                  lambda: f"{pa} vs {pb} over ({left}, {right}]")[0]
        except (CorrelationRangeError, MissingDataError, UndefinedCorrelationError) as exc:
            raise type(exc)(f"matrix entry ({pa}, {pb}) bucket {n} ({left}, {right}]: {exc}") from exc
    stack = np.tile(np.eye(len(canon)), (len(spans), 1, 1))
    stack[:, rows, cols] = stack[:, cols, rows] = upper

    statuses = []
    for n, min_eig in enumerate(np.linalg.eigvalsh(stack)[:, 0].tolist()):
        if min_eig >= -PSD_TOL:
            statuses.append(BucketStatus("psd", min_eig))
        elif repair:
            stack[n], change = _clip_to_psd(stack[n])
            statuses.append(BucketStatus("repaired", float(np.linalg.eigvalsh(stack[n])[0]), change))
        else:
            statuses.append(BucketStatus("indefinite", min_eig))
    return BucketedCorrelationMatrix(tuple(p.label for p in canon), breakpoints, stack, statuses)
