"""Constructive procedures on block sequences.

Greedy splitting into pieces of bounded norm, flat averages that imitate
the unit basis of l1^m with an explicit equivalence certificate,
equivalence and domination measurements, the block-functional projection
operator, a greedy block selector with growth bookkeeping, and a
finite-family stabilization demo.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import engine
from .engine import (
    DEFAULT_SUPPORT_GUARD,
    DEFAULT_TOLERANCE,
    DomainError,
    EngineCheckError,
    F_SYSTEM,
    NormSystem,
    _close,
    _routes_flat,
    constant_best_sum,
    constant_vector_norm,
    norm,
    norm_value,
    norm_values,
)
from .vectors import FinVector, Functional, Interval, _l1_sum


# Supports up to which ``greedy_split`` fills y's whole N table once
# rather than reading windows of it.
_WHOLE_TABLE_MAX = 50
# Widest tile past it: ``greedy_split`` fills windows of at most this
# width as one batch of tiles over the rest of y.  At 16 the near-flat
# splits of support 58-64 at eps = 1/4 no longer tile; at 32 one batch
# of at most ``_CUBE_BYTES`` holds only 3 tiles, against 9 at 24.
_TILE_MAX = 24


class NotEquivalentOnFamilyError(DomainError):
    """A coefficient tuple sends one sequence to zero and the other not."""


# ---------------------------------------------------------------------------
# Block sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSequence:
    """Nonzero vectors with strictly increasing supports."""

    blocks: tuple[FinVector, ...]

    def __init__(self, blocks: Iterable[FinVector]):
        blocks = tuple(blocks)
        last = 0
        for b in blocks:
            if b.is_zero():
                raise DomainError("block sequences cannot contain the zero vector")
            if b.min_support() <= last:
                raise DomainError("block supports must be strictly increasing")
            last = b.max_support()
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i: int) -> FinVector:
        return self.blocks[i]

    def combine(self, coeffs: Sequence[float]) -> FinVector:
        if len(coeffs) != len(self.blocks):
            raise DomainError("coefficient tuple length mismatch")
        out: list[tuple[int, float]] = []
        for a, b in zip(coeffs, self.blocks):
            if a != 0.0:
                out.extend((i, a * v) for i, v in b.coords)
        return FinVector(out)

    def to_jsonable(self) -> list[dict]:
        return [b.to_jsonable() for b in self.blocks]

    @staticmethod
    def from_jsonable(data: Sequence) -> "BlockSequence":
        if not isinstance(data, (list, tuple)):
            raise DomainError("block sequence JSON must be an array of vectors")
        return BlockSequence(FinVector.from_json(item) for item in data)


def _check_unit_norm(idx: int, nv: float, tol: float) -> None:
    if not _close(nv, 1.0, tol):
        raise DomainError(f"block {idx} has norm {nv!r}, expected 1 within {tol}")


# ---------------------------------------------------------------------------
# Greedy splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitProfile:
    """Maximal-support greedy decomposition of a vector at scale eps.

    Pieces are successive, sum back to the vector exactly, and each has
    norm at most eps (boundary values included).  When the vector is
    normalized with sup norm at most eps/2, every piece but possibly the
    last has norm at least eps/2; the piece count then lies between the
    two split_count_bounds.
    """

    pieces: tuple[FinVector, ...]
    piece_norms: tuple[float, ...]
    eps: float

    @property
    def count(self) -> int:
        return len(self.pieces)

    def reconstruct(self) -> FinVector:
        out: list[tuple[int, float]] = []
        for p in self.pieces:
            out.extend(p.coords)
        return FinVector(out)

    def to_jsonable(self) -> dict:
        return {"eps": self.eps,
                "count": self.count,
                "piece_norms": list(self.piece_norms),
                "pieces": [p.to_jsonable() for p in self.pieces]}


def greedy_split(y: FinVector, eps: float, system: NormSystem = F_SYSTEM, *,
                 tol: float = DEFAULT_TOLERANCE,
                 guard: int = DEFAULT_SUPPORT_GUARD) -> SplitProfile:
    """Split y into maximal successive pieces of norm <= eps.

    Each piece grows from the start of what remains one coordinate at a
    time and stops before the first right end whose norm exceeds eps
    (values equal to eps within tolerance are included).  An eps that is
    not positive and finite, or a single coordinate already above eps, is
    refused before any table is filled.

    Segment norms are read from N-only interval DP tables filled by
    ``engine._n_tables``, whose N[a, b] is bitwise the norm of segment
    a..b.  Up to support 50 (``_WHOLE_TABLE_MAX``), y's whole table is
    filled once and serves every segment.  Past it, tables over windows
    of y serve successive pieces, and a read past them refills from the
    current piece start, twice as wide when the segment has outgrown the
    width; a whole table there costs about L^4 / 12 steps, while the
    windows stay short.  When the singleton bound puts the first piece's
    end within 12 positions, windows of up to 24 are filled as one batch
    of tiles over the rest of y (``_greedy_split``).  Equal coefficient
    tuples share one table.  Segments the engine routes flat
    (``_routes_flat``) read the shared composition tables instead, as
    ``norm_value`` does, and skip the window.  Segment norms are not
    written to the memo.
    """
    return _greedy_split(y, eps, system, tol, guard)[0]


def _greedy_split(y: FinVector, eps: float, system: NormSystem, tol: float, guard: int,
                  table: Optional[np.ndarray] = None
                  ) -> tuple[SplitProfile, Optional[Callable[[int, int], float]]]:
    """``greedy_split``'s profile and its reader: seg_norm(a, b) is bitwise
    ``norm_value`` of y's coordinates a..b, not written to the memo (a zero
    y has none).  It reads ``table``, y's whole N table, when given
    (``stabilize_subsequence``'s members).  Without it, once eps and y are
    accepted, y's whole table is filled when L <= ``_WHOLE_TABLE_MAX`` and
    the interval route admits L; otherwise segments read windows, each
    checked against the guard before its fill.

    When ``_tile_width`` is nonzero (at most ``_TILE_MAX``), each refill
    fills tiles of that width: windows from the refill's start at a stride
    of half the width, the last ending at y's end, at most ``_CUBE_BYTES``
    of tables in one ``_n_tables`` batch, so every segment of up to half a
    tile plus one positions lies inside one tile.  A read that no tile
    covers refills tiles from its start while it is that short; a longer
    one ends the tiling.  Otherwise, and from then on, one window refills
    at a time from the start of a read it does not cover, twice as wide
    when the segment has outgrown it; windows start at width 1, or after
    tiles at the power of two that ramp would have reached.  A window
    whose coefficients equal those of a window of the last refill reuses
    its table, and a batch fills each distinct tuple once."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if y.is_zero():
        return SplitProfile((), (), eps), None
    if y.linf() > eps and not _close(y.linf(), eps, tol):
        raise DomainError(f"coordinate exceeds eps: |{y.linf()}| > {eps}")

    coords = y.coords
    vabs = tuple(abs(v) for _, v in coords)
    engine._check_l1(vabs)
    L = len(coords)
    if table is None and L <= _WHOLE_TABLE_MAX:
        table = next(engine._n_tables([vabs], system, guard), (0, None))[1]
    # tiles[k][a - starts[k], b - starts[k]] = N of a..b while starts[k] <=
    # a <= b < starts[k] + width: the windows of the last refill
    if table is None:
        starts, tiles, width = [], [], _tile_width(vabs, eps, system, tol)
    else:       # a whole table covers every segment
        starts, tiles, width = [0], [table], L
    tiled, tables = table is None and width > 0, {}

    def seg_norm(a: int, b: int) -> float:
        nonlocal starts, tiles, width, tiled, tables
        if _routes_flat(vabs[a:b + 1]):
            return constant_vector_norm(system, b - a + 1, vabs[a], guard=guard)
        k = bisect.bisect_right(starts, a) - 1
        if k < 0 or b >= starts[k] + width:
            if tiled and b - a > width // 2:
                # longer than tiles serve: single windows, as wide as the
                # ramp from width 1 would be by now
                tiled, width = False, 1 << (b - a).bit_length()
            elif b - a >= width:
                width = max(2 * width, b - a + 1)
            width = min(width, L - a)
            engine._check_resources(width, guard, flat=False)
            starts = [a]
            if tiled:
                count = engine._CUBE_BYTES // engine.dp_table_bytes(width)
                starts = list(range(a, L - width, max(1, width // 2)))[:count]
                starts += [L - width] * (len(starts) < count)
            keys = [vabs[s:s + width] for s in starts]
            tables = {key: tables[key] for key in keys if key in tables}
            rows = [key for key in dict.fromkeys(keys) if key not in tables]
            tables.update((rows[i], N) for i, N in engine._n_tables(rows, system, guard))
            tiles, k = [tables[key] for key in keys], 0
        return float(tiles[k][a - starts[k], b - starts[k]])

    pieces: list[FinVector] = []
    norms: list[float] = []
    p = 0
    while p < L:
        e, nv = p, seg_norm(p, p)
        while e + 1 < L:
            val = seg_norm(p, e + 1)
            if val > eps and not _close(val, eps, tol):
                break
            e, nv = e + 1, val
        pieces.append(FinVector(coords[p:e + 1]))
        norms.append(nv)
        p = e + 1
    return SplitProfile(tuple(pieces), tuple(norms), eps), seg_norm


def _tile_width(vabs: tuple[float, ...], eps: float, system: NormSystem, tol: float) -> int:
    """Twice the length of the first segment from position 0 whose
    singleton bound, max(sup, l1 / w(len)) with the l1 term for len >=
    min_parts, exceeds eps (1 + tol), when that length is at most
    ``_TILE_MAX`` / 2; else 0.  N is at least the bound, so the piece from
    position 0 ends before that segment."""
    top = l1 = 0.0
    for n, v in enumerate(vabs[:_TILE_MAX // 2], 1):
        top, l1 = max(top, v), l1 + v
        if max(top, l1 / system.weight(n) if n >= system.min_parts else 0.0) > eps * (1 + tol):
            return 2 * n
    return 0


def split_count_bounds(eps: float, system: NormSystem = F_SYSTEM) -> tuple[int, int]:
    """Extremal piece counts (h, H) for greedy splits of normalized
    vectors with sup norm at most eps/2.

    h is the least count with count * eps >= 1; H is the largest count
    with (count - 1) / w(count) <= 2 / eps (equality kept).
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError("eps must lie in (0, 1]")
    h = 1
    while h * eps < 1.0:
        h += 1
    bound = 2.0 / eps
    H = 1
    ell = 2
    while (ell - 1) / system.weight_fn(ell) <= bound:
        H = ell
        ell += 1
    return h, H


# ---------------------------------------------------------------------------
# Flat l1-style averages
# ---------------------------------------------------------------------------

def l1_average_block(m: int, n_len: int, start: int = 1, *,
                     system: NormSystem = F_SYSTEM,
                     tol: float = DEFAULT_TOLERANCE,
                     guard: int = DEFAULT_SUPPORT_GUARD
                     ) -> tuple[BlockSequence, float]:
    """m consecutive normalized flat blocks of length n_len and the
    analytic constant making them equivalent to the unit basis of l1^m.

    Each block is (w(n)/n) * sum of n consecutive unit vectors, which the
    engine confirms has norm one.  The flat functional on the union gives
    ||sum a_k u_k|| >= (w(n)/w(mn)) * sum |a_k| while the triangle
    inequality gives <= sum |a_k|, so the certificate is w(mn)/w(n).
    """
    if m < 1 or n_len < 1:
        raise DomainError("m and n_len must be >= 1")
    # refuse before any block is built, as the norm of one block and then
    # greedy_block_select's norm of their union would
    engine._check_resources(n_len, guard, flat=n_len >= engine.CONSTANT_ROUTE_MIN)
    engine._check_resources(m * n_len, guard, flat=True)
    scale = system.weight_fn(n_len) / n_len
    blocks = []
    for k in range(m):
        lo = start + k * n_len
        blocks.append(FinVector((lo + i, scale) for i in range(n_len)))
    check = norm_value(blocks[0], system, guard=guard)
    if not _close(check, 1.0, tol):
        raise EngineCheckError(
            f"flat block of length {n_len} normalised to {check!r}, not 1")
    certificate = system.weight_fn(m * n_len) / system.weight_fn(n_len)
    return BlockSequence(blocks), certificate


@dataclass(frozen=True)
class ExperimentReport:
    lhs: float
    norm_y: float
    rhs: float
    passed: bool
    params: dict

    def to_jsonable(self) -> dict:
        out = {"lhs": self.lhs, "norm_y": self.norm_y, "rhs": self.rhs,
               "pass": self.passed}
        out.update(self.params)
        return out


def average_split_experiment(eps: float, parts: int, m: int, n_len: int, *,
                             start: int = 1,
                             system: NormSystem = F_SYSTEM,
                             tol: float = DEFAULT_TOLERANCE,
                             guard: int = DEFAULT_SUPPORT_GUARD) -> ExperimentReport:
    """Check that the m-average of flat blocks splits poorly: the best
    partition sum over `parts` parts exceeds the norm by less than eps.

    Preconditions mirror the analytic hypotheses: the equivalence
    certificate w(m n)/w(n) must stay below 1 + eps/2, and m must be at
    least ceil(4 * parts / eps).  The average has constant coefficients,
    so both sides run through the composition fast path.
    """
    if not 0.0 < eps < math.inf or min(parts, m, n_len) < 1:
        raise DomainError("eps must be positive and finite, and parts, m and n_len >= 1")
    certificate = system.weight_fn(m * n_len) / system.weight_fn(n_len)
    if certificate > 1.0 + eps / 2.0 + tol:
        raise DomainError(
            f"precondition failed: w({m * n_len})/w({n_len}) = {certificate:.6f} "
            f"> 1 + eps/2 = {1 + eps / 2:.6f}")
    m_min = math.ceil(4.0 * parts / eps)
    if m < m_min:
        raise DomainError(f"precondition failed: m = {m} < ceil(4*parts/eps) = {m_min}")
    length = m * n_len
    coeff = system.weight_fn(n_len) / (n_len * m)
    lhs = constant_best_sum(system, length, coeff, parts, guard=guard)
    norm_y = constant_vector_norm(system, length, coeff, guard=guard)
    rhs = norm_y + eps
    passed = lhs <= rhs + tol * max(1.0, rhs)
    return ExperimentReport(lhs, norm_y, rhs, passed,
                            {"eps": eps, "parts": parts, "m": m, "n_len": n_len,
                             "start": start, "certificate": certificate})


# ---------------------------------------------------------------------------
# Equivalence and domination measurements
# ---------------------------------------------------------------------------

def equivalence_constant(xs: BlockSequence, ys: BlockSequence,
                         coeffs: Iterable[Sequence[float]], *,
                         system: NormSystem = F_SYSTEM,
                         guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """Largest two-sided norm ratio over the supplied coefficient tuples.

    This is an empirical lower bound for the true equivalence constant,
    certified only on the tested family.
    """
    if len(xs) != len(ys):
        raise DomainError("sequences must have equal length")
    tups = list(coeffs)
    values = norm_values([xs.combine(tup) for tup in tups]
                         + [ys.combine(tup) for tup in tups], system, guard=guard)
    return _worst_ratio(tups, values, values[len(tups):])


def _worst_ratio(family: Sequence, xnorms: Sequence[float], ynorms: Sequence[float]) -> float:
    """Largest of 1, nx / ny and ny / nx over the norms each tuple of
    ``family`` gives the two sequences.  A tuple with both norms zero is
    skipped, one with exactly one zero is refused, and so is a family
    whose every tuple gives zeros."""
    worst = None
    for tup, nx, ny in zip(family, xnorms, ynorms):
        if (nx == 0.0) != (ny == 0.0):
            raise NotEquivalentOnFamilyError(
                f"not equivalent on family: tuple {tuple(tup)} gives norms "
                f"{nx} and {ny}")
        if nx == 0.0:
            continue
        worst = max(worst or 1.0, nx / ny, ny / nx)
    if worst is None:
        raise DomainError("coefficient family must contain a nonzero tuple")
    return worst


def domination_margin(ys: BlockSequence, coeffs: Iterable[Sequence[float]], *,
                      system: NormSystem = F_SYSTEM,
                      tol: float = DEFAULT_TOLERANCE,
                      guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """min over tuples of ||sum a_i y_i|| - ||sum a_i e_i|| for normalized
    blocks; nonnegative up to tolerance (blocks dominate the basis)."""
    for idx, nv in enumerate(norm_values(list(ys), system, guard=guard)):
        _check_unit_norm(idx, nv, tol)
    tups = list(coeffs)
    if not tups:
        raise DomainError("coefficient family is empty")
    values = norm_values([ys.combine(tup) for tup in tups]
                         + [FinVector((i + 1, a) for i, a in enumerate(tup) if a != 0.0)
                            for tup in tups], system, guard=guard)
    margin = math.inf
    for lhs, rhs in zip(values, values[len(tups):]):
        margin = min(margin, lhs - rhs)
    return margin


# ---------------------------------------------------------------------------
# Block-functional projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionOp:
    """T = sum over n of y_n * phi_n(.), with phi_n the norming functional
    of y_n supported inside its frame interval."""

    pairs: tuple[tuple[Functional, FinVector], ...]
    frames: tuple[Interval, ...]

    def coefficients(self, x: FinVector) -> list[float]:
        return [phi.apply(x) for phi, _ in self.pairs]

    def apply(self, x: FinVector) -> FinVector:
        return BlockSequence(b for _, b in self.pairs).combine(self.coefficients(x))


@dataclass(frozen=True)
class ProjectionReport:
    estimate: float
    sample_count: int
    c_equivalence: float
    bound: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {"estimate": self.estimate, "samples": self.sample_count,
                "c_equivalence": self.c_equivalence, "bound": self.bound,
                "pass": self.passed}


def build_projection(ys: BlockSequence, *, system: NormSystem = F_SYSTEM,
                     tol: float = DEFAULT_TOLERANCE,
                     guard: int = DEFAULT_SUPPORT_GUARD) -> ProjectionOp:
    pairs = []
    frames = []
    prev_max = 0
    for idx, y in enumerate(ys):
        result = norm(y, system, guard=guard)
        _check_unit_norm(idx, result.value, tol)
        phi = Functional.from_witness(result.witness, y)
        frame = Interval(prev_max + 1, y.max_support())
        if any(i not in frame for i in phi.support()):
            raise EngineCheckError("functional escaped its frame interval")
        pairs.append((phi, y))
        frames.append(frame)
        prev_max = y.max_support()
    return ProjectionOp(tuple(pairs), tuple(frames))


def projection_norm_estimate(op: ProjectionOp, samples: Iterable[FinVector], *,
                             system: NormSystem = F_SYSTEM,
                             tol: float = 1e-6,
                             guard: int = DEFAULT_SUPPORT_GUARD) -> ProjectionReport:
    """Operator-norm estimate max ||T x|| / ||x|| over the samples,
    compared against c_u * c_e * c_d with c_u = c_d = 1.

    The equivalence constant is measured over the coefficient tuples the
    samples themselves induce through the functionals, which is exactly
    the family the factorization argument runs through.  The samples are
    normed in one ``norm_values`` call, then their images in another.
    """
    blocks = BlockSequence(b for _, b in op.pairs)
    nblocks = len(blocks)
    basis = BlockSequence(FinVector.basis(i + 1) for i in range(nblocks))
    samples = list(samples)
    kept = [(x, nx) for x, nx in zip(samples, norm_values(samples, system, guard=guard))
            if nx != 0.0]
    coeffs = [op.coefficients(x) for x, _ in kept]
    images = norm_values([blocks.combine(c) for c in coeffs], system, guard=guard)
    estimate = 0.0
    for (_, nx), ntx in zip(kept, images):
        estimate = max(estimate, ntx / nx)
    induced = [tup for tup in (tuple(abs(a) for a in c) for c in coeffs)
               if any(a != 0.0 for a in tup)]
    family = induced or [(1.0,) * nblocks]
    c_equivalence = equivalence_constant(blocks, basis, family,
                                         system=system, guard=guard)
    bound = c_equivalence  # unconditional and domination constants are 1
    return ProjectionReport(estimate, len(samples), c_equivalence, bound,
                            estimate <= bound + tol)


# ---------------------------------------------------------------------------
# Greedy block selection with growth bookkeeping
# ---------------------------------------------------------------------------

def _summability_flag(schedule: Sequence[float]) -> bool:
    """Heuristic: n * eps_n should decay for a summable schedule."""
    weighted = [(i + 1) * e for i, e in enumerate(schedule)]
    half = len(weighted) // 2
    return any(b >= a for a, b in zip(weighted[half:], weighted[half + 1:]))


def _check_schedule(eps_schedule: Sequence[float]) -> None:
    if not all(0.0 < float(e) < math.inf for e in eps_schedule):
        raise DomainError("eps schedule entries must be positive and finite")


def _invert_growth(max_supp: int, eps: float) -> tuple[int, bool]:
    """Minimal k with w-growth weight(k/3) >= max_supp / eps, solved as
    k = 3 (2^t - 1) with t = max_supp / eps.

    Returns an exact big integer when t is integral; otherwise the bound
    is rounded up to the next power-of-two exponent and flagged."""
    t = max_supp / eps
    t_round = round(t)
    if abs(t - t_round) <= 1e-9 * max(1.0, abs(t)):
        return 3 * ((1 << int(t_round)) - 1), True
    return 3 * ((1 << int(math.ceil(t))) - 1), False


def growth_index_repr(k: int) -> str:
    """Compact exact rendering of a growth index; the indices produced by
    the selector are 3*(2^t - 1) with t in the thousands, far past any
    sensible decimal printout."""
    if k < 10 ** 18:
        return str(k)
    q, r = divmod(k + 3, 3)
    if r == 0 and q & (q - 1) == 0:
        return f"3*(2^{q.bit_length() - 1}-1)"
    return hex(k)


def greedy_block_select(eps_schedule: Sequence[float], budget: int, *,
                        start: int = 1,
                        support_budget: int = 2048,
                        system: NormSystem = F_SYSTEM,
                        tol: float = DEFAULT_TOLERANCE,
                        guard: int = DEFAULT_SUPPORT_GUARD
                        ) -> tuple[BlockSequence, list[int], dict]:
    """Greedy selector: each new block is a normalized flat average sized
    from the available support budget, the partition-sum condition is
    verified directly by the engine up to the required (possibly
    astronomical) part bound, and the next growth index is reported as an
    exact big integer without materializing anything at that scale.

    Beyond the first block the growth indices exceed any representable
    support, so the verified part bound saturates at the support size and
    the shortfall is flagged in the report rather than hidden.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if len(eps_schedule) < budget:
        raise DomainError("eps schedule shorter than budget")
    _check_schedule(eps_schedule)
    report: dict = {"levels": [],
                    "schedule_flagged_not_summable": _summability_flag(eps_schedule)}
    ks: list[int] = [1]
    blocks: list[FinVector] = []
    cur = start
    for n in range(1, budget + 1):
        eps_n = float(eps_schedule[n - 1])
        k_req = ks[-1]
        # Size the flat average from the budget: m at least 4*k/eps for the
        # feasible part of the requirement, block length from what remains.
        k_eff = max(1, min(k_req, 8))
        m = max(2, math.ceil(4.0 * k_eff / eps_n))
        n_len = max(1, support_budget // m)
        level: dict = {"level": n, "eps": eps_n, "m": m, "n_len": n_len,
                       "start": cur}
        try:
            _, certificate = l1_average_block(m, n_len, cur, system=system,
                                              tol=tol, guard=guard)
        except EngineCheckError as exc:
            level["error"] = str(exc)
            report["levels"].append(level)
            break
        level["certificate"] = certificate
        level["certificate_ok"] = certificate <= 1.0 + eps_n / 2.0 + tol
        length = m * n_len
        coeff = system.weight_fn(n_len) / (n_len * m)
        norm_y = constant_vector_norm(system, length, coeff, guard=guard)
        unit_coeff = coeff / norm_y
        # direct engine verification of the partition-sum condition
        eff_req = min(k_req, length)
        verified = 0
        for k in range(1, eff_req + 1):
            val = constant_best_sum(system, length, unit_coeff, k, guard=guard)
            if val <= 1.0 + eps_n + tol:
                verified = k
            else:
                break
        level["partition_bound_required"] = growth_index_repr(k_req)
        level["partition_bound_effective"] = eff_req
        level["partition_bound_verified"] = verified
        level["partition_condition_met"] = verified >= eff_req
        y = FinVector((cur + i, unit_coeff) for i in range(length))
        blocks.append(y)
        k_next, exact = _invert_growth(y.max_support(), eps_n)
        level["growth_index_next"] = growth_index_repr(k_next)
        level["growth_index_exact"] = exact
        report["levels"].append(level)
        ks.append(k_next)
        cur = y.max_support() + 1
    # the certificate flag is parameter guidance; the partition condition
    # itself is verified directly by the engine, so only that one gates
    report["all_conditions_met"] = all(
        lv.get("partition_condition_met", False) for lv in report["levels"])
    return BlockSequence(blocks), ks, report


# ---------------------------------------------------------------------------
# Finite stabilization demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizationState:
    """One level of the nested subsequence extraction."""

    level: int
    members: tuple[int, ...]
    eps: float
    piece_count: int
    profiles: dict = field(compare=False)
    growth_check_l1: Optional[bool]
    growth_check_count: Optional[bool]
    agreement_ratio: Optional[float]
    agreement_ok: Optional[bool]

    def to_jsonable(self) -> dict:
        return {"level": self.level, "members": list(self.members),
                "eps": self.eps, "piece_count": self.piece_count,
                "growth_check_l1": self.growth_check_l1,
                "growth_check_count": self.growth_check_count,
                "agreement_ratio": self.agreement_ratio,
                "agreement_ok": self.agreement_ok}


def _agreement_family(p: int) -> list[tuple[int, int]]:
    """The agreement step's 0/1 coefficient tuples on p pieces, each as the
    run [lo, hi) of pieces it sets to 1: all pieces, each of the first 8
    alone, and the first half."""
    return [(0, p)] + [(k, k + 1) for k in range(min(p, 8))] + [(0, (p + 1) // 2)] * (p >= 2)


def stabilize_subsequence(blocks: BlockSequence, eps_schedule: Sequence[float], *,
                          system: NormSystem = F_SYSTEM,
                          tol: float = DEFAULT_TOLERANCE,
                          guard: int = DEFAULT_SUPPORT_GUARD
                          ) -> tuple[list[int], list[StabilizationState]]:
    """Finite surrogate of the compactness extraction: at every level,
    members are filtered to sup norm at most eps/2, clustered by greedy
    piece count and then by rounded piece-norm profile, and the largest
    cluster survives.  Growth conditions are checked and reported, never
    silently enforced.  Returns the chosen representatives min(M_n) and
    the per-level states; stops early with what it has when the family
    thins out.  Later pools are subsets of the first, whose members' whole
    N tables are filled once (``engine._n_tables``) for every split to read;
    members that route flat or are refused split from their own windows,
    tiles included, as ``greedy_split`` does.

    Agreement compares the cluster's lead with the next two members, as
    ``equivalence_constant`` would, on 0/1 tuples of their pieces: all of
    them, each of the first 8 alone, and the first half.  Each tuple sets
    a run of successive pieces, whose norm is that of one segment of the
    member, read by the reader the member's own split returned: its whole
    table, the composition tables when the segment routes flat, or its
    windows.  No agreement norm goes to the memo."""
    if len(eps_schedule) == 0:
        raise DomainError("eps schedule must hold at least one entry")
    _check_schedule(eps_schedule)
    members = list(range(len(blocks)))
    states: list[StabilizationState] = []
    chosen: list[int] = []
    prev_count: Optional[int] = None
    for n in range(1, len(eps_schedule) + 1):
        eps_n = float(eps_schedule[n - 1])
        pool = members[1:] if n > 1 else members[:]
        if n > 1:
            # deeper levels need small coordinates (sup-norm reading of the
            # smallness condition); level 1 runs at scale 1 unconditionally
            pool = [i for i in pool if blocks[i].linf() <= eps_n / 2.0 + tol]
        else:
            pool = [i for i in pool if blocks[i].linf() <= eps_n + tol]
            for i in pool:      # each splits: its refusal comes before any fill
                engine._check_l1(blocks[i].values)
            ids = [i for i in pool if not _routes_flat(tuple(map(abs, blocks[i].values)))]
            tables = {ids[k]: N for k, N in engine._n_tables(
                [blocks[i].values for i in ids], system, guard)}
        if not pool:
            break
        splits = {i: _greedy_split(blocks[i], eps_n, system, tol, guard, tables.get(i))
                  for i in pool}
        profiles = {i: prof for i, (prof, _) in splits.items()}
        by_count: dict[int, list[int]] = {}
        for i in pool:
            by_count.setdefault(profiles[i].count, []).append(i)
        p_n, group = min(by_count.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        mesh = max(eps_n / 4.0, 1e-12)
        by_profile: dict[tuple, list[int]] = {}
        for i in group:
            key = tuple(round(v / mesh) for v in profiles[i].piece_norms)
            by_profile.setdefault(key, []).append(i)
        _, cluster = min(by_profile.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        cluster = sorted(cluster)

        check_l1 = check_count = None
        if n > 1:
            h_n, _ = split_count_bounds(min(eps_n, 1.0), system)
            total_l1 = _l1_sum(blocks[i].l1() for i in chosen)
            check_l1 = total_l1 < system.weight_fn(h_n) * 2.0 ** (-n)
            check_count = prev_count * eps_n < 2.0 ** (-n)

        ratio = agree = None
        if len(cluster) >= 2 and p_n >= 1:
            runs = _agreement_family(p_n)
            norms = []
            for i in cluster[:3]:   # run [lo, hi) is the segment ends[lo]..ends[hi] - 1
                ends = [0, *itertools.accumulate(q.support_size() for q in profiles[i].pieces)]
                norms.append([splits[i][1](ends[lo], ends[hi] - 1) for lo, hi in runs])
            lead, *others = norms
            ratio = max(_worst_ratio(runs, lead, other) for other in others)
            agree = ratio <= 1.0 + eps_n + tol

        states.append(StabilizationState(n, tuple(cluster), eps_n, p_n,
                                         {i: profiles[i] for i in cluster},
                                         check_l1, check_count, ratio, agree))
        chosen.append(cluster[0])
        members = cluster
        prev_count = p_n
        if len(members) < 2:
            break
    return chosen, states


def tail_constant(n: int, eps_schedule: Sequence[float],
                  interpretation: str = "tail") -> float:
    """Level-n remainder constant of the stabilization bookkeeping.

    "tail" (default): full geometric tail plus the scheduled epsilons,
    2^(1-n) + sum_{i=n..N} eps(i).  "capped": both sums stop at the
    schedule end, sum_{i=n..N} (2^-i + eps(i)).  The printed form of this
    constant is ambiguous about scope and upper limit, so both readings
    are exposed instead of guessing further.  Entries must be positive
    and finite; a tail whose sum overflows reads inf.
    """
    N = len(eps_schedule)
    if n < 1 or n > N:
        raise DomainError(f"level {n} outside schedule of length {N}")
    _check_schedule(eps_schedule)
    eps_sum = _l1_sum(eps_schedule[n - 1:])
    if interpretation == "tail":
        return 2.0 ** (1 - n) + eps_sum
    if interpretation == "capped":
        return math.fsum(2.0 ** (-i) for i in range(n, N + 1)) + eps_sum
    raise DomainError(f"unknown interpretation {interpretation!r}")
