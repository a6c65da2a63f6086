"""Exact evaluation of implicitly defined partition norms.

The norm computed here is the unique fixed point of

    N(x) = max( sup-norm(x),
                max over n >= n0 and successive sets E_1 < ... < E_n
                    of (1/w(n)) * sum_i N(E_i x) )

for a weight system ``w`` (strictly increasing, > 1).  The built-in
``F_SYSTEM`` uses w(n) = log2(n+1) with minimum part count 2; the
companion ``G_SYSTEM`` uses w(n) = log2(1 + n/2) with minimum part
count 3.

The supremum over arbitrary successive sets reduces to ordered interval
partitions of the support: the norm only reads absolute values, so
enlarging a set to its hull cannot decrease any part's norm.  The
engine exploits this with a dynamic program over the tables

    N[i, j]        norm of the restriction to support positions i..j
    S(i, j)[n-1]   best sum of part norms over partitions of i..j into
                   exactly n contiguous position runs (read through
                   ``IntervalTables.sums``),

with S(i, j)[n-1] = max over m of N[i, m] + S(m+1, j)[n-2].  Every
interval of length ell depends only on shorter ones, so the DP runs over
lengths: all starts of one length are filled by one batched max over the
first part's length (part counts a remainder cannot hold read -inf and
drop out), and one vectorized scan then picks each interval's norm and
part count.  N and kind are written and read through strided diagonal
views.  S is stored by length, groups of consecutive lengths to one
array indexed [length, start, part count], so one length's sums are one
plain slice, filled and scanned in place.  A split's rest ends where
its interval does, so each group's rests are read through one view of
it by right end (``_by_right_end``): a fill builds them once, and
``IntervalTables`` when the witness first reads them.  Up to L = 50,
where 8 L^3 bytes fit 1 MiB, one group holds every length; past it
groups of S_GROUP = 16 bring the tables towards 4 L^3 / 3 bytes, so the
1 GiB cap admits supports up to 912.

The fill, ``_fill``, runs on a stack of B vectors of one support size:
every table has a leading batch axis, so each step serves all B rows with
the numpy calls one vector would make, and ``build_tables`` is the
B = 1 case.  Each run's l1 bound is one ``np.add.reduce`` per length over
a window view built once per fill, the same pairwise sum as a reduce of
the run alone, so every row is bitwise the fill of its vector alone.
``_n_tables`` fills many vectors that way, one batch per support size,
split where ``_check_resources`` says so to keep every part's tables
under the memory limit; ``norm_values`` (after one memo read per
distinct key) and ``stabilize_subsequence`` fill through it.  Small
fills are almost all fixed cost, which a batch pays once.  These
readers take only N, so their fills keep only the part counts that can
win: one rule, the grouping bound (``NormSystem._fill_width``, which
gives G's figures), proves once per system and support a width K past
which no part count can win, and those fills hold K columns of S, take
their layout from that width (``_group``) and scan nothing past them.
Where the bound rules nothing out, under F and for G past support 153,
K = L.  ``build_tables`` fills every part count, since its readers take
S; ``dp_table_bytes`` and the guard count full-width tables for every
fill.
``_plan`` is the one route decision of every reader: bitwise-constant
vectors take a composition DP over lengths instead, which reaches the
support guard (4096).  It fills each length only with the part counts
that can still decide the norm: the singleton composition's sum is
stored without its row, and a concave-majorant bound rules out the
rest, so under F two part counts decide every length.  Readers add more
on demand (``_ConstTables``).  Both routes' tables answer ``value()``,
``layer_sums(k)``, ``layer_bounds()`` and ``witness()``; ``norm``'s
character scan passes over the layers whose bound misses the value and
raises the rows of the first layer it cannot decide.  Both routes record
each interval's winning part count as they fill, so one walk,
``_witness``, reads the witness from either route's tables.  ``_plan``
runs the one guard and memory check, ``_check_resources``, before any
memo read.  Its route rule, ``_routes_flat``, is also what
``greedy_split`` applies before each interval-table read.  A split
fills nothing before it accepts its input, and every table it reads is
an N-only ``_n_tables`` fill: one whole table per vector up to support
50 and per ``stabilize_subsequence`` member; larger vectors, and members
that route flat or are refused, split from their own windows, each
checked by ``_check_resources`` first.  Windows of up to 24 positions
are filled as one batch of tiles over the rest of the vector, at most
``_CUBE_BYTES`` of tables, and equal coefficient tuples share a table.
Every weight these kernels divide by is a slice of one array per system,
``NormSystem.weight_table``, grown on demand.

The set-level supremum is kept alive independently in ``brute_norm``,
which enumerates all gapped successive-set families on small supports;
the acceptance suite checks the two routes agree.

Determinism: candidates are scanned in a fixed order (sup-norm branch
first, then ascending part count, then earliest split points) and a new
candidate replaces the incumbent only when strictly larger, so values,
witnesses and functionals are reproducible bit for bit.  ``norm``
evaluates each witness it returns and raises ``EngineCheckError`` when the
witness misses the value.

The engine is single-threaded per process: the memo and the composition
tables are plain module-level dicts with no locks, so concurrent callers
need processes, not threads.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .vectors import FinVector, Functional, WitnessTree, _l1_sum

ENGINE_VERSION = "implicitnorm-engine-1"

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SUPPORT_GUARD = 4096
# The interval DP needs O(L^3) table memory (``dp_table_bytes``); refuse
# sizes whose tables would not fit rather than letting numpy die trying.
DP_MEMORY_LIMIT_BYTES = 1 << 30
# Bitwise-constant vectors larger than this route through the
# length-composition fast path instead of the full DP.
CONSTANT_ROUTE_MIN = 65
# Elements of the add temporary of one vectorized step of the composition
# DP (256 KB): a step takes as many first pieces as fit beside the part
# counts their remainders can hold, so narrow rows take more per step.
CONST_BUDGET = 1 << 15
# Consecutive lengths per S array past the size below (``_group``): a
# length takes about ell / S_GROUP add-max steps, one per group of rests.
S_GROUP = 16
# Bytes of a vector's S that one array of every length may take (``_group``)
_CUBE_BYTES = 1 << 20
# Elements per batch row of the add temporary of one fill step; numpy's
# iterator buffers come on top, up to this size for each strided operand.
# Fewer, larger steps pay less fixed cost per numpy call: the F fill at
# L = 128 takes 1143 steps here against 2003 at 2^13, 8-10% faster.
# 2^15 is no faster and leaves build_tables' peak at L = 128 only 80 B
# under the 4.5 MB that TestMemoryGuard allows; 2^16 is over it.
DP_BATCH = 1 << 14
BRUTE_SUPPORT_CAP = 8
# Coefficients a MemoTable's keys may hold in all (about 32 MB of float
# objects and tuple slots); past it the oldest entries go first.
_MEMO_MAX_COEFFS = 1 << 20
# ``norm`` evaluates its witness on the input; the witness adds left to
# right while the DP nests its sums, so they agree to rounding, not bits.
WITNESS_CHECK_RTOL = 1e-12


class SupportGuardError(RuntimeError):
    """Vector size exceeds a configured or feasible resource guard."""


class DomainError(ValueError):
    """Operation called outside its mathematical domain."""


class EngineCheckError(RuntimeError):
    """An internal cross-check failed beyond tolerance."""


# ---------------------------------------------------------------------------
# Weight systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSystem:
    """A weight function w on part counts n >= min_parts, w(n) > 1 increasing.

    The memo and the composition tables key on the system value itself,
    that is on (name, min_parts, weight_fn), so two systems that share a
    name but not a weight function never share cached values.
    """

    name: str
    min_parts: int
    weight_fn: Callable[[int], float]
    _table: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False,
                               compare=False)
    _widths: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp),
                                repr=False, compare=False)

    def __post_init__(self):
        if self.min_parts < 2:
            raise DomainError("minimum part count must be at least 2")
        w0 = self.weight_fn(self.min_parts)
        if not w0 > 1.0:
            raise DomainError(f"weight({self.min_parts}) = {w0} must exceed 1")
        if not self.weight_fn(self.min_parts + 1) > w0:
            raise DomainError("weight function must be strictly increasing")

    def weight(self, n: int) -> float:
        return float(self.weight_fn(n))

    def weight_table(self, hi: int) -> np.ndarray:
        """The system's one weight array, at least hi + 1 long: entry n is
        weight(max(n, min_parts)), the same float ``weight`` returns.
        Grown on demand by doubling; callers read slices of it."""
        w = self._table
        if len(w) <= hi:
            l0 = self.min_parts
            w = np.concatenate((w, [self.weight(max(n, l0))
                                    for n in range(len(w), max(hi + 1, 2 * len(w)))]))
            object.__setattr__(self, "_table", w)
        return w

    def _fill_width(self, L: int) -> int:
        """The part counts an N-only interval fill of support L keeps
        (``_fill``): K while the grouping bound rules out every part count
        K + 1..L, else L.  Derived from the weight array, grown with it.

        Group the parts of a best n-part partition, n >= n0^2 (n0 =
        min_parts), into n0 runs of n0..ceil(n / n0) consecutive parts.  A
        run of c parts sums to at most w(c) times its hull's norm, and the
        hulls are an n0-part partition, so S[n] <= max_c w(c) S[n0], while
        the scan's incumbent is at least S[n0] / w(n0).  So n cannot win
        where max_c w(c) w(n0) < w(n); the max keeps this sound for weights
        that are not monotone.  Where a hull's scan stopped at n' <= c, its
        c-part sums are bounded by its l1 norm instead, below w(n') times
        its norm, which holds only while every weight exceeds 1 (as in
        ``_ConstTables._band``), so past the first weight that does not,
        nothing is ruled out.  The margin 1e-9 absorbs rounding: the ratio
        reaches 1 + 4e-16 where the bound is tight.  Under G this rules out
        n = 9..153, so fills of support 9..153 keep 8 part counts, in one S
        array up to support 128 (``_group``).  K is one below the first part
        count ruled out; past the end of that run a fill keeps L, and below
        n0^2, where nothing is ruled out, it keeps L without growing the
        weight array."""
        n0, widths = self.min_parts, self._widths
        if L < n0 * n0:         # nothing up to L is ruled out
            return L
        if len(widths) <= L:
            hi = max(L + 1, 2 * len(widths))
            w, n = self.weight_table(hi)[:hi], np.arange(hi)
            top = np.maximum.accumulate(w[n0:])[np.maximum(-(-n // n0), n0) - n0]
            ruled = ((n >= n0 * n0) & (np.minimum.accumulate(w) > 1.0)
                     & (top * w[n0] < (1 - 1e-9) * w))
            widths, first = n.copy(), int(np.argmax(ruled))
            widths[first:][np.logical_and.accumulate(ruled[first:])] = first - 1
            object.__setattr__(self, "_widths", widths)
        return int(widths[L])


def _f_weight(n: int) -> float:
    return math.log2(n + 1)


def _g_weight(n: int) -> float:
    return math.log2(1 + n / 2)


F_SYSTEM = NormSystem("f", 2, _f_weight)
G_SYSTEM = NormSystem("g", 3, _g_weight)


def log2_affine_system(name: str, min_parts: int, add: float, scale: float) -> NormSystem:
    """Custom system with w(n) = log2(add + scale * n)."""
    def w(n: int) -> float:
        return math.log2(add + scale * n)
    return NormSystem(name, min_parts, w)


def get_system(name: str) -> NormSystem:
    lowered = name.lower()
    if lowered == "f":
        return F_SYSTEM
    if lowered == "g":
        return G_SYSTEM
    raise DomainError(f"unknown weight system {name!r}")


# ---------------------------------------------------------------------------
# Memo table (in-process cache for norm values)
# ---------------------------------------------------------------------------

class MemoTable:
    """In-process cache of computed norm values keyed by (system value,
    canonical sub-vector).

    The canonical form is the tuple of absolute coefficients in support
    order: the norm is invariant under sign flips and spreadings by
    construction, so this is the finest key that still deduplicates.
    Cached values are exactly the values the engine computes, so lookups
    never change results.  The keys hold at most ``_MEMO_MAX_COEFFS``
    coefficients in all: a put past it evicts the oldest entries, in
    insertion order, until they fit.
    """

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._coeffs = 0

    def get(self, system: NormSystem, canon: tuple[float, ...]) -> Optional[float]:
        return self._data.get((system, canon))

    def put(self, system: NormSystem, canon: tuple[float, ...], value: float) -> None:
        if (system, canon) not in self._data:
            self._coeffs += len(canon)
        self._data[(system, canon)] = value
        while self._coeffs > _MEMO_MAX_COEFFS:
            (_, old), _ = self._data.popitem(last=False)
            self._coeffs -= len(old)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._coeffs = 0


GLOBAL_MEMO = MemoTable()


# ---------------------------------------------------------------------------
# Interval-partition dynamic program
# ---------------------------------------------------------------------------

@dataclass
class IntervalTables:
    """DP tables for one vector under one system; positions index the
    support.  The views of S by right end are built when the witness
    first reads them (``_ends``)."""

    system: NormSystem
    indices: tuple[int, ...]
    vabs: np.ndarray
    N: np.ndarray          # N[i, j]
    S: list[np.ndarray]    # [g][length - 1 - g G, i, n - 1], G = len(S[0]): see sums
    kind: np.ndarray       # 0 = sup-norm leaf, else winning part count

    @cached_property
    def _ends(self) -> list[np.ndarray]:    # the views _splits reads
        return [_by_right_end(A) for A in self.S]

    @property
    def size(self) -> int:
        return len(self.indices)

    def value(self) -> float:
        return float(self.N[0, self.size - 1])

    def sums(self, i: int, j: int) -> np.ndarray:
        """Best part-norm sums of positions i..j: entry n - 1 is the best
        over partitions into exactly n runs, for n = 1..j-i+1."""
        return self.length_sums(j - i + 1)[i]

    def length_sums(self, ell: int) -> np.ndarray:
        """The sums of every run of ell positions: row i is
        sums(i, i + ell - 1), for i = 0..size-ell."""
        g, u = divmod(ell - 1, len(self.S[0]))
        return self.S[g][u, :self.size - ell + 1, :ell]

    def layer_sums(self, k: Optional[int] = None) -> np.ndarray:
        """Running max of the whole support's sums: entry k - 1 is the
        best sum over at most k parts, for the first k (all when None)."""
        return np.maximum.accumulate(self.sums(0, self.size - 1)[:k])

    def layer_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``layer_sums()`` twice: every layer is exact here."""
        sums = self.layer_sums()
        return sums, sums

    def witness(self) -> WitnessTree:
        return _witness(self, 0, self.size - 1)

    def _parts(self, i: int, j: int) -> int:
        return int(self.kind[i, j])

    def _splits(self, i: int, j: int, n: int) -> np.ndarray:
        """N[i, m] + sums(m + 1, j)[n - 2] for m = i..j-n+1: the rests end
        at j, so each length group's are one slice of its view by right end."""
        G, r, rest = len(self.S[0]), j - i, None
        while r >= n - 1:       # the rests of lengths r down to n - 1
            g = (r - 1) // G
            end, lo = self._ends[g], max(n - 1, g * G + 1)
            part = end[j - g * G, end.shape[-1] - r:end.shape[-1] - lo + 1, n - 2]
            rest, r = part if rest is None else np.concatenate((rest, part)), lo - 1
        return self.N[i, i:j - n + 2] + rest


def _by_right_end(A: np.ndarray) -> np.ndarray:
    """The view E[..., s, k, n - 1] of the S group A[..., u, i, n - 1] of
    lengths l0 + 1..top: the sums of the run of length top - k that ends
    at l0 + s.  Runs that would start before 0 alias other cells and are
    never read; the view stays in A's buffer, so ndarray() builds it."""
    G, rows, cols = A.shape[-3:]
    su, si, sc = A.strides[-3:]
    return np.ndarray(A.shape[:-3] + (rows + G - 1, G, cols), A.dtype, A,
                      (G - 1) * (su - si), A.strides[:-3] + (si, si - su, sc))


def _group(L: int, width: int) -> int:
    """Lengths per S array: all L while their 8 L^2 width bytes fit
    _CUBE_BYTES, width being the part counts kept."""
    return L if 8 * L * L * width <= _CUBE_BYTES else S_GROUP


def dp_table_bytes(L: int) -> int:
    """Bytes of the N (float64), kind (int16) and S tables at support size
    L: with G = ``_group(L, L)``, S's full group g (G lengths, rows for the
    L - g G starts of its shortest, columns for the G (g + 1) part counts
    of its longest) has G^2 (L - g G)(g + 1) cells, a last one r^2 L."""
    G = _group(L, L)
    q, r = divmod(L, G)
    cells = G * G * (L * q * (q + 1) // 2 - G * (q - 1) * q * (q + 1) // 3) + r * r * L
    return 8 * cells + 10 * L * L


def _check_l1(values: Sequence[float]) -> None:
    """Refuse coefficients whose l1 norm overflows float64, read as
    ``FinVector.l1`` reads it: the tables' part sums reach it."""
    if not math.isfinite(_l1_sum(map(abs, values))):
        raise DomainError("the l1 norm of the vector overflows float64")


def _check_resources(L: int, guard: int, flat: bool, B: int = 1) -> int:
    """The one resource check of both routes: the support guard, then the
    route's table memory against ``DP_MEMORY_LIMIT_BYTES``, estimated
    without allocating.  The message names the limit that refused.
    Returns how many of B vectors of support L one fill may take, so that
    a batch split into parts of that size keeps every part's tables under
    the limit."""
    if L > guard:
        raise SupportGuardError(f"support size {L} exceeds guard {guard}")
    need, what = (8 * (L + 1) ** 2, "composition") if flat else (dp_table_bytes(L), "DP")
    if need > DP_MEMORY_LIMIT_BYTES:
        raise SupportGuardError(
            f"support size {L} needs ~{need >> 20} MiB of {what} tables "
            f"(limit {DP_MEMORY_LIMIT_BYTES >> 20} MiB)")
    return min(B, DP_MEMORY_LIMIT_BYTES // need)


def _n_tables(rows: Sequence[Sequence[float]], system: NormSystem, guard: int
              ) -> Iterator[tuple[int, np.ndarray]]:
    """(k, N table of rows[k]) for each row whose size the interval route
    admits, one ``_fill`` per size split into parts that ``_check_resources``
    sizes; refused sizes yield nothing.  Only N is read, so the fills keep
    the system's width (``NormSystem._fill_width``)."""
    by_size: dict[int, list[int]] = {}
    for k, row in enumerate(rows):
        by_size.setdefault(len(row), []).append(k)
    for L, ks in by_size.items():
        try:
            part = _check_resources(L, guard, flat=False, B=len(ks))
        except SupportGuardError:
            continue
        for k0 in range(0, len(ks), part):
            chunk = ks[k0:k0 + part]
            pad = _padded([rows[k] for k in chunk], L)
            yield from zip(chunk, _fill(pad, system, system._fill_width(L))[0])


def build_tables(x: FinVector, system: NormSystem = F_SYSTEM, *,
                 guard: int = DEFAULT_SUPPORT_GUARD) -> IntervalTables:
    L = x.support_size()
    if L == 0:
        raise DomainError("zero vector has no DP tables")
    _check_l1(x.values)
    _check_resources(L, guard, flat=False)
    pad = _padded([x.values], L)
    N, kind, S = _fill(pad, system, L)      # every part count: S is read
    return IntervalTables(system, x.indices, pad[0, :L], N[0], [plane[0] for plane in S],
                          kind[0])


def _padded(rows: Sequence[Sequence[float]], L: int) -> np.ndarray:
    """The input of ``_fill``: row b holds |rows[b]| (L values), then L zeros."""
    pad = np.zeros((len(rows), 2 * L))
    np.abs(rows, out=pad[:, :L])
    return pad


def _fill(pad: np.ndarray, system: NormSystem, K: int
          ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The interval DP of every row of V = pad[:, :L], a (B, L) stack of
    absolute coefficients (``_padded``), over part counts up to K: N[b]
    and kind[b] are row b's tables, bit for bit those of a fill of row b
    alone.  The batch axis leads every table, so each step below serves
    all rows with one numpy call.

    Each length ell fills the part counts n = 1..min(ell, K) of S
    (``_fill_band``) and scans them (``_scan_length``).  ``build_tables``
    passes K = L, every part count; the N-only readers pass the system's
    width ``NormSystem._fill_width(L)``, past which the grouping bound
    proves no part count can win, so N and kind are those of a fill of
    every part count at either width.  S keeps K columns: length ell's
    sums, S[g][:, ell - 1 - g G, :L - ell + 1, :min(ell, K)] with
    g = (ell - 1) // G (``_group`` of L and K), are filled and scanned in
    place, -inf past them."""
    B, L = pad.shape[0], pad.shape[1] // 2
    V = pad[:, :L]
    # wv[n - 1] divides the n-part sums; wv[0] = 1 passes the sup norm
    wv = np.concatenate(([1.0], system.weight_table(L)[2:L + 1]))
    G = _group(L, K)
    N = np.full((B, L, L), -np.inf)
    kind = np.zeros((B, L, L), dtype=np.int16)
    S = [np.full((B, min(G, L - l0), L - l0, min(l0 + G, L, K)), -np.inf)
         for l0 in range(0, L, G)]
    ends = [_by_right_end(A) for A in S]
    # Band views: N_band[b, i, k] = N[b, i, i + k] (a row stride of L + 1),
    # so column ell - 1 is the diagonal of the intervals of length ell and
    # its left columns hold the first parts of their splits.
    N_band = N.reshape(B, -1)[:, :L * L - 1].reshape(B, L - 1, L + 1)
    kind_band = kind.reshape(B, -1)[:, :L * L - 1].reshape(B, L - 1, L + 1)
    # win[b, i, k] = V[b, i + k]: every run's entries, one view per fill,
    # only read; the zero padding keeps the view in pad's buffer, and no
    # run reads the padding
    step = pad.strides[1]
    win = np.ndarray((B, L, L), pad.dtype, pad, 0, (pad.strides[0], step, step))

    N.reshape(B, -1)[:, ::L + 1] = V
    S[0][:, 0, :, 0] = V
    sup = V                   # sup[b, i]: largest entry of the interval at i
    part_count = np.arange(1, L + 1, dtype=np.int16)    # of the scan's winning column
    part_count[0] = 0                   # the sup-norm leaf

    for ell in range(2, L + 1):
        cnt = L - ell + 1     # starts 0..L-ell, right ends ell-1..L-1
        g, u = divmod(ell - 1, G)
        rows = S[g][:, u, :cnt, :ell]       # rows[b, i, n - 1], n <= min(ell, K)
        _fill_band(N_band, S, ends, ell, rows.shape[2])
        sup = np.maximum(sup[:, :cnt], V[:, ell - 1:])
        rows[:, :, 0] = sup
        arg = _scan_length(rows, np.add.reduce(win[:, :cnt, :ell], axis=2),
                           wv[:rows.shape[2]])
        kind_band[:, :cnt, ell - 1] = part_count[arg]
        N_band[:, :cnt, ell - 1] = rows[:, :, 0]
        del arg               # freed before the next add-max, where fills peak

    return N, kind, S


def _fill_band(N_band: np.ndarray, S: list[np.ndarray], ends: list[np.ndarray],
               ell: int, n1: int) -> None:
    """Columns 1..n1-1 (part counts 2..n1) of the sums of every interval
    of length ell, in S, each the max over its first part's length
    k = 1..ell-1 of N of that part plus the rest's best sum over one part
    fewer.  The rests of one length group are one slice of its view
    ``ends`` (``_by_right_end``), longest first: the group of length
    ell - 1 covers the band and writes it, a lower one the columns up to
    its longest length, which its length axis says (a narrow fill keeps
    fewer columns).  A step takes every first part of one group of rests
    and as many starts as keep the sum under DP_BATCH per row: the group's
    first parts times its columns never exceed it (``_group`` and the
    memory cap bound both, see TestStepBudget)."""
    G, cnt, amax = S[0].shape[1], N_band.shape[2] - ell, np.maximum.reduce
    g, u = divmod(ell - 1, G)
    r, m = ell - 1, n1 - 1      # the longest rest left; the columns it covers
    while r >= 1:
        h = (r - 1) // G
        end, lo = ends[h], h * G + 1
        top = h * G + end.shape[-2]         # the group's longest length
        m, ka, kb = min(m, top), ell - r, ell + 1 - lo      # k of rests r..lo
        step = max(1, DP_BATCH // ((kb - ka) * m))
        # end[:, s0 + i, t0 + k]: the rest after a first part k at start i
        s0, t0 = ell - 1 - h * G, top - ell
        for i0 in range(0, cnt, step):
            i1 = min(i0 + step, cnt)
            out = S[g][:, u, i0:i1, 1:1 + m]
            part = N_band[:, i0:i1, ka - 1:kb - 1, None]
            rest = end[:, s0 + i0:s0 + i1, t0 + ka:t0 + kb, :m]
            if r == ell - 1:
                amax(part + rest, axis=2, out=out)
            else:
                np.maximum(out, amax(part + rest, axis=2), out=out)
        r = lo - 1


def _scan_length(rows: np.ndarray, l1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Norm and winning part count of every interval of one length.

    ``rows[b, i]`` holds sup, then the best sums over n = 2.. parts, of
    row b's interval at start i, and may be a strided view (``_fill``
    passes S itself); ``l1[b, i]`` is the np.sum of its entries and ``w``
    the divisors (1, then w(n)).  The result is bitwise that of a scan
    over ascending n that stops at the first n whose bound l1 / w(n)
    falls below the incumbent (the running max of sup and the candidates
    before n) and replaces the incumbent only on strict improvement:
    candidates from the stop on are dropped, and the first maximum of sup
    and the rest wins.  Writes the norms into ``rows[..., 0]`` and returns
    the winning columns (0 for sup, n - 1 for n parts).
    """
    vals = rows / w
    dropped = np.logical_or.accumulate(
        l1[..., None] / w[1:] < np.maximum.accumulate(vals, axis=-1)[..., :-1], axis=-1)
    np.copyto(vals[..., 1:], -np.inf, where=dropped)
    rows[..., 0] = vals.max(axis=-1)
    return vals.argmax(axis=-1)


def _witness(t: IntervalTables | _FlatTables, i: int, j: int) -> WitnessTree:
    """The partition that attains N[i, j], read from either route's tables:
    a leaf at the first largest entry when the sup norm wins, else the
    recorded part count n, each cut at the first split m whose N[i, m]
    plus the rest's best (n - 1)-part sum is largest."""
    if i == j:
        return WitnessTree.leaf(t.indices[i])
    n = t._parts(i, j)
    if n == 0:
        return WitnessTree.leaf(t.indices[i + int(np.argmax(t.vabs[i:j + 1]))])
    children = []
    for rem in range(n, 1, -1):
        m = i + int(np.argmax(t._splits(i, j, rem)))
        children.append(_witness(t, i, m))
        i = m + 1
    children.append(_witness(t, i, j))
    nn = max(n, t.system.min_parts)
    return WitnessTree.split(nn, t.system.weight(nn), children)


# ---------------------------------------------------------------------------
# Constant-coefficient fast path (length-composition DP)
# ---------------------------------------------------------------------------

class _ConstTables:
    """Norm data for unit constant vectors, shared across lengths.

    By spreading invariance the norm of a constant-coefficient vector
    depends only on its length, so one growing table per system serves
    every request:

        nu[len]    norm of the unit constant vector of that length
        kind[len]  its winning part count, 0 when the sup norm wins
        T[n, len]  best sum of piece norms over compositions of len
                   into exactly n parts, for n = 1..rows[len] and for
                   the singleton composition n = len.

    New lengths get part counts up to ``row_cap``, which doubles while
    the missing ones of some length could still win (``_band``); readers
    raise one length's rows through ``ensure``.  The other rows past
    ``rows[len]`` hold -inf; the stop test and ``_FlatTables.layer_bounds``
    bound them by the least concave majorant of nu (``_bound``), an upper
    hull whose vertices ``hx``/``hy`` take one point as each length gets nu.
    """

    def __init__(self, system: NormSystem):
        self.system = system
        self.filled = 1
        self.row_cap = 2
        self.rows = [1, 1]
        self.nu = np.zeros(2)
        self.nu[1] = 1.0
        self.kind = np.zeros(2, dtype=np.int64)
        # stored length-major, [len, n], so one length's part counts and
        # the rows read to fill them are contiguous; T is the [n, len] view
        Tl = np.full((2, 2), -np.inf)
        Tl[1, 1] = 1.0
        self.T = Tl.T
        self.hx, self.hy, self.hull = np.ones(2), np.ones(2), 1

    def _grow(self, L: int) -> None:
        cap = self.T.shape[0] - 1
        if L <= cap:
            return
        # doubling amortizes growth, but never past the largest length
        # whose table (8 (L + 1)^2 bytes) ``_check_resources`` admits
        new_cap = max(L, min(2 * cap, math.isqrt(DP_MEMORY_LIMIT_BYTES // 8) - 1))
        Tl = np.full((new_cap + 1, new_cap + 1), -np.inf)
        Tl[: cap + 1, : cap + 1] = self.T.T
        self.T = Tl.T
        self.nu, self.kind, self.hx, self.hy = (
            np.concatenate((a, np.zeros(new_cap - cap, dtype=a.dtype)))
            for a in (self.nu, self.kind, self.hx, self.hy))
        self.rows += [1] * (new_cap - cap)

    def ensure(self, L: int, k: int = 1) -> None:
        """Fill every length up to L, and at length L at least min(k, L)
        part counts.  A raise at least doubles the rows at L, so readers
        that step k up one at a time pay O(log L) fills."""
        self._grow(L)
        while self.filled < L:
            self._band(L, self.row_cap)
            if self.filled < L:
                self.row_cap *= 2
        if self.rows[L] < min(k, L):
            self._band(L, min(L, max(k, 2 * self.rows[L])))

    def _bound(self, ln: int, n: np.ndarray) -> np.ndarray:
        """Upper bounds on T[n, ln] for part counts 2 <= n < ln, ln <= filled + 1.

        The pieces of an n-part composition of ln are lengths 1..filled
        of mean ln / n, and their norms lie under the least concave
        majorant g of nu[1..filled], so by Jensen's inequality they sum to
        at most n g(ln / n).  The DP's float sums exceed the exact ones by
        at most (n - 1) 2^-53 relative; the margin 1e-9 covers that, the
        rounding of the hull's vertex tests and that of ``np.interp``."""
        h = self.hull
        return n * np.interp(ln / n, self.hx[:h], self.hy[:h]) * (1 + 1e-9)

    def _push(self, ln: int) -> None:
        """Add (ln, nu[ln]) to the upper hull of nu, ln = filled: pop the
        vertices on or under the chord from their left neighbour to it."""
        hx, hy, h, y = self.hx, self.hy, self.hull, self.nu[ln]
        while h > 1 and ((hy[h - 1] - hy[h - 2]) * (ln - hx[h - 2])
                         <= (y - hy[h - 2]) * (hx[h - 1] - hx[h - 2])):
            h -= 1
        hx[h], hy[h], self.hull = ln, y, h + 1

    def _band(self, L: int, cap: int) -> None:
        """The one fill kernel.  Lengths 2..L, in order, get the part
        counts n = rows[len] + 1..min(len, cap); a length past ``filled``
        then gets nu and kind, unless a part count it lacks could still
        win or tie, where the fill stops for the caller to raise the cap.

        T[n, len] is the max over first pieces p of nu[p] + T[n - 1, len - p].
        A remainder of len - p coordinates holds at most len - p parts, so
        piece p reads part counts up to len - p + 1 only.  Two facts stand
        in for the part counts a length lacks.  The singleton composition
        has the one term nu[1] + T[len - 1, len - 1], which sums to len
        exactly, so T[len, len] is stored without its row.  Every other
        missing count n is bounded by ``_bound``; once that bound over
        w(n) falls below the incumbent max(1, q) for each of them, none can
        win or tie: nu and kind are those of a fill of every part count.
        The test divides bounds by weights, so it runs only while every
        weight read exceeds 1, as the grouping bound's does
        (``NormSystem._fill_width``); ``NormSystem`` does not check that,
        and a system that breaks it fills every part count.  Under F the
        singleton wins at every length and two part counts decide it; G
        needs four.
        """
        nu, kind, Tl, rows = self.nu, self.kind, self.T.T, self.rows
        wv = self.system.weight_table(L)
        sound = wv[2:L + 1].min() > 1.0
        for ln in range(2, L + 1):
            n0, n1 = rows[ln] + 1, min(ln, cap)
            if n0 <= n1:
                sums = Tl[ln, n0:n1 + 1]    # -inf until filled
                p0, stop = 1, ln - n0 + 2
                while p0 < stop:
                    m = min(n1, ln - p0 + 1) - n0 + 1     # part counts piece p0 can reach
                    p1 = min(stop, p0 + max(1, CONST_BUDGET // m))
                    np.maximum(sums[:m], np.max(nu[p0:p1, None]
                                                + Tl[ln - p0:ln - p1:-1, n0 - 1:n0 - 1 + m],
                                                axis=0), out=sums[:m])
                    p0 = p1
                rows[ln] = n1
            if ln <= self.filled:
                continue
            r = rows[ln]
            if r < ln:
                if not sound:
                    return
                Tl[ln, ln] = nu[1] + Tl[ln - 1, ln - 1]
            q = Tl[ln, 2:ln + 1] / wv[2:ln + 1]     # -inf at the missing counts
            a = int(np.argmax(q))
            best = max(1.0, float(q[a]))
            if r < ln - 1 and not (self._bound(ln, np.arange(r + 1, ln))
                                   / wv[r + 1:ln]).max() < best:
                return
            kind[ln] = a + 2 if q[a] > 1.0 else 0
            nu[ln] = Tl[ln, 1] = best
            self.filled = ln
            self._push(ln)


_CONST_TABLES: dict[NormSystem, _ConstTables] = {}


class _FlatTables:
    """The unit flat vector on ``indices`` read from its system's shared
    composition tables, through the reader surface of ``IntervalTables``;
    positions i..j read the tables at length j - i + 1."""

    def __init__(self, system: NormSystem, indices: Sequence[int]):
        self.tab = _CONST_TABLES.get(system) or _CONST_TABLES.setdefault(
            system, _ConstTables(system))
        self.system = system
        self.indices = indices
        self.tab.ensure(len(indices))

    def value(self) -> float:
        return float(self.tab.nu[len(self.indices)])

    def layer_sums(self, k: Optional[int] = None) -> np.ndarray:
        """Entry k - 1 is the best sum over at most k parts, for the
        first k (all when None) part counts; fills the rows it reads."""
        L = len(self.indices)
        k = L if k is None else min(k, L)
        self.tab.ensure(L, k)
        return np.maximum.accumulate(self.tab.T[1:k + 1, L])

    def layer_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Every layer's sum as far as the filled rows (the singleton's
        included) give it, and an upper bound on it, where each part count
        the length lacks reads its bound (``_ConstTables._bound``).  An
        entry is exact where the two agree; fills nothing."""
        L, tab = len(self.indices), self.tab
        col = tab.T[1:L + 1, L]
        upper = col.copy()
        r = tab.rows[L]
        upper[r:L - 1] = tab._bound(L, np.arange(r + 1, L))
        return np.maximum.accumulate(col), np.maximum.accumulate(upper)

    def witness(self) -> WitnessTree:
        return _witness(self, 0, len(self.indices) - 1)

    @property
    def vabs(self) -> np.ndarray:     # read only by a sup-norm leaf
        return np.ones(len(self.indices))

    def _parts(self, i: int, j: int) -> int:
        return int(self.tab.kind[j - i + 1])

    def _splits(self, i: int, j: int, n: int) -> np.ndarray:
        ln, T = j - i + 1, self.tab.T
        return self.tab.nu[1:ln - n + 2] + T[n - 1, ln - 1:n - 2:-1]


def constant_vector_norm(system: NormSystem, length: int, coefficient: float, *,
                         guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """Norm of coefficient * (e_1 + ... + e_length) via the composition DP."""
    if length < 1:
        raise DomainError("length must be >= 1")
    _check_resources(length, guard, flat=True)
    return abs(coefficient) * _FlatTables(system, range(length)).value()


def constant_best_sum(system: NormSystem, length: int, coefficient: float, k: int, *,
                      guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """Best partition sum (at most k parts) for a constant vector."""
    if length < 1 or k < 1:
        raise DomainError("length and k must be >= 1")
    _check_resources(length, guard, flat=True)
    sums = _FlatTables(system, range(length)).layer_sums(k)
    return abs(coefficient) * float(sums[-1])


def _routes_flat(vabs: tuple[float, ...]) -> bool:
    """Whether absolute coefficients ``vabs`` take the composition route:
    at least CONSTANT_ROUTE_MIN of them, all bitwise equal."""
    return len(vabs) >= CONSTANT_ROUTE_MIN and vabs.count(vabs[0]) == len(vabs)


def _plan(x: FinVector, system: NormSystem, guard: int
          ) -> tuple[tuple[float, ...], float, Callable[[], IntervalTables | _FlatTables]]:
    """The one route decision for a nonzero x: its absolute coefficients,
    a scale c and a function that builds the route's tables, whose
    values and sums times c are those of x.

    At least CONSTANT_ROUTE_MIN bitwise-equal coefficients read the
    shared composition tables at unit scale; every other vector gets its
    own interval DP at c = 1, which scales exactly.  The domain and
    resource checks run here, so they refuse before the caller reads the
    memo."""
    vabs = tuple(abs(v) for v in x.values)
    _check_l1(vabs)
    flat = _routes_flat(vabs)
    _check_resources(len(vabs), guard, flat)
    if flat:
        return vabs, vabs[0], lambda: _FlatTables(system, x.indices)
    return vabs, 1.0, lambda: build_tables(x, system, guard=guard)


# ---------------------------------------------------------------------------
# Public norm operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormResult:
    value: float
    witness: Optional[WitnessTree]
    character: Optional[float]      # int-valued float, math.inf, or None for 0
    character_tie: bool
    system: str

    def to_jsonable(self) -> dict:
        out: dict = {"value": self.value, "system": self.system}
        if self.character is not None:
            out["character"] = ("inf" if math.isinf(self.character)
                                else int(self.character))
            out["character_tie"] = self.character_tie
        if self.witness is not None:
            out["witness"] = self.witness.to_jsonable()
        return out


def _close(a, b, tol: float):
    """|a - b| within tol relative to max(1, |a|, |b|); elementwise on arrays."""
    return abs(a - b) <= tol * np.maximum(np.maximum(1.0, abs(a)), abs(b))


def _weights(system: NormSystem, lo: int, hi: int) -> np.ndarray:
    """w(ell) for the layers ell = lo..hi, a slice of the system's weight
    array.  That array clamps part counts below min_parts, so layers below
    min_parts (no norm reader starts there) read ``weight`` itself."""
    l0 = system.min_parts
    below = [system.weight(ell) for ell in range(lo, min(l0, hi + 1))]
    w = system.weight_table(hi)[max(lo, l0):hi + 1]
    return np.concatenate((below, w)) if below else w


def _character_scan(value: float, linf: float, c: float, sums: np.ndarray,
                    system: NormSystem, lo: int, tol: float) -> tuple[float, bool]:
    """The first layer ell = lo..len(sums) of c times the vector whose
    ``layer_sums`` are ``sums`` that is close to ``value``, and whether
    ``linf`` is too; (inf, False) when no layer is."""
    hits = np.flatnonzero(_close(value, c * sums[lo - 1:] / _weights(system, lo, len(sums)),
                                 tol))
    if hits.size == 0:
        return math.inf, False
    return float(lo + hits[0]), bool(_close(value, linf, tol))


def norm(x: FinVector, system: NormSystem = F_SYSTEM, *,
         guard: int = DEFAULT_SUPPORT_GUARD,
         tol: float = DEFAULT_TOLERANCE) -> NormResult:
    """Full norm evaluation: value, witness tree, and character.

    The character is the smallest layer ell with norm == layer norm at
    ell (within tolerance); infinity when only the sup norm attains it.
    When both a finite layer and the sup norm attain the value, the
    finite layer is reported and the tie flagged.

    The witness is evaluated on x before returning; a value it misses by
    more than ``WITNESS_CHECK_RTOL`` relative raises ``EngineCheckError``.

    The memo is neither read nor written here: an entry holds a value
    only, not the witness and sums this result needs.
    """
    L = x.support_size()
    if L == 0:
        return NormResult(0.0, None, None, False, system.name)
    vabs, c, build = _plan(x, system, guard)
    tables = build()
    value = c * tables.value()
    witness = tables.witness()
    check = witness.evaluate(x)
    if not abs(check - value) <= WITNESS_CHECK_RTOL * value:
        raise EngineCheckError(
            f"witness evaluates to {check!r} but the norm is {value!r}")
    # A layer whose sum is only bounded is open unless the bound is below
    # the value and misses it (a smaller sum then misses too).  The layers
    # before the first open one are exact or miss, so they scan as bounded;
    # with no hit there, the open layer's rows are raised and it goes again.
    lo, linf = max(2, system.min_parts), max(vabs)
    w = _weights(system, lo, L)
    while True:
        sums, upper = tables.layer_bounds()
        u = c * upper[lo - 1:] / w
        opened = np.flatnonzero((sums[lo - 1:] != upper[lo - 1:])
                                & ((u >= value) | _close(value, u, tol)))
        k = lo - 1 + int(opened[0]) if opened.size else L
        char, tie = _character_scan(value, linf, c, upper[:k], system, lo, tol)
        if not (math.isinf(char) and opened.size):
            return NormResult(value, witness, char, tie, system.name)
        tables.layer_sums(k + 1)


def norm_value(x: FinVector, system: NormSystem = F_SYSTEM, *,
               guard: int = DEFAULT_SUPPORT_GUARD,
               memo: Optional[MemoTable] = GLOBAL_MEMO) -> float:
    """Norm value only, memoized: ``norm_values`` of the one vector.  The
    resource check runs before the memo is read, so a guard refuses
    whatever the memo holds."""
    return norm_values([x], system, guard=guard, memo=memo)[0]


def norm_values(xs: Sequence[FinVector], system: NormSystem = F_SYSTEM, *,
                guard: int = DEFAULT_SUPPORT_GUARD,
                memo: Optional[MemoTable] = GLOBAL_MEMO) -> list[float]:
    """The norm values of ``xs``, memoized, with one interval DP fill per
    support size; each value is bit for bit that of its vector alone.
    This is the one path that reads and writes the memo (``norm_value``
    is its single-vector case).

    Every vector is planned first, so a guard refuses (with the error of
    the first refused vector) before any memo read.  Each distinct key is
    then read from the memo once; the misses on the flat route read the
    composition tables, the others are filled in batches (``_n_tables``).
    The misses are written to the memo in first-read order, the order a
    loop of single-vector calls would write them."""
    plans = [_plan(x, system, guard) if x.support_size() else None for x in xs]
    found: dict[tuple[float, ...], float] = {}
    misses: dict[tuple[float, ...], None] = {}     # the keys, in first-read order
    rows: list[tuple[float, ...]] = []      # the interval-route misses
    for plan in plans:
        if plan is None or plan[0] in found or plan[0] in misses:
            continue
        vabs, c, build = plan
        hit = None if memo is None else memo.get(system, vabs)
        if hit is not None:
            found[vabs] = hit
            continue
        misses[vabs] = None
        if _routes_flat(vabs):
            found[vabs] = c * build().value()
        else:
            rows.append(vabs)
    for k, N in _n_tables(rows, system, guard):
        found[rows[k]] = float(N[0, -1])
    if memo is not None:
        for vabs in misses:
            memo.put(system, vabs, found[vabs])
    return [0.0 if plan is None else found[plan[0]] for plan in plans]


def best_sum(x: FinVector, k: int, system: NormSystem = F_SYSTEM, *,
             guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """Max over partitions into at most k nonempty-projection interval
    parts of the sum of part norms.  Nondecreasing in k; at k = 1 this is
    the norm of the whole vector."""
    if k < 1:
        raise DomainError("part budget k must be >= 1")
    L = x.support_size()
    if L == 0:
        return 0.0
    _, c, build = _plan(x, system, guard)
    return c * float(build().layer_sums(k)[-1])


def layer_norm(x: FinVector, ell: int, system: NormSystem = F_SYSTEM, *,
               guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """The ell-partition layer of the norm: best_sum over at most ell
    parts divided by w(ell).  Surplus parts beyond the support project to
    zero, so "at most" and "exactly ell" coincide."""
    if ell < max(2, system.min_parts):
        raise DomainError(f"layer index must be >= {max(2, system.min_parts)}")
    L = x.support_size()
    if L == 0:
        return 0.0
    return best_sum(x, min(ell, L), system, guard=guard) / system.weight(ell)


def tail_layer_norm(x: FinVector, r: float, system: NormSystem = F_SYSTEM, *,
                    guard: int = DEFAULT_SUPPORT_GUARD) -> float:
    """Supremum of the layers at indices >= r, the sup norm included.

    Finite layers beyond the support size only shrink (the partition sum
    saturates while the weight grows), so the scan stops at the support
    size or at ceil(r), whichever is larger."""
    lo = max(2, system.min_parts)
    if not math.isfinite(r):
        raise DomainError(f"layer threshold r must be finite, got {r}")
    if r < lo:
        raise DomainError(f"layer threshold r must be >= {lo}")
    L = x.support_size()
    if L == 0:
        return 0.0
    _, c, build = _plan(x, system, guard)
    return float(_tail_layer(x.linf(), c, build().layer_sums(), r, system))


def _tail_layer(linf, c: float, sums: np.ndarray, r: float,
                system: NormSystem) -> np.ndarray:
    """Supremum of ``linf`` and the layers ell >= r of c times the vector
    whose ``layer_sums`` run along the last axis of ``sums``, one per row
    (``linf`` may hold one value per row).  Layers ell = ceil(r)..support
    size are scanned; when ceil(r) exceeds the support, layer ceil(r)
    alone is, since later layers only shrink."""
    first, L = math.ceil(r), sums.shape[-1]
    if first > L:
        # a scalar weight: r, and so ceil(r), may be far beyond any array
        return np.maximum(linf, c * sums[..., -1] / system.weight(first))
    return np.maximum(linf, (c * sums[..., first - 1:] / _weights(system, first, L))
                      .max(axis=-1))


@dataclass(frozen=True)
class CharacterResult:
    value: float          # int-valued float or math.inf
    tie: bool


def character(x: FinVector, system: NormSystem = F_SYSTEM, *,
              guard: int = DEFAULT_SUPPORT_GUARD,
              tol: float = DEFAULT_TOLERANCE) -> CharacterResult:
    """Smallest layer attaining the norm; infinity when only the sup norm
    does.  Near-ties between a finite layer and the sup norm report the
    finite layer with the tie flag set."""
    if x.is_zero():
        raise DomainError("character of the zero vector is undefined")
    result = norm(x, system, guard=guard, tol=tol)
    return CharacterResult(result.character, result.character_tie)


def norming_functional(x: FinVector, system: NormSystem = F_SYSTEM, *,
                       guard: int = DEFAULT_SUPPORT_GUARD) -> Functional:
    """Functional from the witness tree with leaf signs copied from x.

    Applying it to x recovers the norm; applying it to any y stays below
    the norm of y (membership in the dual unit ball)."""
    if x.is_zero():
        raise DomainError("no norming functional for the zero vector")
    result = norm(x, system, guard=guard)
    return Functional.from_witness(result.witness, x)


# ---------------------------------------------------------------------------
# Independent oracle: all successive-set families on small supports
# ---------------------------------------------------------------------------

def brute_norm(x: FinVector, system: NormSystem = F_SYSTEM) -> float:
    """Fixed-point value by enumerating ALL partitions into successive
    finite sets, not only intervals.

    Successive sets may skip support points, so a family is a subset T of
    the support plus a chunking of T into consecutive runs; the oracle
    maximises over every such pair.  Super-exponential: refuses supports
    larger than ``BRUTE_SUPPORT_CAP``."""
    t = x.support_size()
    if t > BRUTE_SUPPORT_CAP:
        raise SupportGuardError(
            f"brute oracle capped at support {BRUTE_SUPPORT_CAP}, got {t}")
    if t == 0:
        return 0.0
    vals = [abs(v) for v in x.values]
    l0 = system.min_parts
    W = system.weight
    full = (1 << t) - 1

    linf_of = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & (-mask)
        linf_of[mask] = max(linf_of[mask ^ low], vals[low.bit_length() - 1])

    B = [0.0] * (full + 1)
    M = [-math.inf] * (full + 1)
    by_count: list[list[int]] = [[] for _ in range(t + 1)]
    for mask in range(1, full + 1):
        by_count[bin(mask).count("1")].append(mask)

    for count in range(1, t + 1):
        for mask in by_count[count]:
            ps = [i for i in range(t) if mask >> i & 1]
            k = len(ps)
            best_p = -math.inf
            if k >= 2:
                run = [[0.0] * k for _ in range(k)]
                for a in range(k):
                    m2 = 0
                    for b in range(a, k):
                        m2 |= 1 << ps[b]
                        if not (a == 0 and b == k - 1):
                            run[a][b] = B[m2]
                D = [[-math.inf] * (k + 1) for _ in range(k + 1)]
                for e in range(1, k):
                    D[1][e] = run[0][e - 1]
                for jparts in range(2, k + 1):
                    for e in range(jparts, k + 1):
                        D[jparts][e] = max(D[jparts - 1][m] + run[m][e - 1]
                                           for m in range(jparts - 1, e))
                for jparts in range(2, k + 1):
                    cand = D[jparts][k] / W(max(jparts, l0))
                    if cand > best_p:
                        best_p = cand
            m_best = best_p
            rem = mask
            while rem:
                low = rem & (-rem)
                rem ^= low
                sub = mask ^ low
                if sub and M[sub] > m_best:
                    m_best = M[sub]
            M[mask] = m_best
            B[mask] = max(linf_of[mask], m_best)

    return B[full]
