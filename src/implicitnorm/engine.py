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
views.  S keeps the planes of S_GROUP consecutive right ends j in one
array indexed [j, length, part count], sized for the group's last right
end, so a batch of starts reads one plain slice.  The tables take about
8 L^3 / 3 bytes, so the 1 GiB cap admits supports up to 735.

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
fills are almost all fixed cost, which a batch pays once.
``_plan`` is the one route decision of every reader: bitwise-constant
vectors take a composition DP over lengths instead, which reaches the
support guard (4096).  It fills each length only with the part counts
that can still decide the norm, and readers add more on demand
(``_ConstTables``).  Both routes' tables answer ``value()``,
``layer_sums(k)`` and ``witness()``; ``norm`` scans character layers up
to the winning part count before it scans them all.  Both routes record
each interval's winning part count as they fill, so one walk,
``_witness``, reads the witness from either route's tables.  ``_plan`` runs the one guard and
memory check, ``_check_resources``, before any memo read.  Its route
rule, ``_routes_flat``, is also what ``greedy_split`` applies before each
interval-table read: one table per ``stabilize_subsequence`` member,
filled once, or its own windows when the member routes flat or is refused.
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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .vectors import FinVector, Functional, WitnessTree

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
# Right ends whose S planes share one 3-D array, so that one batched fill
# step reads a plain slice over up to S_GROUP consecutive starts.  Larger
# groups batch more starts but pad more planes (each is sized for the
# group's last right end): at S_GROUP = 4 a fill at L = 128 peaks no
# higher than with one array per right end.
S_GROUP = 4
# Elements per batch row of the add temporary of one fill step; numpy's
# iterator buffers come on top, up to this size for each strided operand.
DP_BATCH = 1 << 13
BRUTE_SUPPORT_CAP = 8
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
    _weights: dict = field(default_factory=dict, repr=False, compare=False)
    _table: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False,
                               compare=False)

    def __post_init__(self):
        if self.min_parts < 2:
            raise DomainError("minimum part count must be at least 2")
        w0 = self.weight_fn(self.min_parts)
        if not w0 > 1.0:
            raise DomainError(f"weight({self.min_parts}) = {w0} must exceed 1")
        if not self.weight_fn(self.min_parts + 1) > w0:
            raise DomainError("weight function must be strictly increasing")

    def weight(self, n: int) -> float:
        w = self._weights.get(n)
        if w is None:
            w = float(self.weight_fn(n))
            self._weights[n] = w
        return w

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
    never change results.
    """

    def __init__(self):
        self._data: dict = {}

    def get(self, system: NormSystem, canon: tuple[float, ...]) -> Optional[float]:
        return self._data.get((system, canon))

    def put(self, system: NormSystem, canon: tuple[float, ...], value: float) -> None:
        self._data[(system, canon)] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


GLOBAL_MEMO = MemoTable()


# ---------------------------------------------------------------------------
# Interval-partition dynamic program
# ---------------------------------------------------------------------------

@dataclass
class IntervalTables:
    """DP tables for one vector under one system; positions index the support."""

    system: NormSystem
    indices: tuple[int, ...]
    vabs: np.ndarray
    N: np.ndarray          # N[i, j]
    S: list[np.ndarray]    # [j // S_GROUP][j % S_GROUP, length - 1, n - 1], see sums
    kind: np.ndarray       # 0 = sup-norm leaf, else winning part count

    @property
    def size(self) -> int:
        return len(self.indices)

    def value(self) -> float:
        return float(self.N[0, self.size - 1])

    def sums(self, i: int, j: int) -> np.ndarray:
        """Best part-norm sums of positions i..j: entry n - 1 is the best
        over partitions into exactly n runs, for n = 1..j-i+1."""
        g, p = divmod(j, S_GROUP)
        return self.S[g][p, j - i, :j - i + 1]

    def length_sums(self, ell: int) -> np.ndarray:
        """The sums of every run of ell positions: row i is
        sums(i, i + ell - 1), for i = 0..size-ell."""
        g, p = divmod(ell - 1, S_GROUP)
        return np.concatenate([self.S[g][p:, ell - 1, :ell]]
                              + [plane[:, ell - 1, :ell] for plane in self.S[g + 1:]])

    def layer_sums(self, k: Optional[int] = None) -> np.ndarray:
        """Running max of the whole support's sums: entry k - 1 is the
        best sum over at most k parts, for the first k (all when None)."""
        return np.maximum.accumulate(self.sums(0, self.size - 1)[:k])

    def witness(self) -> WitnessTree:
        return _witness(self, 0, self.size - 1)

    def _parts(self, i: int, j: int) -> int:
        return int(self.kind[i, j])

    def _splits(self, i: int, j: int, n: int) -> np.ndarray:
        """N[i, m] + sums(m + 1, j)[n - 2] for m = i..j-n+1."""
        g, p = divmod(j, S_GROUP)
        return self.N[i, i:j - n + 2] + self.S[g][p, n - 2:j - i, n - 2][::-1]


def dp_table_bytes(L: int) -> int:
    """Bytes of the N (float64), kind (int16) and grouped S tables at
    support size L: full group g holds S_GROUP planes of (S_GROUP (g+1))^2
    cells, a last partial group L % S_GROUP planes of L^2."""
    q, r = divmod(L, S_GROUP)
    cells = S_GROUP ** 3 * q * (q + 1) * (2 * q + 1) // 6 + r * L * L
    return 8 * cells + 10 * L * L


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
    sizes; refused sizes yield nothing."""
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
            yield from zip(chunk, _fill(_padded([rows[k] for k in chunk], L), system)[0])


def build_tables(x: FinVector, system: NormSystem = F_SYSTEM, *,
                 guard: int = DEFAULT_SUPPORT_GUARD) -> IntervalTables:
    L = x.support_size()
    if L == 0:
        raise DomainError("zero vector has no DP tables")
    _check_resources(L, guard, flat=False)
    pad = _padded([x.values], L)
    N, kind, S = _fill(pad, system)
    return IntervalTables(system, x.indices, pad[0, :L], N[0], [plane[0] for plane in S],
                          kind[0])


def _padded(rows: Sequence[Sequence[float]], L: int) -> np.ndarray:
    """The input of ``_fill``: row b holds |rows[b]| (L values), then L zeros."""
    pad = np.zeros((len(rows), 2 * L))
    np.abs(rows, out=pad[:, :L])
    return pad


def _fill(pad: np.ndarray, system: NormSystem
          ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The interval DP of every row of V = pad[:, :L], a (B, L) stack of
    absolute coefficients (``_padded``): N[b], kind[b] and each S[g][b]
    are row b's tables, bit for bit those of a fill of row b alone.  The
    batch axis leads every table, so each step below serves all rows
    with one numpy call."""
    B, L = pad.shape[0], pad.shape[1] // 2
    V = pad[:, :L]
    # wv[n - 1] divides the n-part sums; wv[0] = 1 passes the sup norm
    wv = np.concatenate(([1.0], system.weight_table(L)[2:L + 1]))
    groups = [(j0, min(j0 + S_GROUP, L) - 1) for j0 in range(0, L, S_GROUP)]

    N = np.full((B, L, L), -np.inf)
    kind = np.zeros((B, L, L), dtype=np.int16)
    S = [np.full((B, j1 - j0 + 1, j1 + 1, j1 + 1), -np.inf) for j0, j1 in groups]
    # Band views: N_band[b, i, k] = N[b, i, i + k] (a row stride of L + 1),
    # so column ell - 1 is the diagonal of the intervals of length ell and
    # its left columns hold the first parts of their splits.
    N_band = N.reshape(B, -1)[:, :L * L - 1].reshape(B, L - 1, L + 1)
    kind_band = kind.reshape(B, -1)[:, :L * L - 1].reshape(B, L - 1, L + 1)
    # rows[b, i, n - 1] for the current length: S of the interval at start
    # i with n parts; the buffer fits the largest length, ell about L / 2
    buf = np.empty(B * ((L + 2) // 2) * ((L + 1) // 2))
    # win[b, i, k] = V[b, i + k]: every run's entries, one view per fill;
    # the zero padding keeps the view in bounds, and no run reads it
    win = sliding_window_view(pad, L, axis=1)

    N.reshape(B, -1)[:, ::L + 1] = V
    for (j0, j1), plane in zip(groups, S):
        plane[:, :, 0, 0] = V[:, j0:j1 + 1]
    sup = V                   # sup[b, i]: largest entry of the interval at i
    part_count = np.arange(1, L + 1, dtype=np.int16)    # of the scan's winning column
    part_count[0] = 0                   # the sup-norm leaf
    add_reduce, amax = np.add.reduce, np.maximum.reduce

    for ell in range(2, L + 1):
        cnt = L - ell + 1     # starts 0..L-ell, right ends ell-1..L-1
        first = N_band[:, :cnt, :ell - 1]
        rows = buf[:B * cnt * ell].reshape(B, cnt, ell)
        # n >= 2 parts: a first part of length k, then n - 1 parts on the
        # rest, read at length ell - k from the right end's plane; part
        # counts the rest cannot hold read -inf.  Steps of `step` starts
        # and `span` first-part lengths keep the sum under DP_BATCH per row.
        step = max(1, DP_BATCH // (ell - 1) ** 2)
        span = min(ell - 1, max(1, DP_BATCH // (ell - 1)))
        live = (ell - 1) // S_GROUP    # first group holding a right end
        for (j0, j1), plane in zip(groups[live:], S[live:]):
            for a in range(max(j0, ell - 1), j1 + 1, step):
                b = min(a + step, j1 + 1)
                i0, i1 = a - ell + 1, b - ell + 1
                out = rows[:, i0:i1, 1:]
                rest = plane[:, a - j0:b - j0, :, :ell - 1]
                amax(first[:, i0:i1, :span, None] + rest[:, :, ell - 2::-1][:, :, :span],
                     axis=2, out=out)
                for k in range(span, ell - 1, span):
                    np.maximum(out, amax(first[:, i0:i1, k:k + span, None]
                                         + rest[:, :, ell - 2 - k::-1][:, :, :span], axis=2),
                               out=out)

        sup = np.maximum(sup[:, :cnt], V[:, ell - 1:])
        rows[:, :, 0] = sup
        l1 = add_reduce(win[:, :cnt, :ell], axis=2)
        kind_band[:, :cnt, ell - 1] = part_count[
            _scan_length(rows.reshape(B * cnt, ell), l1.reshape(-1), wv[:ell])].reshape(B, cnt)
        N_band[:, :cnt, ell - 1] = rows[:, :, 0]
        for (j0, j1), plane in zip(groups[live:], S[live:]):
            a = max(j0, ell - 1)
            plane[:, a - j0:, ell - 1, :ell] = rows[:, a - ell + 1:j1 - ell + 2]

    return N, kind, S


def _scan_length(rows: np.ndarray, l1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Norm and winning part count of every interval of one length.

    ``rows[i]`` holds sup, then the best sums over n = 2.. parts, of the
    interval at start i; ``l1[i]`` is the np.sum of its entries and ``w``
    the divisors (1, then w(n)).  The result is bitwise that of a scan
    over ascending n that stops at the first n whose bound l1 / w(n) falls
    below the incumbent (the running max of sup and the candidates before
    n) and replaces the incumbent only on strict improvement: candidates
    from the stop on are dropped, and the first maximum of sup and the
    rest wins.  Writes the norms into ``rows[:, 0]`` and returns the
    winning columns: 0 for sup, n - 1 for n parts.
    """
    vals = rows / w
    dropped = np.logical_or.accumulate(
        l1[:, None] / w[1:] < np.maximum.accumulate(vals, axis=1)[:, :-1], axis=1)
    vals[:, 1:][dropped] = -np.inf
    arg = vals.argmax(axis=1)
    rows[:, 0] = vals[np.arange(len(arg)), arg]
    return arg


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
                   into exactly n parts, for n = 1..rows[len].

    New lengths get part counts up to ``row_cap``, which doubles while
    the missing ones of some length could still win (``_band``); readers
    raise one length's rows through ``ensure``.  Rows past ``rows[len]``
    hold -inf and are never read.
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

    def _grow(self, L: int) -> None:
        cap = self.T.shape[0] - 1
        if L <= cap:
            return
        # doubling amortizes growth, but never past the largest length
        # whose table (8 (L + 1)^2 bytes) ``_check_resources`` admits
        new_cap = max(L, min(2 * cap, math.isqrt(DP_MEMORY_LIMIT_BYTES // 8) - 1))
        Tl = np.full((new_cap + 1, new_cap + 1), -np.inf)
        Tl[: cap + 1, : cap + 1] = self.T.T
        nu = np.zeros(new_cap + 1)
        nu[: cap + 1] = self.nu
        kind = np.zeros(new_cap + 1, dtype=np.int64)
        kind[: cap + 1] = self.kind
        self.T, self.nu, self.kind = Tl.T, nu, kind
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

    def _band(self, L: int, cap: int) -> None:
        """The one fill kernel.  Lengths 2..L, in order, get the part
        counts n = rows[len] + 1..min(len, cap); a length past ``filled``
        then gets nu and kind, unless a part count it lacks could still
        win or tie, where the fill stops for the caller to raise the cap.

        T[n, len] is the max over first pieces p of nu[p] + T[n - 1, len - p].
        A remainder of len - p coordinates holds at most len - p parts, so
        piece p reads part counts up to len - p + 1 only.  In floats
        T[n, len] <= len (nu[p] <= p, the pieces sum to len, and rounding
        is monotone), so once len over the smallest weight of the missing
        part counts falls below the incumbent max(1, q), none of them can
        win or tie: nu and kind are those of a fill of every part count.
        The bound needs every weight read to exceed 1, which ``NormSystem``
        does not check, so a system that breaks it fills every part count.
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
            q = Tl[ln, 2:r + 1] / wv[2:r + 1]
            a = int(np.argmax(q))
            best = max(1.0, float(q[a]))
            if r < ln and not (sound and ln / wv[r + 1:ln + 1].min() < best):
                return
            kind[ln] = a + 2 if q[a] > 1.0 else 0
            nu[ln] = Tl[ln, 1] = best
            self.filled = ln


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
    own interval DP at c = 1, which scales exactly.  The resource check
    runs here, so it refuses before the caller reads the memo."""
    vabs = tuple(abs(v) for v in x.values)
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
    # the layer at the winning part count is a hit but for rounding, so
    # scan up to it first; a sup-norm win, or a miss there, scans them all
    lo, linf, won = max(2, system.min_parts), max(vabs), tables._parts(0, L - 1)
    sums = tables.layer_sums(max(lo, won) if won else None)
    char, tie = _character_scan(value, linf, c, sums, system, lo, tol)
    if math.isinf(char) and len(sums) < L:
        char, tie = _character_scan(value, linf, c, tables.layer_sums(), system, lo, tol)
    return NormResult(value, witness, char, tie, system.name)


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
