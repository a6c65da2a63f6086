"""Finitely supported vectors, intervals, ordered partitions, and the
witness/functional trees shared by the norm engine and the block tools.

All values are immutable after construction and safe to share between
threads.  Coordinates are stored sparse and sorted by index; downstream
code indexes by position within the support list, so vectors with huge
index gaps cost nothing extra.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union


class VectorError(ValueError):
    """Malformed vector data or an invalid coordinate operation."""


# ---------------------------------------------------------------------------
# FinVector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinVector:
    """A finitely supported real sequence.

    ``coords`` is a tuple of ``(index, value)`` pairs with strictly
    increasing positive indices and no stored zeros.  Exact zeros passed
    to the constructor are dropped.
    """

    coords: tuple[tuple[int, float], ...]

    def __init__(self, coords: Iterable[tuple[int, float]] = ()):
        cleaned = []
        last = 0
        for idx, val in coords:
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise VectorError(f"index {idx!r} is not an integer")
            if idx < 1:
                raise VectorError(f"index {idx} must be >= 1")
            if idx <= last:
                raise VectorError("indices must be strictly increasing")
            val = float(val)
            if math.isnan(val) or math.isinf(val):
                raise VectorError("values must be finite")
            last = idx
            if val != 0.0:
                cleaned.append((idx, val))
        object.__setattr__(self, "coords", tuple(cleaned))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dense(values: Sequence[float], start: int = 1) -> "FinVector":
        """Dense coefficients; index ``start`` corresponds to the first entry."""
        return FinVector((start + i, v) for i, v in enumerate(values))

    @staticmethod
    def basis(index: int, value: float = 1.0) -> "FinVector":
        return FinVector(((index, value),))

    @staticmethod
    def zero() -> "FinVector":
        return FinVector(())

    @staticmethod
    def from_json(data: Union[str, Mapping]) -> "FinVector":
        """Accepts {"coords": [[i, v], ...]} or {"dense": [v1, v2, ...]}."""
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise VectorError(f"invalid vector JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise VectorError("vector JSON must be an object")
        if "coords" in data:
            pairs = data["coords"]
            try:
                return FinVector((int(i), float(v)) for i, v in pairs)
            except (TypeError, ValueError) as exc:
                raise VectorError(f"invalid coords entry: {exc}") from exc
        if "dense" in data:
            vals = data["dense"]
            if not isinstance(vals, Sequence):
                raise VectorError("dense form must be a list")
            return FinVector.from_dense([float(v) for v in vals])
        raise VectorError('vector JSON needs a "coords" or "dense" key')

    def to_jsonable(self) -> dict:
        return {"coords": [[i, v] for i, v in self.coords]}

    # -- basic queries ------------------------------------------------------

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coords)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.coords)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.coords)

    def support_size(self) -> int:
        return len(self.coords)

    def min_support(self) -> int:
        if not self.coords:
            raise VectorError("zero vector has no support")
        return self.coords[0][0]

    def max_support(self) -> int:
        if not self.coords:
            raise VectorError("zero vector has no support")
        return self.coords[-1][0]

    def is_zero(self) -> bool:
        return not self.coords

    def __getitem__(self, index: int) -> float:
        """Coefficient at ``index`` (0.0 off the support), by bisection."""
        k = bisect_left(self.coords, index, key=itemgetter(0))
        if k < len(self.coords) and self.coords[k][0] == index:
            return self.coords[k][1]
        return 0.0

    def __bool__(self) -> bool:
        return bool(self.coords)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FinVector") -> "FinVector":
        merged: dict[int, float] = dict(self.coords)
        for i, v in other.coords:
            merged[i] = merged.get(i, 0.0) + v
        return FinVector(sorted(merged.items()))

    def __sub__(self, other: "FinVector") -> "FinVector":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "FinVector":
        return FinVector((i, factor * v) for i, v in self.coords)

    # -- projections and spreadings ------------------------------------------

    def restrict(self, region: Union["Interval", Iterable[int]]) -> "FinVector":
        """Coordinate projection onto an interval or an arbitrary index set."""
        if isinstance(region, Interval):
            return FinVector((i, v) for i, v in self.coords
                             if region.lo <= i <= region.hi)
        idxset = frozenset(region)
        return FinVector((i, v) for i, v in self.coords if i in idxset)

    def spread(self, mapping: Union[Callable[[int], int], Mapping[int, int]]) -> "FinVector":
        """Relocate coordinates along a strictly increasing index map."""
        if callable(mapping):
            images = [int(mapping(i)) for i, _ in self.coords]
        else:
            try:
                images = [int(mapping[i]) for i, _ in self.coords]
            except KeyError as exc:
                raise VectorError(f"index map undefined at {exc.args[0]}") from exc
        for prev, nxt in zip(images, images[1:]):
            if nxt <= prev:
                raise VectorError("index map must be strictly increasing on the support")
        if images and images[0] < 1:
            raise VectorError("index map must land in positive integers")
        return FinVector(zip(images, self.values))

    # -- elementary norms ----------------------------------------------------

    def linf(self) -> float:
        return max((abs(v) for _, v in self.coords), default=0.0)

    def l1(self) -> float:
        """The absolute sum, inf where it overflows float64."""
        return _l1_sum(abs(v) for _, v in self.coords)


def _l1_sum(terms: Iterable[float]) -> float:
    """``math.fsum`` of nonnegative terms, or inf where the sum overflows
    float64: fsum raises on finite terms whose sum is not finite."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def elementary_norms(x: FinVector) -> tuple[float, float]:
    """(sup norm, absolute-sum norm) of ``x``."""
    return x.linf(), x.l1()


def restrict(x: FinVector, region: Union["Interval", Iterable[int]]) -> FinVector:
    return x.restrict(region)


def spread(x: FinVector, mapping: Union[Callable[[int], int], Mapping[int, int]]) -> FinVector:
    return x.spread(mapping)


# ---------------------------------------------------------------------------
# Intervals and ordered partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Integer interval [lo, hi] with 1 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise VectorError(f"bad interval [{self.lo}, {self.hi}]")

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi

    def to_jsonable(self) -> list[int]:
        return [self.lo, self.hi]


@dataclass(frozen=True)
class OrderedPartition:
    """Successive intervals E_1 < E_2 < ... (max of each below min of the next)."""

    parts: tuple[Interval, ...]

    def __init__(self, parts: Iterable[Interval]):
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if b.lo <= a.hi:
                raise VectorError("partition parts must be successive")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def restrictions(self, x: FinVector) -> list[FinVector]:
        return [x.restrict(p) for p in self.parts]


# ---------------------------------------------------------------------------
# Witness trees and dual functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessTree:
    """The nested partition achieving a norm value.

    A leaf picks one coordinate (the sup-norm branch).  A split node
    records the part count ``n`` used for the weight (which may exceed
    the number of children when the minimum part count of the norm
    forces surplus empty parts), the weight ``w(n)`` itself, and the
    children in support order.
    """

    index: int | None = None
    n: int | None = None
    weight: float | None = None
    children: tuple["WitnessTree", ...] = ()

    @staticmethod
    def leaf(index: int) -> "WitnessTree":
        return WitnessTree(index=index)

    @staticmethod
    def split(n: int, weight: float, children: Sequence["WitnessTree"]) -> "WitnessTree":
        return WitnessTree(index=None, n=n, weight=weight, children=tuple(children))

    def is_leaf(self) -> bool:
        return self.index is not None

    def evaluate(self, x: FinVector) -> float:
        """Bottom-up value of the tree at ``x``; equals the norm it witnesses."""
        if self.is_leaf():
            return abs(x[self.index])
        total = 0.0
        for child in self.children:
            total = total + child.evaluate(x)
        return total / self.weight

    def leaves(self) -> list[int]:
        if self.is_leaf():
            return [self.index]
        out: list[int] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def to_jsonable(self) -> dict:
        if self.is_leaf():
            return {"leaf": self.index}
        return {"split": {"n": self.n, "weight": self.weight,
                          "children": [c.to_jsonable() for c in self.children]}}

    @staticmethod
    def from_jsonable(data: Mapping) -> "WitnessTree":
        if "leaf" in data:
            return WitnessTree.leaf(int(data["leaf"]))
        if "split" in data:
            node = data["split"]
            kids = [WitnessTree.from_jsonable(c) for c in node["children"]]
            return WitnessTree.split(int(node["n"]), float(node["weight"]), kids)
        raise VectorError("witness JSON needs a 'leaf' or 'split' key")


@dataclass(frozen=True)
class Functional:
    """Mirror of a witness tree inside the dual unit ball.

    Leaves carry a sign, split nodes the factor ``1/w(n)``.  Applying the
    functional to any vector never exceeds that vector's norm.
    """

    index: int | None = None
    sign: int = 1
    factor: float | None = None
    children: tuple["Functional", ...] = ()

    @staticmethod
    def leaf(index: int, sign: int) -> "Functional":
        if sign not in (-1, 1):
            raise VectorError("leaf sign must be -1 or +1")
        return Functional(index=index, sign=sign)

    @staticmethod
    def split(factor: float, children: Sequence["Functional"]) -> "Functional":
        return Functional(index=None, factor=factor, children=tuple(children))

    @staticmethod
    def from_witness(tree: WitnessTree, x: FinVector) -> "Functional":
        """Signs copied from the coordinates of ``x`` at the leaves."""
        if tree.is_leaf():
            s = 1 if x[tree.index] >= 0.0 else -1
            return Functional.leaf(tree.index, s)
        kids = [Functional.from_witness(c, x) for c in tree.children]
        return Functional.split(1.0 / tree.weight, kids)

    def is_leaf(self) -> bool:
        return self.index is not None

    def apply(self, y: FinVector) -> float:
        if self.is_leaf():
            return self.sign * y[self.index]
        total = 0.0
        for child in self.children:
            total = total + child.apply(y)
        return self.factor * total

    def support(self) -> frozenset[int]:
        if self.is_leaf():
            return frozenset((self.index,))
        out: set[int] = set()
        for child in self.children:
            out |= child.support()
        return frozenset(out)

    def to_jsonable(self) -> dict:
        if self.is_leaf():
            return {"leaf": self.index, "sign": self.sign}
        return {"split": {"factor": self.factor,
                          "children": [c.to_jsonable() for c in self.children]}}

    @staticmethod
    def from_jsonable(data: Mapping) -> "Functional":
        if "leaf" in data:
            return Functional.leaf(int(data["leaf"]), int(data["sign"]))
        if "split" in data:
            node = data["split"]
            kids = [Functional.from_jsonable(c) for c in node["children"]]
            return Functional.split(float(node["factor"]), kids)
        raise VectorError("functional JSON needs a 'leaf' or 'split' key")
