"""Deterministic sampling grids for verification suites."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence


def linspace(lo: float, hi: float, count: int) -> list[float]:
    if count < 2:
        raise ValueError("linspace needs at least 2 points")
    step = (hi - lo) / (count - 1)
    if not math.isfinite(step):
        raise ValueError(f"linspace from {lo!r} to {hi!r} spans more than a float holds")
    pts = [lo + k * step for k in range(count)]
    pts[-1] = hi  # avoid drift at the right endpoint
    return pts


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis needs at least 2 points")
        if not self.lo < self.hi:
            raise ValueError("axis needs lo < hi")

    def points(self) -> list[float]:
        return linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SamplingGrid:
    """Cartesian product of per-axis linspaces; the last axis varies fastest."""

    axes: tuple[Axis, ...]

    def axis_values(self) -> list[list[float]]:
        return [ax.points() for ax in self.axes]

    def points(self) -> Iterator[tuple[float, ...]]:
        return itertools.product(*self.axis_values())

    @property
    def size(self) -> int:
        n = 1
        for ax in self.axes:
            n *= ax.count
        return n

    def summary(self) -> str:
        return "×".join(f"[{ax.lo:g},{ax.hi:g}]#{ax.count}" for ax in self.axes)


def grid1d(lo: float, hi: float, count: int) -> SamplingGrid:
    return SamplingGrid((Axis(lo, hi, count),))


def grid2d(
    lo1: float, hi1: float, count1: int, lo2: float, hi2: float, count2: int
) -> SamplingGrid:
    return SamplingGrid((Axis(lo1, hi1, count1), Axis(lo2, hi2, count2)))


def _cell_key(coords: Sequence[float], side: float) -> tuple[int, ...] | None:
    try:
        return tuple([math.floor(c / side) for c in coords])
    except (ZeroDivisionError, OverflowError, ValueError):  # zero side, ±inf, NaN
        return None


def _near_pairs(points: Sequence[Sequence[float]], side: float) -> Iterator[tuple[int, int]]:
    """Candidate index pairs (i, j), i < j, for points within side/2 per axis.

    A fixed-radius near-neighbour cell index (Bentley, Stanat & Williams,
    Inf. Proc. Letters 6, 1977): points are hashed into cubes of edge
    `side`, and each is paired only with the later points of its own and
    the 3^d neighbouring cells. That costs O(n) for spread-out points plus
    one pair per close pair, instead of the n(n-1)/2 of a double loop.
    Two points at most side/2 apart per axis have cell indices at most 1
    apart even after the division rounds, so every such pair is yielded;
    callers pass twice their tolerance and apply their exact predicate to
    the candidates. A point whose cell cannot be computed (a NaN or
    infinite coordinate or quotient, a zero side) is paired with every
    other point.

    Each occupied cell gets one neighbourhood: its members and those of
    its occupied neighbour cells, sorted once. Only the lexicographically
    positive half of the offsets is probed, and each adjacency found is
    recorded in both cells. A point's later partners are then the part of
    its cell's neighbourhood after it.

    Pairs come in the order of the double loop `for i: for j > i`, so a
    caller that stops at its first (or first k) matches finds the same
    ones as the loop.
    """
    keys = [_cell_key(p, side) for p in points]
    cells: dict[tuple[int, ...], list[int]] = {}
    loose = []
    for i, key in enumerate(keys):
        if key is None:
            loose.append(i)
        else:
            cells.setdefault(key, []).append(i)
    n = len(points)
    zero = (0,) * (len(points[0]) if n else 0)
    half = [off for off in itertools.product((-1, 0, 1), repeat=len(zero)) if off > zero]
    hoods = {key: members[:] for key, members in cells.items()}
    for key, members in cells.items():
        for off in half:
            near = tuple([k + o for k, o in zip(key, off)])
            others = cells.get(near)
            if others is not None:
                hoods[key] += others
                hoods[near] += members
    for hood in hoods.values():
        hood.sort()
    for i, key in enumerate(keys):
        if key is None:
            later = range(i + 1, n)
        else:
            hood = hoods[key]
            later = hood[bisect_right(hood, i):]
            if loose:
                later += loose[bisect_right(loose, i):]
                later.sort()
        for j in later:
            yield i, j
