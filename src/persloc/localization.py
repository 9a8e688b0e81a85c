"""Invariants of a module after inverting a subset of the variables.

Every presentation degree is at most the stabilization bound, so inverting
the variables in `sigma` leaves a finitely presented module: `localize`
deletes the sigma-coordinates from every degree of M's presentation.  Its
slice at d is M's slice with the sigma-coordinates pinned at the bound.

Axis barcodes: inverting all variables except axis i leaves a one-parameter
module.  `localized_barcode` recovers its interval multiset from M's rank
function along axis i (others pinned) by inclusion-exclusion.  The slice
reduction of `barcode_by_reduction` is its independent cross-check, and
`twoparam.decompose` reads the same finite bars off the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import degrees as dg
from .errors import PreconditionError
from .fields import Echelon, Matrix
from .presentation import GradedPresentation

_INF = float("inf")


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open interval [start, end); end None means unbounded."""

    start: int
    end: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise PreconditionError("interval starts in N")
        if self.end is not None and self.end <= self.start:
            raise PreconditionError(f"empty interval [{self.start}, {self.end})")

    def sort_key(self) -> tuple:
        return (self.start, _INF if self.end is None else self.end)


Bars = tuple[tuple[Interval, int], ...]


def canonical_bars(bars: Iterable[tuple[Interval, int]]) -> Bars:
    """The multiset with equal intervals merged, sorted by (start, end)."""
    merged: dict[Interval, int] = {}
    for iv, mult in bars:
        if mult < 0:
            raise PreconditionError("negative multiplicity")
        if mult:
            merged[iv] = merged.get(iv, 0) + mult
    return tuple(sorted(merged.items(), key=lambda im: im[0].sort_key()))


@dataclass(frozen=True)
class Barcode:
    """Multiset of intervals on one axis, sorted by (start, end)."""

    axis: int
    bars: Bars

    @classmethod
    def make(cls, axis: int, bars: Iterable[tuple[Interval, int]]) -> "Barcode":
        return cls(axis, canonical_bars(bars))

    def finite(self) -> Bars:
        return tuple((iv, m) for iv, m in self.bars if iv.end is not None)


def localize(module: GradedPresentation, sigma) -> GradedPresentation:
    """M with the variables in `sigma` inverted: the sigma-coordinates deleted.

    The generators, relations and coefficient matrix are M's, in the same
    order.  Inverting every variable leaves m = 0, one vector space.
    """
    sigma = frozenset(int(i) for i in sigma)
    if any(i < 1 or i > module.m for i in sigma):
        raise PreconditionError(f"sigma {sorted(sigma)} not inside 1..{module.m}")
    return GradedPresentation(
        module.m - len(sigma),
        module.field,
        tuple(dg.drop(d, sigma) for d in module.gen_degrees),
        tuple(dg.drop(d, sigma) for d in module.rel_degrees),
        module.rel_coeffs,
    )


def axis_rank_function(module: GradedPresentation, axis: int) -> Callable[[int, int], int]:
    """The one-parameter rank function along `axis`, all other variables inverted."""
    if not 1 <= axis <= module.m:
        raise PreconditionError(f"axis {axis} not inside 1..{module.m}")
    bound = module.stabilization_bound()

    def rank(a: int, b: int) -> int:
        return module.rank_invariant(dg.with_axis(bound, axis, a), dg.with_axis(bound, axis, b))

    return rank


def bars_from_rank_fn(rank: Callable[[int, int], int], bound: int) -> list[tuple[Interval, int]]:
    """Interval multiset from a one-parameter rank function.

    `rank(a, b)` must be defined for 0 <= a <= b <= bound and constant once
    both arguments pass `bound`.  Inclusion-exclusion over the grid recovers
    finite bars; unbounded bars come from first differences at the bound.
    Each rank on the grid is evaluated exactly once.
    """
    table = [[rank(a, b) for b in range(a, bound + 1)] for a in range(bound + 1)]

    def r(a: int, b: int) -> int:
        return table[a][b - a] if a >= 0 else 0

    bars: list[tuple[Interval, int]] = []
    for a in range(0, bound + 1):
        for b in range(a + 1, bound + 1):
            mult = r(a, b - 1) - r(a, b) - r(a - 1, b - 1) + r(a - 1, b)
            if mult < 0:
                raise PreconditionError(
                    f"rank function is not interval-decomposable at [{a},{b})"
                )
            if mult:
                bars.append((Interval(a, b), mult))
        inf_mult = r(a, bound) - r(a - 1, bound)
        if inf_mult < 0:
            raise PreconditionError(f"rank function drops at infinity at {a}")
        if inf_mult:
            bars.append((Interval(a, None), inf_mult))
    return bars


def localized_barcode(module: GradedPresentation, axis: int) -> Barcode:
    """Barcode of the one-parameter module left after inverting the other axes.

    The Möbius route walks the (bound + 1)^2 grid of the axis, so that grid
    is held to the box budget.
    """
    rank = axis_rank_function(module, axis)
    bound = module.stabilization_bound()[axis - 1]
    dg.require_box_budget((bound, bound))
    return Barcode.make(axis, bars_from_rank_fn(rank, bound))


def intervals_by_reduction(
    fld, dims: Sequence[int], maps: Sequence[Matrix], stabilized: bool
) -> list[tuple[Interval, int]]:
    """Interval decomposition of V_0 -> ... -> V_T by sequential reduction.

    Tracks a labeled basis through the maps; at each step image vectors are
    column-reduced oldest-first, a vector that reduces to zero closes its bar,
    and the basis is completed with newborn coordinate vectors.  With
    `stabilized` the survivors at V_T are unbounded bars (every later map is
    an isomorphism); otherwise they die at T+1.  Independent of the
    rank-function route: no rank invariant is ever evaluated.
    """
    if len(maps) != max(len(dims) - 1, 0):
        raise PreconditionError("need one map per consecutive pair of spaces")
    zero_v, one = fld.zero, fld.one
    current: list[tuple[int, tuple]] = [
        (0, tuple(one if i == k else zero_v for i in range(dims[0])))
        for k in range(dims[0])
    ] if dims else []
    bars: list[tuple[Interval, int]] = []
    for c, mat in enumerate(maps):
        images = [(birth, mat.apply(vec)) for birth, vec in current]
        images.sort(key=lambda bv: bv[0])  # stable sort: oldest first
        echelon = Echelon(fld)
        kept: list[tuple[int, tuple]] = []
        for birth, vec in images:
            if echelon.insert(vec):
                kept.append((birth, tuple(echelon.rows[-1])))
            else:
                bars.append((Interval(birth, c + 1), 1))
        for r in range(dims[c + 1]):
            if echelon.insert([one if i == r else zero_v for i in range(dims[c + 1])]):
                kept.append((c + 1, tuple(echelon.rows[-1])))
        current = kept
    tail = len(dims) - 1
    for birth, _ in current:
        end = None if stabilized else tail + 1
        if end is None or end > birth:
            bars.append((Interval(birth, end), 1))
    return bars


def barcode_by_reduction(module: GradedPresentation, axis: int) -> Barcode:
    """Oracle route: reduce the slices 0..bound of M with the other axes inverted."""
    if not 1 <= axis <= module.m:
        raise PreconditionError(f"axis {axis} not inside 1..{module.m}")
    line = localize(module, set(range(1, module.m + 1)) - {axis})
    (bound,) = line.stabilization_bound()
    dims = [line.dim_at((c,)) for c in range(bound + 1)]
    maps = [line.transition((c,), (c + 1,)) for c in range(bound)]
    bars = intervals_by_reduction(module.field, dims, maps, stabilized=True)
    return Barcode.make(axis, bars)
