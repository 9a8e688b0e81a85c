"""Invariants of a module after inverting a subset of the variables.

Every presentation degree is at most the stabilization bound, so inverting
the variables in `sigma` leaves a finitely presented module: `localize`
deletes the sigma-coordinates from every degree of M's presentation.  Its
slice at d is M's slice with the sigma-coordinates pinned at the bound.

Axis barcodes: inverting all variables except axis i leaves a one-parameter
module.  `localized_barcode` recovers its interval multiset from M's rank
function along axis i (others pinned) by inclusion-exclusion.  The one
persistence column reduction, `presentation_bars`, reads the same bars off
the presentation with no slice: `barcode_by_reduction` is that route, the
independent cross-check of the first, and `quiver.in_leq_n` and
`quiver.torsion_leg_split` use it too.  `twoparam.decompose` calls
`presentation_bars` once per axis on columns it builds once, and reads its
corners off the lows of trailing columns that the axis-2 pass reduces after
the relations.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Sequence

from . import degrees as dg
from .errors import PreconditionError
from .fields import Record, column_lows
from .presentation import GradedPresentation

_INF = float("inf")


class Interval(Record):
    """Half-open interval [start, end); end None means unbounded."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int | None = None) -> None:
        if start < 0:
            raise PreconditionError("interval starts in N")
        if end is not None and end <= start:
            raise PreconditionError(f"empty interval [{start}, {end})")
        super().__init__(start, end)

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


class Barcode(Record):
    """Multiset of intervals on one axis, sorted by (start, end)."""

    __slots__ = ("axis", "bars")

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


def presentation_bars(
    fld, gens: Sequence[int], rels: Sequence[int], column: Callable, tail: Iterable = ()
) -> tuple[list[tuple[Interval, int]], list]:
    """Bars of the one-parameter module with these generator and relation
    degrees, and the lows of the `tail` columns reduced after the relations.

    `column(j)` is relation j's column as `column_lows` takes it, asked for
    when reduced.  Relations go in (degree, index) order; one with low g is
    the bar [gens[g], rels[j]), dropped when empty, and a generator that is
    no relation's low is [gens[g], inf).
    """
    born = sorted(range(len(gens)), key=lambda g: (gens[g], g))
    killed = sorted(range(len(rels)), key=lambda j: (rels[j], j))
    lows = column_lows(fld, born, chain(map(column, killed), tail))
    bars, dead = [], set()
    for j, g in zip(killed, lows):  # zip stops at the last relation, before the tail
        if g is not None:
            dead.add(g)
            if gens[g] < rels[j]:
                bars.append((Interval(gens[g], rels[j]), 1))
    return bars + [(Interval(gens[g]), 1) for g in born if g not in dead], list(lows)


def barcode_by_reduction(module: GradedPresentation, axis: int) -> Barcode:
    """Column reduction of M's presentation read along `axis`, the others inverted."""
    if not 1 <= axis <= module.m:
        raise PreconditionError(f"axis {axis} not inside 1..{module.m}")
    gens, rels = ([d[axis - 1] for d in degrees] for degrees in (module.gen_degrees, module.rel_degrees))
    bars, _ = presentation_bars(module.field, gens, rels, lambda j: enumerate(module.rel_coeffs.col(j)))
    return Barcode.make(axis, bars)
