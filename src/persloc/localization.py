"""Invariants of a module after inverting a subset of the variables.

Inverting the variables indexed by `sigma` collapses those grading directions:
every graded piece of the localized module equals the slice of M with the
sigma-coordinates pushed to the stabilization bound (finite presentations
stabilize there, so the colimit is attained).  That turns each localization
into a finite computation on pinned slices of M.

Axis barcodes: inverting all variables except axis i leaves a one-parameter
module; its interval multiset is recovered from the pinned rank function by
inclusion-exclusion.  `intervals_by_reduction` recomputes the same multiset by
sequential column reduction of the slice maps and serves as the independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import degrees as dg
from .errors import DegreeOrderError, PreconditionError
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

    def __str__(self) -> str:
        end = "inf" if self.end is None else str(self.end)
        return f"[{self.start},{end})"


Bars = tuple[tuple[Interval, int], ...]


def _canonical_bars(bars: Iterable[tuple[Interval, int]]) -> Bars:
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
        return cls(axis, _canonical_bars(bars))

    def finite(self) -> Bars:
        return tuple((iv, m) for iv, m in self.bars if iv.end is not None)

    def infinite(self) -> Bars:
        return tuple((iv, m) for iv, m in self.bars if iv.end is None)


def _check_sigma(m: int, sigma) -> frozenset[int]:
    sigma = frozenset(int(i) for i in sigma)
    if any(i < 1 or i > m for i in sigma):
        raise PreconditionError(f"sigma {sorted(sigma)} not inside 1..{m}")
    return sigma


def localized_rank(module: GradedPresentation, sigma, a, b) -> int:
    """Rank of the degree a -> b map after inverting the sigma variables.

    The limit over pushing the sigma-coordinates up is attained at the
    stabilization bound, so both degrees are evaluated with those coordinates
    pinned there.
    """
    m = module.m
    sigma = _check_sigma(m, sigma)
    a = dg.as_degree(a, m)
    b = dg.as_degree(b, m)
    free = [i for i in range(1, m + 1) if i not in sigma]
    if any(a[i - 1] < 0 for i in free):
        raise PreconditionError(f"degree {a} negative outside sigma")
    if any(a[i - 1] > b[i - 1] for i in free):
        raise DegreeOrderError(f"{a} not <= {b} outside sigma")
    bound = module.stabilization_bound()
    ap = dg.pin(a, sigma, bound)
    bp = dg.pin(b, sigma, bound)
    return module.rank_invariant(ap, dg.join(ap, bp))


def localized_dim(module: GradedPresentation, sigma, d) -> int:
    """Dimension of the localized module at d (sigma-coordinates are free)."""
    m = module.m
    sigma = _check_sigma(m, sigma)
    d = dg.as_degree(d, m)
    if any(d[i - 1] < 0 for i in range(1, m + 1) if i not in sigma):
        raise PreconditionError(f"degree {d} negative outside sigma")
    bound = module.stabilization_bound()
    pinned = tuple(
        max(d[i], bound[i]) if (i + 1) in sigma else d[i] for i in range(m)
    )
    return module.dim_at(pinned)


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
    """

    def r(a: int, b: int) -> int:
        if a < 0:
            return 0
        return rank(a, b)

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
        inf_mult = r(a, max(a, bound)) - r(a - 1, max(a, bound))
        if inf_mult < 0:
            raise PreconditionError(f"rank function drops at infinity at {a}")
        if inf_mult:
            bars.append((Interval(a, None), inf_mult))
    return bars


def localized_barcode(module: GradedPresentation, axis: int) -> Barcode:
    """Barcode of the one-parameter module left after inverting the other axes."""
    rank = axis_rank_function(module, axis)
    bound = module.stabilization_bound()[axis - 1]
    return Barcode.make(axis, bars_from_rank_fn(rank, bound))


def pinned_slice_sequence(module: GradedPresentation, axis: int) -> tuple[list[int], list[Matrix]]:
    """Slice dimensions and transition maps along `axis`, others pinned stable.

    Returns spaces V_0..V_bound and the maps V_c -> V_{c+1}; past `bound`
    every further map is an isomorphism.
    """
    if not 1 <= axis <= module.m:
        raise PreconditionError(f"axis {axis} not inside 1..{module.m}")
    bound_vec = module.stabilization_bound()
    bound = bound_vec[axis - 1]
    at = lambda c: dg.with_axis(bound_vec, axis, c)
    dims = [module.dim_at(at(c)) for c in range(bound + 1)]
    maps = [module.transition(at(c), at(c + 1)) for c in range(bound)]
    return dims, maps


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
    """Oracle route: reduce the pinned slice sequence directly."""
    dims, maps = pinned_slice_sequence(module, axis)
    bars = intervals_by_reduction(module.field, dims, maps, stabilized=True)
    return Barcode.make(axis, bars)
