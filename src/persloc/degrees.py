"""Componentwise helpers for multidegrees (tuples of ints, one per variable)."""

from __future__ import annotations

import math
import operator
from itertools import product
from typing import Collection, Iterable, Iterator

from .errors import AmbientMismatchError, PreconditionError

Degree = tuple[int, ...]

# most degrees one walk over a box may visit
MAX_BOX_DEGREES = 100_000


def as_degree(values: Iterable[int], m: int | None = None) -> Degree:
    d = tuple(map(int, values))
    if m is not None and len(d) != m:
        raise AmbientMismatchError(f"degree {d} has {len(d)} components, expected {m}")
    return d


def as_nonnegative(values: Iterable[int], m: int, what: str = "degree") -> Degree:
    """`as_degree(values, m)`, refused unless it lies in N^m."""
    d = as_degree(values, m)
    if not is_nonnegative(d):
        raise PreconditionError(f"{what} {d} not in N^{m}")
    return d


def leq(a: Degree, b: Degree) -> bool:
    return all(map(operator.le, a, b))


def join(a: Degree, b: Degree) -> Degree:
    return tuple(map(max, a, b))


def add(a: Degree, b: Degree) -> Degree:
    return tuple(map(operator.add, a, b))


def is_nonnegative(a: Degree) -> bool:
    return min(a, default=0) >= 0


def zero(m: int) -> Degree:
    return (0,) * m


def box(limit: Degree) -> Iterator[Degree]:
    """All degrees 0 <= d <= limit, in lexicographic order."""
    return product(*(range(b + 1) for b in limit))


def require_box_budget(limit: Degree) -> None:
    """Refuse a box(limit) walk over more than MAX_BOX_DEGREES degrees."""
    size = math.prod(x + 1 for x in limit)
    if size > MAX_BOX_DEGREES:
        raise PreconditionError(f"box {list(limit)} holds {size} degrees, more than {MAX_BOX_DEGREES}")


def with_axis(d: Degree, axis: int, value: int) -> Degree:
    """d with its 1-based coordinate `axis` replaced by `value`."""
    return d[: axis - 1] + (value,) + d[axis:]


def drop(d: Degree, coords: Collection[int]) -> Degree:
    """d without its 1-based coordinates in `coords`."""
    return tuple(x for i, x in enumerate(d, 1) if i not in coords)
