"""Componentwise helpers for multidegrees (tuples of ints, one per variable)."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

Degree = tuple[int, ...]


def as_degree(values: Iterable[int], m: int | None = None) -> Degree:
    d = tuple(int(x) for x in values)
    if m is not None and len(d) != m:
        raise ValueError(f"degree {d} has {len(d)} components, expected {m}")
    return d


def leq(a: Degree, b: Degree) -> bool:
    return all(x <= y for x, y in zip(a, b))


def join(a: Degree, b: Degree) -> Degree:
    return tuple(max(x, y) for x, y in zip(a, b))


def add(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b))


def is_nonnegative(a: Degree) -> bool:
    return all(x >= 0 for x in a)


def zero(m: int) -> Degree:
    return (0,) * m


def axis_unit(m: int, axis: int) -> Degree:
    """Unit vector for a 1-based axis index."""
    return tuple(1 if i == axis - 1 else 0 for i in range(m))


def box(limit: Degree) -> Iterator[Degree]:
    """All degrees 0 <= d <= limit, in lexicographic order."""
    return product(*(range(b + 1) for b in limit))


def with_axis(d: Degree, axis: int, value: int) -> Degree:
    """d with its 1-based coordinate `axis` replaced by `value`."""
    return d[: axis - 1] + (value,) + d[axis:]


def pin(d: Degree, coords: Iterable[int], values: Degree) -> Degree:
    """Replace the 1-based coordinates in `coords` by the matching `values`."""
    out = list(d)
    for i in coords:
        out[i - 1] = values[i - 1]
    return tuple(out)
