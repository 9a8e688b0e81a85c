"""Built-in example modules and maps used by the docs, tests, and verifier.

Names are resolved case-insensitively.  Parametric constructors take a colon
and comma-separated integers, e.g. ``quadrant:1,1`` or ``vstrip:0,2``.
"""

from __future__ import annotations

from .errors import PreconditionError, UnknownNameError
from .fields import DEFAULT_FIELD, Field, Matrix
from .presentation import GradedPresentation, PresentationMap, direct_sum, free_module


def strip_presentation(axis: int, start: int, end: int, fld: Field = DEFAULT_FIELD) -> GradedPresentation:
    """m = 2 module generated at start*e_axis and killed at end*e_axis.

    Nonzero exactly on the band start <= d_axis < end; free in the other
    direction.
    """
    if axis not in (1, 2):
        raise PreconditionError("axis must be 1 or 2")
    if not (0 <= start < end):
        raise PreconditionError(f"need 0 <= start < end, got [{start}, {end})")
    gen = (start, 0) if axis == 1 else (0, start)
    rel = (end, 0) if axis == 1 else (0, end)
    return GradedPresentation.build(2, fld, [gen], [(rel, [1])])


def _samerank_m(fld: Field) -> GradedPresentation:
    # ideal generated in degrees (1,0) and (0,1), with its Koszul relation,
    # plus a free generator at (1,1): same rank function as _samerank_n but a
    # different quadrant decomposition.
    return GradedPresentation.build(
        2,
        fld,
        [(1, 0), (0, 1), (1, 1)],
        [((1, 1), [1, -1, 0])],
    )


def _samerank_n(fld: Field) -> GradedPresentation:
    return GradedPresentation.build(2, fld, [(1, 0), (0, 1)], [])


def _m3_indecomposable(fld: Field) -> GradedPresentation:
    # three generators tied by one relation in degree (1,1,1); rank two,
    # and indecomposable after inverting any two of the variables.
    return GradedPresentation.build(
        3,
        fld,
        [(0, 1, 1), (1, 1, 0), (1, 0, 1)],
        [((1, 1, 1), [1, -1, 1])],
    )


def _coordinate_cross(fld: Field) -> GradedPresentation:
    # one generator killed by the product of the variables: supported on the
    # union of the two coordinate strips.
    return GradedPresentation.build(2, fld, [(0, 0)], [((1, 1), [1])])


def _notsplit_map(fld: Field) -> PresentationMap:
    # sum of the two axis quadrants included into the free module: becomes
    # surjective after localizing, splits over each single inverted variable,
    # but admits no compatible pair of sections.
    source = _samerank_n(fld)
    target = free_module(2, (0, 0), fld)
    return PresentationMap(source, target, Matrix.from_rows(fld, [[1, 1]]))


def _split_projection(fld: Field) -> PresentationMap:
    # control case: projection of free (0,0) + free (1,1) onto the first
    # summand, which does split.
    source = direct_sum(free_module(2, (0, 0), fld), free_module(2, (1, 1), fld))
    target = free_module(2, (0, 0), fld)
    return PresentationMap(source, target, Matrix.from_rows(fld, [[1, 0]]))


_FIXED = {
    "samerank_m": _samerank_m,
    "samerank_n": _samerank_n,
    "m3_indecomposable": _m3_indecomposable,
    "coordinate_cross": _coordinate_cross,
    "notsplit_map": _notsplit_map,
    "split_projection": _split_projection,
}


def names() -> list[str]:
    fixed = sorted(_FIXED)
    return fixed + ["quadrant:A1,A2[,A3...]", "vstrip:A,B", "hstrip:A,B"]


def named_example(name: str, fld: Field = DEFAULT_FIELD):
    """Look up a built-in module or map; raises UnknownNameError otherwise."""
    key = name.strip().lower()
    if key in _FIXED:
        return _FIXED[key](fld)
    if ":" in key:
        head, _, tail = key.partition(":")
        try:
            params = [int(x) for x in tail.split(",")] if tail else []
        except ValueError as exc:
            raise UnknownNameError(f"bad parameters in example name {name!r}") from exc
        if head == "quadrant" and len(params) >= 1:
            return free_module(len(params), params, fld)
        if head == "vstrip" and len(params) == 2:
            return strip_presentation(1, params[0], params[1], fld)
        if head == "hstrip" and len(params) == 2:
            return strip_presentation(2, params[0], params[1], fld)
    raise UnknownNameError(
        f"unknown example {name!r}; available: {', '.join(names())}"
    )
