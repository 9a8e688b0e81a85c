"""Componentwise multidegree helpers against their generator definitions.

`leq`, `join`, `add`, `as_degree` and `is_nonnegative` run on `map`,
`operator` and `min`; each must agree with the plain generator expression
it replaces on every input, including m = 0, negative entries, degrees of
different lengths (both forms stop at the shorter) and the wrong-length
`AmbientMismatchError` of `as_degree`, a `PreconditionError` and so a
`ValueError`.  `as_nonnegative` is `as_degree` that also refuses a degree
outside N^m.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc import degrees as dg
from persloc.errors import AmbientMismatchError, PreconditionError


def _as_degree(values, m=None):
    d = tuple(int(x) for x in values)
    if m is not None and len(d) != m:
        raise AmbientMismatchError(f"degree {d} has {len(d)} components, expected {m}")
    return d


_BINARY = {
    dg.leq: lambda a, b: all(x <= y for x, y in zip(a, b)),
    dg.join: lambda a, b: tuple(max(x, y) for x, y in zip(a, b)),
    dg.add: lambda a, b: tuple(x + y for x, y in zip(a, b)),
}

_degree = st.lists(st.integers(-6, 6), max_size=4).map(tuple)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 4), st.data())
def test_helpers_equal_their_generator_definitions(m, data):
    same = st.lists(st.integers(-6, 6), min_size=m, max_size=m).map(tuple)
    a, b = data.draw(same), data.draw(st.one_of(same, _degree))
    for helper, old in _BINARY.items():
        assert helper(a, b) == old(a, b), helper.__name__
        assert type(helper(a, b)) is type(old(a, b))
    assert dg.is_nonnegative(a) == all(x >= 0 for x in a)
    for values in (a, list(b), (str(x) for x in a)):
        values = tuple(values)
        for want in (None, m, len(values)):
            try:
                expected = _as_degree(values, want)
            except AmbientMismatchError as err:
                with pytest.raises(AmbientMismatchError, match=f"^{re.escape(str(err))}$"):
                    dg.as_degree(values, want)
            else:
                assert dg.as_degree(values, want) == expected
        if len(values) == m:
            d = _as_degree(values)
            if all(x >= 0 for x in d):
                assert dg.as_nonnegative(values, m) == d
            else:
                with pytest.raises(PreconditionError, match=f"^shift {re.escape(str(d))} not in N\\^{m}$"):
                    dg.as_nonnegative(values, m, "shift")


def test_empty_degrees():
    assert dg.leq((), ()) and dg.is_nonnegative(())
    assert dg.join((), ()) == dg.add((), ()) == dg.as_degree([], 0) == ()
