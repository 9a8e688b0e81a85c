"""The value types are immutable records, compared, hashed and printed by their
fields.

Each of the fifteen records is built twice from the same data and once from
other data.  Equality is type-strict, the hash is the hash of the field
tuple (so set and dict orders follow the field values), instances refuse
assignment and deletion, the repr lists every field, and no record is
ordered: bars sort by `Interval.sort_key`.  `GradedPresentation._slices` is
a cache and stays out of equality, hash and repr.  A constructor call with a
field too few or too many, an unknown keyword or a field given twice raises
`TypeError`.
"""

import ast
import copy
import operator
import pickle
import re
from pathlib import Path

import pytest

from persloc import fields
from persloc.complexes import SimpleDescriptor, SimplicialComplex
from persloc.examples import named_example
from persloc.fields import Field, Matrix, Subspace
from persloc.localization import Barcode, Interval
from persloc.presentation import GradedPresentation, PresentationMap, free_module
from persloc.quiver import IndecResult, QuiverRep, random_rep
from persloc.twoparam import Decomposition, SectionResult, SectionWitness

F5 = Field(5)
_WITNESS = (((0, 0),), ((1, 0),), ((0, 1),), ((1,),), ((2,),))

# class -> (field names in order, builder of a fresh instance from key 0 or 1)
RECORDS = {
    Field: (("char",), lambda k: Field((5, 7)[k])),
    Matrix: (
        ("field", "nrows", "ncols", "entries"),
        lambda k: Matrix.from_rows(F5, [[1, 2], [3, 4 * (1 - k)]]),
    ),
    Subspace: (
        ("field", "ambient", "rows", "pivots"),
        lambda k: Subspace.span(F5, 2, [(1 - k, 2)]),
    ),
    GradedPresentation: (
        ("m", "field", "gen_degrees", "rel_degrees", "rel_coeffs"),
        lambda k: free_module(2, (k, 0)),
    ),
    PresentationMap: (
        ("source", "target", "coeffs"),
        lambda k: named_example(("notsplit_map", "split_projection")[k]),
    ),
    Interval: (("start", "end"), lambda k: Interval(1, (3, None)[k])),
    Barcode: (("axis", "bars"), lambda k: Barcode.make(k, [(Interval(0, 2), 1)])),
    SimplicialComplex: (("m", "faces"), lambda k: SimplicialComplex.make(2, [[], [1], [2]][: 2 + k])),
    SimpleDescriptor: (("sigma", "shift"), lambda k: SimpleDescriptor((1 + k,), (0, 1))),
    QuiverRep: (
        ("field", "n", "sink_dim", "leg_dims", "arrows"),
        lambda k: random_rep(3 + k, n=2),
    ),
    IndecResult: (
        ("verdict", "endo_dim", "witness"),
        lambda k: IndecResult(("yes", "no")[k], 1 + k, (None, (random_rep(0, n=1), random_rep(1, n=1)))[k]),
    ),
    Decomposition: (
        ("vertical", "horizontal", "quadrants"),
        lambda k: Decomposition(((Interval(0, 2), 1),), ((Interval(1), 2),)[:k], (((0, 0), 1),)),
    ),
    SectionWitness: (
        ("degrees", "axis1_slices", "axis2_slices", "axis1_vectors", "axis2_vectors"),
        lambda k: SectionWitness(*_WITNESS[:4], ((2 + k,),)),
    ),
    SectionResult: (
        ("exists", "axis1_solvable", "axis2_solvable", "witness"),
        lambda k: SectionResult(k == 0, True, k == 0, (SectionWitness(*_WITNESS), None)[k]),
    ),
}


def _slice_record(k):
    return named_example("samerank_m")._slice(((1, 1), (1, 0))[k])


_Slice = type(_slice_record(0))
RECORDS[_Slice] = (("gens", "positions", "coords", "relations"), _slice_record)


def _values(cls, x) -> tuple:
    return tuple(getattr(x, name) for name in RECORDS[cls][0])


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


def test_every_record_is_listed():
    assert len(RECORDS) == 15


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_is_by_fields_and_type_strict(cls):
    build = RECORDS[cls][1]
    a, b, c = build(0), build(0), build(1)
    assert type(a) is type(b) is type(c) is cls
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a.__eq__(_values(cls, a)) is NotImplemented
    assert a != _values(cls, a)
    sub = type("Sub", (cls,), {})
    twin = object.__new__(sub)
    for name, value in zip(RECORDS[cls][0], _values(cls, a)):
        object.__setattr__(twin, name, value)
    assert a != twin and twin != a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    build = RECORDS[cls][1]
    for k in (0, 1):
        x = build(k)
        assert _hash_or_error(x) == _hash_or_error(_values(cls, x))
    if cls is not _Slice:  # a _Slice holds a dict, so it has no hash
        assert hash(build(0)) == hash(build(0))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    x = RECORDS[cls][1](0)
    for name in RECORDS[cls][0]:
        before = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.unlisted = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_lists_every_field_in_order(cls):
    names, build = RECORDS[cls]
    x = build(1)
    body = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
    assert repr(x) == f"{cls.__qualname__}({body})"


def test_repr_text():
    assert repr(Field(7)) == "Field(char=7)"
    assert repr(Interval(2)) == "Interval(start=2, end=None)"
    assert repr(SimpleDescriptor((1,), (0, 2))) == "SimpleDescriptor(sigma=(1,), shift=(0, 2))"
    assert repr(free_module(1, (3,))) == (
        "GradedPresentation(m=1, field=Field(char=5), gen_degrees=((3,),), rel_degrees=(), "
        "rel_coeffs=Matrix(field=Field(char=5), nrows=1, ncols=0, entries=((),)))"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_is_positional_construction(cls):
    names, build = RECORDS[cls]
    x = build(1)
    values = _values(cls, x)
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x


# class -> how many of its last fields have defaults
_DEFAULTED = {Field: 1, Interval: 1}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_wrong_constructor_calls_raise_type_error(cls):
    names, build = RECORDS[cls]
    values = _values(cls, build(1))
    required = len(names) - _DEFAULTED.get(cls, 0)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError, match="'unknown'"):
        cls(*values, unknown=None)
    with pytest.raises(TypeError, match=f"'{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    if required:  # Field has a default for its one field
        with pytest.raises(TypeError, match=re.escape(names[required - 1])):
            cls(*values[: required - 1])


# the records with no checks and no defaults take `Record.__init__` as it is;
# `PresentationMap.build`, `QuiverRep.build` and `SimplicialComplex.make` check
# what enters from outside
_CHECK_FREE = [
    Matrix, Subspace, _Slice, PresentationMap, Barcode, SimplicialComplex, SimpleDescriptor, QuiverRep, IndecResult,
    Decomposition, SectionWitness, SectionResult,
]


@pytest.mark.parametrize("cls", _CHECK_FREE, ids=lambda c: c.__name__)
def test_record_constructor_errors_name_the_fields(cls):
    names, build = RECORDS[cls]
    values = _values(cls, build(1))
    signature = f"{cls.__name__}({', '.join(names)})"
    wrong_calls = [
        ((*values, None), {}, f"takes {len(names)} fields, got {len(names) + 1}"),
        (values[:-1], {}, f"takes {len(names)} fields, got {len(names) - 1}"),
        (values, {names[0]: values[0], "other": None}, f"got unknown or doubled fields {[names[0], 'other']}"),
    ]
    for args, named, message in wrong_calls:
        with pytest.raises(TypeError, match="^" + re.escape(f"{signature} {message}") + "$"):
            cls(*args, **named)


def test_only_record_sets_fields():
    # Record.__init__ sets every field through its slot; the two other calls
    # give each GradedPresentation a fresh `_slices` cache and, on its first
    # slice request, its critical-value `_grid`
    package = Path(fields.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "fields.py":
            record = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Record")
            exempt = {id(n) for n in ast.walk(record)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__" and id(node) not in exempt:
                calls.append((path.name, ast.unparse(node)))
    assert calls == [
        ("presentation.py", "object.__setattr__(self, '_slices', {})"),
        ("presentation.py", "object.__setattr__(self, '_grid', ((1 << len(degrees)) - 1, tuple(axes)))"),
    ]
    for cls in _CHECK_FREE:
        assert "__init__" not in vars(cls), cls.__name__
    # defaults (Field, Interval) and the slice cache are the only reasons left
    assert {cls for cls in RECORDS if "__init__" in vars(cls)} == {Field, Interval, GradedPresentation}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_subclass_instance_is_not_equal_to_its_parent_instance(cls):
    x = RECORDS[cls][1](1)
    sub = type("Sub", (cls,), {})
    twin = sub(*_values(cls, x))
    assert type(twin) is sub and _values(cls, twin) == _values(cls, x)
    assert twin != x and x != twin
    assert twin == sub(*_values(cls, x))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    x = RECORDS[cls][1](1)
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_defaults():
    assert Field() == Field(5)
    assert Interval(3).end is None


def test_slice_cache_is_outside_equality_hash_and_repr():
    warm, cold = named_example("samerank_m"), named_example("samerank_m")
    warm.dim_at((1, 1))
    assert warm._slices and not cold._slices
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) and "_slices" not in repr(warm)
    # every module gets a fresh cache
    assert free_module(1, (0,))._slices is not free_module(1, (0,))._slices


_BOUNDS = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_intervals_sort_as_their_tuples():
    # by `sort_key`, as `canonical_bars` lists bars: bounded ones as their
    # (start, end) tuples, and an unbounded one after the bounded ones of its start
    ivs = [Interval(1), *(Interval(*b) for b in reversed(_BOUNDS))]
    want = [*_BOUNDS[:4], (1, None), _BOUNDS[4]]
    assert [(iv.start, iv.end) for iv in sorted(ivs, key=Interval.sort_key)] == want


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_other_records_are_not_ordered(cls):
    a, b = RECORDS[cls][1](0), RECORDS[cls][1](1)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, b)
