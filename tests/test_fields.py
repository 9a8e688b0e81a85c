"""Exact linear algebra over prime fields and the rationals.

The rank/kernel/sum-intersection identities are checked against brute-force
span enumeration over F_2, where subspaces are small enough to list element
by element.  That gives an oracle for the echelon machinery that everything
else in the package leans on.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc.degrees import leq
from persloc.fields import DEFAULT_FIELD, Echelon, Field, Matrix, Subspace, _is_prime, _rref
from persloc.presentation import GradedPresentation, PresentationMap, random_presentation
from persloc.quiver import endomorphism_basis, is_indecomposable, random_rep


F2 = Field(2)
F5 = Field(5)
Q = Field(0)


def rand_matrix(rng, fld, nrows, ncols):
    if fld.char:
        rows = [[rng.randrange(fld.char) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    if nrows == 0:
        return Matrix(fld, 0, ncols, ())
    return Matrix.from_rows(fld, rows)


def all_vectors(fld, dim):
    """Every vector of F_p^dim; only sane for tiny p and dim."""
    assert fld.char
    vecs = [()]
    for _ in range(dim):
        vecs = [v + (c,) for v in vecs for c in range(fld.char)]
    return [tuple(fld.coerce(c) for c in v) for v in vecs]


def span_size(fld, vectors, dim):
    """Brute-force size of the span inside F_p^dim."""
    seen = {tuple(fld.zero for _ in range(dim))}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for v in vectors:
            for c in range(fld.char):
                cand = tuple(
                    fld.normalize(b + fld.coerce(c) * x) for b, x in zip(base, v)
                )
                if cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
    return len(seen)


def test_field_basics():
    assert F5.coerce(-1) == 4
    assert F5.inv(F5.coerce(2)) == 3
    assert Q.coerce("2/3") == Fraction(2, 3)
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert str(F5) == "F_5"
    assert str(Q) == "Q"
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_identity_and_zero():
    ident = Matrix.identity(F5, 3)
    z = Matrix.zeros(F5, 3, 3)
    assert ident.rank() == 3
    assert z.rank() == 0
    assert ident.mul(ident) == ident
    assert ident.kernel().dim == 0
    assert z.kernel().dim == 3


def test_kernel_known_example():
    # [[1,2],[2,4]] over F_5: second row is twice the first, kernel is the
    # line spanned by (3, 1) since 1*3 + 2*1 = 5 = 0.
    mat = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    assert mat.rank() == 1
    ker = mat.kernel()
    assert ker.dim == 1
    assert ker.contains_vector((3, 1))
    assert not ker.contains_vector((1, 0))


def test_rank_equals_transpose_rank():
    rng = random.Random("rank-transpose")
    for _ in range(60):
        fld = rng.choice([F2, F5, Q])
        mat = rand_matrix(rng, fld, rng.randint(0, 5), rng.randint(1, 5))
        assert mat.rank() == mat.transpose().rank()


def test_rank_nullity():
    rng = random.Random("rank-nullity")
    for _ in range(60):
        fld = rng.choice([F2, F5, Q])
        ncols = rng.randint(1, 6)
        mat = rand_matrix(rng, fld, rng.randint(0, 6), ncols)
        assert mat.rank() + mat.kernel().dim == ncols


def test_kernel_vectors_annihilate():
    rng = random.Random("kernel-check")
    for _ in range(40):
        fld = rng.choice([F5, Q])
        mat = rand_matrix(rng, fld, rng.randint(1, 5), rng.randint(1, 5))
        ker = mat.kernel()
        for j in range(ker.dim):
            v = ker.rows[j]
            assert all(x == fld.zero for x in mat.apply(v))


def test_subspace_dims_against_enumeration():
    # dim(U), dim(U+W), dim(U cap W) versus literal element counts in F_2^d
    rng = random.Random("enumerate-f2")
    for _ in range(30):
        dim = rng.randint(1, 5)
        u_vecs = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        w_vecs = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        u = Subspace.span(F2, dim, u_vecs)
        w = Subspace.span(F2, dim, w_vecs)
        assert 2 ** u.dim == span_size(F2, u_vecs, dim)
        plus = u.plus(w)
        assert 2 ** plus.dim == span_size(F2, u_vecs + w_vecs, dim)
        both = [v for v in all_vectors(F2, dim) if u.contains_vector(v) and w.contains_vector(v)]
        assert 2 ** (u.dim + w.dim - plus.dim) == len(both)


def test_subspace_membership_brute_force():
    rng = random.Random("membership")
    for _ in range(20):
        dim = rng.randint(1, 4)
        vecs = [tuple(rng.randrange(2) for _ in range(dim)) for _ in range(rng.randint(1, 3))]
        u = Subspace.span(F2, dim, vecs)
        elements = {v for v in all_vectors(F2, dim) if u.contains_vector(v)}
        assert len(elements) == 2 ** u.dim
        for v in vecs:
            assert tuple(F2.coerce(x) for x in v) in elements


def test_echelon_basis_is_canonical():
    # the same subspace given by different spanning sets gets one basis matrix
    u1 = Subspace.span(F5, 3, [(1, 2, 3), (0, 1, 1)])
    u2 = Subspace.span(F5, 3, [(1, 3, 4), (0, 2, 2), (1, 2, 3)])
    assert u1 == u2
    assert u1.rows == u2.rows


def test_image_under_and_reduce():
    mat = Matrix.from_rows(F5, [[1, 0], [0, 0]])
    img = mat.image()
    assert img.dim == 1
    assert img.contains_vector((2, 0))
    assert img.reduce((2, 3)) == (0, 3)


def test_rational_exactness():
    # Hilbert-style matrix needs exact arithmetic; floating point would drift
    rows = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    mat = Matrix.from_rows(Q, rows)
    assert mat.rank() == 4
    assert mat.kernel().dim == 0


def test_primality_is_exact_and_fast():
    naive = [n for n in range(2000) if n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if _is_prime(n)] == naive
    start = time.perf_counter()
    assert Field(1000000000000000003).char == 1000000000000000003
    assert time.perf_counter() - start < 0.5
    # strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="must be 0 or a prime"):
        Field(3215031751)
    # a prime past the range where the test is exact
    with pytest.raises(ValueError, match="too large"):
        Field(2**89 - 1)


@st.composite
def _rows_and_probe(draw):
    fld = draw(st.sampled_from([F2, F5, Q]))
    ncols = draw(st.integers(1, 5))
    if fld.char:
        scalar = st.integers(0, fld.char - 1)
    else:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vec = st.lists(st.one_of(st.just(fld.zero), scalar), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, max_size=6))
    probe = draw(vec)
    if rows and draw(st.booleans()):  # make membership likely half the time
        probe = [fld.zero] * ncols
        for row in rows:
            probe = fld.axpy(probe, draw(scalar), row)
    return fld, ncols, rows, probe


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_rows_and_probe())
def test_echelon_agrees_with_rref_and_subspace(case):
    fld, ncols, rows, probe = case
    echelon = Echelon(fld)
    inserted = sum(echelon.insert(row) for row in rows)
    _, pivots = _rref(fld, [list(r) for r in rows], ncols)
    assert inserted == len(pivots) == len(echelon.rows)
    red = echelon.reduce(probe)
    assert all(red[p] == 0 for p in echelon.pivots)
    assert all(x == 0 for x in red) == Subspace.span(fld, ncols, rows).contains_vector(probe)


def _is_canonical(fld, x):
    if fld.char:
        return type(x) is int and 0 <= x < fld.char
    return type(x) is Fraction


@st.composite
def _module_degrees_and_rep(draw):
    fld = draw(st.sampled_from([F2, F5, Q]))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10**6))
    a = tuple(draw(st.integers(0, 3)) for _ in range(m))
    b = tuple(x + draw(st.integers(0, 2)) for x in a)
    return fld, m, seed, a, b


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_module_degrees_and_rep())
def test_entries_stay_canonical_through_every_layer(case):
    # coerce runs only where values enter; everything built from them must
    # still hold canonical entries
    fld, m, seed, a, b = case
    mod = random_presentation(seed, m=m, max_gens=5, max_rels=5, max_degree=3, fld=fld)
    rng = random.Random(seed)
    coeffs = [
        [(rng.randrange(fld.char) if fld.char else rng.randint(-3, 3)) if leq(gi, gj) else 0 for gj in mod.gen_degrees]
        for gi in mod.gen_degrees
    ]
    free = GradedPresentation.build(m, fld, mod.gen_degrees, [])
    f = PresentationMap(free, mod, Matrix.from_rows(fld, coeffs) if coeffs else Matrix(fld, 0, 0, ()))
    t = mod.transition(a, b)
    rows = [*t.entries, *mod.slice_image(a, b).rows, *t.kernel().rows, *f.slice_matrix(b).entries]
    rep = random_rep(seed, fld=fld)
    for endo in endomorphism_basis(rep):
        rows += [r for mat in (endo.sink, *(x for leg in endo.legs for x in leg)) for r in mat.entries]
    for part in is_indecomposable(rep).witness or ():
        rows += [r for leg in part.arrows for mat in leg for r in mat.entries]
    assert [x for row in rows for x in row if not _is_canonical(fld, x)] == []
