"""Three-legged quiver bridge: conversion, endomorphisms, splitting.

endomorphism_basis is cross-checked by brute-force enumeration of all
vertex-wise matrix tuples over F_2 on tiny representations; indecomposability
verdicts are checked on knowns from both sides (certified yes on the rank-two
example, witnessed no on direct sums).
"""

import random

import pytest

from persloc.degrees import box
from persloc.errors import PreconditionError
from persloc.fields import DEFAULT_FIELD, Field, Matrix
from persloc.localization import Interval
from persloc.presentation import GradedPresentation, direct_sum, free_module, random_presentation
from persloc.examples import named_example, strip_presentation
from persloc.quiver import (
    QuiverRep,
    endomorphism_basis,
    in_leq_n,
    is_indecomposable,
    quiver_shape,
    random_rep,
    to_quiver_rep,
    torsion_leg_split,
    try_split,
)


F5 = DEFAULT_FIELD
F2 = Field(2)


def test_quiver_shape_counts():
    for n in range(1, 11):
        shape = quiver_shape(n)
        assert shape["num_vertices"] == 3 * n + 1
        assert shape["num_arrows"] == 3 * n
        assert len(shape["vertices"]) == 3 * n + 1
        assert len(shape["arrows"]) == 3 * n
        targets = [tgt for _, tgt in shape["arrows"]]
        assert targets.count("sink") == 3
    assert quiver_shape(1)["classification"] == "D4"
    assert quiver_shape(2)["classification"] == "E6_affine"
    assert quiver_shape(3)["classification"] is None
    with pytest.raises(PreconditionError):
        quiver_shape(0)


def test_in_leq_n_on_examples():
    mod = named_example("m3_indecomposable")
    assert in_leq_n(mod, 2)
    assert in_leq_n(mod, 5)
    assert in_leq_n(free_module(3, (0, 0, 0), F5), 1)
    # a module with torsion deeper than the window is rejected
    deep = GradedPresentation.build(3, F5, [(0, 0, 0)], [((3, 0, 0), [1])])
    assert not in_leq_n(deep, 1)
    assert in_leq_n(deep, 3)


def test_in_leq_n_whole_range_matters():
    # torsion strictly between n and the bound: the single far slice looks
    # fine but an intermediate transition is not invertible
    mod = GradedPresentation.build(
        3,
        F5,
        [(0, 0, 0), (2, 0, 0)],
        [((1, 0, 0), [1, 0]), ((3, 0, 0), [0, 1])],
    )
    # dims along axis 1: 1 at 0, 0 at 1, 1 at 2, 0 from 3 on
    assert mod.dim_at((0, 3, 3)) == 1 and mod.dim_at((1, 3, 3)) == 0
    assert not in_leq_n(mod, 1)
    assert in_leq_n(mod, 3)


def test_to_quiver_rep_m3_example():
    mod = named_example("m3_indecomposable")
    rep = to_quiver_rep(mod, 2)
    assert rep.sink_dim == 2
    assert rep.leg_dims == ((1, 2), (1, 2), (1, 2))
    # every leg map is injective: no torsion along any single axis
    for leg in range(3):
        for mat in rep.arrows[leg]:
            assert mat.rank() == mat.ncols
    assert rep.total_dim() == 2 + 3 * 3


def test_to_quiver_rep_requires_window():
    deep = GradedPresentation.build(3, F5, [(0, 0, 0)], [((3, 0, 0), [1])])
    with pytest.raises(PreconditionError):
        to_quiver_rep(deep, 1)
    with pytest.raises(PreconditionError):
        to_quiver_rep(free_module(2, (0, 0), F5), 1)


def test_to_quiver_rep_free_module():
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    assert rep.sink_dim == 1
    assert rep.leg_dims == ((1,), (1,), (1,))
    for leg in range(3):
        assert rep.arrows[leg][0] == Matrix.identity(F5, 1)


def test_endomorphisms_contain_identity_and_compose():
    rng = random.Random("endo-compose")
    for seed in range(12):
        rep = random_rep(seed, n=2, max_dim=2)
        basis = endomorphism_basis(rep)
        if rep.total_dim():
            first = basis[0]
            assert first.is_identity()
        # closure under composition: the product of two basis elements solves
        # the same commutation system, so it reduces into the span
        from persloc.quiver import _endo_to_vector, _vertex_dims
        from persloc.fields import Subspace

        dims = _vertex_dims(rep)
        total = sum(a * a for a in dims)
        if total == 0:
            continue
        span = Subspace.span(
            rep.field, total, [_endo_to_vector(rep, e) for e in basis]
        )
        for a in basis[: min(3, len(basis))]:
            for b in basis[: min(3, len(basis))]:
                comp = _compose_endos(rep, a, b)
                assert span.contains_vector(_endo_to_vector(rep, comp))


def _compose_endos(rep, a, b):
    from persloc.quiver import Endo

    sink = a.sink.mul(b.sink)
    legs = tuple(
        tuple(a.legs[leg][j].mul(b.legs[leg][j]) for j in range(rep.n))
        for leg in range(3)
    )
    return Endo(sink=sink, legs=legs)


def test_endomorphism_basis_brute_force_f2():
    # enumerate every vertex-wise tuple on tiny F_2 reps and compare counts
    rng = random.Random("endo-brute")
    for seed in range(6):
        rep = random_rep(seed, n=1, max_dim=1, fld=F2)
        basis = endomorphism_basis(rep)
        count = _count_endos_brute_force(rep)
        assert count == 2 ** len(basis), (seed, count, len(basis))


def _count_endos_brute_force(rep):
    """Literal enumeration of commuting tuples over F_2; tiny dims only."""
    from itertools import product

    fld = rep.field
    dims = [rep.sink_dim] + [d for leg in rep.leg_dims for d in leg]
    sizes = [d * d for d in dims]
    total = sum(sizes)
    assert total <= 12, "brute force only for tiny reps"
    count = 0
    for bits in product(range(2), repeat=total):
        mats = []
        pos = 0
        for d in dims:
            entries = bits[pos : pos + d * d]
            pos += d * d
            rows = [list(entries[i * d : (i + 1) * d]) for i in range(d)]
            mats.append(Matrix.from_rows(fld, rows) if d else Matrix(fld, 0, 0, ()))
        sink_mat = mats[0]
        leg_mats = []
        idx = 1
        for leg in range(3):
            leg_mats.append(mats[idx : idx + rep.n])
            idx += rep.n
        ok = True
        for leg in range(3):
            for j in range(rep.n):
                a = rep.arrows[leg][j]
                x_src = leg_mats[leg][j]
                x_tgt = leg_mats[leg][j + 1] if j + 1 < rep.n else sink_mat
                if x_tgt.mul(a) != a.mul(x_src):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_endo_dimension_on_knowns():
    # one-dimensional spaces everywhere with identity arrows: End = k
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    assert len(endomorphism_basis(rep)) == 1
    # a direct sum of two copies has a 4-dimensional endomorphism algebra
    double = rep.direct_sum(rep)
    assert len(endomorphism_basis(double)) == 4
    # the rank-two example is a brick
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert len(endomorphism_basis(m3)) == 1


def test_try_split_finds_summands():
    rep = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    other = to_quiver_rep(free_module(3, (1, 1, 1), F5), 1)
    combo = rep.direct_sum(other)
    split = try_split(combo)
    assert split is not None
    a, b = split
    assert a.total_dim() + b.total_dim() == combo.total_dim()
    assert a.total_dim() > 0 and b.total_dim() > 0
    assert sorted([(x.sink_dim, x.leg_dims) for x in (a, b)]) == sorted(
        [(x.sink_dim, x.leg_dims) for x in (rep, other)]
    )


def test_try_split_none_on_brick():
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert try_split(m3) is None


def test_is_indecomposable_verdicts():
    zero = QuiverRep(
        F5,
        1,
        0,
        ((0,), (0,), (0,)),
        tuple((Matrix(F5, 0, 0, ()),) for _ in range(3)),
    )
    assert is_indecomposable(zero).verdict == "yes"
    free1 = to_quiver_rep(free_module(3, (0, 0, 0), F5), 1)
    res = is_indecomposable(free1)
    assert res.verdict == "yes" and res.endo_dim == 1
    double = free1.direct_sum(free1)
    res = is_indecomposable(double)
    assert res.verdict == "no"
    assert res.witness is not None
    w1, w2 = res.witness
    assert w1.total_dim() + w2.total_dim() == double.total_dim()
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    res = is_indecomposable(m3)
    assert res.verdict == "yes"
    assert res.endo_dim == 1


def test_is_indecomposable_rational_field():
    q = Field(0)
    rep = to_quiver_rep(free_module(3, (0, 0, 0), q), 1)
    assert is_indecomposable(rep).verdict == "yes"
    double = rep.direct_sum(rep)
    assert is_indecomposable(double).verdict == "no"


def test_indecomposability_witness_certifies_no():
    rng = random.Random("witness")
    for seed in range(10):
        rep = random_rep(seed, n=2, max_dim=2)
        res = is_indecomposable(rep)
        if res.verdict == "no":
            a, b = res.witness
            assert a.total_dim() > 0 and b.total_dim() > 0
            assert a.total_dim() + b.total_dim() == rep.total_dim()


def test_torsion_leg_split_requires_zero_sink():
    m3 = to_quiver_rep(named_example("m3_indecomposable"), 2)
    assert torsion_leg_split(m3) is None


def test_torsion_leg_split_on_strip():
    # killing one variable leaves a zero sink; the killed axis carries the
    # torsion bar while the two pinned axes see nothing at all
    strip = GradedPresentation.build(3, F5, [(0, 0, 0)], [((1, 0, 0), [1])])
    rep = to_quiver_rep(strip, 2)
    assert rep.sink_dim == 0
    assert rep.leg_dims == ((1, 0), (0, 0), (0, 0))
    split = torsion_leg_split(rep)
    assert split is not None
    assert split[0] == ((Interval(0, 1), 1),)
    assert split[1] == () and split[2] == ()
    # a module invisible past the pin converts to the zero rep
    point = GradedPresentation.build(
        3, F5, [(0, 0, 0)], [((1, 0, 0), [1]), ((0, 1, 0), [1]), ((0, 0, 1), [1])]
    )
    rep = to_quiver_rep(point, 2)
    assert rep.total_dim() == 0
    assert torsion_leg_split(rep) == ((), (), ())


def test_torsion_leg_split_reconstructs_ranks():
    # ranks of all leg composites recomputed from the bars
    for seed in range(25):
        rep = random_rep(seed, sink_zero=True)
        split = torsion_leg_split(rep)
        assert split is not None
        for leg in range(3):
            bars = split[leg]
            for a in range(rep.n):
                for b in range(a, rep.n):
                    expect = sum(
                        mult for iv, mult in bars if iv.start <= a and iv.end > b
                    )
                    got = rep.leg_composite(leg, a, b).rank()
                    assert got == expect, (seed, leg, a, b)


def test_rep_serialization_additivity():
    # direct sums add dimensions blockwise
    a = random_rep(3, n=2, max_dim=2)
    b = random_rep(4, n=2, max_dim=2)
    s = a.direct_sum(b)
    assert s.sink_dim == a.sink_dim + b.sink_dim
    for leg in range(3):
        for j in range(2):
            assert s.leg_dims[leg][j] == a.leg_dims[leg][j] + b.leg_dims[leg][j]
    assert len(endomorphism_basis(s)) >= len(endomorphism_basis(a)) + len(endomorphism_basis(b))


def test_window_reevaluation_consistency():
    # converting at n and at n+1 gives the same sink and compatible legs
    mod = named_example("m3_indecomposable")
    r2 = to_quiver_rep(mod, 2)
    r3 = to_quiver_rep(mod, 3)
    assert r2.sink_dim == r3.sink_dim
    for leg in range(3):
        # the last n dims of the longer window match a shift of the shorter
        assert r3.leg_dims[leg][-1] == r2.leg_dims[leg][-1]
