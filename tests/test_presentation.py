"""Graded presentations: slices, transitions, ranks, stabilization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc.degrees import box, join, leq
from persloc.errors import DegreeOrderError, HomogeneityError
from persloc.fields import DEFAULT_FIELD, Field, Matrix, Subspace
from persloc.presentation import (
    GradedPresentation,
    PresentationMap,
    direct_sum,
    free_module,
    random_presentation,
    zero_module,
)


F5 = DEFAULT_FIELD


def corpus(count, m=2, **kw):
    return [random_presentation(seed, m=m, **kw) for seed in range(count)]


def test_build_rejects_inhomogeneous():
    # a relation in degree (0,0) cannot involve a generator born at (1,0)
    with pytest.raises(HomogeneityError):
        GradedPresentation.build(2, F5, [(1, 0)], [((0, 0), [1])])


def test_zero_and_free():
    z = zero_module(2, F5)
    assert z.is_zero()
    assert z.dim_at((3, 3)) == 0
    f = free_module(2, (1, 2), F5)
    assert f.dim_at((0, 0)) == 0
    assert f.dim_at((1, 2)) == 1
    assert f.dim_at((5, 9)) == 1
    assert f.rank_invariant((1, 2), (4, 4)) == 1


def test_truncated_line():
    # one generator killed by the square of the first variable
    mod = GradedPresentation.build(2, F5, [(0, 0)], [((2, 0), [1])])
    dims = [mod.dim_at((d, 0)) for d in range(4)]
    assert dims == [1, 1, 0, 0]
    assert mod.dim_at((1, 7)) == 1
    assert mod.rank_invariant((0, 0), (1, 1)) == 1
    assert mod.rank_invariant((0, 0), (2, 0)) == 0


def test_rank_requires_comparable_degrees():
    mod = free_module(2, (0, 0), F5)
    with pytest.raises(DegreeOrderError):
        mod.rank_invariant((1, 0), (0, 1))


def test_transition_functoriality_seeded():
    # transition(a, c) == transition(b, c) . transition(a, b) on random chains
    rng = random.Random("functorial")
    for seed in range(100):
        fld = rng.choice([Field(2), F5, Field(0)])
        mod = random_presentation(seed, m=rng.choice([1, 2, 3]), max_gens=4, max_rels=5, max_degree=4, fld=fld)
        m = mod.m
        a = tuple(rng.randint(0, 3) for _ in range(m))
        b = tuple(x + rng.randint(0, 2) for x in a)
        c = tuple(x + rng.randint(0, 2) for x in b)
        t_ab = mod.transition(a, b)
        t_bc = mod.transition(b, c)
        t_ac = mod.transition(a, c)
        assert t_bc.mul(t_ab) == t_ac


def test_transition_identity_on_equal_degrees():
    for seed in range(10):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=4, max_degree=4)
        d = (1, 2)
        t = mod.transition(d, d)
        assert t == Matrix.identity(F5, mod.dim_at(d))


def test_rank_monotonicity():
    # enlarging the interval can only drop the rank
    for seed in range(30):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=4)
        assert mod.rank_invariant((1, 1), (2, 2)) >= mod.rank_invariant((1, 1), (3, 3))
        assert mod.rank_invariant((0, 0), (2, 2)) <= mod.rank_invariant((1, 1), (2, 2))


def test_rank_equals_dim_on_point():
    for seed in range(20):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=4)
        d = (2, 1)
        assert mod.rank_invariant(d, d) == mod.dim_at(d)


def test_stabilization_bound_isomorphisms():
    # past the bound every transition in the box direction is an isomorphism
    rng = random.Random("stab")
    for seed in range(20):
        mod = random_presentation(seed, m=2, max_gens=5, max_rels=8, max_degree=6)
        bound = mod.stabilization_bound()
        stable_dim = mod.dim_at(bound)
        for _ in range(3):
            step = tuple(rng.randint(0, 3) for _ in range(2))
            target = tuple(b + s for b, s in zip(bound, step))
            assert mod.dim_at(target) == stable_dim
            assert mod.rank_invariant(bound, target) == stable_dim


def test_dim_additivity_under_direct_sum():
    for seed in range(15):
        a = random_presentation(seed, m=2, max_gens=3, max_rels=4, max_degree=4)
        b = random_presentation(seed + 1000, m=2, max_gens=3, max_rels=4, max_degree=4)
        s = direct_sum(a, b)
        for d in box((3, 3)):
            assert s.dim_at(d) == a.dim_at(d) + b.dim_at(d)
        assert s.rank_invariant((1, 1), (3, 3)) == a.rank_invariant((1, 1), (3, 3)) + b.rank_invariant((1, 1), (3, 3))


def test_shift_moves_dims():
    mod = GradedPresentation.build(2, F5, [(0, 0)], [((2, 0), [1])])
    sh = mod.shift((1, 1))
    for d in box((4, 4)):
        inner = (d[0] - 1, d[1] - 1)
        expect = mod.dim_at(inner) if min(inner) >= 0 else 0
        assert sh.dim_at(d) == expect


def test_corpus_is_homogeneous_and_deterministic():
    # the 200-module corpus used throughout the acceptance tests
    mods = corpus(200)
    again = corpus(200)
    for a, b in zip(mods, again):
        assert a == b
        for j, rd in enumerate(a.rel_degrees):
            for i, gd in enumerate(a.gen_degrees):
                if a.rel_coeffs.entries[i][j] != F5.zero:
                    assert leq(gd, rd)


def test_samerank_pair_values():
    m = GradedPresentation.build(2, F5, [(1, 0), (0, 1), (1, 1)], [((1, 1), [1, -1, 0])])
    n = GradedPresentation.build(2, F5, [(1, 0), (0, 1)], [])
    assert m.dim_at((0, 0)) == 0 and n.dim_at((0, 0)) == 0
    assert m.dim_at((1, 1)) == 2 and n.dim_at((1, 1)) == 2
    for a in box((3, 3)):
        for b in box((3, 3)):
            if leq(a, b):
                assert m.rank_invariant(a, b) == n.rank_invariant(a, b)


def test_presentation_map_validation():
    src = free_module(2, (1, 1), F5)
    tgt = free_module(2, (0, 0), F5)
    ok = PresentationMap(src, tgt, Matrix.from_rows(F5, [[1]]))
    assert ok.slice_matrix((1, 1)).rank() == 1
    # a generator of the target born later cannot receive an earlier source generator
    with pytest.raises(HomogeneityError):
        PresentationMap(tgt, src, Matrix.from_rows(F5, [[1]]))


def test_map_must_kill_relations():
    # source R/(t1) mapping onto free R: sending the generator to 1 does not
    # annihilate the relation, so the map is rejected
    src = GradedPresentation.build(2, F5, [(0, 0)], [((1, 0), [1])])
    tgt = free_module(2, (0, 0), F5)
    with pytest.raises(HomogeneityError):
        PresentationMap(src, tgt, Matrix.from_rows(F5, [[1]]))


def test_cokernel_dims():
    # free (0,0) + free (1,1) projecting to free (0,0): cokernel vanishes
    src = direct_sum(free_module(2, (0, 0), F5), free_module(2, (1, 1), F5))
    tgt = free_module(2, (0, 0), F5)
    proj = PresentationMap(src, tgt, Matrix.from_rows(F5, [[1, 0]]))
    coker = proj.cokernel()
    assert all(coker.dim_at(d) == 0 for d in box((3, 3)))


@st.composite
def _module_and_pair(draw):
    fld = draw(st.sampled_from([Field(2), F5, Field(0)]))
    m = draw(st.integers(1, 3))
    mod = random_presentation(draw(st.integers(0, 10**6)), m=m, max_gens=5, max_rels=5, max_degree=2, fld=fld)
    a = tuple(draw(st.integers(0, 4)) for _ in range(m))
    b = tuple(x + draw(st.integers(0, 3)) for x in a)
    return mod, a, b


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_module_and_pair())
def test_rank_is_span_of_generators_eligible_at_source(case):
    # the span at b of every generator present at a: no basis at the source
    mod, a, b = case
    one = mod.field.one
    images = [mod._slice_coords(b, [(i, one)]) for i, gd in enumerate(mod.gen_degrees) if leq(gd, a)]
    rank = mod.rank_invariant(a, b)
    assert rank == Subspace.span(mod.field, mod.dim_at(b), images).dim
    assert rank <= min(mod.dim_at(a), mod.dim_at(b))
