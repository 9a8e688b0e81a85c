"""Two-parameter invariants: strips, quadrants, gluing, sections."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc.degrees import box, leq
from persloc.errors import DecompositionError, NotLocallyEpicError, PreconditionError
from persloc.fields import DEFAULT_FIELD, Field, Matrix
from persloc.localization import Interval, localized_barcode
from persloc.presentation import (
    GradedPresentation,
    PresentationMap,
    direct_sum,
    free_module,
    random_presentation,
    zero_module,
)
from persloc import twoparam
from persloc.twoparam import (
    Decomposition,
    bifiltration,
    decompose,
    delocalize_dim,
    equivalent_after_localization,
    intersection_rank,
    intersection_table,
    quadrant_corners,
    reconstruct,
    section_exists,
    torsion_strips,
)
from persloc.examples import named_example, quadrant_presentation, strip_presentation


F5 = DEFAULT_FIELD


def corpus(count):
    return [random_presentation(seed, m=2, max_gens=5, max_rels=8, max_degree=6) for seed in range(count)]


def test_samerank_pair_decompositions_differ():
    m = named_example("samerank_m")
    n = named_example("samerank_n")
    dm = decompose(m)
    dn = decompose(n)
    assert dm.vertical == () and dm.horizontal == ()
    assert dn.vertical == () and dn.horizontal == ()
    assert dm.quadrants == (((0, 0), 1), ((1, 1), 1))
    assert dn.quadrants == (((0, 1), 1), ((1, 0), 1))
    assert not equivalent_after_localization(m, n)


def test_coordinate_cross_strips():
    cross = named_example("coordinate_cross")
    deco = decompose(cross)
    assert deco.vertical == ((Interval(0, 1), 1),)
    assert deco.horizontal == ((Interval(0, 1), 1),)
    assert deco.quadrants == ()


def test_strip_modules_decompose_to_single_strips():
    v = strip_presentation(1, 1, 3)
    deco = decompose(v)
    assert deco.vertical == ((Interval(1, 3), 1),)
    assert deco.horizontal == () and deco.quadrants == ()
    h = strip_presentation(2, 0, 2)
    deco = decompose(h)
    assert deco.horizontal == ((Interval(0, 2), 1),)


def test_quadrant_module_decomposes_to_corner():
    q = quadrant_presentation((2, 1))
    deco = decompose(q)
    assert deco.quadrants == (((2, 1), 1),)
    assert deco.vertical == () and deco.horizontal == ()


def test_decomposition_rejects_negative_multiplicity():
    with pytest.raises(PreconditionError):
        Decomposition.make([(Interval(0, 1), -1)], [], [])
    with pytest.raises(PreconditionError):
        Decomposition.make([], [], [((0, 0), -2)])
    with pytest.raises(PreconditionError):
        # an unbounded strip is not a strip
        Decomposition.make([(Interval(0, None), 1)], [], [])


def test_quadrant_count_conservation():
    # total quadrant multiplicity equals the stable-corner dimension
    for mod in corpus(60):
        deco = decompose(mod)
        stable = mod.dim_at(mod.stabilization_bound())
        assert sum(mult for _, mult in deco.quadrants) == stable


def test_roundtrip_idempotence():
    for mod in corpus(60):
        deco = decompose(mod)
        rebuilt = reconstruct(deco, F5)
        again = decompose(rebuilt)
        assert again == deco
        assert equivalent_after_localization(mod, rebuilt)


def test_strips_match_finite_bars():
    for mod in corpus(40):
        deco = decompose(mod)
        assert deco.vertical == localized_barcode(mod, 1).finite()
        assert deco.horizontal == localized_barcode(mod, 2).finite()


def test_finite_summands_invisible_in_quadrants():
    # adding strip torsion changes no quadrant corner
    for seed in range(20):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=5)
        noisy = direct_sum(mod, strip_presentation(1, 0, 2), strip_presentation(2, 1, 3))
        assert decompose(mod).quadrants == decompose(noisy).quadrants


def test_intersection_table_nonnegative_and_monotone():
    for mod in corpus(30):
        table = intersection_table(mod, 4, 4)
        for d in range(4):
            for e in range(4):
                assert table[d][e] >= 0
                assert table[d + 1][e] >= table[d][e]
                assert table[d][e + 1] >= table[d][e]
        # the corner entry is the whole stable slice
        assert table[4][4] <= mod.dim_at(mod.stabilization_bound())


def test_bifiltration_images_are_nested():
    for seed in range(15):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=5)
        bif = bifiltration(mod)
        for spaces in (bif.v1, bif.v2):
            for earlier, later in zip(spaces, spaces[1:]):
                assert later.contains(earlier)
            assert spaces[-1].dim == bif.ambient_dim


def test_intersection_rank_distinguishes_samerank_pair():
    m = named_example("samerank_m")
    n = named_example("samerank_n")
    a, b, c = (1, 0), (0, 1), (1, 1)
    assert intersection_rank(m, a, b, c) == 1
    assert intersection_rank(n, a, b, c) == 0


def test_intersection_rank_on_equal_degrees():
    for seed in range(15):
        mod = random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=4)
        a = (1, 1)
        c = (3, 3)
        assert intersection_rank(mod, a, a, c) == mod.rank_invariant(a, c)


@st.composite
def _f2_module_and_triple(draw):
    m = draw(st.integers(1, 3))
    mod = random_presentation(draw(st.integers(0, 10**6)), m=m, max_gens=5, max_rels=5, max_degree=2, fld=Field(2))
    c = tuple(draw(st.integers(0, 4)) for _ in range(m))
    a = tuple(draw(st.integers(0, x)) for x in c)
    b = tuple(draw(st.integers(0, x)) for x in c)
    return mod, a, b, c


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_f2_module_and_triple())
def test_intersection_rank_counts_common_vectors_over_f2(case):
    mod, a, b, c = case
    u = mod.slice_image(a, c)
    w = mod.slice_image(b, c)
    both = [v for v in product(range(2), repeat=mod.dim_at(c)) if u.contains_vector(v) and w.contains_vector(v)]
    assert 2 ** intersection_rank(mod, a, b, c) == len(both)


def test_intersection_rank_requires_order():
    mod = free_module(2, (0, 0), F5)
    from persloc.errors import DegreeOrderError

    with pytest.raises(DegreeOrderError):
        intersection_rank(mod, (2, 2), (0, 0), (1, 1))


def test_delocalize_on_cross_and_free():
    cross = named_example("coordinate_cross")
    split = direct_sum(
        GradedPresentation.build(2, F5, [(0, 0)], [((1, 0), [1])]),
        GradedPresentation.build(2, F5, [(0, 0)], [((0, 1), [1])]),
    )
    for d in box((3, 3)):
        assert delocalize_dim(cross, d) == split.dim_at(d)
    assert delocalize_dim(cross, (0, 0)) == 2
    free = free_module(2, (0, 0), F5)
    for d in box((3, 3)):
        assert delocalize_dim(free, d) == 1


def test_delocalize_additivity():
    for seed in range(10):
        a = random_presentation(seed, m=2, max_gens=3, max_rels=4, max_degree=4)
        b = random_presentation(seed + 500, m=2, max_gens=3, max_rels=4, max_degree=4)
        s = direct_sum(a, b)
        for d in ((0, 0), (1, 2), (3, 3)):
            assert delocalize_dim(s, d) == delocalize_dim(a, d) + delocalize_dim(b, d)


def test_section_notsplit_example():
    f = named_example("notsplit_map")
    res = section_exists(f)
    assert res.exists is False
    assert res.axis1_solvable is True
    assert res.axis2_solvable is True
    assert res.witness is None


def test_section_split_control_with_witness():
    f = named_example("split_projection")
    res = section_exists(f)
    assert res.exists is True
    assert res.witness is not None
    w = res.witness
    # the witness really is a pair of sections.  The control target is free
    # of rank one, so every slice is the line spanned by the generator and
    # "composing with f gives the identity" means the image vector is (1,).
    for slices, vectors in ((w.axis1_slices, w.axis1_vectors), (w.axis2_slices, w.axis2_vectors)):
        for d, vec in zip(slices, vectors):
            assert f.slice_matrix(d).apply(vec) == (F5.one,)
    # and the two assignments agree in the corner localization
    from persloc.degrees import join

    src = f.source
    corner = join(src.stabilization_bound(), f.target.stabilization_bound())
    for k in range(len(w.degrees)):
        push1 = src.transition(w.axis1_slices[k], corner).apply(w.axis1_vectors[k])
        push2 = src.transition(w.axis2_slices[k], corner).apply(w.axis2_vectors[k])
        assert push1 == push2


def test_section_witness_is_verified(monkeypatch):
    # a solver answer that is not a section must not come back as a witness
    solve = twoparam._solve

    def corrupted(fld, rows, rhs, ncols):
        sol = solve(fld, rows, rhs, ncols)
        return None if sol is None else (fld.normalize(sol[0] + 1),) + sol[1:]

    monkeypatch.setattr(twoparam, "_solve", corrupted)
    with pytest.raises(DecompositionError, match="section witness"):
        section_exists(named_example("split_projection"))


def test_section_requires_locally_epic():
    # target has a stable generator the source never reaches
    src = zero_module(2, F5)
    tgt = free_module(2, (0, 0), F5)
    f = PresentationMap(src, tgt, Matrix(F5, 1, 0, ((),)))
    with pytest.raises(NotLocallyEpicError):
        section_exists(f)


def test_equivalence_is_localization_blind():
    # modules differing by strip torsion are equivalent after localization
    mod = quadrant_presentation((1, 1))
    noisy = direct_sum(mod, strip_presentation(1, 0, 3))
    assert equivalent_after_localization(mod, noisy) is False  # strips do count
    # but two copies of the same strips on both sides do match
    other = direct_sum(strip_presentation(1, 0, 3), quadrant_presentation((1, 1)))
    assert equivalent_after_localization(noisy, other) is True
