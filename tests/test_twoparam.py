"""Two-parameter invariants: strips, quadrants, gluing, sections."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persloc.degrees import box, leq
from persloc.errors import DecompositionError, NotLocallyEpicError, PreconditionError
from persloc.fields import DEFAULT_FIELD, Field, Matrix, Subspace
from persloc.localization import Interval, barcode_by_reduction, canonical_bars, localize, localized_barcode
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
    decompose,
    delocalize_dim,
    equivalent_after_localization,
    intersection_rank,
    intersection_table,
    quadrant_corners,
    reconstruct,
    section_exists,
)
from persloc.examples import named_example, strip_presentation


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
    q = free_module(2, (2, 1), F5)
    deco = decompose(q)
    assert deco.quadrants == (((2, 1), 1),)
    assert deco.vertical == () and deco.horizontal == ()


def test_decomposition_rejects_negative_multiplicity():
    # each strip family of a Decomposition is a canonical_bars multiset
    with pytest.raises(PreconditionError):
        canonical_bars([(Interval(0, 1), -1)])
    with pytest.raises(PreconditionError):
        canonical_bars([(Interval(0, 2), 1), (Interval(1, 3), -2)])


def test_decomposition_merges_equal_strips():
    merged = canonical_bars([(Interval(0, 2), 3)])
    assert canonical_bars([(Interval(0, 2), 1), (Interval(0, 2), 2)]) == merged
    assert canonical_bars([(Interval(1, 3), 1), (Interval(0, 2), 0), (Interval(0, 2), 3)]) == (
        (Interval(0, 2), 3),
        (Interval(1, 3), 1),
    )


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


def _summed_reconstruction(deco: Decomposition, fld: Field) -> GradedPresentation:
    """What `reconstruct` writes out, as the direct sum of checked parts: a
    strip per copy (vertical, then horizontal), then a free quadrant per copy,
    or the zero module."""
    families = ((1, deco.vertical), (2, deco.horizontal))
    parts = [strip_presentation(axis, iv.start, iv.end, fld)
             for axis, family in families for iv, mult in family for _ in range(mult)]
    parts += [free_module(2, corner, fld) for corner, mult in deco.quadrants for _ in range(mult)]
    return direct_sum(*parts) if parts else zero_module(2, fld)


def test_reconstruct_is_the_direct_sum_of_strips_and_quadrants():
    # the same fields, down to the type of each coefficient (the repr shows it)
    covered = set()
    for seed in range(200):
        fld = (Field(2), F5, Field(0))[seed % 3]
        deco = decompose(random_presentation(seed, m=2, fld=fld))
        rebuilt, want = reconstruct(deco, fld), _summed_reconstruction(deco, fld)
        assert rebuilt == want and repr(rebuilt) == repr(want), (fld, seed)
        if deco == Decomposition((), (), ()):
            covered.add("empty")
        families = zip("vhq", (deco.vertical, deco.horizontal, deco.quadrants))
        covered.update(name for name, family in families if any(mult > 1 for _, mult in family))
    # the empty data, and a repeated strip of each axis and a repeated quadrant
    assert covered == {"empty", "v", "h", "q"}


def test_strips_match_finite_bars():
    for mod in corpus(40):
        deco = decompose(mod)
        assert deco.vertical == localized_barcode(mod, 1).finite()
        assert deco.horizontal == localized_barcode(mod, 2).finite()


@st.composite
def _small_presentation(draw):
    # degrees in a 4 x 4 box repeat often, and coefficients in -2..2 leave
    # zero relation columns (over F_2 a column of 2s is zero too)
    fld = draw(st.sampled_from((Field(2), F5, Field(0))))
    degree = st.tuples(st.integers(0, 3), st.integers(0, 3))
    gens = draw(st.lists(degree, max_size=5))
    relations = [
        (rd, [draw(st.integers(-2, 2)) if leq(gd, rd) else 0 for gd in gens])
        for rd in draw(st.lists(degree, max_size=7))
    ]
    return GradedPresentation.build(2, fld, gens, relations)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_small_presentation())
@example(zero_module(2, Field(2)))
@example(GradedPresentation.build(2, F5, [(1, 2), (1, 2), (0, 3)], []))
@example(GradedPresentation.build(2, Field(0), [(0, 0), (0, 0)], [((1, 1), [0, 0]), ((1, 1), [1, -1]), ((1, 1), [2, -2])]))
@example(GradedPresentation.build(2, Field(2), [(0, 1), (1, 0)], [((2, 2), [2, 4]), ((1, 1), [1, 1])]))
def test_presentation_route_matches_the_slice_routes(mod):
    # decompose and barcode_by_reduction read the presentation by column
    # reduction; the slice routes (Moebius inversion, intersection table)
    # are independent of it.  Whole barcodes, unbounded bars included.
    deco = decompose(mod)
    for axis, strips in ((1, deco.vertical), (2, deco.horizontal)):
        assert strips == localized_barcode(mod, axis).finite()
        assert barcode_by_reduction(mod, axis) == localized_barcode(mod, axis)
    assert deco.quadrants == quadrant_corners(mod)


def test_decompose_checks_the_corner_count(monkeypatch):
    # a stable corner one dimension larger than the corners found is refused
    mod = named_example("samerank_m")
    dim_at = GradedPresentation.dim_at

    def one_more_at_the_bound(self, d):
        return dim_at(self, d) + (tuple(d) == self.stabilization_bound())

    decompose(mod)
    monkeypatch.setattr(GradedPresentation, "dim_at", one_more_at_the_bound)
    with pytest.raises(DecompositionError, match="stable corner has dimension 3"):
        decompose(mod)


def test_decompose_canonicalizes_each_strip_family_once(monkeypatch):
    # the finite bars of each axis are canonical already: decompose builds
    # its Decomposition from them without merging and sorting them again
    from persloc import localization

    calls = []
    canonical_bars = localization.canonical_bars

    def counting(bars):
        calls.append(1)
        return canonical_bars(bars)

    monkeypatch.setattr(localization, "canonical_bars", counting)
    mod = random_presentation(11, m=2, max_gens=5, max_rels=8, max_degree=6)
    deco = decompose(mod)
    assert len(calls) == 2
    monkeypatch.undo()
    assert deco.vertical == canonical_bars(deco.vertical)
    assert deco.horizontal == canonical_bars(deco.horizontal)
    assert list(deco.quadrants) == sorted(deco.quadrants) and all(m > 0 for _, m in deco.quadrants)


def test_decompose_makes_two_column_reductions_and_one_rank_query(monkeypatch):
    # one pass per axis, the corners read off the end of the axis-2 pass; and
    # the stable corner is still asked of the input once, through the slices
    from persloc import fields, localization

    passes, queried = [], []
    column_lows, rank_invariant = fields.column_lows, GradedPresentation.rank_invariant

    def counting_lows(*args):
        passes.append(1)
        return column_lows(*args)

    def recording(self, a, b):
        queried.append(self)
        return rank_invariant(self, a, b)

    for holder in (fields, localization, twoparam):
        if getattr(holder, "column_lows", None) is column_lows:
            monkeypatch.setattr(holder, "column_lows", counting_lows)
    monkeypatch.setattr(GradedPresentation, "rank_invariant", recording)
    mod = random_presentation(11, m=2, max_gens=5, max_rels=8, max_degree=6)
    deco = decompose(mod)
    assert len(passes) == 2
    assert sum(q is mod for q in queried) == 1
    monkeypatch.undo()
    assert deco == Decomposition(
        localized_barcode(mod, 1).finite(), localized_barcode(mod, 2).finite(), quadrant_corners(mod)
    )


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
        b1, b2 = corner = mod.stabilization_bound()
        v1 = [mod.slice_image((d, b2), corner) for d in range(b1 + 1)]
        v2 = [mod.slice_image((b1, e), corner) for e in range(b2 + 1)]
        for spaces in (v1, v2):
            for earlier, later in zip(spaces, spaces[1:]):
                assert later.contains(earlier)
            assert spaces[-1].dim == mod.dim_at(corner)


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
    solve = twoparam.solve

    def corrupted(fld, ncols, equations):
        sol = solve(fld, ncols, equations)
        return None if sol is None else (fld.normalize(sol[0] + 1),) + sol[1:]

    monkeypatch.setattr(twoparam, "solve", corrupted)
    with pytest.raises(DecompositionError, match="section witness"):
        section_exists(named_example("split_projection"))


def test_section_requires_locally_epic():
    # target has a stable generator the source never reaches
    src = zero_module(2, F5)
    tgt = free_module(2, (0, 0), F5)
    f = PresentationMap(src, tgt, Matrix(F5, 1, 0, ((),)))
    with pytest.raises(NotLocallyEpicError):
        section_exists(f)


_SECTION_FIELDS = (Field(2), Field(5), Field(0))


@st.composite
def _target_module(draw):
    fld = draw(st.sampled_from(_SECTION_FIELDS))
    tgt = random_presentation(draw(st.integers(0, 10**6)), m=2, max_gens=3, max_rels=4, max_degree=3, fld=fld)
    return fld, tgt


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_target_module(), st.integers(0, 10**6))
def test_projection_from_a_direct_sum_has_a_verified_section(case, other_seed):
    fld, tgt = case
    other = random_presentation(other_seed, m=2, max_gens=3, max_rels=4, max_degree=3, fld=fld)
    g, width = tgt.num_gens, tgt.num_gens + other.num_gens
    src = direct_sum(tgt, other)
    f = PresentationMap(src, tgt, Matrix(fld, g, width, tuple(
        tuple(fld.one if i == j else fld.zero for j in range(width)) for i in range(g)
    )))
    res = section_exists(f)
    assert res.exists and res.axis1_solvable and res.axis2_solvable
    w = res.witness
    # criterion 4 written out: each image composes to its generator, and the
    # two assignments agree at the stable corner
    for slices, vectors in ((w.axis1_slices, w.axis1_vectors), (w.axis2_slices, w.axis2_vectors)):
        for k, (d, vec) in enumerate(zip(slices, vectors)):
            assert list(f.slice_matrix(d).apply(vec)) == tgt._slice_coords(d, [(k, fld.one)])
    corner = tuple(max(a, b) for a, b in zip(src.stabilization_bound(), tgt.stabilization_bound()))
    for k in range(g):
        push1 = src.transition(w.axis1_slices[k], corner).apply(w.axis1_vectors[k])
        push2 = src.transition(w.axis2_slices[k], corner).apply(w.axis2_vectors[k])
        assert push1 == push2


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_target_module(), st.data())
def test_free_cover_sections_imply_both_axis_sections(case, data):
    # the free module on the target's generators, plus shifted extra
    # generators each sent to a multiple of one target generator
    fld, tgt = case
    g = tgt.num_gens
    degrees, cols = list(tgt.gen_degrees), [[int(i == j) for i in range(g)] for j in range(g)]
    if g:
        for j, s1, s2, c in data.draw(
            st.lists(st.tuples(st.integers(0, g - 1), st.integers(0, 2), st.integers(0, 2), st.integers(0, 4)), max_size=3)
        ):
            d = tgt.gen_degrees[j]
            degrees.append((d[0] + s1, d[1] + s2))
            cols.append([c if i == j else 0 for i in range(g)])
    src = GradedPresentation.build(2, fld, degrees, [])
    f = PresentationMap(src, tgt, Matrix.from_cols(fld, g, [[fld.coerce(x) for x in col] for col in cols]))
    res = section_exists(f)
    assert (res.witness is not None) == res.exists
    if res.exists:
        assert res.axis1_solvable and res.axis2_solvable


def _free_cover_map(seed: int) -> PresentationMap:
    """The free module on a random target's generators plus up to three
    shifted extra generators, each sent to a multiple of one of them."""
    rng = random.Random(("free-cover", seed).__repr__())
    fld = _SECTION_FIELDS[seed % 3]
    tgt = random_presentation(seed, m=2, max_gens=3, max_rels=4, max_degree=3, fld=fld)
    g = tgt.num_gens
    degrees, cols = list(tgt.gen_degrees), [[int(i == j) for i in range(g)] for j in range(g)]
    for _ in range(rng.randint(0, 3) if g else 0):
        j = rng.randrange(g)
        degrees.append((tgt.gen_degrees[j][0] + rng.randint(0, 2), tgt.gen_degrees[j][1] + rng.randint(0, 2)))
        cols.append([rng.randint(0, 4) if i == j else 0 for i in range(g)])
    src = GradedPresentation.build(2, fld, degrees, [])
    return PresentationMap(src, tgt, Matrix.from_cols(fld, g, [[fld.coerce(x) for x in col] for col in cols]))


def test_each_axis_system_is_reduced_once(monkeypatch):
    # the axis flags come from one reduction each; the full solve runs only
    # when both are consistent, on their rows and the corner equations, and
    # gives the solution of the axis and corner equations solved from scratch
    reduced, solved = [], []
    real_rows, real_solve = twoparam.reduced_rows, twoparam.solve
    monkeypatch.setattr(twoparam, "reduced_rows", lambda *args: reduced.append(args) or real_rows(*args))
    monkeypatch.setattr(twoparam, "solve", lambda *args: solved.append(args) or real_solve(*args))
    flags = set()
    for seed in range(45):
        reduced.clear(), solved.clear()
        res = section_exists(_free_cover_map(seed))
        assert len(reduced) == 2
        axes = [real_rows(*args) for args in reduced]
        assert [rows is not None for rows in axes] == [res.axis1_solvable, res.axis2_solvable]
        assert [real_solve(*args) is not None for args in reduced] == [res.axis1_solvable, res.axis2_solvable]
        flags.add((res.axis1_solvable, res.axis2_solvable))
        if None in axes:
            assert solved == [] and not res.exists
            continue
        (fld, width, equations), = solved
        corner = equations[len(axes[0]) + len(axes[1]) :]
        assert equations[: len(equations) - len(corner)] == [*axes[0], *axes[1]]
        scratch = real_solve(fld, width, [*reduced[0][2], *reduced[1][2], *corner])
        assert (scratch is not None) == res.exists
        if res.exists:
            w = res.witness
            assert tuple(x for vec in (*w.axis1_vectors, *w.axis2_vectors) for x in vec) == scratch
    assert flags == {(True, True), (True, False), (False, True), (False, False)}


def test_intersection_table_checks_the_bifiltration(monkeypatch):
    # images that shrink, or that never fill the corner, are refused
    mod = named_example("samerank_m")
    corner = mod.stabilization_bound()
    full = Subspace.span(F5, mod.dim_at(corner), mod.slice_image(corner, corner).rows)
    zero = Subspace.span(F5, mod.dim_at(corner), [])
    for image, message in (
        (lambda self, a, b: full if a == (0, corner[1]) else zero, "fail to increase"),
        (lambda self, a, b: zero, "does not exhaust the corner"),
    ):
        monkeypatch.setattr(GradedPresentation, "slice_image", image)
        with pytest.raises(DecompositionError, match=message):
            intersection_table(mod)


def test_equivalence_is_localization_blind():
    # modules differing by strip torsion are equivalent after localization
    mod = free_module(2, (1, 1), F5)
    noisy = direct_sum(mod, strip_presentation(1, 0, 3))
    assert equivalent_after_localization(mod, noisy) is False  # strips do count
    # but two copies of the same strips on both sides do match
    other = direct_sum(strip_presentation(1, 0, 3), free_module(2, (1, 1), F5))
    assert equivalent_after_localization(noisy, other) is True


def test_planar_shadows_of_m3_modules():
    # the planar shadow of an m = 3 module inverts one variable k and
    # decomposes what is left; its strips are M's localized barcodes along
    # the two remaining axes i < j, and reconstruct round-trips it
    for fld in (Field(2), F5, Field(0)):
        for seed in range(20):
            mod = random_presentation(seed, m=3, max_gens=5, max_rels=8, max_degree=4, fld=fld)
            for k in (1, 2, 3):
                i, j = (axis for axis in (1, 2, 3) if axis != k)
                shadow = decompose(localize(mod, [k]))
                assert shadow.vertical == localized_barcode(mod, i).finite(), (fld, seed, k)
                assert shadow.horizontal == localized_barcode(mod, j).finite(), (fld, seed, k)
                assert decompose(reconstruct(shadow, fld)) == shadow, (fld, seed, k)
