"""Graded presentations: slices, transitions, ranks, stabilization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persloc import modfile, twoparam
from persloc.complexes import enumerate_complexes, face_ring, simples
from persloc.degrees import add, box, join, leq
from persloc.errors import AmbientMismatchError, DegreeOrderError, HomogeneityError, PreconditionError
from persloc.examples import named_example
from persloc.fields import DEFAULT_FIELD, Field, Matrix, Subspace
from persloc.localization import localize
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


@pytest.mark.parametrize(
    "m, gens, relations, error, message",
    [
        (-1, [], [], PreconditionError, "need a nonnegative number of variables"),
        (2, [(0, 0), (1, -1)], [], PreconditionError, "negative degree (1, -1)"),
        (2, [], [((-1, 0), [])], PreconditionError, "negative degree (-1, 0)"),
        (2, [(0, 0), (0, 0)], [((1, 1), [1])], AmbientMismatchError, "relation coefficient vector length mismatch"),
        # the row length is checked before the degrees, the degrees before homogeneity
        (2, [(0, -1)], [((0, 0), [1, 1])], AmbientMismatchError, "relation coefficient vector length mismatch"),
        (2, [(1, 0)], [((0, -1), [1])], PreconditionError, "negative degree (0, -1)"),
    ],
)
def test_build_refuses_bad_input_with_its_message(m, gens, relations, error, message):
    # modfile refuses m < 1 and negative degrees before `build`, so only a library call reaches these
    with pytest.raises(error) as info:
        GradedPresentation.build(m, F5, gens, relations)
    assert type(info.value) is error and str(info.value) == message


def test_build_refuses_a_degree_of_the_wrong_length_as_an_ambient_mismatch():
    # a library caller catching `PreconditionError` sees it too
    for gens, relations in (([(0,)], []), ([], [((0, 0, 0), [])])):
        with pytest.raises(AmbientMismatchError) as info:
            GradedPresentation.build(2, F5, gens, relations)
        length = len(gens[0] if gens else relations[0][0])
        assert str(info.value) == f"degree {(0,) * length} has {length} components, expected 2"


def test_degrees_outside_the_orthant_are_refused_with_their_messages():
    # each entry point names the degree it was given; a map's slice refuses as `dim_at` does
    module, f = named_example("samerank_m"), named_example("split_projection")
    calls = [
        (lambda: module.dim_at((-1, 0)), "degree (-1, 0) not in N^2"),
        (lambda: module.transition((0, -1), (1, 1)), "degree (0, -1) not in N^2"),
        (lambda: module.rank_invariant((0, -1), (0, -1)), "degree (0, -1) not in N^2"),
        (lambda: module.shift((2, -1)), "shift (2, -1) not in N^2"),
        (lambda: twoparam.delocalize_dim(module, (-1, -1)), "degree (-1, -1) not in N^2"),
        (lambda: f.slice_matrix((-1, 0)), "degree (-1, 0) not in N^2"),
    ]
    for call, message in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        assert type(info.value) is PreconditionError and str(info.value) == message
    with pytest.raises(AmbientMismatchError):
        f.slice_matrix((0, 0, 0))


def test_build_names_the_first_inhomogeneous_pair_generator_major():
    # two violations, generator 1 on relation 0 and generator 0 on relation 1:
    # the generator-major scan names generator 0 first
    with pytest.raises(HomogeneityError) as info:
        GradedPresentation.build(2, F5, [(0, 1), (1, 0)], [((0, 0), [0, 1]), ((0, 0), [1, 0])])
    assert str(info.value) == (
        "relation 1 (degree (0, 0)) has a coefficient on generator 0 (degree (0, 1)) but (0, 1) is not <= (0, 0)"
    )


def _derived_modules(fld, m, seed):
    """The modules built without a check: shifts, direct sums, localizations
    and cokernels of checked ones, and those written out from derived data,
    reconstructions and the face rings and simples of every complex on the m
    vertices."""
    rng = random.Random(seed)
    mod, other = (random_presentation(s, m=m, max_degree=4, fld=fld) for s in (seed, seed + 100))
    yield mod.shift(tuple(rng.randint(0, 3) for _ in range(m)))
    yield direct_sum(mod, other)
    yield direct_sum(mod)
    for k in range(m):  # every proper sigma of one size; modfile needs m >= 1
        yield localize(mod, rng.sample(range(1, m + 1), k))
    if m == 2:
        yield twoparam.reconstruct(twoparam.decompose(mod), fld)
        for name in ("notsplit_map", "split_projection"):
            yield named_example(name, fld).cokernel()
    if seed == 0:  # the complexes do not depend on the seed
        for k in enumerate_complexes(m):
            yield face_ring(k, fld)
            yield face_ring(k, fld, all_missing=True)
            yield from (module for _, module in simples(k, fld))


@pytest.mark.parametrize("fld", [Field(2), F5, Field(0)], ids=str)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_derived_modules_pass_build_again(m, fld):
    # the constructor trusts its fields; what derived constructions hand it
    # is what `build` would accept and return unchanged
    for seed in range(8):
        for derived in _derived_modules(fld, m, seed):
            assert modfile.module_from_obj(modfile.module_to_obj(derived)) == derived


def test_zero_and_free():
    z = zero_module(2, F5)
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


def test_rank_equals_dim_on_point(monkeypatch):
    # the identity transition has full rank, so rank_invariant(d, d) reads
    # dim_at(d) and builds no transition
    mods = [random_presentation(seed, m=2, max_gens=4, max_rels=6, max_degree=4) for seed in range(20)]
    d = (2, 1)
    for mod in mods:
        assert mod.transition(d, d).rank() == mod.dim_at(d)

    def no_transition(self, a, b):
        raise AssertionError("rank_invariant(d, d) built a transition")

    monkeypatch.setattr(GradedPresentation, "transition", no_transition)
    for mod in mods:
        assert mod.rank_invariant(d, [2, 1]) == mod.dim_at(d)


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
        PresentationMap.build(tgt, src, Matrix.from_rows(F5, [[1]]))


def test_map_must_kill_relations():
    # source R/(t1) mapping onto free R: sending the generator to 1 does not
    # annihilate the relation, so the map is rejected
    src = GradedPresentation.build(2, F5, [(0, 0)], [((1, 0), [1])])
    tgt = free_module(2, (0, 0), F5)
    with pytest.raises(HomogeneityError):
        PresentationMap.build(src, tgt, Matrix.from_rows(F5, [[1]]))


_F7 = Field(7)
_FREE0, _FREE11 = free_module(2, (0, 0), F5), free_module(2, (1, 1), F5)
# two generators each: target 0 cannot receive source 1, nor target 1 source 0,
# and the source relation is not killed
_CROSS_SRC = GradedPresentation.build(2, F5, [(1, 0), (0, 1)], [((1, 1), [1, 0])])
_CROSS_TGT = GradedPresentation.build(2, F5, [(1, 0), (0, 1)], [])


@pytest.mark.parametrize(
    "source, target, rows, fld, error, message",
    [
        # each case but the second also fails the next check, which must come later
        (_FREE0, free_module(1, (0,), F5), [[1, 0]], F5, AmbientMismatchError, "map endpoints over different ambients"),
        (_FREE0, free_module(2, (0, 0), _F7), [[1]], F5, AmbientMismatchError, "map endpoints over different ambients"),
        (_FREE0, _FREE0, [[1, 0]], _F7, AmbientMismatchError, "map coefficient matrix shape mismatch"),
        (_FREE0, _FREE11, [[1]], _F7, AmbientMismatchError, "map coefficients over wrong field"),
        # the degree condition is scanned target-major: (0, 1) before (1, 0)
        (_CROSS_SRC, _CROSS_TGT, [[1, 1], [1, 1]], F5, HomogeneityError,
         "map hits target generator 0 (degree (1, 0)) from source generator 1 (degree (0, 1)) "
         "but (1, 0) is not <= (0, 1)"),
        (_CROSS_SRC, _CROSS_TGT, [[1, 0], [0, 1]], F5, HomogeneityError,
         "source relation 0 (degree (1, 1)) does not map into the target relation span; "
         "the map is not well defined"),
    ],
)
def test_map_build_refuses_bad_input_with_its_message(source, target, rows, fld, error, message):
    coeffs = Matrix.from_rows(fld, rows)
    with pytest.raises(error) as info:
        PresentationMap.build(source, target, coeffs)
    assert type(info.value) is error and str(info.value) == message
    # the constructor trusts its fields
    assert PresentationMap(source, target, coeffs).coeffs is coeffs


@pytest.mark.parametrize("fld", [Field(2), F5, Field(0)], ids=str)
def test_example_maps_pass_build(fld):
    for name in ("notsplit_map", "split_projection"):
        f = named_example(name, fld)
        assert PresentationMap.build(f.source, f.target, f.coeffs) == f


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


def _scanned_slice(mod, d):
    """The slice at d from the direct eligibility scan: every generator and
    relation degree compared with d."""
    gens = tuple(i for i, gd in enumerate(mod.gen_degrees) if leq(gd, d))
    rels = [j for j, rd in enumerate(mod.rel_degrees) if leq(rd, d)]
    relations = Subspace.span(mod.field, len(gens), [[mod.rel_coeffs.entries[i][j] for i in gens] for j in rels])
    coords = tuple(k for k in range(len(gens)) if k not in relations.pivots)
    return (gens, {g: k for k, g in enumerate(gens)}, coords, relations), (gens, tuple(rels))


def _assert_grid_slices_match_the_scan(mod):
    # every degree of the box two past the bound, read off the grid and as the
    # first slice of a fresh module, and one slice per eligible set
    eligible = set()
    for d in box(add(mod.stabilization_bound(), (2,) * mod.m)):
        want, key = _scanned_slice(mod, d)
        first = GradedPresentation(mod.m, mod.field, mod.gen_degrees, mod.rel_degrees, mod.rel_coeffs)._slice(d)
        for sl in (mod._slice(d), first):
            assert (sl.gens, sl.positions, sl.coords, sl.relations) == want, (mod, d)
        eligible.add(key)
    assert len(mod._slices) == len(eligible)


@pytest.mark.parametrize("fld", [Field(2), F5, Field(0)], ids=str)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_grid_slices_equal_the_eligibility_scan(m, fld):
    for seed in range(6):
        mod = random_presentation(seed, m=m, max_degree=6 if m < 3 else 4, fld=fld)
        _assert_grid_slices_match_the_scan(mod)
        # m = 0: every variable inverted, one slice at ()
        whole = localize(mod, range(1, m + 1))
        _assert_grid_slices_match_the_scan(whole)
        assert whole.dim_at(()) == mod.dim_at(mod.stabilization_bound())


def test_grid_axis_with_no_degree_at_zero():
    # axis 1 starts at 2 and axis 2 at 3: below either, nothing is eligible
    mod = GradedPresentation.build(2, F5, [(2, 3), (4, 3)], [((4, 5), [1, 4]), ((5, 3), [0, 1])])
    _assert_grid_slices_match_the_scan(mod)
    assert mod._slice((1, 9)) is mod._slice((0, 0)) is mod._slice((9, 2))
    assert mod._slice((0, 0)).gens == ()
    assert mod._slice((3, 4)) is mod._slice((2, 3))


def test_a_module_sliced_once_builds_no_grid():
    # `decompose` asks each module for the one slice at its bound
    mod = random_presentation(3, m=2, fld=F5)
    bound = mod.stabilization_bound()
    mod.dim_at(bound)
    assert not hasattr(mod, "_grid")
    mod.dim_at((0, 0))
    assert hasattr(mod, "_grid")
    assert mod._slice(bound) is mod._slice(add(bound, (3, 1)))
    assert len(mod._slices) == 2
