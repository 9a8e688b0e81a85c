"""Simplicial complexes, face rings, support, and the quotient calculus."""

import hashlib
from itertools import combinations

import pytest

from persloc import complexes
from persloc.complexes import (
    SimplicialComplex,
    annihilated_by_monomial_power,
    empty_complex,
    enumerate_complexes,
    face_ring,
    face_sort_key,
    full_simplex,
    in_kernel,
    in_kernel_by_nilpotence,
    kdim,
    kernel_complex,
    minimal_missing_faces,
    random_complex,
    serre_chain,
    serre_step,
    simples,
    skeleton,
    supp_complex,
)
from persloc.degrees import add, box, drop
from persloc.errors import PreconditionError
from persloc.examples import named_example
from persloc.fields import DEFAULT_FIELD, Field
from persloc.localization import localize
from persloc.presentation import GradedPresentation, direct_sum, free_module, random_presentation, zero_module


F5 = DEFAULT_FIELD


def test_complex_requires_downward_closure():
    with pytest.raises(PreconditionError):
        SimplicialComplex.make(2, [[1, 2]])


_BUDGET = "m = {} is more than 12 variables; the 2^m subsets are out of budget"


@pytest.mark.parametrize(
    "m, faces, message",
    [
        (0, [], "need at least one vertex slot"),
        (13, [], _BUDGET.format(13)),
        (2, [[], [3]], "face [3] outside 1..2"),
        (2, [[], [0]], "face [0] outside 1..2"),
        (2, [[], [1, 2], [1]], "family is not downward closed: [1, 2] present, [2] missing"),
        # in order: m, then face by face its vertices and its facets
        (0, [[5]], "need at least one vertex slot"),
        (40, [[41]], _BUDGET.format(40)),
        (2, [[1, 3]], "face [1, 3] outside 1..2"),
    ],
)
def test_make_refuses_bad_input_with_its_message(m, faces, message):
    with pytest.raises(PreconditionError) as info:
        SimplicialComplex.make(m, faces)
    assert type(info.value) is PreconditionError and str(info.value) == message


def _no_walk(*args, **kwargs):
    raise AssertionError("walked the subsets of the variables")


@pytest.mark.parametrize("m", [0, -1, 13, 40])
def test_complex_builders_refuse_m_before_any_subset_walk(m, monkeypatch):
    # each refuses as `make` does, before it visits the 2^m subsets
    monkeypatch.setattr(complexes, "_subsets", _no_walk)
    message = "need at least one vertex slot" if m < 1 else _BUDGET.format(m)
    builders = [
        lambda: empty_complex(m),
        lambda: skeleton(m, -2),
        lambda: full_simplex(m),
        lambda: random_complex(0, m),
        lambda: SimplicialComplex.make(m, []),
    ]
    if m < 1:
        builders.append(lambda: next(enumerate_complexes(m)))
    if m > 0:
        builders.append(lambda: supp_complex(free_module(m, (0,) * m, F5)))
    else:  # every variable of a module inverted
        builders.append(lambda: supp_complex(localize(free_module(2, (0, 0), F5), [1, 2])))
    for build in builders:
        with pytest.raises(PreconditionError) as info:
            build()
        assert str(info.value) == message


def test_skeleton_tower():
    assert skeleton(3, -2) == empty_complex(3)
    assert skeleton(3, -1).faces == frozenset({frozenset()})
    assert skeleton(3, 2) == full_simplex(3)
    assert len(skeleton(3, 0).faces) == 4  # empty face and three vertices
    assert len(skeleton(3, 1).faces) == 7


def test_minimal_missing_faces_cases():
    assert minimal_missing_faces(empty_complex(2)) == frozenset({frozenset()})
    assert minimal_missing_faces(full_simplex(3)) == frozenset()
    boundary = skeleton(3, 1)
    assert minimal_missing_faces(boundary) == frozenset({frozenset({1, 2, 3})})
    points = skeleton(3, 0)
    assert minimal_missing_faces(points) == frozenset(
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    )


def test_serre_step_and_chain():
    # stepping the i-skeleton gives the (i+1)-skeleton
    for m in range(1, 5):
        for i in range(-2, m - 1):
            assert serre_step(skeleton(m, i)) == skeleton(m, i + 1)
        chain = serre_chain(empty_complex(m))
        assert len(chain) - 1 == m + 1
        assert chain[-1] == full_simplex(m)


def test_kdim_values():
    assert kdim(full_simplex(3)) == -1
    assert kdim(empty_complex(3)) == 3
    assert kdim(skeleton(3, 1)) == 0
    assert kdim(skeleton(3, 0)) == 1
    # kdim is one less than the chain length, for every complex on three vertices
    for k in enumerate_complexes(3):
        assert kdim(k) == len(serre_chain(k)) - 2


def test_face_ring_small_cases():
    # complex {empty}: every variable is a missing vertex
    k = skeleton(2, -1)
    fr = face_ring(k, F5)
    assert fr.num_gens == 1
    assert sorted(fr.rel_degrees) == [(0, 1), (1, 0)]
    # boundary of the triangle: only the top face is missing
    fr = face_ring(skeleton(3, 1), F5)
    assert fr.rel_degrees == ((1, 1, 1),)
    # empty complex: the generator is killed at birth by the unit relation,
    # so every slice vanishes even though a generator is listed
    fr = face_ring(empty_complex(2), F5)
    assert all(fr.dim_at(d) == 0 for d in box((3, 3)))
    # full simplex: the free module
    fr = face_ring(full_simplex(2), F5)
    assert fr.num_rels == 0 and fr.num_gens == 1


def test_face_ring_all_missing_same_support():
    for k in list(enumerate_complexes(3)):
        lean = face_ring(k, F5)
        fat = face_ring(k, F5, all_missing=True)
        assert supp_complex(lean) == supp_complex(fat) == k


def test_supp_of_face_ring_exhaustive_m3():
    complexes = list(enumerate_complexes(3))
    assert len(complexes) == 20
    for k in complexes:
        assert supp_complex(face_ring(k, F5)) == k


def test_supp_examples():
    cross = GradedPresentation.build(2, F5, [(0, 0)], [((1, 1), [1])])
    assert supp_complex(cross).faces == frozenset({frozenset(), frozenset({1}), frozenset({2})})
    assert supp_complex(free_module(2, (1, 1), F5)) == full_simplex(2)
    assert supp_complex(zero_module(2, F5)) == empty_complex(2)
    # strip module: only the first axis survives
    strip = GradedPresentation.build(2, F5, [(0, 0)], [((0, 2), [1])])
    assert supp_complex(strip).faces == frozenset({frozenset(), frozenset({1})})


def test_supp_box_test_matches_nilpotence_oracle():
    # dual route: membership of supp faces versus monomial nilpotence, on
    # random modules and on the face rings of every complex on 1-3 vertices
    # (the empty complex's is a zero module with a generator)
    inputs = [
        (seed, random_presentation(seed, m=2 if seed % 2 == 0 else 3, max_gens=3, max_rels=5, max_degree=4))
        for seed in range(40)
    ]
    inputs += [
        ((sorted(map(sorted, k.faces)), fat), face_ring(k, F5, all_missing=fat))
        for m in (1, 2, 3)
        for k in enumerate_complexes(m)
        for fat in (False, True)
    ]
    for label, mod in inputs:
        for k in enumerate_complexes(mod.m):
            assert in_kernel(mod, k) == in_kernel_by_nilpotence(mod, k), (label, k.faces)


def test_nilpotence_route_walks_minimal_missing_faces_only(monkeypatch):
    # the empty complex misses all 8 faces on m = 3; only the empty face is minimal
    calls = []
    real = complexes.annihilated_by_monomial_power
    monkeypatch.setattr(complexes, "annihilated_by_monomial_power", lambda mod, f: calls.append(f) or real(mod, f))
    assert in_kernel_by_nilpotence(zero_module(3), empty_complex(3))
    assert calls == [frozenset()]


def test_nilpotence_route_equals_every_missing_face():
    mods = [random_presentation(seed, m=m, max_gens=3, max_rels=4, max_degree=3) for m in (1, 2, 3) for seed in range(5)]
    mods += [free_module(m, (1,) * m, F5) for m in (1, 2, 3)]
    for mod in mods:
        for k in enumerate_complexes(mod.m):
            every = all(annihilated_by_monomial_power(mod, f) for f in k.missing_faces())
            assert in_kernel_by_nilpotence(mod, k) == every, (mod, k.faces)


def test_supp_reads_generator_degrees_without_a_box_walk():
    # a walk of the 301^2 stabilization box would build 90,601 slices
    mod = named_example("quadrant:300,300", F5)
    assert supp_complex(mod) == full_simplex(2)
    assert len(mod._slices) <= 2 ** mod.m * mod.num_gens


def test_annihilated_by_monomial_power():
    cross = GradedPresentation.build(2, F5, [(0, 0)], [((1, 1), [1])])
    assert annihilated_by_monomial_power(cross, frozenset({1, 2}))
    assert not annihilated_by_monomial_power(cross, frozenset({1}))
    assert annihilated_by_monomial_power(zero_module(2, F5), frozenset())
    assert not annihilated_by_monomial_power(cross, frozenset())


def _full_box_walk(mod, face):
    """The nilpotence walk over every degree of the bound box."""
    bound = mod.stabilization_bound()
    power = 1 + max(bound, default=0)
    step = tuple(power if i in face else 0 for i in range(1, mod.m + 1))
    return not any(mod.dim_at(d) and not mod.transition(d, add(d, step)).is_zero() for d in box(bound))


@pytest.mark.parametrize("fld", [Field(2), F5, Field(0)], ids=str)
def test_grid_walk_equals_the_full_box_walk(fld):
    answers = set()
    for m in (1, 2, 3):
        for seed in range(10):
            params = dict(m=m, max_gens=3, max_rels=5, max_degree=5 if m < 3 else 3, fld=fld)
            mod = random_presentation(seed, **params)
            for face in complexes._subsets(range(1, m + 1)):
                got = annihilated_by_monomial_power(mod, face)
                assert got == _full_box_walk(random_presentation(seed, **params), face), (m, seed, face)
                answers.add(got)
    assert answers == {True, False}


def test_nilpotence_walk_visits_generator_coordinates_only(monkeypatch):
    # the grid is the generator coordinates alone: the cross's relation at
    # (1, 1) adds no point, and the axes of `late` start at 2 and 3, not at 0
    seen = []
    real = GradedPresentation.dim_at
    monkeypatch.setattr(GradedPresentation, "dim_at", lambda self, d: seen.append(tuple(d)) or real(self, d))
    cross = GradedPresentation.build(2, F5, [(0, 0)], [((1, 1), [1])])
    assert annihilated_by_monomial_power(cross, frozenset({1, 2}))
    assert seen == [(0, 0)]
    seen.clear()
    late = GradedPresentation.build(2, F5, [(2, 3)], [((3, 3), [1])])
    assert annihilated_by_monomial_power(late, frozenset({1}))
    assert seen == [(2, 3)]


def test_nilpotence_walk_reads_the_grid_of_a_far_quadrant():
    # the 301^2 bound box has the generator-coordinate grid {300}^2; the box budget stays on the real bound
    mod = named_example("quadrant:300,300", F5)
    assert not annihilated_by_monomial_power(mod, frozenset())
    assert len(mod._slices) == 1
    far = named_example("quadrant:400,400", F5)
    with pytest.raises(PreconditionError, match="holds 160801 degrees"):
        annihilated_by_monomial_power(far, frozenset())
    assert not far._slices


def test_kernel_complex_membership():
    k = skeleton(2, 0)
    cross = GradedPresentation.build(2, F5, [(0, 0)], [((1, 1), [1])])
    assert in_kernel(cross, k)
    assert not in_kernel(free_module(2, (0, 0), F5), k)
    # kernel_complex(m) is the threshold skeleton by variable count
    assert kernel_complex(2) == skeleton(2, -1)
    assert kernel_complex(3) == skeleton(3, 0)
    assert not in_kernel(cross, kernel_complex(2))


def _dim_at_origin(module, sigma):
    # the localization at sigma, read at the origin of the remaining axes
    return localize(module, sigma).dim_at(drop((0, 0, 0), sigma))


def test_simples_realizations():
    # boundary of the triangle: one simple, supported on the open top face
    k = skeleton(3, 1)
    out = simples(k, F5)
    assert len(out) == 1
    desc, module = out[0]
    assert desc.sigma == (1, 2, 3)
    # the realization localizes to a line exactly on sigma
    assert _dim_at_origin(module, desc.sigma) == 1
    # for points-only, three simples, each living on one edge's pair
    out = simples(skeleton(3, 0), F5)
    assert sorted(d.sigma for d, _ in out) == [(1, 2), (1, 3), (2, 3)]
    for desc, module in out:
        assert _dim_at_origin(module, desc.sigma) == 1
        outside = [i for i in (1, 2, 3) if i not in desc.sigma]
        for i in outside:
            assert _dim_at_origin(module, [i]) == 0


def test_simples_of_full_simplex_empty():
    assert simples(full_simplex(2), F5) == []


def test_enumerate_complexes_counts():
    # numbers of complexes with vertices labeled, including the empty one
    assert len(list(enumerate_complexes(1))) == 3
    assert len(list(enumerate_complexes(2))) == 6
    assert len(list(enumerate_complexes(3))) == 20
    for k in enumerate_complexes(2):
        assert SimplicialComplex.make(k.m, k.faces) == k
    # m = 4: 168 distinct complexes, grown from the empty one to the simplex
    four = [k.faces for k in enumerate_complexes(4)]
    assert len(four) == len(set(four)) == 168
    assert four[0] == empty_complex(4).faces and four[-1] == full_simplex(4).faces


def test_random_complex_is_valid_and_deterministic():
    for seed in range(20):
        a = random_complex(seed, 4)
        b = random_complex(seed, 4)
        assert a == b
        assert SimplicialComplex.make(a.m, a.faces) == a


def _derived_complexes(fld, m, seed):
    """The complexes built from checked data without a second check: supports,
    Serre steps, skeleta, the enumeration and random complexes."""
    yield supp_complex(random_presentation(seed, m=m, max_gens=4, max_rels=5, max_degree=3, fld=fld))
    k = random_complex(seed, m)
    yield k
    yield from serre_chain(k)[1:]
    yield serre_step(empty_complex(m))
    for i in range(-2, m):
        yield skeleton(m, i)


@pytest.mark.parametrize("fld", [Field(2), F5, Field(101), Field(0)], ids=str)
def test_derived_complexes_pass_make_again(fld):
    # the constructor trusts its fields; what derived constructions hand it
    # is what `make` would accept and return unchanged
    for m in (1, 2, 3, 4):
        derived = [k for seed in range(8) for k in _derived_complexes(fld, m, seed)]
        for k in derived + list(enumerate_complexes(m)):
            assert SimplicialComplex.make(k.m, k.faces) == k


def test_subset_walks_are_pinned():
    # every face of random_complex(seed, m) for m 1-6 and seeds 0-99, hashed
    lines = [
        f"{m} {seed} {[sorted(f) for f in random_complex(seed, m).sorted_faces()]}"
        for m in range(1, 7)
        for seed in range(100)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c522a7dfd3f22d0fb8cda4fbd433fe71e2fbea2837375e4549fe8804393b1758"
    for m in range(1, 7):
        subsets = [frozenset(c) for r in range(m + 1) for c in combinations(range(1, m + 1), r)]
        for seed in range(20):
            k = random_complex(seed, m)
            assert k.missing_faces() == [f for f in subsets if f not in k.faces]
            assert k.missing_faces() == sorted(k.missing_faces(), key=face_sort_key)
        for i in range(-1, m):
            assert skeleton(m, i).faces == {f for f in subsets if len(f) <= i + 1}


def test_in_kernel_dimension_mismatch():
    mod = free_module(2, (0, 0), F5)
    with pytest.raises(PreconditionError):
        in_kernel(mod, full_simplex(3))
