"""Simplicial complexes on the variable set and module support.

A subset sigma of {1..m} is in the support of M when inverting the variables
in sigma leaves a nonzero module; the collection of such subsets is downward
closed, so it is an abstract simplicial complex (possibly empty, possibly
containing only the empty face: the two are different and both matter).
`supp_complex` decides each face from M's slices at its generator degrees;
`annihilated_by_monomial_power`, the independent route, walks the bound box
on its critical-value grid.

Face rings realize every complex as a module support; minimal missing faces
index both the Stanley-Reisner relations and the simple objects left after
killing the torsion part.  Iterating `serre_step` (adjoin the minimal missing
faces) measures how far a complex sits from the full simplex; the count is
one more than the dimension-style invariant `kdim`.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable, Iterator

from . import degrees as dg
from .errors import PreconditionError
from .fields import DEFAULT_FIELD, Field, Matrix, Record
from .presentation import GradedPresentation

Face = frozenset[int]

# most variables a complex or a support computation may have: both visit all
# 2^m subsets of the variables
MAX_VARIABLES = 12


def _require_variable_budget(m: int) -> None:
    """Refuse m < 1, and m past `MAX_VARIABLES`, before any walk over 2^m subsets."""
    if m < 1:
        raise PreconditionError("need at least one vertex slot")
    if m > MAX_VARIABLES:
        raise PreconditionError(
            f"m = {m} is more than {MAX_VARIABLES} variables; the 2^m subsets are out of budget"
        )


def _face(vertices: Iterable[int]) -> Face:
    return frozenset(int(v) for v in vertices)


def face_sort_key(face: Face) -> tuple:
    return (len(face), tuple(sorted(face)))


def _subsets(vertices: Iterable[int], max_size: int | None = None) -> Iterator[Face]:
    """Subsets of `vertices` (of at most `max_size` elements) in `face_sort_key` order."""
    vertices = sorted(vertices)
    top = len(vertices) if max_size is None else max_size
    for r in range(top + 1):
        for comb in combinations(vertices, r):
            yield frozenset(comb)


class SimplicialComplex(Record):
    """Downward-closed family of subsets of {1..m}.

    `faces` empty is the empty complex; `faces = {frozenset()}` is the
    one-point family containing only the empty face.  Both are valid and are
    distinct objects.

    The constructor trusts its fields: outside data enters through `make`, which
    checks it; `skeleton`, `serre_step`, `supp_complex` and `enumerate_complexes`
    build downward-closed families on a checked m.
    """

    __slots__ = ("m", "faces")

    @classmethod
    def make(cls, m: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Check outside data: m against the variable budget, then face by face its vertices and facets."""
        faces = frozenset(_face(f) for f in faces)
        _require_variable_budget(m)
        for f in faces:
            if any(v < 1 or v > m for v in f):
                raise PreconditionError(f"face {sorted(f)} outside 1..{m}")
            for v in f:
                if f - {v} not in faces:
                    raise PreconditionError(
                        f"family is not downward closed: {sorted(f)} present, "
                        f"{sorted(f - {v})} missing"
                    )
        return cls(m, faces)

    def sorted_faces(self) -> list[Face]:
        return sorted(self.faces, key=face_sort_key)

    def missing_faces(self) -> list[Face]:
        return [f for f in _subsets(range(1, self.m + 1)) if f not in self.faces]

    def is_full(self) -> bool:
        return len(self.faces) == 2 ** self.m


def empty_complex(m: int) -> SimplicialComplex:
    return SimplicialComplex.make(m, ())


def full_simplex(m: int) -> SimplicialComplex:
    return skeleton(m, m - 1)


def skeleton(m: int, i: int) -> SimplicialComplex:
    """Faces of cardinality at most i+1; i ranges over [-2, m-1].

    i = -2 gives the empty complex, i = -1 the empty-face-only complex,
    i = m-1 the full simplex.
    """
    if not -2 <= i <= m - 1:
        raise PreconditionError(f"skeleton index {i} outside [-2, {m - 1}]")
    _require_variable_budget(m)
    return SimplicialComplex(m, frozenset(_subsets(range(1, m + 1), i + 1)))


def kernel_complex(m: int) -> SimplicialComplex:
    """The (m-3)-skeleton: the largest complex whose torsion theory splits."""
    return skeleton(m, m - 3)


def minimal_missing_faces(k: SimplicialComplex) -> frozenset[Face]:
    """Missing faces all of whose proper subsets are present.

    For the empty complex this is {empty face}: the empty face is missing and
    has no proper subsets.
    """
    out = []
    for f in k.missing_faces():
        if all(f - {v} in k.faces for v in f):
            out.append(f)
    return frozenset(out)


def serre_step(k: SimplicialComplex) -> SimplicialComplex:
    """Adjoin the minimal missing faces (one quotient step toward the simplex)."""
    return SimplicialComplex(k.m, k.faces | minimal_missing_faces(k))


def serre_chain(k: SimplicialComplex) -> list[SimplicialComplex]:
    """Iterate serre_step to the full simplex; returns the whole chain."""
    chain = [k]
    while not chain[-1].is_full():
        chain.append(serre_step(chain[-1]))
    return chain


def kdim(k: SimplicialComplex) -> int:
    """m minus the smallest cardinality of a missing face; -1 for the simplex.

    Equals the number of serre_step iterations needed to reach the full
    simplex, minus one.
    """
    missing = k.missing_faces()
    if not missing:
        return -1
    return k.m - min(len(f) for f in missing)


def _cyclic(m: int, fld: Field, faces: Iterable[Face]) -> GradedPresentation:
    """Face rings and simples: one generator at 0 killed by each face's squarefree monomial, unchecked."""
    rels = tuple(tuple(1 if v in f else 0 for v in range(1, m + 1)) for f in faces)
    return GradedPresentation(m, fld, (dg.zero(m),), rels, Matrix(fld, 1, len(rels), ((fld.one,) * len(rels),)))


def face_ring(k: SimplicialComplex, fld: Field = DEFAULT_FIELD, all_missing: bool = False) -> GradedPresentation:
    """Cyclic module with one squarefree monomial relation per missing face.

    By default only the minimal missing faces appear (the rest are redundant);
    `all_missing` adds every missing face.  The empty complex yields the zero
    quotient: its missing empty face contributes the relation 1 = 0 in
    degree 0.  Derived data: `_cyclic` builds it unchecked, as it does the simples.
    """
    missing = k.missing_faces() if all_missing else sorted(minimal_missing_faces(k), key=face_sort_key)
    return _cyclic(k.m, fld, missing)


def supp_complex(module: GradedPresentation) -> SimplicialComplex:
    """All sigma whose localization is nonzero, as a simplicial complex.

    `localize(M, sigma)` is generated in M's generator degrees with the
    sigma-coordinates raised to the stabilization bound, and a module is zero
    iff its slice at each generator degree is.  So sigma is a face iff one of
    those slices of M is nonzero: at most 2^m times num_gens slices, no box
    walk.  The bound box is still held to `degrees.MAX_BOX_DEGREES` degrees,
    the contract it shares with `annihilated_by_monomial_power`, which walks it.
    """
    m = module.m
    _require_variable_budget(m)
    bound = module.stabilization_bound()
    dg.require_box_budget(bound)
    faces = []
    for sigma in _subsets(range(1, m + 1)):
        # every degree is <= bound, so joining with this raises exactly sigma
        top = tuple(b if i in sigma else 0 for i, b in enumerate(bound, 1))
        if any(module.dim_at(dg.join(d, top)) for d in module.gen_degrees):
            faces.append(sigma)
    return SimplicialComplex(m, frozenset(faces))


def in_kernel(module: GradedPresentation, k: SimplicialComplex) -> bool:
    """True iff the support lies inside k (module dies in the quotient)."""
    if module.m != k.m:
        raise PreconditionError("module and complex have different vertex sets")
    return supp_complex(module).faces <= k.faces


def annihilated_by_monomial_power(module: GradedPresentation, face: Iterable[int]) -> bool:
    """Nilpotence oracle: does a power of prod_{i in face} t_i kill M?

    Equivalent to the localization at the face's variables vanishing.  Checks
    whether multiplication by the monomial to the power
    1 + max(stabilization bound) is the zero map from every slice in the
    bound box; if that power does not kill the module no power does.  The
    empty face's monomial is 1: the step is zero and the walk checks that
    every slice vanishes.  This box walk is the route independent of
    `supp_complex`, which reads generator degrees; the box is held to
    `degrees.MAX_BOX_DEGREES` degrees.  It visits only the degrees whose
    coordinates are generator coordinates: below an axis's least generator
    coordinate the slice is 0, and if f is d's floor on that grid then
    M(f) -> M(d) is onto, so a nonzero M(d) -> M(d + step) gives a nonzero
    M(f) -> M(d + step), which factors through M(f) -> M(f + step).
    """
    m = module.m
    face = frozenset(int(i) for i in face)
    if any(v < 1 or v > m for v in face):
        raise PreconditionError(f"face {sorted(face)} outside 1..{m}")
    bound = module.stabilization_bound()
    dg.require_box_budget(bound)
    power = 1 + max(bound, default=0)
    step = tuple(power if (i + 1) in face else 0 for i in range(m))
    grid = product(*(sorted({d[i] for d in module.gen_degrees}) for i in range(m)))
    # a zero slice maps to zero: skipping it builds no target slice
    return not any(
        module.dim_at(d) and not module.transition(d, dg.add(d, step)).is_zero()
        for d in grid
    )


def in_kernel_by_nilpotence(module: GradedPresentation, k: SimplicialComplex) -> bool:
    """Oracle route: every missing face's monomial acts nilpotently on M.

    Only the minimal missing faces are walked, in `face_sort_key` order:
    every missing face contains a minimal one, and a power of the smaller
    face's monomial divides one of the larger's, so it kills M too.
    """
    if module.m != k.m:
        raise PreconditionError("module and complex have different vertex sets")
    return all(
        annihilated_by_monomial_power(module, f)
        for f in sorted(minimal_missing_faces(k), key=face_sort_key)
    )


class SimpleDescriptor(Record):
    """Labels one simple object: a minimal missing face and a degree shift."""

    __slots__ = ("sigma", "shift")


def simples(k: SimplicialComplex, fld: Field = DEFAULT_FIELD) -> list[tuple[SimpleDescriptor, GradedPresentation]]:
    """One simple per minimal missing face, with a module realizing it.

    The realization (`_cyclic`, unchecked) is the cyclic module killed by every
    variable outside the face; inverting the face's variables leaves the
    one-dimensional simple.
    """
    m = k.m
    return [
        (SimpleDescriptor(tuple(sorted(f)), dg.zero(m)), _cyclic(m, fld, [{v} for v in range(1, m + 1) if v not in f]))
        for f in sorted(minimal_missing_faces(k), key=face_sort_key)
    ]


def enumerate_complexes(m: int) -> Iterator[SimplicialComplex]:
    """Every downward-closed family on {1..m}, grown face by face.

    The faces are decided in `face_sort_key` order, each left out before it
    is put in, and a face is put in only when all its facets are; so the
    empty complex comes first and the full simplex last.  Fine for m <= 4.
    """
    if m > 4:
        raise PreconditionError("exhaustive enumeration supported for m <= 4")
    _require_variable_budget(m)
    order = list(_subsets(range(1, m + 1)))

    def grow(i: int, faces: frozenset[Face]) -> Iterator[SimplicialComplex]:
        if i == len(order):
            yield SimplicialComplex(m, faces)
            return
        face = order[i]
        yield from grow(i + 1, faces)
        if all(face - {v} in faces for v in face):
            yield from grow(i + 1, faces | {face})

    yield from grow(0, frozenset())


def random_complex(seed: int, m: int) -> SimplicialComplex:
    """Seeded random complex: sample faces, then close downward."""
    _require_variable_budget(m)
    rng = random.Random(("complex", seed, m).__repr__())
    faces: set[Face] = set()
    for face in _subsets(range(1, m + 1)):
        if rng.random() < 0.5 / (1 + len(face)):
            faces.update(_subsets(face))
    return SimplicialComplex(m, frozenset(faces))
