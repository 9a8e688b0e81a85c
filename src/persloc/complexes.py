"""Simplicial complexes on the variable set and module support.

A subset sigma of {1..m} is in the support of M when inverting the variables
in sigma leaves a nonzero module; the collection of such subsets is downward
closed, so it is an abstract simplicial complex (possibly empty, possibly
containing only the empty face: the two are different and both matter).

Face rings realize every complex as a module support; minimal missing faces
index both the Stanley-Reisner relations and the simple objects left after
killing the torsion part.  Iterating `serre_step` (adjoin the minimal missing
faces) measures how far a complex sits from the full simplex; the count is
one more than the dimension-style invariant `kdim`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from . import degrees as dg
from .errors import PreconditionError
from .fields import DEFAULT_FIELD, Field
from .presentation import GradedPresentation

Face = frozenset[int]

# most variables a complex or a support computation may have: both visit all
# 2^m subsets of the variables
MAX_VARIABLES = 12


def _require_variable_budget(m: int) -> None:
    if m > MAX_VARIABLES:
        raise PreconditionError(
            f"m = {m} is more than {MAX_VARIABLES} variables; the 2^m subsets are out of budget"
        )


def _face(vertices: Iterable[int]) -> Face:
    return frozenset(int(v) for v in vertices)


def face_sort_key(face: Face) -> tuple:
    return (len(face), tuple(sorted(face)))


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of subsets of {1..m}.

    `faces` empty is the empty complex; `faces = {frozenset()}` is the
    one-point family containing only the empty face.  Both are valid and are
    distinct objects.
    """

    m: int
    faces: frozenset[Face]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise PreconditionError("need at least one vertex slot")
        _require_variable_budget(self.m)
        for f in self.faces:
            if any(v < 1 or v > self.m for v in f):
                raise PreconditionError(f"face {sorted(f)} outside 1..{self.m}")
            for v in f:
                if f - {v} not in self.faces:
                    raise PreconditionError(
                        f"family is not downward closed: {sorted(f)} present, "
                        f"{sorted(f - {v})} missing"
                    )

    @classmethod
    def make(cls, m: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return cls(m, frozenset(_face(f) for f in faces))

    def sorted_faces(self) -> list[Face]:
        return sorted(self.faces, key=face_sort_key)

    def missing_faces(self) -> list[Face]:
        out = []
        for r in range(self.m + 1):
            for comb in combinations(range(1, self.m + 1), r):
                f = frozenset(comb)
                if f not in self.faces:
                    out.append(f)
        return out

    def is_full(self) -> bool:
        return len(self.faces) == 2 ** self.m

    def __contains__(self, face) -> bool:
        return _face(face) in self.faces


def empty_complex(m: int) -> SimplicialComplex:
    return SimplicialComplex(m, frozenset())


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
    if i == -2:
        return empty_complex(m)
    faces = [
        frozenset(comb)
        for r in range(0, i + 2)
        for comb in combinations(range(1, m + 1), r)
    ]
    return SimplicialComplex(m, frozenset(faces))


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


def face_ring(
    k: SimplicialComplex, fld: Field = DEFAULT_FIELD, all_missing: bool = False
) -> GradedPresentation:
    """Cyclic module with one squarefree monomial relation per missing face.

    By default only the minimal missing faces appear (the rest are redundant);
    `all_missing` adds every missing face.  The empty complex yields the zero
    quotient: its missing empty face contributes the relation 1 = 0 in
    degree 0.
    """
    m = k.m
    missing = k.missing_faces() if all_missing else sorted(minimal_missing_faces(k), key=face_sort_key)
    relations = []
    for f in missing:
        deg = tuple(1 if v in f else 0 for v in range(1, m + 1))
        relations.append((deg, [1]))
    return GradedPresentation.build(m, fld, [dg.zero(m)], relations)


def supp_complex(module: GradedPresentation) -> SimplicialComplex:
    """All sigma whose localization is nonzero, as a simplicial complex.

    Nonvanishing is decided by a finite box test: pin the sigma-coordinates at
    the stabilization bound and look for a nonzero slice with the remaining
    coordinates inside the bound box (slices are constant past the bound in
    each single coordinate, so the box is exhaustive).
    """
    m = module.m
    _require_variable_budget(m)
    bound = module.stabilization_bound()
    faces = []
    for r in range(m + 1):
        for comb in combinations(range(1, m + 1), r):
            sigma = frozenset(comb)
            free = [i for i in range(1, m + 1) if i not in sigma]
            limit = tuple(bound[i - 1] for i in free)
            hit = False
            for point in dg.box(limit):
                d = list(bound)
                for pos, i in enumerate(free):
                    d[i - 1] = point[pos]
                if module.dim_at(tuple(d)):
                    hit = True
                    break
            if hit:
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
    empty face's monomial is 1, which is nilpotent only on the zero module.
    """
    m = module.m
    face = frozenset(int(i) for i in face)
    if any(v < 1 or v > m for v in face):
        raise PreconditionError(f"face {sorted(face)} outside 1..{m}")
    if not face:
        return module.is_zero()
    bound = module.stabilization_bound()
    power = 1 + max(bound)
    step = tuple(power if (i + 1) in face else 0 for i in range(m))
    for d in dg.box(bound):
        target = dg.add(d, step)
        if not module.transition(d, target).is_zero():
            return False
    return True


def in_kernel_by_nilpotence(module: GradedPresentation, k: SimplicialComplex) -> bool:
    """Oracle route: every missing face's monomial acts nilpotently on M."""
    if module.m != k.m:
        raise PreconditionError("module and complex have different vertex sets")
    return all(
        annihilated_by_monomial_power(module, f) for f in k.missing_faces()
    )


@dataclass(frozen=True)
class SimpleDescriptor:
    """Labels one simple object: a minimal missing face and a degree shift."""

    sigma: tuple[int, ...]
    shift: tuple[int, ...]


def simples(k: SimplicialComplex, fld: Field = DEFAULT_FIELD) -> list[tuple[SimpleDescriptor, GradedPresentation]]:
    """One simple per minimal missing face, with a module realizing it.

    The realization is the cyclic module killed by every variable outside the
    face; inverting the face's variables leaves the one-dimensional simple.
    """
    m = k.m
    out = []
    for f in sorted(minimal_missing_faces(k), key=face_sort_key):
        relations = []
        for v in range(1, m + 1):
            if v not in f:
                relations.append((dg.axis_unit(m, v), [1]))
        module = GradedPresentation.build(m, fld, [dg.zero(m)], relations)
        out.append((SimpleDescriptor(tuple(sorted(f)), dg.zero(m)), module))
    return out


def enumerate_complexes(m: int) -> Iterator[SimplicialComplex]:
    """Every downward-closed family on {1..m}, ascending by face-set bitmap.

    Brute force over all 2^(2^m) candidate families; fine for m <= 4.
    """
    if m > 4:
        raise PreconditionError("exhaustive enumeration supported for m <= 4")
    nfaces = 1 << m
    required = []
    for face_bits in range(nfaces):
        need = 0
        for v in range(m):
            if face_bits & (1 << v):
                need |= 1 << (face_bits & ~(1 << v))
        required.append(need)
    for family in range(1 << nfaces):
        ok = True
        probe = family
        while probe:
            face_bits = (probe & -probe).bit_length() - 1
            need = required[face_bits]
            if family & need != need:
                ok = False
                break
            probe &= probe - 1
        if ok:
            faces = [
                frozenset(v + 1 for v in range(m) if face_bits & (1 << v))
                for face_bits in range(nfaces)
                if family & (1 << face_bits)
            ]
            yield SimplicialComplex(m, frozenset(faces))


def random_complex(seed: int, m: int) -> SimplicialComplex:
    """Seeded random complex: sample faces, then close downward."""
    rng = random.Random(("complex", seed, m).__repr__())
    faces: set[Face] = set()
    for r in range(m + 1):
        for comb in combinations(range(1, m + 1), r):
            if rng.random() < 0.5 / (1 + r):
                face = frozenset(comb)
                for size in range(len(face) + 1):
                    faces.update(frozenset(s) for s in combinations(sorted(face), size))
    return SimplicialComplex(m, frozenset(faces))
