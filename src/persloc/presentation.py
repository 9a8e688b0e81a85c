"""Finitely presented N^m-graded modules over k[t_1, ..., t_m].

A module is stored as a presentation: generator degrees, relation degrees, and
a scalar coefficient matrix (rows = generators, columns = relations).  The
monomial factor t^(rel_degree - gen_degree) is implicit, so homogeneity means a
nonzero coefficient forces gen_degree <= rel_degree componentwise.

Each graded slice M(d) is the span of generators with degree <= d modulo the
columns of relations with degree <= d.  Slices carry a canonical coset basis:
column-reduce the eligible relation submatrix and keep the non-pivot generator
coordinates.  Transition maps between comparable degrees are written in those
bases, which makes them strictly functorial (composition holds on the nose).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import degrees as dg
from .degrees import Degree
from .errors import AmbientMismatchError, DegreeOrderError, HomogeneityError, PreconditionError
from .fields import DEFAULT_FIELD, Echelon, Field, Matrix, Subspace, _rref


@dataclass(frozen=True)
class _Slice:
    """Canonical data of one graded piece M(d)."""

    gens: tuple[int, ...]        # eligible generator indices, ascending
    positions: dict              # generator index -> its position in `gens`
    coords: tuple[int, ...]      # non-pivot positions: the canonical basis
    relations: Echelon           # reduced-column-echelon relation columns

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class GradedPresentation:
    m: int
    field: Field
    gen_degrees: tuple[Degree, ...]
    rel_degrees: tuple[Degree, ...]
    rel_coeffs: Matrix
    _slices: dict = field(default_factory=dict, compare=False, repr=False)
    _transitions: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise PreconditionError("need at least one variable")
        for d in self.gen_degrees + self.rel_degrees:
            if len(d) != self.m:
                raise AmbientMismatchError(f"degree {d} has wrong length")
            if not dg.is_nonnegative(d):
                raise PreconditionError(f"negative degree {d}")
        if self.rel_coeffs.nrows != len(self.gen_degrees) or self.rel_coeffs.ncols != len(self.rel_degrees):
            raise AmbientMismatchError("coefficient matrix shape mismatch")
        if self.rel_coeffs.field != self.field:
            raise AmbientMismatchError("coefficient matrix over wrong field")
        for i, gd in enumerate(self.gen_degrees):
            for j, rd in enumerate(self.rel_degrees):
                if self.rel_coeffs.entries[i][j] != 0 and not dg.leq(gd, rd):
                    raise HomogeneityError(
                        f"relation {j} (degree {rd}) has a coefficient on "
                        f"generator {i} (degree {gd}) but {gd} is not <= {rd}"
                    )

    @classmethod
    def build(cls, m, fld, gen_degrees, relations) -> "GradedPresentation":
        """Construct from degree lists; relations are (degree, coeff row) pairs.

        The coefficients are outside input: they are coerced into the field.
        """
        gen_degrees = tuple(dg.as_degree(d, m) for d in gen_degrees)
        rel_degrees = tuple(dg.as_degree(d, m) for d, _ in relations)
        cols = [[fld.coerce(x) for x in c] for _, c in relations]
        if any(len(c) != len(gen_degrees) for c in cols):
            raise AmbientMismatchError("relation coefficient vector length mismatch")
        mat = Matrix.from_cols(fld, len(gen_degrees), cols)
        return cls(m, fld, gen_degrees, rel_degrees, mat)

    @property
    def num_gens(self) -> int:
        return len(self.gen_degrees)

    @property
    def num_rels(self) -> int:
        return len(self.rel_degrees)

    def is_zero(self) -> bool:
        return self.num_gens == 0

    # -- slices -----------------------------------------------------------

    def _slice(self, d: Degree) -> _Slice:
        cached = self._slices.get(d)
        if cached is not None:
            return cached
        gens = tuple(i for i, gd in enumerate(self.gen_degrees) if dg.leq(gd, d))
        rels = [j for j, rd in enumerate(self.rel_degrees) if dg.leq(rd, d)]
        # reduced column echelon of the eligible relation block: run row
        # reduction on its transpose, deterministically.
        rows = [[self.rel_coeffs.entries[i][j] for i in gens] for j in rels]
        rows, pivots = _rref(self.field, rows, len(gens))
        pivot_set = set(pivots)
        coords = tuple(k for k in range(len(gens)) if k not in pivot_set)
        positions = {g: k for k, g in enumerate(gens)}
        sl = _Slice(gens, positions, coords, Echelon(self.field, rows[: len(pivots)], pivots))
        self._slices[d] = sl
        return sl

    def _slice_coords(self, d: Degree, terms) -> list | None:
        """Canonical coordinates at d of the sum of c * (generator g) over (g, c) in terms.

        The vector is reduced modulo the relations present at d, then read off
        the canonical basis positions.  None when some generator is not yet
        present at d.
        """
        sl = self._slice(d)
        vec = [self.field.zero] * len(sl.gens)
        for g, c in terms:
            k = sl.positions.get(g)
            if k is None:
                return None
            vec[k] = c
        red = sl.relations.reduce(vec)
        return [red[k] for k in sl.coords]

    def dim_at(self, d) -> int:
        d = dg.as_degree(d, self.m)
        if not dg.is_nonnegative(d):
            raise PreconditionError(f"degree {d} not in N^{self.m}")
        return self._slice(d).dim

    def transition(self, a, b) -> Matrix:
        """Multiplication by t^(b-a) in the canonical slice bases."""
        a = dg.as_degree(a, self.m)
        b = dg.as_degree(b, self.m)
        if not dg.is_nonnegative(a):
            raise PreconditionError(f"degree {a} not in N^{self.m}")
        if not dg.leq(a, b):
            raise DegreeOrderError(f"{a} is not <= {b}")
        key = (a, b)
        cached = self._transitions.get(key)
        if cached is not None:
            return cached
        sa = self._slice(a)
        one = self.field.one
        cols = [self._slice_coords(b, [(sa.gens[k], one)]) for k in sa.coords]
        mat = Matrix.from_cols(self.field, self._slice(b).dim, cols)
        self._transitions[key] = mat
        return mat

    def rank_invariant(self, a, b) -> int:
        """Rank of M(a) -> M(b): the rank of the cached `transition(a, b)`."""
        return self.transition(a, b).rank()

    def slice_image(self, a, b) -> Subspace:
        """Image of M(a) -> M(b) as a subspace of the canonical slice at b."""
        t = self.transition(a, b)
        return t.image()

    def stabilization_bound(self) -> Degree:
        """Componentwise max of all presentation degrees (0 if none).

        Transitions between degrees at or past this bound are isomorphisms,
        and more finely: bumping one coordinate already at or past its bound
        changes nothing.
        """
        out = dg.zero(self.m)
        for d in self.gen_degrees + self.rel_degrees:
            out = dg.join(out, d)
        return out

    # -- constructions ----------------------------------------------------

    def shift(self, e) -> "GradedPresentation":
        e = dg.as_degree(e, self.m)
        if not dg.is_nonnegative(e):
            raise PreconditionError(f"shift {e} not in N^{self.m}")
        return GradedPresentation(
            self.m,
            self.field,
            tuple(dg.add(d, e) for d in self.gen_degrees),
            tuple(dg.add(d, e) for d in self.rel_degrees),
            self.rel_coeffs,
        )

    def direct_sum(self, other: "GradedPresentation") -> "GradedPresentation":
        if other.m != self.m or other.field != self.field:
            raise AmbientMismatchError("direct sum needs matching m and field")
        g1, g2 = self.num_gens, other.num_gens
        r1, r2 = self.num_rels, other.num_rels
        zero = self.field.zero
        rows = []
        for i in range(g1):
            rows.append(tuple(self.rel_coeffs.entries[i]) + (zero,) * r2)
        for i in range(g2):
            rows.append((zero,) * r1 + tuple(other.rel_coeffs.entries[i]))
        mat = Matrix(self.field, g1 + g2, r1 + r2, tuple(rows))
        return GradedPresentation(
            self.m,
            self.field,
            self.gen_degrees + other.gen_degrees,
            self.rel_degrees + other.rel_degrees,
            mat,
        )


def direct_sum(first: GradedPresentation, *rest: GradedPresentation) -> GradedPresentation:
    out = first
    for nxt in rest:
        out = out.direct_sum(nxt)
    return out


def zero_module(m: int, fld: Field = DEFAULT_FIELD) -> GradedPresentation:
    return GradedPresentation.build(m, fld, [], [])


def free_module(m: int, gen_degree, fld: Field = DEFAULT_FIELD) -> GradedPresentation:
    return GradedPresentation.build(m, fld, [dg.as_degree(gen_degree, m)], [])


def random_presentation(
    seed: int,
    m: int = 2,
    max_gens: int = 5,
    max_rels: int = 8,
    max_degree: int = 6,
    fld: Field = DEFAULT_FIELD,
) -> GradedPresentation:
    """Deterministic random presentation; homogeneous by construction."""
    if m < 1 or max_gens < 0 or max_rels < 0 or max_degree < 0:
        raise PreconditionError("parameter ranges must be nonempty")
    rng = random.Random(("presentation", seed, m, max_gens, max_rels, max_degree, fld.char).__repr__())
    n_gens = rng.randint(0, max_gens)
    n_rels = rng.randint(0, max_rels) if n_gens else 0
    gen_degrees = [
        tuple(rng.randint(0, max_degree) for _ in range(m)) for _ in range(n_gens)
    ]
    relations = []
    for _ in range(n_rels):
        rd = tuple(rng.randint(0, max_degree) for _ in range(m))
        col = []
        for gdeg in gen_degrees:
            if dg.leq(gdeg, rd):
                if fld.char == 0:
                    col.append(rng.randint(-4, 4))
                else:
                    col.append(rng.randrange(fld.char))
            else:
                col.append(0)
        relations.append((rd, col))
    return GradedPresentation.build(m, fld, gen_degrees, relations)


@dataclass(frozen=True)
class PresentationMap:
    """A degree-preserving map between presented modules.

    `coeffs` has one row per target generator and one column per source
    generator: source generator j is sent to sum_i coeffs[i][j] *
    t^(srcdeg_j - tgtdeg_i) * (target generator i).  Construction checks the
    degree condition and that every source relation lands in the target's
    relation span, so the map is well defined.
    """

    source: GradedPresentation
    target: GradedPresentation
    coeffs: Matrix

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        if src.m != tgt.m or src.field != tgt.field:
            raise AmbientMismatchError("map endpoints over different ambients")
        if self.coeffs.nrows != tgt.num_gens or self.coeffs.ncols != src.num_gens:
            raise AmbientMismatchError("map coefficient matrix shape mismatch")
        if self.coeffs.field != src.field:
            raise AmbientMismatchError("map coefficients over wrong field")
        for i, td in enumerate(tgt.gen_degrees):
            for j, sd in enumerate(src.gen_degrees):
                if self.coeffs.entries[i][j] != 0 and not dg.leq(td, sd):
                    raise HomogeneityError(
                        f"map hits target generator {i} (degree {td}) from "
                        f"source generator {j} (degree {sd}) but {td} is not <= {sd}"
                    )
        # well defined: each source relation must map into the relation span
        # of the target at its own degree.
        for j, rd in enumerate(src.rel_degrees):
            img = self.coeffs.apply(src.rel_coeffs.col(j))
            coords = tgt._slice_coords(rd, [(i, x) for i, x in enumerate(img) if x != 0])
            if coords is None or any(x != 0 for x in coords):
                raise HomogeneityError(
                    f"source relation {j} (degree {rd}) does not map into the "
                    "target relation span; the map is not well defined"
                )

    @property
    def m(self) -> int:
        return self.source.m

    @property
    def field(self) -> Field:
        return self.source.field

    def slice_matrix(self, d) -> Matrix:
        """The induced map on canonical slices at degree d."""
        d = dg.as_degree(d, self.m)
        ss = self.source._slice(d)
        cols = []
        for k in ss.coords:
            image = self.coeffs.col(ss.gens[k])
            cols.append(self.target._slice_coords(d, [(i, x) for i, x in enumerate(image) if x != 0]))
        return Matrix.from_cols(self.field, self.target._slice(d).dim, cols)

    def cokernel(self) -> GradedPresentation:
        """Target modulo the image: adjoin one relation per source generator."""
        tgt, src = self.target, self.source
        rel_degrees = tgt.rel_degrees + src.gen_degrees
        cols = [list(tgt.rel_coeffs.col(j)) for j in range(tgt.num_rels)]
        cols += [list(self.coeffs.col(j)) for j in range(src.num_gens)]
        mat = Matrix.from_cols(tgt.field, tgt.num_gens, cols)
        return GradedPresentation(tgt.m, tgt.field, tgt.gen_degrees, rel_degrees, mat)
