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

m may be 0 (every variable inverted, see `localization.localize`): one vector
space at degree ().  Module files and `random_presentation` still need m >= 1.

A presentation is checked once, where it enters: `GradedPresentation.build`,
and `PresentationMap.build` for a map.  The constructors trust their fields,
so derived modules (shifts, sums, cokernels, localizations, reconstructions,
face rings, simples) are built without checking again.

M(d) depends only on the eligible set, the presentation degrees at or below d.
The first slice compares d with each degree; from the second on, one `bisect`
per axis of the module's critical-value grid gives the set.  Slices, the only
cache, are built once per eligible set, not per degree.  A transition matrix
is rebuilt from the two cached slices on each call, so callers that need one
(a, b) repeatedly ask for it once.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from itertools import accumulate

from . import degrees as dg
from .degrees import Degree
from .errors import AmbientMismatchError, DegreeOrderError, HomogeneityError, PreconditionError
from .fields import DEFAULT_FIELD, Field, Matrix, Record, Subspace


class _Slice(Record):
    """Canonical data of one graded piece M(d): `gens` are the eligible
    generator indices, ascending, and `positions` maps each to its place in
    `gens`; reducing a vector of `gens` positions by `relations`, the span of
    the eligible relation columns, leaves its coordinates at the non-pivot
    positions `coords`, the canonical basis."""

    __slots__ = ("gens", "positions", "coords", "relations")

    @property
    def dim(self) -> int:
        return len(self.coords)


class GradedPresentation(Record):
    """A presented module.  The constructor trusts its fields: outside data
    enters through `build`, which checks it, and `shift`, `direct_sum`,
    `PresentationMap.cokernel` and `localization.localize` build from modules
    already checked.  `_slices` caches each slice by the bitmask of its
    eligible generators and relations.  `_grid`, set at the second slice request,
    holds the full mask and, per axis, the sorted distinct degree coordinates,
    each with the mask of the degrees at or below it."""

    __slots__ = ("m", "field", "gen_degrees", "rel_degrees", "rel_coeffs", "_slices", "_grid")

    def __init__(self, m: int, field: Field, gen_degrees: tuple, rel_degrees: tuple, rel_coeffs: Matrix) -> None:
        super().__init__(m, field, gen_degrees, rel_degrees, rel_coeffs)
        object.__setattr__(self, "_slices", {})

    @classmethod
    def build(cls, m, fld, gen_degrees, relations) -> "GradedPresentation":
        """Construct from degree lists; relations are (degree, coeff row) pairs.

        The one check of outside input: the coefficients are coerced into the
        field, then the row lengths, m >= 0, nonnegative degrees and
        homogeneity (generator-major) are checked, in that order.
        """
        gen_degrees = tuple(dg.as_degree(d, m) for d in gen_degrees)
        rel_degrees = tuple(dg.as_degree(d, m) for d, _ in relations)
        cols = [[fld.coerce(x) for x in c] for _, c in relations]
        if any(len(c) != len(gen_degrees) for c in cols):
            raise AmbientMismatchError("relation coefficient vector length mismatch")
        if m < 0:
            raise PreconditionError("need a nonnegative number of variables")
        for d in gen_degrees + rel_degrees:
            if not dg.is_nonnegative(d):
                raise PreconditionError(f"negative degree {d}")
        for i, gd in enumerate(gen_degrees):
            for j, rd in enumerate(rel_degrees):
                if cols[j][i] != 0 and not dg.leq(gd, rd):
                    raise HomogeneityError(
                        f"relation {j} (degree {rd}) has a coefficient on "
                        f"generator {i} (degree {gd}) but {gd} is not <= {rd}"
                    )
        return cls(m, fld, gen_degrees, rel_degrees, Matrix.from_cols(fld, len(gen_degrees), cols))

    @property
    def num_gens(self) -> int:
        return len(self.gen_degrees)

    @property
    def num_rels(self) -> int:
        return len(self.rel_degrees)

    # -- slices -----------------------------------------------------------

    def _critical_grid(self) -> tuple:
        degrees = self.gen_degrees + self.rel_degrees
        axes = []
        for coords in zip(*degrees):  # none when m = 0 (every mask full) or there are no degrees (every mask 0)
            bits = dict.fromkeys(sorted(coords), 0)
            for k, x in enumerate(coords):
                bits[x] |= 1 << k
            axes.append((tuple(bits), tuple(accumulate(bits.values(), operator.or_, initial=0))))
        object.__setattr__(self, "_grid", ((1 << len(degrees)) - 1, tuple(axes)))
        return self._grid

    def _slice(self, d: Degree) -> _Slice:
        if not self._slices:  # a module sliced once, as `decompose` slices each input, builds no grid
            mask, axes = sum(1 << k for k, e in enumerate(self.gen_degrees + self.rel_degrees) if dg.leq(e, d)), ()
        else:
            mask, axes = getattr(self, "_grid", None) or self._critical_grid()
        for x, (values, masks) in zip(d, axes):
            mask &= masks[bisect_right(values, x)]
        cached = self._slices.get(mask)
        if cached is not None:
            return cached
        ng, bits = len(self.gen_degrees), format(mask, "b")[::-1]  # bit k at index k
        gens = tuple(i for i, b in enumerate(bits[:ng]) if b == "1")
        rows = [self.rel_coeffs.entries[i] for i in gens]
        cols = [[row[j] for row in rows] for j, b in enumerate(bits[ng:]) if b == "1"]
        relations = Subspace.span(self.field, len(gens), cols)
        coords = tuple(sorted(set(range(len(gens))).difference(relations.pivots)))
        sl = self._slices[mask] = _Slice(gens, dict(zip(gens, range(len(gens)))), coords, relations)
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
        return self._slice(dg.as_nonnegative(d, self.m)).dim

    def transition(self, a, b) -> Matrix:
        """Multiplication by t^(b-a) in the canonical slice bases."""
        a = dg.as_nonnegative(a, self.m)
        b = dg.as_degree(b, self.m)
        if not dg.leq(a, b):
            raise DegreeOrderError(f"{a} is not <= {b}")
        sa = self._slice(a)
        one = self.field.one
        cols = [self._slice_coords(b, [(sa.gens[k], one)]) for k in sa.coords]
        return Matrix.from_cols(self.field, self._slice(b).dim, cols)

    def rank_invariant(self, a, b) -> int:
        """Rank of M(a) -> M(b): the rank of `transition(a, b)`, or dim M(a) for the identity at a = b."""
        a = dg.as_degree(a, self.m)
        if a == dg.as_degree(b, self.m):
            return self.dim_at(a)
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
        e = dg.as_nonnegative(e, self.m, "shift")
        return GradedPresentation(
            self.m,
            self.field,
            tuple(dg.add(d, e) for d in self.gen_degrees),
            tuple(dg.add(d, e) for d in self.rel_degrees),
            self.rel_coeffs,
        )


def direct_sum(first: GradedPresentation, *rest: GradedPresentation) -> GradedPresentation:
    """The direct sum of the presentations, built in one pass."""
    if any(p.m != first.m or p.field != first.field for p in rest):
        raise AmbientMismatchError("direct sum needs matching m and field")
    parts = (first, *rest)
    return GradedPresentation(
        first.m,
        first.field,
        tuple(d for p in parts for d in p.gen_degrees),
        tuple(d for p in parts for d in p.rel_degrees),
        first.rel_coeffs.direct_sum(*(p.rel_coeffs for p in rest)),
    )


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


class PresentationMap(Record):
    """A degree-preserving map between presented modules.

    `coeffs` has one row per target generator and one column per source
    generator: source generator j is sent to sum_i coeffs[i][j] *
    t^(srcdeg_j - tgtdeg_i) * (target generator i).  The constructor trusts
    its fields: a map from outside data enters through `build`, which checks
    the degree condition and that every source relation lands in the target's
    relation span, so the map is well defined.
    """

    __slots__ = ("source", "target", "coeffs")

    @classmethod
    def build(cls, source: GradedPresentation, target: GradedPresentation, coeffs: Matrix) -> "PresentationMap":
        """Check outside data: ambients, shape, field, degrees (target-major), then each source relation."""
        if source.m != target.m or source.field != target.field:
            raise AmbientMismatchError("map endpoints over different ambients")
        if coeffs.nrows != target.num_gens or coeffs.ncols != source.num_gens:
            raise AmbientMismatchError("map coefficient matrix shape mismatch")
        if coeffs.field != source.field:
            raise AmbientMismatchError("map coefficients over wrong field")
        for i, td in enumerate(target.gen_degrees):
            for j, sd in enumerate(source.gen_degrees):
                if coeffs.entries[i][j] != 0 and not dg.leq(td, sd):
                    raise HomogeneityError(
                        f"map hits target generator {i} (degree {td}) from "
                        f"source generator {j} (degree {sd}) but {td} is not <= {sd}"
                    )
        # well defined: each source relation must map into the relation span
        # of the target at its own degree.
        for j, rd in enumerate(source.rel_degrees):
            img = coeffs.apply(source.rel_coeffs.col(j))
            coords = target._slice_coords(rd, [(i, x) for i, x in enumerate(img) if x != 0])
            if coords is None or any(x != 0 for x in coords):
                raise HomogeneityError(
                    f"source relation {j} (degree {rd}) does not map into the "
                    "target relation span; the map is not well defined"
                )
        return cls(source, target, coeffs)

    @property
    def m(self) -> int:
        return self.source.m

    @property
    def field(self) -> Field:
        return self.source.field

    def slice_matrix(self, d) -> Matrix:
        """The induced map on canonical slices at degree d."""
        d = dg.as_nonnegative(d, self.m)
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
