"""Strip-and-quadrant structure of two-parameter modules, up to finite pieces.

After inverting variables, every finitely presented two-parameter module
splits uniquely into vertical strips (born at a, killed at b along axis 1,
free along axis 2), horizontal strips (the mirror), and free quadrants.
`decompose` reads all three off the presentation in two passes of the one
persistence column reduction of `localization`, over relation columns built
once: the strips are the finite bars of each axis's pass, and the quadrants
the lows of the generators, reduced at the end of the axis-2 pass against
every relation.  The slice routes are independent: `localized_barcode` for
the strips, and `quadrant_corners`, inclusion-exclusion over the
intersections of the two bifiltration images in the stable corner slice, for
the corners.

Also here: the fiber-product dimension of the two single-axis localizations
over the corner (detects modules the decomposition glues differently), an
intersection refinement of the rank invariant, and a solver deciding whether
a localized epimorphism admits a compatible pair of sections, from sparse
linear equations solved by `fields.solve`.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from . import complexes
from . import degrees as dg
from .degrees import Degree
from .errors import DecompositionError, DegreeOrderError, NotLocallyEpicError, PreconditionError
from .fields import Field, Matrix, Record, Subspace, reduced_rows, solve
from .localization import canonical_bars, presentation_bars
from .presentation import GradedPresentation, PresentationMap

Corners = tuple[tuple[Degree, int], ...]


def _require_two_params(module: GradedPresentation) -> None:
    if module.m != 2:
        raise PreconditionError(f"operation needs m = 2, module has m = {module.m}")


class Decomposition(Record):
    """Canonical multiset data: two strip families plus quadrant corners."""

    __slots__ = ("vertical", "horizontal", "quadrants")


def intersection_table(module: GradedPresentation, dmax: int | None = None, emax: int | None = None) -> list[list[int]]:
    """I[d][e] = dim of the intersection of the two bifiltration images.

    The bifiltration is v1[d] = im M(d, B2) -> M(B1, B2) and v2[e] = im
    M(B1, e) -> M(B1, B2); both chains must increase to the whole corner.
    Entries beyond the stabilization bound repeat the boundary row/column
    (the images are already everything), so tables of two modules can be
    compared on a common grid.
    """
    _require_two_params(module)
    b1, b2 = module.stabilization_bound()
    if dmax is None:
        dmax = b1
    if emax is None:
        emax = b2
    dg.require_box_budget((dmax, emax))
    corner = (b1, b2)
    ambient = module.dim_at(corner)
    v1 = [module.slice_image((d, b2), corner) for d in range(b1 + 1)]
    v2 = [module.slice_image((b1, e), corner) for e in range(b2 + 1)]
    for chain in (v1, v2):
        if not all(later.contains(earlier) for earlier, later in zip(chain, chain[1:])):
            raise DecompositionError("bifiltration images fail to increase")
        if chain[-1].dim != ambient:
            raise DecompositionError("bifiltration does not exhaust the corner")
    table = []
    for d in range(dmax + 1):
        u = v1[min(d, b1)]
        row = []
        for e in range(emax + 1):
            w = v2[min(e, b2)]
            # dim(U cap W) via the lattice identity; cheaper than a basis.
            row.append(u.dim + w.dim - u.plus(w).dim)
        table.append(row)
    return table


def quadrant_corners(module: GradedPresentation) -> Corners:
    """Corner multiset by inclusion-exclusion over the intersection table."""
    table = intersection_table(module)
    corners: list[tuple[Degree, int]] = []
    total = 0
    for d in range(len(table)):
        for e in range(len(table[0])):
            i_de = table[d][e]
            i_d1e = table[d - 1][e] if d else 0
            i_de1 = table[d][e - 1] if e else 0
            i_d1e1 = table[d - 1][e - 1] if d and e else 0
            mult = i_de - i_d1e - i_de1 + i_d1e1
            if mult < 0:
                raise DecompositionError(
                    f"negative corner multiplicity {mult} at ({d}, {e}); "
                    "the bifiltration images are not jointly diagonal"
                )
            if mult:
                corners.append(((d, e), mult))
                total += mult
    bound = module.stabilization_bound()
    if total != module.dim_at(bound):
        raise DecompositionError(
            f"corner multiplicities sum to {total}, stable corner has "
            f"dimension {module.dim_at(bound)}"
        )
    return tuple(corners)


def decompose(module: GradedPresentation) -> Decomposition:
    """Full strip/quadrant data of the module after inverting variables.

    Read off the presentation by two passes of the persistence column
    reduction behind `barcode_by_reduction`, over relation columns built
    once.  Axis i: its strips are the bounded bars of its pass, merged and
    sorted by one `canonical_bars` call.  Corners: the
    axis-2 pass goes on past the relations to the unit vectors e_g in
    (deg_1, index) order, and one with low h is a quadrant at
    (deg_1 g, deg_2 h).  The relations enter that pass in (deg_2, index)
    order, not in index order, and no corner moves: a unit column's low is
    the one low that the span of the columns up to it has and the span of
    the columns before it lacks, and the lows of a reduced basis are an
    invariant of its span.  The corner count is checked against the stable
    corner's dimension, reached through the slices.
    """
    _require_two_params(module)
    bound = module.stabilization_bound()
    # the bound's own box is never larger than the larger of these squares
    for limit in ((bound[0],) * 2, (bound[1],) * 2):
        dg.require_box_budget(limit)
    fld, gens, rels = module.field, module.gen_degrees, module.rel_degrees
    entries = zip(*module.rel_coeffs.entries) if gens else [()] * len(rels)
    columns = [[(g, x) for g, x in enumerate(col) if x != 0] for col in entries]
    axes = [([d[i] for d in gens], [d[i] for d in rels]) for i in (0, 1)]
    born = sorted(range(len(gens)), key=lambda g: (gens[g][0], g))
    bars1, _ = presentation_bars(fld, *axes[0], columns.__getitem__)
    bars2, heads = presentation_bars(fld, *axes[1], columns.__getitem__, ([(g, fld.one)] for g in born))
    corners = [(gens[g][0], gens[h][1]) for g, h in zip(born, heads) if h is not None]
    stable = module.rank_invariant(bound, bound)
    if len(corners) != stable:
        raise DecompositionError(f"{len(corners)} quadrant corners, stable corner has dimension {stable}")
    # an axis's strips are the bounded bars of its pass; the unbounded ones are dropped unsorted
    strips = [canonical_bars((iv, m) for iv, m in bars if iv.end is not None) for bars in (bars1, bars2)]
    return Decomposition(*strips, tuple(sorted(Counter(corners).items())))


def reconstruct(deco: Decomposition, fld: Field) -> GradedPresentation:
    """The direct sum of the strips and quadrants, written out as one derived presentation: a
    generator per strip copy at its start on its axis (vertical, then horizontal), killed by its
    own relation at its end, then a free generator per quadrant copy at its corner."""
    families = ((1, deco.vertical), (2, deco.horizontal))
    strips = [(axis, iv) for axis, family in families for iv, mult in family for _ in range(mult)]
    gens = [dg.with_axis((0, 0), axis, iv.start) for axis, iv in strips]
    gens += [corner for corner, mult in deco.quadrants for _ in range(mult)]
    rels = tuple(dg.with_axis((0, 0), axis, iv.end) for axis, iv in strips)
    rows = tuple(tuple(fld.one if j == i else fld.zero for j in range(len(rels))) for i in range(len(gens)))
    return GradedPresentation(2, fld, tuple(gens), rels, Matrix(fld, len(gens), len(rels), rows))


def delocalize_dim(module: GradedPresentation, d) -> int:
    """Dimension at d of the fiber product of the two axis localizations.

    Glues the two single-axis localizations over the corner localization and
    measures the result: the kernel of the difference map on stabilized
    slices.  Differs from dim_at exactly when finite data was lost.
    """
    _require_two_params(module)
    d = dg.as_nonnegative(d, 2)
    b1, b2 = module.stabilization_bound()
    e1, e2 = max(d[0], b1), max(d[1], b2)
    t1 = module.transition((d[0], e2), (e1, e2))  # axis-2 localization -> corner
    t2 = module.transition((e1, d[1]), (e1, e2))  # axis-1 localization -> corner
    # kernel of [t1 | -t2]; the sign does not change the dimension, and the
    # rank is the dimension of the span of both matrices' columns.
    columns = [*zip(*t1.entries), *zip(*t2.entries)]
    return t1.ncols + t2.ncols - Subspace.span(module.field, t1.nrows, columns).dim


def intersection_rank(module: GradedPresentation, a, b, c) -> int:
    """dim( im(M(a) -> M(c))  cap  im(M(b) -> M(c)) )."""
    a, b, c = (dg.as_degree(d, module.m) for d in (a, b, c))
    if not (dg.is_nonnegative(a) and dg.is_nonnegative(b)):
        raise PreconditionError("degrees must be in N^m")
    if not (dg.leq(a, c) and dg.leq(b, c)):
        raise DegreeOrderError(f"{a} and {b} must both be <= {c}")
    u = module.slice_image(a, c)
    w = module.slice_image(b, c)
    return u.dim + w.dim - u.plus(w).dim


# -- sections of localized epimorphisms ---------------------------------


class SectionWitness(Record):
    """Generator images of a compatible pair of sections at the target generator
    `degrees`, per axis; `axis1_slices` names the slice each axis-1 image lives in."""

    __slots__ = ("degrees", "axis1_slices", "axis2_slices", "axis1_vectors", "axis2_vectors")


class SectionResult(Record):
    __slots__ = ("exists", "axis1_solvable", "axis2_solvable", "witness")


def _check_section(f: PresentationMap, w: SectionWitness, e: Degree) -> None:
    """Raise DecompositionError unless w satisfies the three section conditions.

    Each condition is evaluated on the witness vectors with the transition and
    slice matrices themselves, independently of the linear system solved for w.
    """
    src, tgt, fld = f.source, f.target, f.field

    def image(slices, vectors, k, at) -> tuple:
        return src.transition(slices[k], at).apply(vectors[k])

    for slices, vectors, pin in (
        (w.axis1_slices, w.axis1_vectors, lambda d: (d[0], e[1])),
        (w.axis2_slices, w.axis2_vectors, lambda d: (e[0], d[1])),
    ):
        # (i) target relations map to zero
        for j, rd in enumerate(tgt.rel_degrees):
            at = pin(rd)
            total = [fld.zero] * src.dim_at(at)
            for k, coeff in enumerate(tgt.rel_coeffs.col(j)):
                if coeff != 0:
                    total = fld.axpy(total, coeff, image(slices, vectors, k, at))
            if any(x != 0 for x in total):
                raise DecompositionError(f"section witness does not kill target relation {j}")
        # (iii) composing with f returns each generator
        for k, at in enumerate(slices):
            if list(f.slice_matrix(at).apply(vectors[k])) != tgt._slice_coords(at, [(k, fld.one)]):
                raise DecompositionError(f"section witness does not split generator {k}")
    # (ii) the two assignments agree in the corner localization
    for k in range(len(w.degrees)):
        if image(w.axis1_slices, w.axis1_vectors, k, e) != image(w.axis2_slices, w.axis2_vectors, k, e):
            raise DecompositionError(f"section witness disagrees at the corner on generator {k}")


def section_exists(f: PresentationMap) -> SectionResult:
    """Decide whether the localized map admits a compatible section pair.

    A section assigns each target generator an element of the matching
    stabilized slice of the source, per axis localization, subject to: target
    relations map to zero (the assignment is a module map), the two
    assignments agree in the corner localization, and composing with f gives
    the identity.  All three are finite linear conditions, written once as
    sparse equations over one column space, the axis-1 unknowns and then the
    axis-2 unknowns.  Each axis's conditions (i) and (iii) are reduced once,
    by `fields.reduced_rows`, for its flag.  When both are consistent, their
    rows and the corner conditions (ii) give the witness by `fields.solve`,
    with no axis equation reduced again.  A witness is checked against the
    three conditions before it is returned.
    """
    src, tgt = f.source, f.target
    if src.m != 2:
        raise PreconditionError("section solver works over m = 2")
    fld = f.field
    # locally epic: no vertex in the cokernel's support, so inverting any one
    # variable kills the cokernel
    if not complexes.supp_complex(f.cokernel()).faces <= {frozenset()}:
        raise NotLocallyEpicError(
            "the map does not become surjective after inverting either variable"
        )
    e = dg.join(src.stabilization_bound(), tgt.stabilization_bound())
    gen_deg = tgt.gen_degrees
    g = len(gen_deg)
    # axis 1 inverts the axis-2 variable and vice versa; unknown a*g + k is
    # the image of generator k on axis a + 1, a vector of the source slice
    pins = (lambda d: (d[0], e[1]), lambda d: (e[0], d[1]))
    slices = tuple(pin(d) for pin in pins for d in gen_deg)
    cols = list(accumulate((src.dim_at(s) for s in slices), initial=0))
    width = cols[-1]

    def equations(terms, rhs) -> list[dict]:
        """Row by row, the sum of coeff * mat . x_k over (k, coeff, mat) in
        terms equals rhs, as {column: nonzero entry} with rhs at `width`."""
        eqs = [{width: b} if b != 0 else {} for b in rhs]
        for k, coeff, mat in terms:
            for eq, row in zip(eqs, mat.entries):
                eq.update((cols[k] + c, x) for c, x in enumerate(fld.scale(row, coeff)) if x != 0)
        return eqs

    axes = []
    for a, pin in enumerate(pins):
        eqs = []
        # (i) target relations map to zero
        for j, rd in enumerate(tgt.rel_degrees):
            at = pin(rd)
            terms = [
                (a * g + k, coeff, src.transition(slices[a * g + k], at))
                for k, coeff in enumerate(tgt.rel_coeffs.col(j))
                if coeff != 0
            ]
            eqs += equations(terms, [fld.zero] * src.dim_at(at))
        # (iii) composing with f returns each generator
        for k in range(g):
            at = slices[a * g + k]
            eqs += equations([(a * g + k, 1, f.slice_matrix(at))], tgt._slice_coords(at, [(k, fld.one)]))
        axes.append(reduced_rows(fld, width, eqs))
    corner = []  # (ii) the two assignments agree in the corner localization
    for k in range(g):
        terms = [(k, 1, src.transition(slices[k], e)), (g + k, -1, src.transition(slices[g + k], e))]
        corner += equations(terms, [fld.zero] * src.dim_at(e))
    full = None if None in axes else solve(fld, width, [*axes[0], *axes[1], *corner])
    witness = None
    if full is not None:
        vectors = tuple(full[a:b] for a, b in zip(cols, cols[1:]))
        witness = SectionWitness(
            degrees=gen_deg,
            axis1_slices=slices[:g],
            axis2_slices=slices[g:],
            axis1_vectors=vectors[:g],
            axis2_vectors=vectors[g:],
        )
        _check_section(f, witness, e)
    return SectionResult(
        exists=full is not None,
        axis1_solvable=axes[0] is not None,
        axis2_solvable=axes[1] is not None,
        witness=witness,
    )
