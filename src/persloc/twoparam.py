"""Strip-and-quadrant structure of two-parameter modules, up to finite pieces.

After inverting variables, every finitely presented two-parameter module
splits uniquely into vertical strips (born at a, killed at b along axis 1,
free along axis 2), horizontal strips (the mirror), and free quadrants.  The
strips are the finite bars of the two axis barcodes; the quadrant corners are
recovered from the stable corner slice: the images of the two axis
bifiltrations intersect there, and inclusion-exclusion of those intersection
dimensions is exactly the corner-multiplicity count.

Also here: the fiber-product dimension of the two single-axis localizations
over the corner (detects modules the decomposition glues differently), an
intersection refinement of the rank invariant, and a solver deciding whether
a localized epimorphism admits a compatible pair of sections.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dg
from .complexes import supp_complex
from .degrees import Degree
from .errors import (
    AmbientMismatchError,
    DecompositionError,
    DegreeOrderError,
    NotLocallyEpicError,
    PreconditionError,
)
from .fields import Field, Matrix, Subspace, _rref
from .localization import Barcode, Interval, localized_barcode
from .presentation import GradedPresentation, PresentationMap, direct_sum, zero_module
from .examples import quadrant_presentation, strip_presentation

Corners = tuple[tuple[Degree, int], ...]


def _require_two_params(module: GradedPresentation) -> None:
    if module.m != 2:
        raise PreconditionError(f"operation needs m = 2, module has m = {module.m}")


@dataclass(frozen=True)
class Decomposition:
    """Canonical multiset data: two strip families plus quadrant corners."""

    vertical: tuple[tuple[Interval, int], ...]
    horizontal: tuple[tuple[Interval, int], ...]
    quadrants: Corners

    @classmethod
    def make(cls, vertical, horizontal, quadrants) -> "Decomposition":
        vert = tuple(sorted(((iv, m) for iv, m in vertical if m), key=lambda im: im[0].sort_key()))
        horiz = tuple(sorted(((iv, m) for iv, m in horizontal if m), key=lambda im: im[0].sort_key()))
        quads = tuple(sorted(((tuple(c), m) for c, m in quadrants if m)))
        if any(m < 0 for _, m in vert + horiz) or any(m < 0 for _, m in quads):
            raise PreconditionError("negative multiplicity")
        if any(iv.end is None for iv, _ in vert + horiz):
            raise PreconditionError("strips are bounded intervals")
        return cls(vert, horiz, quads)


def torsion_strips(module: GradedPresentation) -> tuple[Barcode, Barcode]:
    """Finite bars of the two axis barcodes (the strip parts)."""
    _require_two_params(module)
    b1 = localized_barcode(module, 1)
    b2 = localized_barcode(module, 2)
    return Barcode.make(1, b1.finite()), Barcode.make(2, b2.finite())


@dataclass(frozen=True)
class Bifiltration:
    """Images of the two axis directions inside the stable corner slice."""

    corner: Degree
    ambient_dim: int
    v1: tuple[Subspace, ...]  # v1[d] = image of M(d, B2) -> M(B1, B2)
    v2: tuple[Subspace, ...]  # v2[e] = image of M(B1, e) -> M(B1, B2)

    def __post_init__(self) -> None:
        for chain in (self.v1, self.v2):
            for prev, nxt in zip(chain, chain[1:]):
                if not nxt.contains(prev):
                    raise DecompositionError("bifiltration images fail to increase")
            if chain and chain[-1].dim != self.ambient_dim:
                raise DecompositionError("bifiltration does not exhaust the corner")


def bifiltration(module: GradedPresentation) -> Bifiltration:
    _require_two_params(module)
    b1, b2 = module.stabilization_bound()
    ambient = module.dim_at((b1, b2))
    v1 = tuple(module.slice_image((d, b2), (b1, b2)) for d in range(b1 + 1))
    v2 = tuple(module.slice_image((b1, e), (b1, b2)) for e in range(b2 + 1))
    return Bifiltration((b1, b2), ambient, v1, v2)


def intersection_table(module: GradedPresentation, dmax: int | None = None, emax: int | None = None) -> list[list[int]]:
    """I[d][e] = dim of the intersection of the two bifiltration images.

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
    bif = bifiltration(module)
    table = []
    for d in range(dmax + 1):
        u = bif.v1[min(d, b1)]
        row = []
        for e in range(emax + 1):
            w = bif.v2[min(e, b2)]
            # dim(U cap W) via the lattice identity; cheaper than a basis.
            row.append(u.dim + w.dim - u.plus(w).dim)
        table.append(row)
    return table


def quadrant_corners(module: GradedPresentation) -> Corners:
    """Corner multiset by inclusion-exclusion over the intersection table."""
    _require_two_params(module)
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
    """Full strip/quadrant data of the module after inverting variables."""
    strips1, strips2 = torsion_strips(module)
    corners = quadrant_corners(module)
    return Decomposition.make(strips1.bars, strips2.bars, corners)


def reconstruct(deco: Decomposition, fld: Field) -> GradedPresentation:
    """Direct sum of strip and quadrant presentations matching the data."""
    parts: list[GradedPresentation] = []
    for iv, mult in deco.vertical:
        parts.extend(strip_presentation(1, iv.start, iv.end, fld) for _ in range(mult))
    for iv, mult in deco.horizontal:
        parts.extend(strip_presentation(2, iv.start, iv.end, fld) for _ in range(mult))
    for corner, mult in deco.quadrants:
        parts.extend(quadrant_presentation(corner, fld) for _ in range(mult))
    if not parts:
        return zero_module(2, fld)
    return direct_sum(*parts)


def equivalent_after_localization(a: GradedPresentation, b: GradedPresentation) -> bool:
    """Same strip/quadrant data, i.e. isomorphic once variables are inverted."""
    if a.field != b.field:
        raise AmbientMismatchError("modules over different fields")
    _require_two_params(a)
    _require_two_params(b)
    return decompose(a) == decompose(b)


def delocalize_dim(module: GradedPresentation, d) -> int:
    """Dimension at d of the fiber product of the two axis localizations.

    Glues the two single-axis localizations over the corner localization and
    measures the result: the kernel of the difference map on stabilized
    slices.  Differs from dim_at exactly when finite data was lost.
    """
    _require_two_params(module)
    d = dg.as_degree(d, 2)
    if not dg.is_nonnegative(d):
        raise PreconditionError(f"degree {d} not in N^2")
    b1, b2 = module.stabilization_bound()
    e1, e2 = max(d[0], b1), max(d[1], b2)
    t1 = module.transition((d[0], e2), (e1, e2))  # axis-2 localization -> corner
    t2 = module.transition((e1, d[1]), (e1, e2))  # axis-1 localization -> corner
    # kernel of [t1 | -t2]; the sign does not change the dimension.
    return t1.ncols + t2.ncols - t1.hstack(t2).rank()


def intersection_rank(module: GradedPresentation, a, b, c) -> int:
    """dim( im(M(a) -> M(c))  cap  im(M(b) -> M(c)) )."""
    a = dg.as_degree(a, module.m)
    b = dg.as_degree(b, module.m)
    c = dg.as_degree(c, module.m)
    if not (dg.is_nonnegative(a) and dg.is_nonnegative(b)):
        raise PreconditionError("degrees must be in N^m")
    if not (dg.leq(a, c) and dg.leq(b, c)):
        raise DegreeOrderError(f"{a} and {b} must both be <= {c}")
    u = module.slice_image(a, c)
    w = module.slice_image(b, c)
    return u.dim + w.dim - u.plus(w).dim


# -- sections of localized epimorphisms ---------------------------------


@dataclass(frozen=True)
class SectionWitness:
    """Generator images of a compatible pair of sections, per axis."""

    degrees: tuple[Degree, ...]          # target generator degrees
    axis1_slices: tuple[Degree, ...]     # slice each axis-1 image lives in
    axis2_slices: tuple[Degree, ...]
    axis1_vectors: tuple[tuple, ...]
    axis2_vectors: tuple[tuple, ...]


@dataclass(frozen=True)
class SectionResult:
    exists: bool
    axis1_solvable: bool
    axis2_solvable: bool
    witness: SectionWitness | None


def _solve(fld: Field, rows: list[list], rhs: list, ncols: int) -> tuple | None:
    """One solution of the linear system, or None; free variables set to 0."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    aug, pivots = _rref(fld, aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    sol = [fld.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = aug[r][ncols]
    return tuple(sol)


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
    the identity.  All three are finite linear conditions; the full system and
    the two single-axis subsystems are solved separately.  A witness is
    checked against the three conditions before it is returned.
    """
    src, tgt = f.source, f.target
    if src.m != 2:
        raise PreconditionError("section solver works over m = 2")
    fld = f.field
    # locally epic: no vertex in the cokernel's support, so inverting any one
    # variable kills the cokernel
    if not supp_complex(f.cokernel()).faces <= {frozenset()}:
        raise NotLocallyEpicError(
            "the map does not become surjective after inverting either variable"
        )
    e = dg.join(src.stabilization_bound(), tgt.stabilization_bound())
    gen_deg = tgt.gen_degrees
    ax1_slices = tuple((d[0], e[1]) for d in gen_deg)  # axis-2 variable inverted
    ax2_slices = tuple((e[0], d[1]) for d in gen_deg)
    n1 = [src.dim_at(s) for s in ax1_slices]
    n2 = [src.dim_at(s) for s in ax2_slices]
    off1 = [0]
    for n in n1:
        off1.append(off1[-1] + n)
    off2 = [off1[-1]]
    for n in n2:
        off2.append(off2[-1] + n)
    total = off2[-1]
    zero = fld.zero

    def blank_rows(count: int) -> list[list]:
        return [[zero] * total for _ in range(count)]

    def add_block(rows, mat: Matrix, col0, coeff=1) -> None:
        """Add coeff * mat into rows, at columns col0 onwards."""
        end = col0 + mat.ncols
        for row, mat_row in zip(rows, mat.entries):
            row[col0:end] = fld.axpy(row[col0:end], coeff, mat_row)

    rows_ax1: list[list] = []
    rhs_ax1: list = []
    rows_ax2: list[list] = []
    rhs_ax2: list = []
    rows_compat: list[list] = []
    rhs_compat: list = []

    # (i) target relations map to zero in each localization
    for j, rd in enumerate(tgt.rel_degrees):
        col = tgt.rel_coeffs.col(j)
        for axis, (slices, offs, rows_out, rhs_out) in (
            (1, (ax1_slices, off1, rows_ax1, rhs_ax1)),
            (2, (ax2_slices, off2, rows_ax2, rhs_ax2)),
        ):
            at = (rd[0], e[1]) if axis == 1 else (e[0], rd[1])
            hei = src.dim_at(at)
            block = blank_rows(hei)
            for k, coeff in enumerate(col):
                if coeff == 0:
                    continue
                add_block(block, src.transition(slices[k], at), offs[k], coeff)
            rows_out.extend(block)
            rhs_out.extend([zero] * hei)

    # (iii) composing with f returns each generator
    for k, d in enumerate(gen_deg):
        for axis, (slices, offs, rows_out, rhs_out) in (
            (1, (ax1_slices, off1, rows_ax1, rhs_ax1)),
            (2, (ax2_slices, off2, rows_ax2, rhs_ax2)),
        ):
            at = slices[k]
            fm = f.slice_matrix(at)
            block = blank_rows(fm.nrows)
            add_block(block, fm, offs[k])
            rows_out.extend(block)
            rhs_out.extend(tgt._slice_coords(at, [(k, fld.one)]))

    # (ii) the two assignments agree in the corner localization
    corner_dim = src.dim_at(e)
    for k in range(len(gen_deg)):
        block = blank_rows(corner_dim)
        add_block(block, src.transition(ax1_slices[k], e), off1[k])
        add_block(block, src.transition(ax2_slices[k], e), off2[k], -1)
        rows_compat.extend(block)
        rhs_compat.extend([zero] * corner_dim)

    sol1 = _solve(fld, rows_ax1, rhs_ax1, total)
    sol2 = _solve(fld, rows_ax2, rhs_ax2, total)
    full = _solve(
        fld, rows_ax1 + rows_ax2 + rows_compat, rhs_ax1 + rhs_ax2 + rhs_compat, total
    )
    witness = None
    if full is not None:
        witness = SectionWitness(
            degrees=gen_deg,
            axis1_slices=ax1_slices,
            axis2_slices=ax2_slices,
            axis1_vectors=tuple(
                tuple(full[off1[k] : off1[k] + n1[k]]) for k in range(len(gen_deg))
            ),
            axis2_vectors=tuple(
                tuple(full[off2[k] : off2[k] + n2[k]]) for k in range(len(gen_deg))
            ),
        )
        _check_section(f, witness, e)
    return SectionResult(
        exists=full is not None,
        axis1_solvable=sol1 is not None,
        axis2_solvable=sol2 is not None,
        witness=witness,
    )
