"""Three-parameter modules as representations of a three-legged star quiver.

For m = 3, a module whose pinned transitions become isomorphisms past degree n
on every axis is equivalent, after inverting pairs of variables, to a
representation of the quiver with one central sink and three incoming legs of
length n (3n+1 vertices, 3n arrows; the n = 1 shape is D4, the n = 2 shape is
affine E6).  Leg i carries the stabilized slices with coordinate i running
from 0 to n-1, the sink is the stable corner, and all maps are transitions.

On top of the conversion: endomorphism algebras by solving the commutation
system, splitting searches via Fitting decompositions, certified
indecomposability by exhaustive idempotent enumeration when the endomorphism
dimension is at most 6 over F_p, and interval decompositions of the legs when
the sink vanishes (pure torsion).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import degrees as dg
from .errors import DecompositionError, PreconditionError
from .fields import DEFAULT_FIELD, Echelon, Field, Matrix, Subspace
from .localization import Barcode, Interval, intervals_by_reduction
from .presentation import GradedPresentation

# certified verdicts enumerate all p^dim elements of End up to this dimension
_MAX_END_DIM = 6
# seeded random combinations tried by try_split after the basis itself
_TRIALS = 64


def quiver_shape(n: int) -> dict:
    """Vertices and arrows of the three-legged star with legs of length n."""
    if n < 1:
        raise PreconditionError("leg length must be at least 1")
    vertices = ["sink"]
    arrows = []
    for leg in (1, 2, 3):
        for j in range(n):
            vertices.append(f"leg{leg}.{j}")
        for j in range(n - 1):
            arrows.append((f"leg{leg}.{j}", f"leg{leg}.{j + 1}"))
        arrows.append((f"leg{leg}.{n - 1}", "sink"))
    classification = {1: "D4", 2: "E6_affine"}.get(n)
    return {
        "n": n,
        "vertices": vertices,
        "arrows": arrows,
        "num_vertices": len(vertices),
        "num_arrows": len(arrows),
        "classification": classification,
    }


@dataclass(frozen=True)
class QuiverRep:
    """A representation: leg spaces, sink space, and the maps between them.

    `arrows[leg][j]` maps leg vertex j to vertex j+1 for j < n-1; the last
    entry maps leg vertex n-1 into the sink.
    """

    field: Field
    n: int
    sink_dim: int
    leg_dims: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PreconditionError("leg length must be at least 1")
        if len(self.leg_dims) != 3 or len(self.arrows) != 3:
            raise PreconditionError("exactly three legs")
        for dims, maps in zip(self.leg_dims, self.arrows):
            if len(dims) != self.n or len(maps) != self.n:
                raise PreconditionError("leg length mismatch")
            for j, mat in enumerate(maps):
                src = dims[j]
                tgt = dims[j + 1] if j + 1 < self.n else self.sink_dim
                if mat.ncols != src or mat.nrows != tgt:
                    raise PreconditionError(
                        f"arrow leg{j} shape {mat.nrows}x{mat.ncols}, expected {tgt}x{src}"
                    )
                if mat.field != self.field:
                    raise PreconditionError("arrow over wrong field")

    def total_dim(self) -> int:
        return self.sink_dim + sum(sum(d) for d in self.leg_dims)

    def direct_sum(self, other: "QuiverRep") -> "QuiverRep":
        if other.field != self.field or other.n != self.n:
            raise PreconditionError("direct sum needs matching field and n")

        def block(a: Matrix, b: Matrix) -> Matrix:
            zero = self.field.zero
            rows = []
            for r in a.entries:
                rows.append(tuple(r) + (zero,) * b.ncols)
            for r in b.entries:
                rows.append((zero,) * a.ncols + tuple(r))
            return Matrix(self.field, a.nrows + b.nrows, a.ncols + b.ncols, tuple(rows))

        dims = tuple(
            tuple(x + y for x, y in zip(da, db))
            for da, db in zip(self.leg_dims, other.leg_dims)
        )
        arrows = tuple(
            tuple(block(ma, mb) for ma, mb in zip(la, lb))
            for la, lb in zip(self.arrows, other.arrows)
        )
        return QuiverRep(self.field, self.n, self.sink_dim + other.sink_dim, dims, arrows)

    def leg_composite(self, leg: int, a: int, b: int) -> Matrix:
        """Composite map from leg vertex a to leg vertex b (0-based, a <= b)."""
        if not 0 <= a <= b <= self.n - 1:
            raise PreconditionError("vertex range outside the leg")
        out = Matrix.identity(self.field, self.leg_dims[leg][a])
        for j in range(a, b):
            out = self.arrows[leg][j].mul(out)
        return out


def in_leq_n(module: GradedPresentation, n: int) -> bool:
    """Do pinned transitions become isomorphisms past degree n on every axis?

    Checked on every axis position in [n, bound): past the stabilization
    bound transitions are isomorphisms for free, below it each step is
    verified directly (a single spot check can miss bars born later).
    """
    if module.m != 3:
        raise PreconditionError("quiver conversion works over m = 3")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    bound = module.stabilization_bound()
    pin = tuple(max(n, b) for b in bound)
    for axis in (1, 2, 3):
        for c in range(n, bound[axis - 1]):
            t = module.transition(dg.with_axis(pin, axis, c), dg.with_axis(pin, axis, c + 1))
            if t.nrows != t.ncols or t.rank() != t.nrows:
                return False
    return True


def to_quiver_rep(module: GradedPresentation, n: int) -> QuiverRep:
    """Stabilized slices along each axis, with the sink at the stable corner."""
    if module.m != 3:
        raise PreconditionError("quiver conversion works over m = 3")
    if n < 1:
        raise PreconditionError("leg length must be at least 1")
    if not in_leq_n(module, n):
        raise PreconditionError(
            f"transitions are not isomorphisms past degree {n}; "
            "choose a larger n"
        )
    bound = module.stabilization_bound()
    pin = tuple(max(n, b) for b in bound)
    sink_dim = module.dim_at(pin)
    leg_dims = []
    arrows = []
    for axis in (1, 2, 3):
        at = [dg.with_axis(pin, axis, j) for j in range(n)] + [pin]
        dims = tuple(module.dim_at(d) for d in at[:n])
        maps = [module.transition(at[j], at[j + 1]) for j in range(n)]
        leg_dims.append(dims)
        arrows.append(tuple(maps))
    return QuiverRep(module.field, n, sink_dim, tuple(leg_dims), tuple(arrows))


# -- endomorphisms and splittings ----------------------------------------


@dataclass(frozen=True)
class Endo:
    """One endomorphism: a square matrix per vertex, commuting with arrows."""

    sink: Matrix
    legs: tuple[tuple[Matrix, ...], ...]

    def is_identity(self) -> bool:
        if not _is_identity(self.sink):
            return False
        return all(_is_identity(m) for leg in self.legs for m in leg)

    def is_zero(self) -> bool:
        return self.sink.is_zero() and all(m.is_zero() for leg in self.legs for m in leg)


def _is_identity(mat: Matrix) -> bool:
    return mat == Matrix.identity(mat.field, mat.nrows)


def _vertex_dims(rep: QuiverRep) -> list[int]:
    """Flattened vertex dimension list: sink first, then legs in order."""
    dims = [rep.sink_dim]
    for leg in rep.leg_dims:
        dims.extend(leg)
    return dims


def _endo_from_vector(rep: QuiverRep, vec) -> Endo:
    dims = _vertex_dims(rep)
    mats = []
    pos = 0
    for d in dims:
        rows = []
        for i in range(d):
            rows.append(tuple(vec[pos + i * d : pos + (i + 1) * d]))
        mats.append(Matrix(rep.field, d, d, tuple(rows)))
        pos += d * d
    sink = mats[0]
    legs = []
    k = 1
    for leg in range(3):
        legs.append(tuple(mats[k : k + rep.n]))
        k += rep.n
    return Endo(sink, tuple(legs))


def _endo_to_vector(rep: QuiverRep, endo: Endo) -> list:
    vec = []
    for mat in [endo.sink] + [m for leg in endo.legs for m in leg]:
        for row in mat.entries:
            vec.extend(row)
    return vec


def _combine(fld: Field, coeffs, vectors: list[list]) -> list:
    """The linear combination sum c_i v_i of equal-length flat vectors."""
    vec = [fld.zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            vec = fld.axpy(vec, c, v)
    return vec


def endomorphism_basis(rep: QuiverRep) -> list[Endo]:
    """Basis of the endomorphism algebra, with the identity placed first.

    Solves the commutation system X_target A = A X_source over all arrows.
    """
    fld = rep.field
    dims = _vertex_dims(rep)
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d * d)
    total = offsets[-1]

    def vertex_index(leg: int, j: int) -> int:
        return 1 + leg * rep.n + j if j < rep.n else 0

    rows: list[list] = []
    zero = fld.zero
    for leg in range(3):
        for j in range(rep.n):
            a = rep.arrows[leg][j]
            u = vertex_index(leg, j)
            w = vertex_index(leg, j + 1)
            du, dw = dims[u], dims[w]
            # X_w A - A X_u = 0, entrywise over (r, c) in dw x du; u != w,
            # so each unknown appears at most once per equation
            for r in range(dw):
                for c in range(du):
                    row = [zero] * total
                    for k in range(dw):
                        row[offsets[w] + r * dw + k] = a.entries[k][c]
                    for k in range(du):
                        row[offsets[u] + k * du + c] = fld.neg(a.entries[r][k])
                    rows.append(row)
    mat = Matrix(fld, len(rows), total, tuple(tuple(r) for r in rows))
    kernel = mat.kernel()
    identity = Endo(
        Matrix.identity(fld, rep.sink_dim),
        tuple(
            tuple(Matrix.identity(fld, d) for d in leg) for leg in rep.leg_dims
        ),
    )
    id_vec = _endo_to_vector(rep, identity)
    candidates = [id_vec, *kernel.rows]
    echelon = Echelon(fld)
    return [_endo_from_vector(rep, v) for v in candidates if echelon.insert(v)]


def _mat_power(mat: Matrix, k: int) -> Matrix:
    out = Matrix.identity(mat.field, mat.nrows)
    base = mat
    while k:
        if k & 1:
            out = out.mul(base)
        base = base.mul(base)
        k >>= 1
    return out


def _restrict_arrow(a: Matrix, src: Subspace, tgt: Subspace) -> Matrix:
    """Matrix of A between invariant subspaces, in their echelon bases.

    Coordinates in the target basis are read off its pivots; membership is
    checked so a non-invariant subspace cannot slip through.
    """
    cols = []
    for v in src.rows:
        img = a.apply(v)
        if not tgt.contains_vector(img):
            raise DecompositionError("subspace is not arrow-invariant")
        cols.append([img[p] for p in tgt.pivots])
    return Matrix.from_cols(a.field, tgt.dim, cols)


def _split_along(rep: QuiverRep, endo: Endo) -> tuple["QuiverRep", "QuiverRep"] | None:
    """Fitting decomposition along endo; None when one side is zero.

    At a vertex of dimension d, kernel and image of X^d are the generalized
    kernel and the stable image of X (both chains settle within d steps).
    """
    fld = rep.field

    def fitting(mat: Matrix) -> tuple[Subspace, Subspace]:
        p = _mat_power(mat, mat.nrows)
        return p.kernel(), p.image()

    sink_k, sink_i = fitting(endo.sink)
    legs_k = []
    legs_i = []
    for leg in range(3):
        pair = [fitting(m) for m in endo.legs[leg]]
        legs_k.append([k for k, _ in pair])
        legs_i.append([i for _, i in pair])
    total_k = sink_k.dim + sum(s.dim for leg in legs_k for s in leg)
    total_i = sink_i.dim + sum(s.dim for leg in legs_i for s in leg)
    if total_k == 0 or total_i == 0:
        return None
    if total_k + total_i != rep.total_dim():
        raise DecompositionError("generalized kernel and image do not fill the space")

    def build(sink_s: Subspace, legs_s: list[list[Subspace]]) -> QuiverRep:
        dims = tuple(tuple(s.dim for s in leg) for leg in legs_s)
        arrows = []
        for leg in range(3):
            maps = []
            for j in range(rep.n):
                src = legs_s[leg][j]
                tgt = legs_s[leg][j + 1] if j + 1 < rep.n else sink_s
                maps.append(_restrict_arrow(rep.arrows[leg][j], src, tgt))
            arrows.append(tuple(maps))
        return QuiverRep(fld, rep.n, sink_s.dim, dims, tuple(arrows))

    return build(sink_k, legs_k), build(sink_i, legs_i)


def try_split(rep: QuiverRep, basis: list[Endo]) -> tuple[QuiverRep, QuiverRep] | None:
    """Search for a direct-sum splitting via Fitting decompositions.

    `basis` is `endomorphism_basis(rep)`.  Its elements are tried first, then
    64 seeded random combinations, drawn one at a time; the search stops at
    the first split.  Returns (generalized kernel, generalized image) or None
    if everything tried was nilpotent or invertible.
    """
    total = rep.total_dim()
    if total == 0:
        return None
    fld = rep.field
    vectors = [_endo_to_vector(rep, b) for b in basis]
    rng = random.Random(("split", 0, total, fld.char).__repr__())

    def candidates():
        yield from basis
        for _ in range(_TRIALS):
            if fld.char:
                coeffs = [rng.randrange(fld.char) for _ in basis]
            else:
                coeffs = [rng.randint(-3, 3) for _ in basis]
            yield _endo_from_vector(rep, _combine(fld, coeffs, vectors))

    splits = (_split_along(rep, endo) for endo in candidates())
    return next((split for split in splits if split is not None), None)


@dataclass(frozen=True)
class IndecResult:
    verdict: str  # "yes" | "no" | "unknown"
    endo_dim: int
    witness: tuple[QuiverRep, QuiverRep] | None = None


def is_indecomposable(rep: QuiverRep) -> IndecResult:
    """Certified decision when feasible, honest "unknown" otherwise.

    The endomorphism algebra is solved once and shared with `try_split`.
    "no" comes with a verified splitting.  "yes" is certified by exhausting
    all endomorphism-algebra elements e with e^2 = e when the algebra
    dimension is at most 6 (requires a finite field; over the rationals only
    a one-dimensional algebra certifies).  Anything else is "unknown".
    """
    basis = endomorphism_basis(rep)
    dim = len(basis)
    if rep.total_dim() == 0:
        return IndecResult("yes", dim)
    split = try_split(rep, basis)
    if split is not None:
        return IndecResult("no", dim, split)
    fld = rep.field
    if fld.char == 0:
        if dim == 1:
            return IndecResult("yes", dim)  # End = Q, local, no idempotents
        return IndecResult("unknown", dim)
    if dim > _MAX_END_DIM:
        return IndecResult("unknown", dim)
    vectors = [_endo_to_vector(rep, b) for b in basis]
    for coeffs in itertools.product(range(fld.char), repeat=dim):
        endo = _endo_from_vector(rep, _combine(fld, coeffs, vectors))
        if endo.is_zero() or endo.is_identity():
            continue
        if not _is_idempotent(endo):
            continue
        split = _split_along(rep, endo)
        if split is None:
            raise DecompositionError("nontrivial idempotent produced a trivial splitting")
        return IndecResult("no", dim, split)
    return IndecResult("yes", dim)


def _is_idempotent(endo: Endo) -> bool:
    mats = [endo.sink] + [m for leg in endo.legs for m in leg]
    return all(m.mul(m) == m for m in mats)


def torsion_leg_split(rep: QuiverRep) -> tuple[tuple[tuple[Interval, int], ...], ...] | None:
    """Interval decomposition of each leg when the sink vanishes.

    With a zero sink each leg is an independent linear chain; its interval
    multiset comes from the same sequential column reduction as the barcode
    oracle, run on the leg's maps.  Bars are half-open with end at most n,
    sorted and merged as in a `Barcode`.  Returns None when the sink is
    nonzero (legs are then coupled through it).
    """
    if rep.sink_dim != 0:
        return None
    return tuple(
        Barcode.make(
            leg + 1,
            intervals_by_reduction(
                rep.field, rep.leg_dims[leg], rep.arrows[leg][:-1], stabilized=False
            ),
        ).bars
        for leg in range(3)
    )


def random_rep(
    seed: int,
    n: int | None = None,
    max_dim: int = 3,
    sink_zero: bool = False,
    fld: Field = DEFAULT_FIELD,
) -> QuiverRep:
    """Seeded random representation (testing and demos)."""
    rng = random.Random(("rep", seed, n, max_dim, sink_zero, fld.char).__repr__())
    if n is None:
        n = rng.randint(1, 4)
    sink = 0 if sink_zero else rng.randint(0, max_dim)
    leg_dims = tuple(
        tuple(rng.randint(0, max_dim) for _ in range(n)) for _ in range(3)
    )

    def rand_matrix(nrows: int, ncols: int) -> Matrix:
        if fld.char:
            rows = [[rng.randrange(fld.char) for _ in range(ncols)] for _ in range(nrows)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        return Matrix.from_rows(fld, rows) if nrows else Matrix(fld, 0, ncols, ())

    arrows = []
    for leg in range(3):
        maps = []
        for j in range(n):
            src = leg_dims[leg][j]
            tgt = leg_dims[leg][j + 1] if j + 1 < n else sink
            maps.append(rand_matrix(tgt, src))
        arrows.append(tuple(maps))
    return QuiverRep(fld, n, sink, leg_dims, tuple(arrows))
