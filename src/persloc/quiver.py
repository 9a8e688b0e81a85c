"""Three-parameter modules as representations of a three-legged star quiver.

For m = 3, a module whose pinned transitions become isomorphisms past degree n
on every axis is equivalent, after inverting pairs of variables, to a
representation of the quiver with one central sink and three incoming legs of
length n (3n+1 vertices, 3n arrows; the n = 1 shape is D4, the n = 2 shape is
affine E6).  Leg i carries the stabilized slices with coordinate i running
from 0 to n-1, the sink is the stable corner, and all maps are transitions.
The order of vertices and arrows is decided once, in `_star`.

On top of the conversion: endomorphism algebras by solving the commutation
system as sparse equations, splitting searches via Fitting decompositions,
certified indecomposability from one exact locality certificate of the
endomorphism algebra per field (over F_p, Berlekamp's count of the Frobenius
fixed space modulo the commutator ideal, whose elements also split an End
that is not local; over Q, the rank of the trace form), and interval
decompositions of the legs when the sink vanishes (pure torsion).  Products
of End elements are `fields.Matrix.mul`'s row operations.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from . import degrees as dg
from .errors import DecompositionError, PreconditionError
from .fields import DEFAULT_FIELD, Field, Matrix, Record, Subspace, sparse_kernel
from .localization import Interval, barcode_by_reduction, canonical_bars, presentation_bars
from .presentation import GradedPresentation

# most unknowns (the sum of d_v^2) of the commutation system behind End
_MAX_END_UNKNOWNS = 1_500
# most entries (the sum of d_s * d_t over the arrows) of the maps a conversion builds
_MAX_MAP_ENTRIES = 1_000_000
# seeded random combinations tried by is_indecomposable when its certificate
# finds End not local and gives no element to split along
_TRIALS = 64


def _star(n: int) -> list[tuple[int, int]]:
    """The 3n arrows of the star as (source, target) vertex indices.

    Vertex 0 is the sink and leg l holds vertices 1 + l*n ... (l+1)*n in
    order; arrows are listed leg by leg, each leg ending in the sink.
    """
    return [
        (1 + leg * n + j, 1 + leg * n + j + 1 if j + 1 < n else 0)
        for leg in range(3)
        for j in range(n)
    ]


def _by_leg(n: int, items) -> tuple[tuple, ...]:
    """Regroup 3n flat leg items (vertices or arrows) into three legs of n."""
    items = tuple(items)
    return tuple(items[leg * n : (leg + 1) * n] for leg in range(3))


def _require_leg_length(n: int) -> None:
    """Refuse a leg length below 1 or one whose 3n+1 vertices exceed the box budget."""
    if n < 1:
        raise PreconditionError("leg length must be at least 1")
    if 3 * n + 1 > dg.MAX_BOX_DEGREES:
        raise PreconditionError(
            f"leg length {n} gives {3 * n + 1} vertices, more than {dg.MAX_BOX_DEGREES}"
        )


def quiver_shape(n: int) -> dict:
    """Vertices and arrows of the three-legged star with legs of length n."""
    _require_leg_length(n)
    vertices = ["sink", *(f"leg{leg}.{j}" for leg in (1, 2, 3) for j in range(n))]
    arrows = [(vertices[s], vertices[t]) for s, t in _star(n)]
    classification = {1: "D4", 2: "E6_affine"}.get(n)
    return {
        "n": n,
        "vertices": vertices,
        "arrows": arrows,
        "num_vertices": len(vertices),
        "num_arrows": len(arrows),
        "classification": classification,
    }


class QuiverRep(Record):
    """A representation: leg spaces, sink space, and the maps between them.

    `arrows[leg][j]` maps leg vertex j to vertex j+1 for j < n-1; the last
    entry maps leg vertex n-1 into the sink.  `dims` and `maps` list the same
    data flat, in the vertex and arrow order of `_star`.

    The constructor trusts its fields: outside data enters through `build`, which
    checks it; `from_flat`, `direct_sum`, `to_quiver_rep`, `random_rep` and the
    Fitting witnesses of `is_indecomposable` build from checked data.
    """

    __slots__ = ("field", "n", "sink_dim", "leg_dims", "arrows")

    @classmethod
    def build(cls, field: Field, n: int, sink_dim: int, leg_dims: tuple, arrows: tuple) -> "QuiverRep":
        """Check outside data: the leg length, the leg count, each leg, then each arrow's shape and field."""
        _require_leg_length(n)
        if len(leg_dims) != 3 or len(arrows) != 3:
            raise PreconditionError("exactly three legs")
        if any(len(leg) != n for leg in (*leg_dims, *arrows)):
            raise PreconditionError("leg length mismatch")
        rep = cls(field, n, sink_dim, leg_dims, arrows)
        dims = rep.dims
        for (s, t), mat in zip(_star(n), rep.maps):
            if mat.ncols != dims[s] or mat.nrows != dims[t]:
                names = quiver_shape(n)["vertices"]
                raise PreconditionError(
                    f"arrow {names[s]}->{names[t]} shape {mat.nrows}x{mat.ncols}, "
                    f"expected {dims[t]}x{dims[s]}"
                )
            if mat.field != field:
                raise PreconditionError("arrow over wrong field")
        return rep

    @classmethod
    def from_flat(cls, field: Field, n: int, dims, maps) -> "QuiverRep":
        """The representation with vertex `dims` and arrow `maps` in `_star` order."""
        return cls(field, n, dims[0], _by_leg(n, dims[1:]), _by_leg(n, maps))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.sink_dim, *(d for leg in self.leg_dims for d in leg))

    @property
    def maps(self) -> tuple[Matrix, ...]:
        return tuple(mat for leg in self.arrows for mat in leg)

    def total_dim(self) -> int:
        return sum(self.dims)

    def direct_sum(self, other: "QuiverRep") -> "QuiverRep":
        if other.field != self.field or other.n != self.n:
            raise PreconditionError("direct sum needs matching field and n")
        return QuiverRep.from_flat(
            self.field,
            self.n,
            [a + b for a, b in zip(self.dims, other.dims)],
            [a.direct_sum(b) for a, b in zip(self.maps, other.maps)],
        )

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

    Past the stabilization bound the pinned slices are the localization, so
    this holds iff every bar of the three axis barcodes starts and ends by n.
    Bars start and end by their axis's bound, so an axis with n at or past
    it needs no barcode.
    """
    if module.m != 3:
        raise PreconditionError("quiver conversion works over m = 3")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    bound = module.stabilization_bound()
    return all(
        iv.start <= n and (iv.end is None or iv.end <= n)
        for axis in (1, 2, 3)
        if n < bound[axis - 1]
        for iv, _ in barcode_by_reduction(module, axis).bars
    )


def to_quiver_rep(module: GradedPresentation, n: int, end_budget: bool = False) -> QuiverRep:
    """Stabilized slices along each axis, with the sink at the stable corner.
    Refuses m != 3, then a leg length `_require_leg_length` refuses, then a
    module not stable by n (`in_leq_n`); with `end_budget`, then an End over budget
    (`_require_end_unknowns`); then maps over budget (`_require_map_entries`), all
    before any map is built.  Leg coordinates are clamped at the stabilization bound."""
    if module.m != 3:
        raise PreconditionError("quiver conversion works over m = 3")
    _require_leg_length(n)
    if not in_leq_n(module, n):
        raise PreconditionError(f"transitions are not isomorphisms past degree {n}; choose a larger n")
    bound = module.stabilization_bound()
    pin = tuple(max(n, b) for b in bound)
    at = [pin, *(dg.with_axis(pin, axis, min(j, bound[axis - 1])) for axis in (1, 2, 3) for j in range(n))]
    # clamped leg degrees repeat: ask once per distinct degree and arrow
    dim_at, transition = functools.cache(module.dim_at), functools.cache(module.transition)
    dims = [dim_at(d) for d in at]
    if end_budget:
        _require_end_unknowns(dims)
    _require_map_entries(dims)
    return QuiverRep.from_flat(module.field, n, dims, [transition(at[s], at[t]) for s, t in _star(n)])


def _require_end_unknowns(dims) -> None:
    """Refuse an End system with more than `_MAX_END_UNKNOWNS` unknowns."""
    total = sum(d * d for d in dims)
    if total > _MAX_END_UNKNOWNS:
        raise PreconditionError(
            f"End has {total} unknowns (the sum of squared vertex dimensions), "
            f"more than {_MAX_END_UNKNOWNS}"
        )


def _require_map_entries(dims) -> None:
    """Refuse star arrows on vertex `dims` with more than `_MAX_MAP_ENTRIES` entries in all."""
    total = sum(dims[s] * dims[t] for s, t in _star((len(dims) - 1) // 3))
    if total > _MAX_MAP_ENTRIES:
        raise PreconditionError(
            f"the maps have {total} entries (the sum of d_s * d_t over the arrows), "
            f"more than {_MAX_MAP_ENTRIES}"
        )


# -- endomorphisms and splittings ----------------------------------------


def _endo_from_vector(rep: QuiverRep, vec) -> tuple[Matrix, ...]:
    """The per-vertex matrices, in vertex order, of a flat row-major vector."""
    mats = []
    pos = 0
    for d in rep.dims:
        rows = tuple(tuple(vec[pos + i * d : pos + (i + 1) * d]) for i in range(d))
        mats.append(Matrix(rep.field, d, d, rows))
        pos += d * d
    return tuple(mats)


def _endo_to_vector(endo: tuple[Matrix, ...]) -> list:
    return [x for mat in endo for row in mat.entries for x in row]


def _combine(fld: Field, coeffs, vectors: list[list]) -> list:
    """The linear combination sum c_i v_i of equal-length flat vectors."""
    vec = [fld.zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            vec = fld.axpy(vec, c, v)
    return vec


def _end_rows(rep: QuiverRep) -> tuple:
    """The dimension of End and its basis as flat row-major vectors, the
    identity first, each past it back-substituted only when it is reached.
    A rep whose End is over budget (`_require_end_unknowns`) is refused first."""
    fld = rep.field
    dims = rep.dims
    _require_end_unknowns(dims)
    offsets = list(itertools.accumulate((d * d for d in dims), initial=0))

    def equations():
        # X_w A - A X_u = 0 entrywise over (r, c) in d_w x d_u, each built in
        # one dict; u != w, so no unknown appears twice
        for (u, w), a in zip(_star(rep.n), rep.maps):
            cols = [[(k, x) for k, x in enumerate(col) if x != 0] for col in zip(*a.entries)]
            for r, row in enumerate(a.entries):
                negs = [(offsets[u] + k * a.ncols, fld.neg(x)) for k, x in enumerate(row) if x != 0]
                for c, col in enumerate(cols):
                    eq = {offsets[w] + r * a.nrows + k: x for k, x in col}
                    for at, x in negs:
                        eq[at + c] = x
                    yield eq

    free, row = sparse_kernel(fld, offsets[-1], equations())
    id_vec = [fld.one if i == j else fld.zero for d in dims for i in range(d) for j in range(d)]
    # the identity is the sum of id[p] * row over the free columns p, so it
    # replaces the last row with id[p] != 0 and every other row stays
    last = max((i for i, p in enumerate(free) if id_vec[p] != 0), default=None)
    if last is None:  # the zero rep, whose identity is zero
        return 0, iter(())
    return len(free), itertools.chain([id_vec], map(row, free[:last] + free[last + 1 :]))


def _end_vectors(rep: QuiverRep) -> list:
    """`endomorphism_basis` as flat row-major vectors, the identity first."""
    return list(_end_rows(rep)[1])


def endomorphism_basis(rep: QuiverRep) -> list[tuple[Matrix, ...]]:
    """Basis of the endomorphism algebra, with the identity placed first.

    An endomorphism is one square matrix per vertex, in `_star` vertex
    order.  The commutation system X_target A = A X_source over all arrows is
    solved as sparse equations by `fields.sparse_kernel`, refusing more than
    `_MAX_END_UNKNOWNS` unknowns, and every basis row is back-substituted and
    turned into its per-vertex matrices.
    """
    return [_endo_from_vector(rep, v) for v in _end_vectors(rep)]


def _mat_power(mat: Matrix, k: int) -> Matrix:
    """mat^k by repeated squaring, with no product by the identity."""
    if k <= 1:
        return mat if k else Matrix.identity(mat.field, mat.nrows)
    half = _mat_power(mat.mul(mat), k >> 1)
    return half.mul(mat) if k & 1 else half


def _restrict_arrow(a: Matrix, src: Subspace, tgt: Subspace) -> Matrix:
    """Matrix of A between invariant subspaces, in their echelon bases.

    Coordinates in the target basis are read off its pivots; membership is
    checked, unless the target is the full space, so a non-invariant subspace
    cannot slip through.  Between two full spaces the matrix is A itself.
    """
    full = tgt.dim == tgt.ambient
    if full and src.dim == src.ambient:
        return a
    char = a.field.char
    cols = []
    for v in src.rows:
        img = [sum(map(operator.mul, row, v)) for row in a.entries]  # over Q, sums of Fractions
        img = [x % char for x in img] if char else img
        if not full and not tgt.contains_vector(img):
            raise DecompositionError("subspace is not arrow-invariant")
        cols.append([img[p] for p in tgt.pivots])
    return Matrix.from_cols(a.field, tgt.dim, cols)


@functools.cache
def _full_and_zero(field: Field, d: int) -> tuple[Subspace, Subspace]:
    """F^d and its zero subspace, built once per (field, d), as `Matrix.kernel` gives them."""
    return Subspace(field, d, Matrix.identity(field, d).entries, tuple(range(d))), Subspace(field, d, (), ())


def _fitting_spaces(x: Matrix) -> tuple[Subspace, Subspace]:
    """The generalized kernel and the stable image of X acting on F^d, which are those of X^d
    since both chains settle within d steps.  A zero block, d = 0 too, gives (F^d, 0) with no
    arithmetic; any other reduces X^d once, and its image only when that kernel is neither 0
    nor everything."""
    full, zero = _full_and_zero(x.field, x.nrows)
    if x.is_zero():
        return full, zero
    power = _mat_power(x, x.nrows)
    kernel = power.kernel()
    if 0 < kernel.dim < x.nrows:
        return kernel, power.image()
    return (full, zero) if kernel.dim else (zero, full)


def _split_along(rep: QuiverRep, endo: tuple[Matrix, ...]) -> tuple[QuiverRep, QuiverRep] | None:
    """Fitting decomposition along endo from `_fitting_spaces` at each vertex;
    None when one side is zero.  Each side's arrow is `_restrict_arrow`, or
    the empty matrix, built directly, out of a zero-dimensional source space.
    """
    kernels, images = zip(*map(_fitting_spaces, endo))
    total_k = sum(s.dim for s in kernels)
    total_i = sum(s.dim for s in images)
    if total_k == 0 or total_i == 0:
        return None
    if total_k + total_i != rep.total_dim():
        raise DecompositionError("generalized kernel and image do not fill the space")
    fld, star = rep.field, _star(rep.n)

    def side(spaces) -> QuiverRep:
        arrows = ((spaces[u], spaces[w], a) for (u, w), a in zip(star, rep.maps))
        maps = [_restrict_arrow(a, s, t) if s.dim else Matrix(fld, t.dim, 0, ((),) * t.dim) for s, t, a in arrows]
        return QuiverRep.from_flat(fld, rep.n, [s.dim for s in spaces], maps)

    return side(kernels), side(images)


def _first_split(rep: QuiverRep, endos) -> tuple[QuiverRep, QuiverRep] | None:
    """The Fitting decomposition along the first of `endos` that splits rep."""
    splits = (_split_along(rep, endo) for endo in endos)
    return next((split for split in splits if split is not None), None)


def _trials(rep: QuiverRep, vectors: list):
    """`_TRIALS` seeded random combinations of the whole flat basis, drawn one
    at a time: the last search, where no Frobenius fixed element exists."""
    fld = rep.field
    rng = random.Random(("split", 0, rep.total_dim(), fld.char).__repr__())
    for _ in range(_TRIALS):
        if fld.char:
            coeffs = [rng.randrange(fld.char) for _ in vectors]
        else:
            coeffs = [rng.randint(-3, 3) for _ in vectors]
        yield _endo_from_vector(rep, _combine(fld, coeffs, vectors))


def try_split(rep: QuiverRep, basis: list[tuple[Matrix, ...]]) -> tuple[QuiverRep, QuiverRep] | None:
    """The Fitting decomposition along the first element of
    `endomorphism_basis(rep)` past the identity `basis[0]` that splits rep:
    (generalized kernel, generalized image), or None when each is nilpotent
    or invertible.  A public helper, also looked up by name in `perfbench/tracing.py`;
    `is_indecomposable` no longer calls it.
    """
    return _first_split(rep, basis[1:])


def _compose(a: tuple[Matrix, ...], b: tuple[Matrix, ...]) -> tuple[Matrix, ...]:
    return tuple(x.mul(y) for x, y in zip(a, b))


def _power_vector(endo: tuple[Matrix, ...], k: int) -> list:
    """The flat vector of endo^k."""
    return _endo_to_vector(tuple(_mat_power(x, k) for x in endo))


def _nilpotent(rep: QuiverRep, rows: list) -> bool:
    """Is the ideal N spanned by the flat End elements `rows` nilpotent, so
    does the chain N^{j+1} = span(N^j N) reach 0?  In a nilpotent N every
    step shrinks, so a step that does not shrink declines."""
    fld = rep.field
    endos = [_endo_from_vector(rep, row) for row in rows]
    chain = Subspace.span(fld, len(rows[0]), rows)
    while chain.dim:
        products = (_compose(_endo_from_vector(rep, row), n) for row in chain.rows for n in endos)
        step = Subspace.span(fld, chain.ambient, map(_endo_to_vector, products))
        if step.dim >= chain.dim:
            return False
        chain = step
    return True


def _commutator_ideal(rep: QuiverRep, vectors: list) -> Subspace | None:
    """The two-sided ideal C of End generated by the commutators of the flat
    basis `vectors` (identity first); None as soon as it holds the identity.
    Zero commutators are skipped, so a commutative End costs its pairwise
    products and gives C = 0.  Otherwise the span is closed under products
    with the basis on both sides, each reduced against the ideal built so far.
    """
    fld = rep.field
    rest = [_endo_from_vector(rep, v) for v in vectors[1:]]
    products = ((_compose(a, b), _compose(b, a)) for a, b in itertools.combinations(rest, 2))
    queue = [fld.axpy(_endo_to_vector(ab), -1, _endo_to_vector(ba)) for ab, ba in products if ab != ba]
    ideal = Subspace.span(fld, len(vectors[0]), [])
    while queue:
        vec = ideal.reduce(queue.pop())
        if any(vec):
            ideal = Subspace.span(fld, ideal.ambient, [*ideal.rows, vec])
            if ideal.contains_vector(vectors[0]):
                return None
            x = _endo_from_vector(rep, vec)
            queue += (_endo_to_vector(_compose(*pair)) for b in rest for pair in ((b, x), (x, b)))
    return ideal


def _split_local(rep: QuiverRep, vectors: list) -> bool:
    """Certificate over Q: is End = Q.1 + J, with J its radical?

    By Dickson's criterion, in characteristic 0 the radical of the trace form
    tr_V(xy) on End is J, so End = Q.1 + J iff the Gram matrix
    G_ij = tr(b_i b_j) of the flat basis `vectors` has rank 1.  Then End is
    local: every element of J is nilpotent, so lambda.1 + j is a unit for
    lambda != 0.  tr(XY) is the sum over vertex blocks of X[r][c] Y[c][r],
    read off the flat vectors through each block's transpose index, so no
    End product is formed.
    """
    fld = rep.field
    offsets = itertools.accumulate((d * d for d in rep.dims), initial=0)
    transpose = [off + c * d + r for d, off in zip(rep.dims, offsets) for r in range(d) for c in range(d)]
    gram = [[sum((a * y[t] for a, t in zip(x, transpose) if a != 0), fld.zero) for y in vectors] for x in vectors]
    return Matrix(fld, len(vectors), len(vectors), tuple(map(tuple, gram))).rank() == 1


def _frobenius_fixed(rep: QuiverRep, vectors: list) -> list | None:
    """Certificate over F_p: the elements outside C + k.1 of a basis of the
    flat x in the span of `vectors[1:]` with x^p - x in the commutator ideal
    C; None when C is not nilpotent, so End is not local.

    A finite division ring is a field (Wedderburn), so a local End has a
    commutative End/J and C lies in J; conversely C in J gives
    End/J = (End/C)/(J/C).  So End is local iff C is nilpotent and End/C is
    local.  On the commutative End/C, x -> x^p is linear, and its fixed space
    is F_p x ... x F_p with one factor per local factor (as in Berlekamp's
    algorithm).  So End is local iff the returned list is empty; this also
    covers a residue field larger than F_p.  For a commutative End, C = 0 and
    the list is a basis of the fixed elements past the identity.
    """
    fld = rep.field
    ideal = _commutator_ideal(rep, vectors)
    if ideal is None or ideal.dim and not _nilpotent(rep, ideal.rows):
        return None
    moved = (fld.axpy(_power_vector(_endo_from_vector(rep, v), fld.char), -1, v) for v in vectors[1:])
    kernel = Matrix.from_cols(fld, len(vectors[0]), map(ideal.reduce, moved)).kernel()
    scalars = Subspace.span(fld, ideal.ambient, [*ideal.rows, vectors[0]])
    fixed = (_combine(fld, row, vectors[1:]) for row in kernel.rows)
    return [x for x in fixed if not scalars.contains_vector(x)]


def _fixed_split(rep: QuiverRep, one: list, x: list) -> tuple[QuiverRep, QuiverRep]:
    """A Fitting decomposition along a polynomial in an element x of
    `_frobenius_fixed`, given with the identity `one` as flat vectors.

    x^p - x lies in the nilpotent ideal C, so it is nilpotent and every
    eigenvalue of x lies in F_p.  x has at least two of them: were c the
    only one, x - c would be nilpotent and fixed mod C, so
    x - c = (x - c)^(p^k) mod C would lie in C, but x is outside C + k.1.
    Over F_2 the Fitting decomposition along x separates the eigenvalues 0
    and 1.  Otherwise (x + c)^((p-1)/2) - 1 is nilpotent on the generalized
    eigenspaces whose eigenvalue plus c is a nonzero square and invertible
    on the rest; as c runs over F_p this separates any two eigenvalues (the
    nonzero squares are not invariant under a nonzero shift), so some c
    splits rep.
    """
    fld = rep.field
    if fld.char == 2:
        return _split_along(rep, _endo_from_vector(rep, x))

    def shifts():
        for c in range(fld.char):
            power = _power_vector(_endo_from_vector(rep, fld.axpy(x, c, one)), (fld.char - 1) // 2)
            yield _endo_from_vector(rep, fld.axpy(power, -1, one))

    return _first_split(rep, shifts())


class IndecResult(Record):
    """Verdict "yes", "no" or "unknown", End's dimension, and for "no" the splitting (else None)."""

    __slots__ = ("verdict", "endo_dim", "witness")


def is_indecomposable(rep: QuiverRep) -> IndecResult:
    """Certified decision when possible, honest "unknown" otherwise.

    End is reduced once (`_end_rows`), and its dimension, the count of free
    columns, at most 1 certifies "yes" at once: the zero rep, or End is the
    field.  Otherwise the basis past the identity is searched for a Fitting
    splitting, an element back-substituted and built only when the search
    reaches it, and "no" comes with the verified splitting.  Then
    "yes" is certified when End is local, so has no idempotents but 0 and 1,
    by the field's one exact certificate: `_frobenius_fixed` over F_p, which
    is empty exactly when End is local, and the trace form's rank over Q
    (`_split_local`), which is 1 exactly when End = Q.1 + J.  Failing it
    over F_p with fixed elements, `_fixed_split` along the first one always
    splits.  Only where there is none, over Q or over F_p with a commutator
    ideal that is not nilpotent, are the seeded `_trials` tried, and what
    they leave is "unknown".
    """
    dim, rows = _end_rows(rep)
    if dim <= 1:
        return IndecResult("yes", dim, None)
    vectors = [next(rows)]  # the rows reached so far, which the certificates read
    for v in rows:
        vectors.append(v)
        if split := _split_along(rep, _endo_from_vector(rep, v)):
            return IndecResult("no", dim, split)
    if rep.field.char:
        fixed = _frobenius_fixed(rep, vectors)
        local = fixed == []
    else:
        fixed, local = None, _split_local(rep, vectors)
    if local:
        return IndecResult("yes", dim, None)
    split = _fixed_split(rep, vectors[0], fixed[0]) if fixed else _first_split(rep, _trials(rep, vectors))
    return IndecResult("unknown" if split is None else "no", dim, split)


def torsion_leg_split(rep: QuiverRep) -> tuple[tuple[tuple[Interval, int], ...], ...] | None:
    """Interval decomposition of each leg when the sink vanishes.

    With a zero sink each leg V_0 -> ... -> V_{n-1} -> 0 is an independent
    chain.  It is presented by one generator per basis vector v of vertex c,
    in degree c, and the relation t.v - A_c v in degree c+1, the last map
    going into the zero sink; its bars are that presentation's
    `presentation_bars`.  Bars are half-open with end at most n, sorted and
    merged as in a `Barcode`.  Returns None when the sink is nonzero (legs
    are then coupled through it).
    """
    if rep.sink_dim != 0:
        return None
    fld = rep.field

    def leg_bars(dims, maps) -> list[tuple[Interval, int]]:
        offsets = list(itertools.accumulate(dims, initial=0))
        gens = [c for c, d in enumerate(dims) for _ in range(d)]

        def column(j: int) -> list:
            # relation j is t.v - A_c v for generator j = v at vertex c
            c = gens[j]
            image = maps[c].col(j - offsets[c])
            return [(j, fld.one), *((offsets[c + 1] + r, fld.neg(x)) for r, x in enumerate(image))]

        return presentation_bars(fld, gens, [c + 1 for c in gens], column)[0]

    return tuple(canonical_bars(leg_bars(rep.leg_dims[leg], rep.arrows[leg])) for leg in range(3))


def random_rep(
    seed: int,
    n: int | None = None,
    max_dim: int = 3,
    sink_zero: bool = False,
    fld: Field = DEFAULT_FIELD,
) -> QuiverRep:
    """Seeded random representation (testing and demos); n is checked before any draw."""
    rng = random.Random(("rep", seed, n, max_dim, sink_zero, fld.char).__repr__())
    if n is None:
        n = rng.randint(1, 4)
    _require_leg_length(n)
    sink = 0 if sink_zero else rng.randint(0, max_dim)
    dims = (sink, *(rng.randint(0, max_dim) for _ in range(3 * n)))

    def rand_matrix(nrows: int, ncols: int) -> Matrix:
        if fld.char:
            rows = [[rng.randrange(fld.char) for _ in range(ncols)] for _ in range(nrows)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        return Matrix.from_rows(fld, rows, ncols)

    return QuiverRep.from_flat(fld, n, dims, [rand_matrix(dims[t], dims[s]) for s, t in _star(n)])
