"""Exact dense linear algebra over a prime field F_p or over Q.

Everything downstream (graded slices, transition matrices, subspace lattices)
reduces to the primitives here: reduced echelon forms with deterministic
first-nonzero pivoting, kernels, and sums of subspaces held in a canonical
basis.  Matrices and subspaces are immutable; operations return fresh
objects, so sharing them between threads is safe.

Entries are canonical: an `int` in [0, p) for characteristic p, a
`fractions.Fraction` for characteristic 0.  The contract is enforced once,
where values enter the program: `Field.coerce` runs only in
`Matrix.from_rows`, `presentation.GradedPresentation.build` and
`modfile._scalar`.  Everything else (`Matrix.from_cols`, `Subspace.span`,
`Subspace.reduce`, the row operations) trusts its input to be canonical and
keeps it so.

The only row-reduction code in the package is here: the two row operations
`Field.axpy` and `Field.scale`, the full reduction `_rref`, and `Echelon`,
which grows an echelon basis one vector at a time.  Every other module
reduces rows through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbientMismatchError


# Miller-Rabin with the first 13 primes as bases is exact below _MR_LIMIT, the
# least strong pseudoprime to all of them (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError past the exact range."""
    if n >= _MR_LIMIT:
        raise ValueError(f"characteristic {n} is too large (must be below {_MR_LIMIT})")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: characteristic p (prime) or 0 for the rationals."""

    char: int = 5

    def __post_init__(self) -> None:
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"characteristic must be 0 or a prime, got {self.char}")

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def coerce(self, value):
        """Bring an int, Fraction, or 'p/q' string into canonical form."""
        if self.char == 0:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} into Q")
        if isinstance(value, str):
            value = int(value)
        if isinstance(value, Fraction):
            if value.denominator % self.char == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.char}")
            return value.numerator * pow(value.denominator, -1, self.char) % self.char
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into F_{self.char}")
        return value % self.char

    def normalize(self, value):
        """Canonical representative of a value produced by ring arithmetic."""
        if self.char == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        return value % self.char

    def neg(self, value):
        return self.normalize(-value)

    def axpy(self, u, c, v) -> list:
        """The row u + c * v (u, v canonical, c an int or a canonical scalar)."""
        if self.char:
            p = self.char
            return [(x + c * y) % p for x, y in zip(u, v)]
        return [x + c * y for x, y in zip(u, v)]

    def scale(self, u, c) -> list:
        """The row c * u."""
        if self.char:
            p = self.char
            return [x * c % p for x in u]
        return [x * c for x in u]

    def inv(self, value):
        if self.char == 0:
            if value == 0:
                raise ZeroDivisionError("inverting 0")
            return 1 / Fraction(value)
        value %= self.char
        if value == 0:
            raise ZeroDivisionError("inverting 0")
        return pow(value, self.char - 2, self.char)

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"F_{self.char}"


DEFAULT_FIELD = Field(5)


def _rref(field: Field, rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list).

    Pivot choice is deterministic: scan columns left to right, take the first
    row (top to bottom) with a nonzero entry.
    """
    axpy = field.axpy
    r = 0
    pivots: list[int] = []
    nrows = len(rows)
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = field.scale(rows[r], inv)
        top = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                rows[i] = axpy(rows[i], -rows[i][c], top)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


class Echelon:
    """An echelon basis grown one vector at a time.

    Each stored row has pivot entry 1 and vanishes on the pivots of the rows
    stored before it, so reducing in storage order clears every pivot.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field: Field, rows=(), pivots=()) -> None:
        self.field = field
        self.rows = list(rows)
        self.pivots = list(pivots)

    def reduce(self, vec) -> list:
        """vec minus the combination of rows that clears every pivot entry."""
        axpy = self.field.axpy
        vec = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = vec[p]
            if c != 0:
                vec = axpy(vec, -c, row)
        return vec

    def insert(self, vec) -> bool:
        """Add vec to the basis; False (basis unchanged) if it already lies in the span."""
        red = self.reduce(vec)
        piv = next((i for i, x in enumerate(red) if x != 0), None)
        if piv is None:
            return False
        self.rows.append(self.field.scale(red, self.field.inv(red[piv])))
        self.pivots.append(piv)
        return True


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries over a fixed field."""

    field: Field
    nrows: int
    ncols: int
    entries: tuple[tuple, ...]

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        ent = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        return cls(field, len(rows), ncols, ent)

    @classmethod
    def from_cols(cls, field: Field, nrows: int, cols) -> "Matrix":
        """The matrix with the given (canonical) columns."""
        cols = [tuple(c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise ValueError("column of wrong height")
        ent = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls(field, nrows, len(cols), ent)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        ent = tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        )
        return cls(field, n, n, ent)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, nrows, ncols, tuple((zero,) * ncols for _ in range(nrows)))

    def transpose(self) -> "Matrix":
        ent = tuple(
            tuple(self.entries[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )
        return Matrix(self.field, self.ncols, self.nrows, ent)

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or other.nrows != self.nrows:
            raise AmbientMismatchError("hstack shape or field mismatch")
        ent = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.nrows, self.ncols + other.ncols, ent)

    def mul(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or self.ncols != other.nrows:
            raise AmbientMismatchError("matmul shape or field mismatch")
        norm = self.field.normalize
        ocols = other.ncols
        out = []
        for i in range(self.nrows):
            arow = self.entries[i]
            row = []
            for j in range(ocols):
                acc = 0
                for k in range(self.ncols):
                    a = arow[k]
                    if a != 0:
                        acc += a * other.entries[k][j]
                row.append(norm(acc))
            out.append(tuple(row))
        return Matrix(self.field, self.nrows, ocols, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times column vector (length ncols) -> tuple of length nrows."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise AmbientMismatchError("vector length mismatch")
        norm = self.field.normalize
        out = []
        for i in range(self.nrows):
            acc = 0
            row = self.entries[i]
            for k in range(self.ncols):
                if row[k] != 0 and vec[k] != 0:
                    acc += row[k] * vec[k]
            out.append(norm(acc))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def rank(self) -> int:
        rows = [list(r) for r in self.entries]
        _, pivots = _rref(self.field, rows, self.ncols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Right kernel {v : A v = 0} as a canonical subspace of F^ncols."""
        rows = [list(r) for r in self.entries]
        rr, pivots = _rref(self.field, rows, self.ncols)
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        neg = self.field.neg
        basis = []
        for f in free:
            v = [self.field.zero] * self.ncols
            v[f] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc] = neg(rr[r][f])
            basis.append(v)
        return Subspace.span(self.field, self.ncols, basis)

    def image(self) -> "Subspace":
        """Column span as a canonical subspace of F^nrows."""
        return Subspace.span(self.field, self.nrows, zip(*self.entries))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient held as its reduced row echelon basis.

    `rows` have strictly increasing pivot columns `pivots`, each pivot entry
    is 1, and every other row vanishes at a pivot; the representation of a
    given subspace is therefore unique, so `==` decides subspace equality.
    """

    field: Field
    ambient: int
    rows: tuple[tuple, ...]
    pivots: tuple[int, ...]

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        if any(len(v) != ambient for v in rows):
            raise AmbientMismatchError("spanning vector of wrong height")
        rows, pivots = _rref(field, rows, ambient)
        return cls(field, ambient, tuple(map(tuple, rows[: len(pivots)])), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> tuple:
        """Subtract the unique basis combination matching vec on the pivots.

        The result vanishes on all pivots; it is zero iff vec lies in the
        subspace.
        """
        if len(vec) != self.ambient:
            raise AmbientMismatchError("vector length mismatch")
        return tuple(Echelon(self.field, self.rows, self.pivots).reduce(vec))

    def contains_vector(self, vec) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    def plus(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.field != self.field:
            raise AmbientMismatchError("ambient mismatch")
        return Subspace.span(self.field, self.ambient, self.rows + other.rows)
