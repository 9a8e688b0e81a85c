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

Both row reductions of the package live here, and no other module calls
them.  The dense `_rref`, on the row operations `Field.axpy` and
`Field.scale`, gives ranks, `Subspace.span` and, in one pass over the rows
read right to left, `Matrix.kernel`; `Subspace` is the one type that holds
its output.  `Matrix.mul` builds each row of a product from the right
factor's rows by `Field.axpy`, skipping zero coefficients.  The sparse
`_store_low` (Zomorodian-Carlsson 2005) gives `column_lows`, `sparse_kernel`
and `solve`, which back-substitute one free column at a time, and only when
asked, by `_back_substitute`.  It reduces a {column: entry} dict in place,
writing each entry as it is computed and deleting one that becomes zero, so
a stored row keeps its keys in the order they were first seen.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

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


class Record:
    """An immutable value whose fields are its `__slots__` not named `_x`, in
    order.  `__init__` takes them by position or keyword and raises `TypeError`,
    naming the fields, on a missing, extra, unknown or doubled one; a record with
    checks or defaults sets its fields with one `super().__init__(...)` call.
    Two of one type are equal when their field tuples are; a record hashes as
    that tuple and prints as Name(field=value, ...).  A `_x` slot is a cache."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)
        cls._signature = f"{cls.__name__}({', '.join(cls._fields)})"
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __init__(self, *values, **named) -> None:
        if named:
            rest = self._fields[len(values):]
            if wrong := [n for n in named if n not in rest]:
                raise TypeError(f"{self._signature} got unknown or doubled fields {wrong}")
            values += tuple(named[n] for n in rest if n in named)
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{self._signature} takes {len(setters)} fields, got {len(values)}")
        for i, value in enumerate(values):  # zip(setters, values) costs about 100 ns more a record
            setters[i](self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)


class Field(Record):
    """A coefficient field: characteristic p (prime) or 0 for the rationals."""

    __slots__ = ("char",)

    def __init__(self, char: int = 5) -> None:
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        super().__init__(char)

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


def _rref(field: Field, rows: list, ncols: int) -> tuple[list, list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list).

    Pivot choice is deterministic: scan columns left to right, take the first
    row (top to bottom) with a nonzero entry.  Only the outer list changes:
    rows are swapped and replaced by new lists, never written into, so they
    may be tuples or shared with the caller.
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


def _store_low(field: Field, stored: dict, vec: dict) -> int | None:
    """Reduce the sparse vec ({column: nonzero entry}) in place by `stored`
    while its low, its largest column, is a stored row's; store what is left
    at its low, scaled to 1 there, and return that low, or None when nothing
    is left.  An entry is written as it is computed and deleted when it
    becomes zero, so vec keeps its keys in first-seen order."""
    p = field.char
    while vec and (low := max(vec)) in stored:
        c = -vec[low]
        for k, y in stored[low].items():
            x = vec.get(k, 0) + c * y
            if p:
                x %= p  # over Q, x is a canonical Fraction already
            if x:
                vec[k] = x
            else:
                del vec[k]
    if vec:
        stored[low] = dict(zip(vec, field.scale(vec.values(), field.inv(vec[low]))))
    return low if vec else None


def column_lows(fld: Field, born: Sequence[int], columns: Iterable[Iterable]) -> Iterator[int | None]:
    """The persistence "low" of each column, or None when it reduces to zero.

    `born` lists the generators earliest-born first; a column comes as its
    (generator, coefficient) pairs and is held sparse.  Its low is its
    youngest generator with a nonzero entry, and it is reduced by the earlier
    columns while that low is one of theirs.
    """
    age, stored = {g: k for k, g in enumerate(born)}, {}
    for col in columns:
        low = _store_low(fld, stored, {age[g]: x for g, x in col if x != 0})
        yield None if low is None else born[low]


def _back_substitute(field: Field, stored: dict, f: int) -> dict:
    """{column: nonzero entry} of the kernel vector with 1 at the free column f and
    0 at the other free columns: each stored low above f, in turn, solves its row."""
    value = {f: field.one}
    for low in sorted(k for k in stored if k > f):
        if not value.keys().isdisjoint(row := stored[low]):
            if x := field.neg(sum(y * value[k] for k, y in row.items() if k in value)):
                value[low] = x
    return value


def sparse_kernel(field: Field, ncols: int, equations: Iterable[dict]) -> tuple[tuple[int, ...], Callable]:
    """The right kernel in F^ncols of sparse equations ({column: nonzero
    entry}), each reduced in place: its free columns, and the function giving
    a free column's row, back-substituted when asked for.  The row of f
    vanishes before f, so these rows are the canonical basis as they stand."""
    stored: dict = {}
    for eq in equations:
        _store_low(field, stored, eq)

    def row(f: int) -> tuple:
        return tuple(map(_back_substitute(field, stored, f).get, range(ncols), repeat(field.zero)))

    return tuple(f for f in range(ncols) if f not in stored), row


def _reduce_system(field: Field, ncols: int, equations: Iterable[dict]) -> dict:
    """The stored rows of `solve`'s equations, column j reduced as ncols - j."""
    stored: dict = {}
    for eq in equations:
        _store_low(field, stored, {ncols - c: x for c, x in eq.items()})
    return stored


def reduced_rows(field: Field, ncols: int, equations: Iterable[dict]) -> list[dict] | None:
    """Equations as `solve` takes them, reduced to rows with distinct pivots,
    or None when they have no solution; `solve` takes the rows back unreduced."""
    stored = _reduce_system(field, ncols, equations)
    return None if 0 in stored else [{ncols - c: x for c, x in row.items()} for row in stored.values()]


def solve(field: Field, ncols: int, equations: Iterable[dict]) -> tuple | None:
    """One solution in F^ncols of sparse equations ({column: nonzero entry},
    the right-hand side at column ncols) with the free variables 0, or None.

    Column j is reduced as ncols - j, so the stored lows are the pivots of the
    dense reduced echelon form of [A | b], and the right-hand side's column,
    numbered 0, is a low exactly when there is none; only it is back-substituted.
    """
    stored = _reduce_system(field, ncols, equations)
    if 0 in stored:
        return None
    value = _back_substitute(field, stored, 0)
    return tuple(field.neg(value.get(ncols - j, 0)) for j in range(ncols))


class Matrix(Record):
    """Immutable dense matrix with exact entries over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    @classmethod
    def from_rows(cls, field: Field, rows, ncols: int | None = None) -> "Matrix":
        """The matrix with the given rows; `ncols` is the width when there are none."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else ncols or 0
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

    def col(self, j: int) -> tuple:
        return tuple([row[j] for row in self.entries])

    def direct_sum(self, *others: "Matrix") -> "Matrix":
        """The block-diagonal matrix with self, then others, down the diagonal."""
        if any(b.field != self.field for b in others):
            raise AmbientMismatchError("direct sum field mismatch")
        blocks = (self, *others)
        zero = self.field.zero
        ncols = sum(b.ncols for b in blocks)
        ent = []
        left = 0
        for b in blocks:
            pad_left, pad_right = (zero,) * left, (zero,) * (ncols - left - b.ncols)
            ent.extend(pad_left + r + pad_right for r in b.entries)
            left += b.ncols
        return Matrix(self.field, len(ent), ncols, tuple(ent))

    def mul(self, other: "Matrix") -> "Matrix":
        """The product; row i is the sum of a_ik times row k of other, built
        by `Field.axpy` over the nonzero a_ik."""
        if other.field != self.field or self.ncols != other.nrows:
            raise AmbientMismatchError("matmul shape or field mismatch")
        axpy = self.field.axpy
        zero = (self.field.zero,) * other.ncols
        out = []
        for arow in self.entries:
            row = zero
            for a, orow in zip(arow, other.entries):
                if a != 0:
                    row = axpy(row, a, orow)
            out.append(tuple(row))
        return Matrix(self.field, self.nrows, other.ncols, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix times column vector (length ncols) -> tuple of length nrows."""
        vec = list(vec)
        if len(vec) != self.ncols:
            raise AmbientMismatchError("vector length mismatch")
        norm = self.field.normalize
        return tuple(norm(sum(map(operator.mul, row, vec))) for row in self.entries)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def rank(self) -> int:
        _, pivots = _rref(self.field, list(self.entries), self.ncols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Right kernel {v : A v = 0} as a canonical subspace of F^ncols, from one
        `_rref` of the rows read right to left, so a free column's vector vanishes before it."""
        last = self.ncols - 1
        rr, pivots = _rref(self.field, [row[::-1] for row in self.entries], self.ncols)
        pivot_set = set(pivots)
        free = tuple(f for f in range(self.ncols) if last - f not in pivot_set)
        neg, zero = self.field.neg, self.field.zero
        basis = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = self.field.one
            for r, pc in enumerate(pivots):
                v[last - pc] = neg(rr[r][last - f])
            basis.append(tuple(v))
        return Subspace(self.field, self.ncols, tuple(basis), free)

    def image(self) -> "Subspace":
        """Column span as a canonical subspace of F^nrows."""
        return Subspace.span(self.field, self.nrows, zip(*self.entries))


class Subspace(Record):
    """A subspace of F^ambient held as its reduced row echelon basis.

    `rows` have strictly increasing pivot columns `pivots`, each pivot entry
    is 1, and every other row vanishes at a pivot; the representation of a
    given subspace is therefore unique, so `==` decides subspace equality.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        rows = list(vectors)
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
        axpy = self.field.axpy
        for p, row in zip(self.pivots, self.rows):
            c = vec[p]
            if c != 0:
                vec = axpy(vec, -c, row)
        return tuple(vec)

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
