"""Exact integer and rational linear algebra.

Everything here runs over Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  The matrices
are tiny (fan ray matrices, at most a few dozen rows), so the
implementations favour clarity and exactness over asymptotics:

* ``hermite_normal_form``  -- column-style HNF with the unimodular column
  transform: a canonical form of a cone's generator matrix, which the
  tests use as an independent route to the maximal cones' multiplicities.
* ``determinant``          -- fraction-free Bareiss elimination; its
  absolute value is the multiplicity of a full-dimensional simplicial
  cone, so each maximal cone needs exactly one.
* ``fraction_free_solve``  -- fraction-free Gauss-Jordan elimination,
  ``d . a^-1 . b`` in integers with ``d = |det a|``: the elimination
  solve (the eliminated variables as combinations of the kept ones, with
  integer coefficients when the elimination cone is unimodular).
* ``rational_rref``        -- reduced row echelon form over the rationals;
  no longer called by the library, kept as public API and as the tests'
  oracle for the elimination solve and the Macaulay presentation.
* ``column_lattice_index`` -- the index of an integer column span inside
  the lattice points of its real span, via a left-unimodular echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "IntegerMatrix",
    "RationalMatrix",
    "hermite_normal_form",
    "strip_zero_rows",
    "determinant",
    "fraction_free_solve",
    "rational_rref",
    "column_lattice_index",
]


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix; ``entries`` is row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        a, b = self.row_lists(), other.row_lists()
        out = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntegerMatrix.from_rows(out) if out else IntegerMatrix(0, other.cols, ())


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of ``Fraction`` entries (always in lowest terms)."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(Fraction(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[Fraction]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Column-style Hermite normal form ``H`` of ``m`` with transform ``T``.

    Returns ``(H, T)`` with ``m . T == H``, ``T`` square unimodular
    (``|det T| = 1``).  The canonical form fixed here: each column's first
    nonzero entry (its pivot) is positive, pivots sit in strictly
    increasing row positions from left to right, and within a pivot row
    every entry to the left of the pivot is reduced into ``[0, pivot)``.

    Raises ``ValueError`` for a matrix that is wider than tall
    ("over-wide matrix") or of deficient column rank ("not simplicial" --
    the caller-facing meaning: linearly dependent cone generators).
    """
    n, d = m.rows, m.cols
    if n < d:
        raise ValueError("over-wide matrix")
    a = m.row_lists()
    t = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def add_col(dst: int, src: int, q: int) -> None:
        # column dst -= q * column src, in both a and t
        if q == 0:
            return
        for i in range(n):
            a[i][dst] -= q * a[i][src]
        for i in range(d):
            t[i][dst] -= q * t[i][src]

    def swap_cols(j: int, k: int) -> None:
        if j == k:
            return
        for i in range(n):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(d):
            t[i][j], t[i][k] = t[i][k], t[i][j]

    def negate_col(j: int) -> None:
        for i in range(n):
            a[i][j] = -a[i][j]
        for i in range(d):
            t[i][j] = -t[i][j]

    col = 0
    for row in range(n):
        if col == d:
            break
        # Euclidean reduction across columns col..d-1 on this row until at
        # most one nonzero entry survives.
        while True:
            nonzero = [j for j in range(col, d) if a[row][j]]
            if len(nonzero) <= 1:
                break
            jm = min(nonzero, key=lambda j: abs(a[row][j]))
            for j in nonzero:
                if j != jm:
                    add_col(j, jm, a[row][j] // a[row][jm])
        if not nonzero:
            continue  # no pivot in this row
        swap_cols(col, nonzero[0])
        if a[row][col] < 0:
            negate_col(col)
        # Reduce earlier columns' entries in this pivot row into [0, pivot).
        # Column `col` is zero above `row`, so earlier pivot rows are safe.
        p = a[row][col]
        for j in range(col):
            add_col(j, col, a[row][j] // p)
        col += 1
    if col < d:
        raise ValueError("not simplicial")
    h = IntegerMatrix.from_rows(a) if a else IntegerMatrix(0, d, ())
    return h, IntegerMatrix.from_rows(t)


def pivot_rows(h: IntegerMatrix) -> list[int]:
    """Row index of each column's first nonzero entry, for an HNF output."""
    out = []
    for j in range(h.cols):
        for i in range(h.rows):
            if h.at(i, j):
                out.append(i)
                break
    return out


def strip_zero_rows(h: IntegerMatrix) -> IntegerMatrix:
    """Square block of the pivot rows of an HNF output.

    For a rank-``d`` input whose ``n - d`` non-pivot rows are all zero this
    is literally "drop the zero rows"; in every case it keeps exactly the
    rows carrying a pivot.
    """
    from .errors import InternalError

    piv = pivot_rows(h)
    if len(piv) != h.cols or len(piv) != len(set(piv)):
        raise InternalError("stripped HNF block is not square; rank contract violated upstream")
    return IntegerMatrix.from_rows([[h.at(i, j) for j in range(h.cols)] for i in piv])


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Step k replaces each entry below and right of the pivot ``akk`` by
    ``(a[i][j] * akk - a[i][k] * a[k][j]) // prev``, ``prev`` being the
    previous pivot; the division is exact (Bareiss 1968).  Cone ray
    matrices are sparse with entries mostly 0 and +-1, so two kinds of
    no-op work are skipped.  A negative pivot row is negated first (the
    sign is tracked), so unit pivots stay at 1.  Then, when ``akk ==
    prev``, a row whose pivot-column entry is 0 is unchanged, and in the
    other rows only the columns where the pivot row is nonzero change.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k]
        akk = pivot[k]
        if akk < 0:
            pivot = a[k] = [-x for x in pivot]
            akk = -akk
            sign = -sign
        if akk == prev:
            cols = [j for j in range(k + 1, n) if pivot[j]]
            for i in range(k + 1, n):
                row = a[i]
                aik = row[k]
                if aik:
                    for j in cols:
                        row[j] = (row[j] * akk - aik * pivot[j]) // prev
        else:
            for i in range(k + 1, n):
                row = a[i]
                aik = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * akk - aik * pivot[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def fraction_free_solve(a: IntegerMatrix, b: IntegerMatrix) -> tuple[int, IntegerMatrix | None]:
    """Solve ``a . Y = b`` in integers: ``(d, X)`` with ``X = d . a^-1 . b``.

    Fraction-free Gauss-Jordan elimination on ``[a | b]``: step k replaces
    every entry outside the pivot row by ``(a[i][j] * akk - a[i][k] *
    a[k][j]) // prev``, an exact division that clears column k.  Then the
    left block is ``d`` times the identity, with ``d = |det a|``, and the
    right block is ``X``.  The sparse skips are those of ``determinant``:
    a negative pivot row is negated, so unit pivots stay at 1, and when
    ``akk == prev`` only rows with a nonzero pivot-column entry and only
    the pivot row's nonzero columns change.  With ``b`` the identity,
    ``X`` is the adjugate up to sign.  A singular ``a`` gives ``(0, None)``.
    """
    n = a.rows
    if a.cols != n or b.rows != n:
        raise ValueError("dimension mismatch in linear solve")
    width = n + b.cols
    rows_a, rows_b = a.row_lists(), b.row_lists()
    m = [rows_a[i] + rows_b[i] for i in range(n)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                return 0, None
        pivot = m[k]
        akk = pivot[k]
        if akk < 0:
            pivot = m[k] = [-x for x in pivot]
            akk = -akk
        if akk == prev:
            cols = [j for j in range(width) if pivot[j]]
            for i in range(n):
                row = m[i]
                aik = row[k]
                if aik and i != k:
                    for j in cols:
                        row[j] = (row[j] * akk - aik * pivot[j]) // prev
        else:
            for i in range(n):
                if i != k:
                    aik = m[i][k]
                    m[i] = [(x * akk - aik * y) // prev for x, y in zip(m[i], pivot)]
        prev = akk
    return prev, IntegerMatrix(n, b.cols, tuple(x for row in m for x in row[n:]))


def rational_rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals, with pivot columns."""
    a = m.row_lists()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix.from_rows(a) if a else RationalMatrix(0, ncols, ()), tuple(pivots)


def column_lattice_index(m: IntegerMatrix) -> int:
    """Index of the column span of ``m`` inside the lattice points of its
    real span.

    Computed by a left-unimodular row reduction (a change of basis of the
    ambient lattice), which brings ``m`` to an upper-triangular block over
    genuine zero rows; the index is the product of the pivot magnitudes.
    For square ``m`` this equals ``|det m|``.  Raises ``ValueError`` ("not
    simplicial") when the columns are linearly dependent.
    """
    n, d = m.rows, m.cols
    if n < d:
        raise ValueError("over-wide matrix")
    a = m.row_lists()
    index = 1
    pr = 0
    for c in range(d):
        while True:
            nonzero = [i for i in range(pr, n) if a[i][c]]
            if len(nonzero) <= 1:
                break
            im = min(nonzero, key=lambda i: abs(a[i][c]))
            for i in nonzero:
                if i != im:
                    q = a[i][c] // a[im][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[im])]
        if not nonzero:
            raise ValueError("not simplicial")
        i = nonzero[0]
        a[pr], a[i] = a[i], a[pr]
        index *= abs(a[pr][c])
        pr += 1
    return index
