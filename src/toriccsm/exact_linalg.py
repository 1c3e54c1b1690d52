"""Exact integer and rational linear algebra on row lists.

Everything here runs over Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  A matrix has
one format: its rows, each a list of entries.  Every routine also takes
a tuple of tuples, and every routine but ``fraction_free_solve_rows``
copies its argument before it reduces it, so a caller's rows never
change; a matrix result is a new list of row lists.  The matrices are
tiny (fan ray matrices, at most a few dozen rows), so the
implementations favour clarity and exactness over asymptotics:

* ``hermite_normal_form``  -- column-style HNF with the unimodular column
  transform: a canonical form of a cone's generator matrix, which the
  tests use as an independent route to the maximal cones' multiplicities.
* ``fraction_free_solve_rows`` -- fraction-free Gauss-Jordan (Bareiss)
  elimination on the rows of ``[a | b]``, ``det a`` and ``|det a| . a^-1
  . b`` in integers: the elimination solve (the eliminated variables as
  combinations of the kept ones, with integer coefficients when the
  elimination cone is unimodular), and fan validation's one solve per
  wall-connected piece.  It holds the module's one elimination loop.
* ``determinant``          -- that loop with an empty right-hand side.
  Validation derives the maximal cones' determinants without it, so it
  serves only the report of a malformed cone during validation.
* ``rational_rref``        -- reduced row echelon form over the rationals;
  no longer called by the library, kept as public API and as the tests'
  oracle for the elimination solve and the Macaulay presentation.
* ``column_lattice_index`` -- the index of an integer column span inside
  the lattice points of its real span, via a left-unimodular echelon form:
  the multiplicity of every cone that validation did not cache, ``|det|``
  on a square matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalError

__all__ = [
    "hermite_normal_form",
    "strip_zero_rows",
    "determinant",
    "fraction_free_solve_rows",
    "rational_rref",
    "column_lattice_index",
]

# An n x d matrix as its n rows of d entries each.
Rows = Sequence[Sequence[int]]


def hermite_normal_form(m: Rows) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite normal form ``H`` of ``m`` with transform ``T``.

    Returns ``(H, T)`` as row lists, with ``m . T == H`` and ``T`` square
    unimodular (``|det T| = 1``).  The canonical form fixed here: each
    column's first nonzero entry (its pivot) is positive, pivots sit in
    strictly increasing row positions from left to right, and within a
    pivot row every entry to the left of the pivot is reduced into ``[0,
    pivot)``.

    Raises ``ValueError`` for a matrix that is wider than tall
    ("over-wide matrix") or of deficient column rank ("not simplicial" --
    the caller-facing meaning: linearly dependent cone generators).
    """
    n, d = len(m), len(m[0]) if m else 0
    if n < d:
        raise ValueError("over-wide matrix")
    a = [list(row) for row in m]
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
    return a, t


def pivot_rows(h: Rows) -> list[int]:
    """Row index of each column's first nonzero entry, for an HNF output."""
    out = []
    for j in range(len(h[0]) if h else 0):
        for i, row in enumerate(h):
            if row[j]:
                out.append(i)
                break
    return out


def strip_zero_rows(h: Rows) -> list[list[int]]:
    """Square block of the pivot rows of an HNF output.

    For a rank-``d`` input whose ``n - d`` non-pivot rows are all zero this
    is literally "drop the zero rows"; in every case it keeps exactly the
    rows carrying a pivot.
    """
    piv = pivot_rows(h)
    if len(piv) != (len(h[0]) if h else 0) or len(piv) != len(set(piv)):
        raise InternalError("stripped HNF block is not square; rank contract violated upstream")
    return [list(h[i]) for i in piv]


def determinant(m: Rows) -> int:
    """Exact determinant: ``fraction_free_solve_rows`` of a copy of the
    rows of ``m`` with an empty right-hand side."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("determinant of a non-square matrix")
    return fraction_free_solve_rows([list(row) for row in m])[0]


def fraction_free_solve_rows(m: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """Solve ``a . Y = b`` in integers, given the n rows of ``[a | b]`` as
    lists (overwritten): ``(det a, X)`` with ``X = |det a| . a^-1 . b`` as
    row lists.

    Fraction-free Gauss-Jordan elimination: step k replaces every entry
    outside the pivot row by ``(a[i][j] * akk - a[i][k] * a[k][j]) //
    prev``, an exact division that clears column k.  Then the left block
    is ``|det a|`` times the identity, and the right block is ``X``; the
    sign of ``det a`` is tracked through the row swaps and negations.
    Cone ray matrices are sparse with entries mostly 0 and +-1, so two
    kinds of no-op work are skipped: a negative pivot row is negated, so
    unit pivots stay at 1, and when ``akk == prev`` only rows with a
    nonzero pivot-column entry and only the pivot row's nonzero columns
    change.  With ``b`` the identity, ``X`` is the adjugate up to sign.  A
    singular ``a`` gives ``(0, None)``.
    """
    n = len(m)
    width = len(m[0]) if m else 0
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot = m[k]
        akk = pivot[k]
        if akk < 0:
            pivot = m[k] = [-x for x in pivot]
            akk = -akk
            sign = -sign
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
    return sign * prev, [row[n:] for row in m]


def rational_rref(m: Sequence[Sequence]) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form over the rationals, as rows of
    ``Fraction``, with the pivot columns."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows, ncols = len(a), len(a[0]) if a else 0
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
    return a, tuple(pivots)


def column_lattice_index(m: Rows) -> int:
    """Index of the column span of ``m`` inside the lattice points of its
    real span.

    Computed by a left-unimodular row reduction (a change of basis of the
    ambient lattice), which brings ``m`` to an upper-triangular block over
    genuine zero rows; the index is the product of the pivot magnitudes.
    For square ``m`` this equals ``|det m|``.  Raises ``ValueError`` ("not
    simplicial") when the columns are linearly dependent.
    """
    n, d = len(m), len(m[0]) if m else 0
    if n < d:
        raise ValueError("over-wide matrix")
    # The reduction replaces rows and never writes into one, so a copy of
    # the row list keeps the caller's rows unchanged.
    a = list(m)
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
