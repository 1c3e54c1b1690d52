import random
from fractions import Fraction

import pytest
from helpers import (
    cofactor_det,
    fraction_det,
    fraction_solve,
    gcd_minors_index,
    is_column_hnf,
    matrix_mul,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toriccsm.errors import InternalError
from toriccsm.exact_linalg import (
    column_lattice_index,
    determinant,
    fraction_free_solve_rows,
    hermite_normal_form,
    pivot_rows,
    rational_rref,
    strip_zero_rows,
)


def test_hnf_identity():
    m = [[1, 0], [0, 1]]
    h, t = hermite_normal_form(m)
    assert h == m
    assert t == [[1, 0], [0, 1]]


def test_hnf_2x2_det_two():
    # columns (1,0) and (-1,-2): |det| = |1*(-2) - (-1)*0| = 2
    m = [[1, -1], [0, -2]]
    h, t = hermite_normal_form(m)
    assert matrix_mul(m, t) == h
    assert abs(determinant(strip_zero_rows(h))) == 2


def test_hnf_tall_already_reduced():
    m = [[1, 0], [0, 1], [0, 0]]
    h, t = hermite_normal_form(m)
    assert h == m
    assert t == [[1, 0], [0, 1]]


def test_hnf_rank_deficient():
    m = [[1, 2], [2, 4], [3, 6]]
    with pytest.raises(ValueError, match="not simplicial"):
        hermite_normal_form(m)


def test_hnf_over_wide():
    m = [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError, match="over-wide"):
        hermite_normal_form(m)


def test_strip_zero_rows():
    assert strip_zero_rows([[1, 0], [0, 1], [0, 0]]) == [[1, 0], [0, 1]]
    assert strip_zero_rows([[3]]) == [[3]]
    assert strip_zero_rows([[1, 0], [0, 2], [0, 0]]) == [[1, 0], [0, 2]]


def test_strip_zero_rows_rejects_rank_deficient():
    with pytest.raises(InternalError):
        strip_zero_rows([[0, 0], [0, 0]])


def test_determinant_examples():
    assert determinant([[int(i == j) for j in range(5)] for i in range(5)]) == 1
    assert determinant([[1, -1], [0, -2]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1


def test_determinant_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == cofactor_det(rows)


@st.composite
def square_matrices(draw):
    """Dense matrices, sparse 0/+-1 ones like cone ray matrices, and those
    with rows scaled (non-unit pivots), a zero leading entry (a row swap)
    or a row that is a combination of two others (singular)."""
    n = draw(st.integers(1, 7))
    sparse = draw(st.booleans())
    entries = st.sampled_from([0, 0, 0, 1, -1]) if sparse else st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        factor = draw(st.integers(2, 5))
        rows[i] = [factor * x for x in rows[i]]
    if draw(st.booleans()):
        rows[0][0] = 0
    if n > 2 and draw(st.booleans()):
        a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        c = draw(st.integers(-3, 3))
        rows[0] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=400, deadline=None, database=None)
@given(rows=square_matrices())
# step 0 has pivot 2 over rows whose first entry is 0: those rows must
# still be rescaled by 2 / 1 before step 1 divides by 2
@example(rows=[[2, 0, 0], [0, 1, 0], [0, 0, 1]])
@example(rows=[[0, -1, 0], [-3, 0, 1], [0, 0, 2]])
def test_determinant_matches_fraction_elimination(rows):
    assert determinant(rows) == fraction_det(rows)


@st.composite
def linear_systems(draw):
    """A square ``a`` as for the determinant test and a ``b`` with up to
    twice as many columns plus two."""
    a = draw(square_matrices())
    width = draw(st.integers(0, 2 * len(a) + 2))
    b = draw(st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                      min_size=len(a), max_size=len(a)))
    return a, b


@settings(max_examples=400, deadline=None, database=None)
@given(system=linear_systems())
# zero leading pivot (a row swap)
@example(system=([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1], [2], [3]]))
# negative and non-unit pivots; step 0 rescales rows whose first entry is 0
@example(system=([[-2, 0, 1], [0, 1, 0], [1, 0, -3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
# wide b
@example(system=([[2, 1], [1, 1]], [[1, 0, 3, -1, 2, 7], [0, 1, 1, 4, -2, -5]]))
# singular a
@example(system=([[1, 2], [2, 4]], [[1], [1]]))
def test_fraction_free_solve_matches_fraction_elimination(system):
    a, b = system
    d, x = fraction_free_solve_rows([ra + rb for ra, rb in zip(a, b)])
    assert d == fraction_det(a)
    solution = fraction_solve(a, b)
    if solution is None:
        assert fraction_det(a) == 0
        assert (d, x) == (0, None)
        return
    assert len(x) == len(a) and all(len(row) == len(b[0]) for row in x)
    assert all(type(v) is int for row in x for v in row)
    assert x == [[abs(d) * q for q in row] for row in solution]


def test_rational_rref_examples():
    z, piv = rational_rref([[0, 0], [0, 0]])
    assert z == [[0, 0], [0, 0]]
    assert piv == ()

    r, piv = rational_rref([[2, 4], [1, 2]])
    assert r == [[1, 2], [0, 0]]
    assert piv == (0,)

    r, piv = rational_rref([[1, 1], [0, 3]])
    assert r == [[1, 0], [0, 1]]
    assert piv == (0, 1)


def test_rational_rref_idempotent_and_rank():
    rng = random.Random(11)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        r, piv = rational_rref(m)
        r2, piv2 = rational_rref(r)
        assert r2 == r and piv2 == piv
        nonzero_rows = sum(1 for row in r if any(row))
        assert nonzero_rows == len(piv)


def _random_full_rank(rng, n, d):
    while True:
        rows = [[rng.randint(-20, 20) for _ in range(d)] for _ in range(n)]
        if gcd_minors_index(rows) != 0:
            return rows


def test_hnf_random_properties():
    rng = random.Random(2024)
    for _ in range(250):
        d = rng.randint(1, 5)
        n = rng.randint(d, 6)
        m = _random_full_rank(rng, n, d)
        h, t = hermite_normal_form(m)
        assert matrix_mul(m, t) == h
        assert abs(determinant(t)) == 1
        assert is_column_hnf(h)
        h2, t2 = hermite_normal_form(h)
        assert h2 == h and t2 == [[int(i == j) for j in range(d)] for i in range(d)]
        if n == d:
            assert abs(determinant(strip_zero_rows(h))) == abs(determinant(m))


def test_column_lattice_index_matches_minor_gcd_oracle():
    rng = random.Random(99)
    for _ in range(300):
        d = rng.randint(1, 4)
        n = rng.randint(d, 6)
        rows = _random_full_rank(rng, n, d)
        idx = column_lattice_index(rows)
        assert idx == gcd_minors_index(rows)
        if n == d:
            assert idx == abs(determinant(rows))


def test_column_lattice_index_known_cases():
    # span projection onto pivot rows is a proper sublattice here: the
    # honest index is 1 even though the HNF pivot block has determinant 2
    assert column_lattice_index([[1, 0], [0, 2], [3, 5]]) == 1
    assert column_lattice_index([[2, 0], [0, 2], [1, 1]]) == 2
    assert column_lattice_index([[0], [2], [5]]) == 1


@pytest.mark.parametrize(
    "routine, rows",
    [
        (column_lattice_index, [[1, 0], [0, 2], [3, 5]]),
        (column_lattice_index, [[0, 1, 0], [-3, 0, 1], [2, 1, 0], [0, 0, 2]]),
        (determinant, [[0, -1, 0], [-3, 0, 1], [0, 0, 2]]),
        (hermite_normal_form, [[1, -1], [0, -2], [3, 5]]),
        (pivot_rows, [[0, 2], [3, 1], [0, 0]]),
        (strip_zero_rows, [[1, 0], [0, 2], [0, 0]]),
        (rational_rref, [[2, 4, 1], [1, 2, 0], [0, 3, 3]]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_routines_take_rows_and_leave_them_unchanged(routine, rows):
    # One matrix format: a list of row lists or a tuple of tuples gives the
    # same result, and the caller's rows are never reduced in place.
    expected = routine([list(row) for row in rows])
    as_tuples = tuple(map(tuple, rows))
    assert routine(as_tuples) == expected
    assert as_tuples == tuple(map(tuple, rows))
    as_lists = [list(row) for row in rows]
    inner = list(as_lists)
    assert routine(as_lists) == expected
    assert as_lists == rows and all(a is b for a, b in zip(as_lists, inner))


def test_matrix_results_are_fresh_lists_of_rows():
    rows = [[1, 0], [0, 2], [0, 0]]
    for out in (*hermite_normal_form(rows), strip_zero_rows(rows), rational_rref(rows)[0]):
        assert type(out) is list and all(type(row) is list for row in out)
        out[0][0] = 99
    assert rows == [[1, 0], [0, 2], [0, 0]]
    assert all(type(q) is Fraction for row in rational_rref(rows)[0] for q in row)
