from __future__ import annotations

import random
from fractions import Fraction

import pytest

from foldstab.linalg import (
    echelon,
    int_identity,
    integer_left_kernel,
    inverse,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    normalize_int_vector,
    pivot_columns,
    scaled_to_ints,
    solve,
    transpose,
    unimodular_inverse,
    unimodular_solve,
    vec_mat,
)
from foldstab.quiver import euler_form_cy3
from foldstab.specfile import parse_quiver
from oracles import (
    fraction_det,
    fraction_inverse,
    fraction_rref,
    smith_left_kernel,
    smith_normal_form,
)
from properties import seeded_dynkin_spec


def _int_mul(x, y):
    n, k, m = len(x), len(y), len(y[0])
    return tuple(
        tuple(sum(x[i][t] * y[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def _int_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def test_pivot_columns() -> None:
    assert pivot_columns(mat([[0, 2, 4], [1, 1, 1]])) == (0, 1)
    assert pivot_columns(((0, 0, 3), (0, 1, 1), (0, 2, 2))) == (1, 2)
    assert pivot_columns(((0, 0),)) == ()


def test_pivot_count_and_kernel() -> None:
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert len(pivot_columns(m)) == 2
    basis = kernel_basis(m, 3)
    assert len(basis) == 1
    for row in m:
        assert sum(c * x for c, x in zip(row, basis[0])) == 0


def test_kernel_of_full_rank_matrix_is_empty() -> None:
    assert kernel_basis(mat([[1, 0], [0, 1]]), 2) == ()


def test_kernel_basis_takes_its_width() -> None:
    assert kernel_basis((), 3) == int_identity(3)
    assert kernel_basis((), 0) == ()
    assert kernel_basis(((), ()), 0) == ()
    for a, ncols in ((((1, 2),), 3), (((1, 2), (1,)), 2), (((),), 1), (((0,),), 0)):
        with pytest.raises(ValueError, match=f"^a row is not {ncols} wide$"):
            kernel_basis(a, ncols)


def test_solve_and_inverse_round_trip() -> None:
    a = mat([[2, 1], [1, 1]])
    b = (Fraction(3), Fraction(2))
    x = solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b
    ainv = inverse(a)
    assert mat_mul(a, ainv) == int_identity(2)
    assert solve(mat([[1, 1], [1, 1]]), (Fraction(0), Fraction(1))) is None


def _seeded_matrix(rng: random.Random) -> tuple:
    """A small matrix, often rectangular or rank-deficient, sometimes with
    Fraction entries, a zero row or a zero column."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    fractions = rng.random() < 0.3

    def entry():
        if rng.random() < 0.3:
            return 0
        if fractions:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return rng.randint(-3, 3)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:
        i, j, k = rng.sample(range(nrows), 3)
        rows[k] = [rng.randint(-2, 2) * x + y for x, y in zip(rows[i], rows[j])]
    if rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.2:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = 0
    return tuple(tuple(row) for row in rows)


def test_echelon_routines_match_the_fraction_reference() -> None:
    rng = random.Random(11)
    signs = set()
    for _ in range(400):
        a = _seeded_matrix(rng)
        nrows, ncols = len(a), len(a[0])
        ref, ref_pivots = fraction_rref(a)
        ints = [scaled_to_ints(row)[0] for row in a]
        rows, pivots, d, sign = echelon(ints)
        signs.add(d > 0)
        assert pivots == ref_pivots
        assert [[Fraction(x, d) for x in row] for row in rows] == [list(row) for row in ref]
        assert all(rows[i][p] == d for i, p in enumerate(pivots))
        if nrows == ncols:
            assert (sign * d if len(pivots) == nrows else 0) == fraction_det(ints)
        assert pivot_columns(a) == ref_pivots

        free = [c for c in range(ncols) if c not in ref_pivots]
        basis = kernel_basis(a, ncols)
        assert len(basis) == len(free)
        for f, v in zip(free, basis):
            assert all(type(x) is int for x in v)
            assert v[f] == abs(d) and all(v[g] == 0 for g in free if g != f)
            assert all(x == 0 for x in mat_vec(a, v))
            # v is |d| times the reference kernel vector of its free column.
            assert all(v[p] == -abs(d) * ref[i][f] for i, p in enumerate(ref_pivots))

        x0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ncols))
        for b in (mat_vec(a, x0), tuple(Fraction(rng.randint(-2, 2)) for _ in range(nrows))):
            aug, aug_pivots = fraction_rref(tuple((*row, bv) for row, bv in zip(a, b)))
            x = solve(a, b)
            if ncols in aug_pivots:
                assert x is None
            else:
                assert x is not None and mat_vec(a, x) == b
                assert all(x[p] == aug[i][ncols] for i, p in enumerate(aug_pivots))

        if nrows == ncols:
            try:
                expected = fraction_inverse(a)
            except ValueError:
                with pytest.raises(ValueError, match="singular"):
                    inverse(a)
            else:
                assert inverse(a) == expected
    assert signs == {True, False}


def test_echelon_of_no_rows() -> None:
    assert echelon([]) == ([], (), 1, 1)
    assert pivot_columns(()) == () and integer_left_kernel(()) == ()


@pytest.mark.parametrize(
    "family,ranks", [("A", range(1, 9)), ("D", range(4, 9)), ("E", range(6, 9))]
)
def test_integer_kernel_equals_the_smith_kernel(family, ranks) -> None:
    for n in ranks:
        for seed in range(20):
            q, _ = parse_quiver(seeded_dynkin_spec(family, n, seed))
            form = euler_form_cy3(q)
            assert integer_left_kernel(form) == smith_left_kernel(form)


def test_vec_mat_is_row_action() -> None:
    a = mat([[1, 2], [3, 4]])
    assert vec_mat((Fraction(1), Fraction(1)), a) == (Fraction(4), Fraction(6))
    assert transpose(a) == mat([[1, 3], [2, 4]])


def test_smith_normal_form_properties() -> None:
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    u, d, v = smith_normal_form(a)
    assert _int_mul(_int_mul(u, a), v) == d
    assert abs(_int_det(u)) == 1
    assert abs(_int_det(v)) == 1
    diag = [d[i][i] for i in range(3)]
    assert all(d[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    for first, second in zip(diag, diag[1:]):
        if second != 0:
            assert second % first == 0


def test_smith_normal_form_rectangular() -> None:
    a = ((1, 2, 3), (4, 5, 6))
    u, d, v = smith_normal_form(a)
    assert _int_mul(_int_mul(u, a), v) == d
    assert d[0][0] == 1 and d[1][1] == 3


def test_integer_left_kernel() -> None:
    b = ((1, 2), (2, 4), (0, 0))
    kern = integer_left_kernel(b)
    assert len(kern) == 2
    for u in kern:
        assert all(sum(u[i] * b[i][j] for i in range(3)) == 0 for j in range(2))
    assert integer_left_kernel(int_identity(3)) == ()


def test_normalize_int_vector() -> None:
    assert normalize_int_vector((-4, 0, 6)) == (2, 0, -3)
    assert normalize_int_vector((0, 0, 0)) == (0, 0, 0)
    assert normalize_int_vector((5,)) == (1,)


def test_unimodular_inverse_matches_rational_inverse() -> None:
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [list(row) for row in int_identity(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                q = rng.randint(-2, 2)
                a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            if rng.random() < 0.3:
                a[i] = [-x for x in a[i]]
        a = tuple(tuple(row) for row in a)
        assert abs(_int_det(a)) == 1
        ainv = unimodular_inverse(a)
        assert all(type(x) is int for row in ainv for x in row)
        assert _int_mul(ainv, a) == int_identity(n)
        assert ainv == fraction_inverse(a)


def test_unimodular_inverse_needs_a_leading_row_swap() -> None:
    a = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert unimodular_inverse(a) == a


@pytest.mark.parametrize(
    "a,message",
    [
        (((1, 2), (2, 4)), "singular"),
        (((0, 0), (0, 1)), "singular"),
        (((2, 0), (0, 1)), "determinant 2 "),
        (((1, 1, 0), (1, -1, 0), (0, 0, 1)), "determinant -2 "),
    ],
)
def test_unimodular_inverse_rejects_other_determinants(a, message) -> None:
    with pytest.raises(ValueError, match=message):
        unimodular_inverse(a)


def test_unimodular_solve_matches_inverse_rows() -> None:
    """X b = k from one solve equals k times the Fraction inverse, row by row."""
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 6)
        b = [list(row) for row in int_identity(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                q = rng.randint(-2, 2)
                b[i] = [x + q * y for x, y in zip(b[i], b[j])]
            if rng.random() < 0.3:
                b[i] = [-x for x in b[i]]
        rng.shuffle(b)
        b = tuple(tuple(row) for row in b)
        assert abs(_int_det(b)) == 1
        k = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 3)))
        x = unimodular_solve(b, k)
        assert all(type(v) is int for row in x for v in row)
        assert x == tuple(vec_mat(row, inverse(b)) for row in k)


@pytest.mark.parametrize(
    "b,message",
    [
        (((1, 2), (2, 4)), "matrix is singular"),
        (((0, 0), (0, 1)), "matrix is singular"),
        (((2, 0), (0, 1)), "determinant 2 is not +-1"),
        (((1, 1, 0), (1, -1, 0), (0, 0, 1)), "determinant -2 is not +-1"),
    ],
)
def test_unimodular_solve_raises_the_inverse_errors(b, message) -> None:
    for k in ((), (tuple(range(1, len(b) + 1)),)):
        with pytest.raises(ValueError) as info:
            unimodular_solve(b, k)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        unimodular_inverse(b)
    assert str(info.value) == message
