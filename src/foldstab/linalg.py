"""Exact linear algebra, eliminated in integers.

Matrices are immutable tuples of row tuples.  Every elimination is one
routine, `echelon`: fraction-free Gauss-Jordan (Bareiss 1968) on integer
rows, which keeps each row d times its rational value, d the last pivot.
Pivot columns (whose count is the rank), kernel bases, solutions, inverses,
unimodular solves and integer left kernels are all read off it.  The
routines that take Fraction entries (or ints) scale each row to integers
first; `solve` and `inverse` return Fractions, kernel bases stay
integral.  `kernel_basis` takes its width, so a system with no rows has the
identity as its basis.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    # Only the routines that return Fractions import fractions at run time:
    # the production path is integral, and the import costs start-up time.
    from fractions import Fraction

Vector = tuple["Fraction", ...]
Matrix = tuple[tuple["Fraction", ...], ...]
IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Freeze nested sequences into a matrix of Fractions."""
    from fractions import Fraction

    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def int_identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    """Matrix product; works for Fraction and for int matrices alike."""
    if not a or not b:
        return ()
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_mat(v, a):
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))) if a else ()


def scaled_to_ints(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    s = lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def bareiss_pivot(rows: list[list[int]], r: int, col: int, d: int) -> None:
    """Pivot on rows[r][col] in place, fraction-free (Bareiss 1968).

    With p = rows[r][col] and d the previous pivot, every other row y
    becomes (p y - y[col] rows[r]) // d.  The division is exact when every
    entry is d times its rational value, which the pivot keeps, with p as
    the new d.  A row with a zero in column col is only rescaled by p / d.
    """
    prow = rows[r]
    p = prow[col]
    for i, row in enumerate(rows):
        f = row[col]
        if i == r or (f == 0 and p == d):
            continue
        if f == 0:
            rows[i] = [p * x // d for x in row]
        elif d == 1:
            rows[i] = [p * x - f * y for x, y in zip(row, prow)]
        else:
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], tuple[int, ...], int, int]:
    """Fraction-free Gauss-Jordan on integer rows: (rows, pivots, d, sign).

    Columns are scanned left to right and each pivot is the first nonzero
    entry at or below the current row, as in the rational rref.  At the end
    every pivot equals d, each row is d times its reduced row (the rows past
    the rank are zero), and sign * d is the determinant of a nonsingular
    square matrix, sign recording the row swaps.  d may be negative.
    """
    out = [list(row) for row in rows]
    ncols = len(out[0]) if out else 0
    pivots: list[int] = []
    d = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(out):
            break
        k = next((i for i in range(r, len(out)) if out[i][c] != 0), None)
        if k is None:
            continue
        if k != r:
            out[r], out[k] = out[k], out[r]
            sign = -sign
        bareiss_pivot(out, r, c, d)
        d = out[r][c]
        pivots.append(c)
    return out, tuple(pivots), d, sign


def _int_rows(a) -> list[list[int]]:
    """Rows of ints or Fractions, each scaled to integers."""
    return [scaled_to_ints(row)[0] for row in a]


def pivot_columns(a: Matrix) -> tuple[int, ...]:
    """The pivot columns of the reduced row echelon form; their number is the rank."""
    return echelon(_int_rows(a))[1]


def kernel_basis(a: Matrix, ncols: int) -> tuple[IntVector, ...]:
    """Integer basis of the right kernel {v : a v = 0} in Q^ncols, one vector per free column.

    Vector f is |d| times the rational kernel vector with a 1 in free column
    f and zeros in the other free columns, d the last pivot of `echelon`.
    The scale is the same positive number for every vector, so a linear
    program over their span sees the rational basis, only rescaled.  With
    no rows every column is free and the basis is the identity.  Raises
    ValueError when a row is not ncols wide.
    """
    if any(len(row) != ncols for row in a):
        raise ValueError(f"a row is not {ncols} wide")
    rows, pivots, d, _ = echelon(_int_rows(a))
    s = 1 if d > 0 else -1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = abs(d)
        for row, p in zip(rows, pivots):
            v[p] = -s * row[f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent."""
    from fractions import Fraction

    if not a:
        return () if all(x == 0 for x in b) else None
    ncols = len(a[0])
    rows, pivots, d, _ = echelon(_int_rows((*row, bv) for row, bv in zip(a, b)))
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[ncols], d)
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    from fractions import Fraction

    n = len(a)
    rows, pivots, d, _ = echelon(_int_rows((*row, *unit) for row, unit in zip(a, int_identity(n))))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)


def unimodular_solve(b: IntMatrix, k: IntMatrix) -> IntMatrix:
    """The integer X with X b = k, for an integer b of determinant +-1.

    `echelon` on [b^T | k^T] ends with the left block d I and the right
    block d X^T, where sign * d = det(b).  One row of k costs one column,
    so a few rows cost far less than the inverse.  Raises ValueError when
    the determinant is not +-1.
    """
    n = len(b)
    k_cols = list(zip(*k)) if k else [()] * n
    rows, pivots, d, sign = echelon([(*col, *kc) for col, kc in zip(zip(*b), k_cols)])
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    if d not in (1, -1):
        raise ValueError(f"determinant {sign * d} is not +-1")
    return tuple(tuple(d * row[n + j] for row in rows) for j in range(len(k)))


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix of determinant +-1: X a = I, in integers."""
    return unimodular_solve(a, int_identity(len(a)))


def normalize_int_vector(v: Sequence[int]) -> IntVector:
    """Divide by the gcd and make the first nonzero entry positive."""
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    w = [x // g for x in v]
    lead = next((x for x in w if x != 0), 0)
    if lead < 0:
        w = [-x for x in w]
    return tuple(w)


def integer_left_kernel(a: IntMatrix) -> tuple[IntVector, ...]:
    """Basis of {x : x a = 0}: the primitive `kernel_basis` of the transpose.

    Each vector is divided by its gcd and its first nonzero entry made
    positive, then the vectors are sorted.  They span the rational left
    kernel, one per free column.  That they also span every integral
    kernel vector is not automatic; for the antisymmetrized Euler forms
    of the Dynkin quivers the tests check it against a Smith normal form.
    """
    return tuple(sorted(normalize_int_vector(v) for v in kernel_basis(transpose(a), len(a))))
