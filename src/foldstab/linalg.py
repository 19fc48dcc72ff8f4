"""Exact linear algebra over Fraction and over the integers.

Matrices are immutable tuples of row tuples.  Rational routines accept any
entries that support field arithmetic (Fraction or int); integer routines
require ints and keep everything integral.

The Smith normal form routine returns explicit unimodular transforms, which is
what the integer kernel computation needs: rows of the left transform opposite
zero rows of the diagonal form are a basis of the left kernel, primitive and
spanning a direct summand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Freeze nested sequences into a matrix of Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def int_identity(n: int) -> IntMatrix:
    return identity(n, 1, 0)  # type: ignore[arg-type]


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


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    rows = [list(map(Fraction, row)) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel {v : a v = 0}, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other free
    columns, so the result is deterministic.
    """
    if not a:
        return ()
    r, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return () if all(x == 0 for x in b) else None
    aug = tuple(row + (bv,) for row, bv in zip(a, b))
    r, pivots = rref(aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = r[i][ncols]
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = tuple(row + ident_row for row, ident_row in zip(a, identity(n)))
    r, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in r)


def bareiss_update(row: list[int], prow: list[int], col: int, d: int) -> list[int]:
    """A row after a fraction-free pivot on prow[col] (Bareiss 1968).

    With p = prow[col] and d the previous pivot, row y becomes
    (p y - y[col] prow) // d.  The division is exact when every entry is d
    times its rational value, which the update keeps, with p as the new d.
    """
    p = prow[col]
    f = row[col]
    if f == 0:
        return row if p == d else [p * x // d for x in row]
    if d == 1:
        return [p * x - f * y for x, y in zip(row, prow)]
    return [(p * x - f * y) // d for x, y in zip(row, prow)]


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix of determinant +-1, in integers.

    Fraction-free Gauss-Jordan on [a | I] with `bareiss_update`: the last
    pivot is +-det(a), the left block ends as that pivot times I and the
    right block as the pivot times a^-1.  Raises ValueError when the
    determinant is not +-1.
    """
    n = len(a)
    rows = [list(row) + list(unit) for row, unit in zip(a, int_identity(n))]
    d = 1
    sign = 1
    for k in range(n):
        r = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if r is None:
            raise ValueError("matrix is singular")
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        prow = rows[k]
        rows = [row if i == k else bareiss_update(row, prow, k, d) for i, row in enumerate(rows)]
        d = prow[k]
    if d not in (1, -1):
        raise ValueError(f"determinant {sign * d} is not +-1")
    return tuple(tuple(d * x for x in row[n:]) for row in rows)


def _row_op(m: list[list[int]], i: int, j: int, q: int) -> None:
    """row_i -= q * row_j"""
    m[i] = [a - q * b for a, b in zip(m[i], m[j])]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, V) and diagonal D with U a V = D.

    D has nonnegative diagonal entries, each dividing the next.  Everything is
    exact integer arithmetic; U and V are built by mirroring the row and
    column operations.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in int_identity(m)]
    v = [list(row) for row in int_identity(n)]

    def col_op(j: int, k: int, q: int) -> None:
        # col_j -= q * col_k, mirrored on v
        for row in d:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(m, n):
        # Find the nonzero entry of least magnitude in the trailing block.
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        dirty = False
        for i in range(k + 1, m):
            if d[i][k] != 0:
                q = d[i][k] // d[k][k]
                _row_op(d, i, k, q)
                _row_op(u, i, k, q)
                dirty = dirty or d[i][k] != 0
        for j in range(k + 1, n):
            if d[k][j] != 0:
                q = d[k][j] // d[k][k]
                col_op(j, k, q)
                dirty = dirty or d[k][j] != 0
        if dirty:
            continue
        # Enforce divisibility of the rest of the block by d[k][k].
        witness = next(
            ((i, j) for i in range(k + 1, m) for j in range(k + 1, n) if d[i][j] % d[k][k] != 0),
            None,
        )
        if witness is not None:
            i = witness[0]
            _row_op(d, k, i, -1)  # row_k += row_i
            _row_op(u, k, i, -1)
            continue
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
    )


def normalize_int_vector(v: Sequence[int]) -> IntVector:
    """Divide by the gcd and make the first nonzero entry positive."""
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(v)
    w = [x // g for x in v]
    lead = next((x for x in w if x != 0), 0)
    if lead < 0:
        w = [-x for x in w]
    return tuple(w)


def integer_left_kernel(a: IntMatrix) -> tuple[IntVector, ...]:
    """Basis of {x integral : x a = 0}, primitive rows, sorted, sign-normalized.

    The basis spans the kernel as a direct summand of Z^m: the rows come from
    a unimodular transform, so any integral kernel element is an integral
    combination of them.
    """
    if not a:
        return ()
    u, d, _ = smith_normal_form(a)
    nonzero = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    rows = [normalize_int_vector(u[i]) for i in range(nonzero, len(a))]
    return tuple(sorted(rows))
