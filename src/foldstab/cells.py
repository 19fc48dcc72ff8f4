"""Stability cells of hearts and their linear slices.

A central charge assigns each simple of a heart a complex number in the
closed-upper-half-plane region H = {Im z > 0} union {Im z = 0, Re z > 0}.
A cell is cut out of H^n by linear constraints C (numerical ones from the
kernel of the pairing form, or stability ones from a quiver automorphism).
The heart's basis change is unimodular, so C is an integer matrix.

The cell {C x = 0, C y = 0, each (x_j, y_j) in H} is nonempty iff ker C
holds a strictly positive vector (Stiemke 1915).  A witness (x, y) gives
x + t y in ker C, and it is > 0 for large t: the t term wins where y_j > 0,
and H forces x_j > 0 where y_j = 0.  A v > 0 in ker C gives the witness
(0, v).  So one exact LP, C y = 0 with y > 0, decides the cell, and its
witness is an integer charge.  An infeasible LP's Farkas certificate has
lambda >= 0, lambda != 0 and lambda = -mu C; lambda then vanishes on both
parts of every charge in the cell, and so on x + t y > 0, which cannot be.
That one certificate rules out all 2^n ways to put the charges on or above
the real axis together.

A heart's rows are the vertex functionals r rewritten on its simples: the X
with X K = r, K the heart's K-matrix, from one unimodular solve and no
inverse.  Hearts share much of this work.  The LP sees only ker C, up to a
positive scale; so a `CellCache`, made for one graph and dropped with it,
keeps each LP outcome under (n, the primitive kernel of C) and each
classification under its rows.  Every heart still settles each outcome
against its own rows: its witness is checked, and its certificate is built
from its own equalities and verified.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InternalError
from .hearts import Heart, heart_k_matrix, heart_label
from .linalg import IntMatrix, kernel_basis, pivot_columns, transpose, unimodular_solve
from .quiver import Automorphism, ValuedQuiver
from .ratlp import Infeasibility, Row, Witness, settle, solve_strict_system, verify_infeasibility
from .reps import Catalog

Complex = tuple[int, int]


def _solve_on_heart(catalog: Catalog, heart: Heart, rows, transposed: bool = False) -> IntMatrix:
    """The integer X with X K = rows, or X K^T = rows if transposed.

    K is the heart's K-matrix, whose rows are the simples' classes.  The
    simples of a heart form a basis of K(D), so K is unimodular and X is
    integral; any other determinant is an internal error.
    """
    k = heart_k_matrix(catalog, heart)
    try:
        return unimodular_solve(transpose(k) if transposed else k, tuple(rows))
    except ValueError as exc:
        raise InternalError(
            f"K-matrix of heart {heart_label(catalog, heart)} is not unimodular: {exc}"
        ) from None


def vertex_functionals_to_heart(catalog: Catalog, heart: Heart, rows) -> tuple[Row, ...]:
    """Rewrite functionals on vertex charges as functionals on simple charges.

    A functional r on vertex charges is r K^-1 on simple charges: the X
    with X K = r, one solve for all rows, and no inverse.
    """
    return _solve_on_heart(catalog, heart, rows)


def vertex_charge(catalog: Catalog, heart: Heart, charge: tuple[Complex, ...]) -> tuple[Complex, ...]:
    """The vertex charges z of a charge on the heart's simples: K z = charge."""
    xs, ys = _solve_on_heart(catalog, heart, zip(*charge), transposed=True)
    return tuple(zip(xs, ys))


def numerical_constraints(catalog: Catalog, heart: Heart) -> tuple[Row, ...]:
    """Charge must kill the kernel of the antisymmetrized pairing."""
    if not catalog.cy3_kernel:
        return ()
    return vertex_functionals_to_heart(catalog, heart, catalog.cy3_kernel)


def f_constraint_rows(s: Automorphism) -> tuple[tuple[int, ...], ...]:
    """Vertex-basis functionals whose vanishing says the charge is stable."""
    q = s.quiver
    rows = []
    for orbit in s.vertex_orbits:
        for a, b in zip(orbit, orbit[1:]):
            row = [0] * len(q.vertices)
            row[q.vertex_index[a]] = 1
            row[q.vertex_index[b]] = -1
            rows.append(tuple(row))
    return tuple(rows)


def f_constraints(catalog: Catalog, s: Automorphism, heart: Heart) -> tuple[Row, ...]:
    return vertex_functionals_to_heart(catalog, heart, f_constraint_rows(s))


class CellClassification(NamedTuple):
    feasible: bool
    witness: tuple[Complex, ...] | None
    certificates: tuple[Infeasibility, ...] | None


def _unit_row(n: int, j: int) -> Row:
    return tuple(1 if i == j else 0 for i in range(n))


def _unit_rows(n: int) -> tuple[Row, ...]:
    return tuple(_unit_row(n, j) for j in range(n))


class CellCache:
    """What the cells of one graph share; `classify_cell` fills it.

    Make one per graph and drop it with the graph.  It keeps each whole
    classification under (rows, n), and each LP outcome (`ratlp.run_lp`)
    under (n, kernel).  The kernel is the primitive basis of ker C:
    `kernel_basis` returns a positive multiple of the rational basis that
    the row space alone fixes, and the outcome does not change under that
    scale.  So hearts whose rows differ but span the same space share the
    outcome, and each heart settles it against its own rows (`ratlp.settle`).
    """

    def __init__(self) -> None:
        self.cells: dict[tuple[tuple[Row, ...], int], CellClassification] = {}
        self.outcomes: dict[tuple, Witness | Row] = {}

    def solve(self, constraints: tuple[Row, ...], n: int) -> Witness | Infeasibility:
        """C y = 0, y > 0: an outcome is looked up, or found and kept."""
        null = kernel_basis(constraints, n)
        g = gcd(*(x for v in null for x in v)) or 1
        key = (n, tuple(tuple(x // g for x in v) for v in null))
        outcome = self.outcomes.get(key)
        if outcome is not None:
            return settle(outcome, constraints, _unit_rows(n))
        res = solve_strict_system(constraints, _unit_rows(n), n, null)
        self.outcomes[key] = res if isinstance(res, Witness) else res.positive_multipliers
        return res


def classify_cell(
    constraints: tuple[Row, ...], n: int, cache: CellCache | None = None
) -> CellClassification:
    """Decide whether the constrained cell meets H^n, with proof either way.

    One LP, C y = 0 with y > 0, decides it.  A nonempty cell's witness is
    (0, y_j) at each coordinate; an empty cell's proof is the one Farkas
    certificate of that LP.  With a cache (`CellCache`), rows classified
    before get the same classification back, and an LP solved before for
    the same kernel is only settled against these rows.  The answer is the
    same either way.
    """
    if not constraints:
        return CellClassification(True, ((0, 1),) * n, None)
    if cache is None:
        return _classification(solve_strict_system(constraints, _unit_rows(n), n))
    key = (constraints, n)
    if key not in cache.cells:
        cache.cells[key] = _classification(cache.solve(constraints, n))
    return cache.cells[key]


def _classification(res: Witness | Infeasibility) -> CellClassification:
    if isinstance(res, Infeasibility):
        return CellClassification(False, None, (res,))
    return CellClassification(True, tuple((0, y) for y in res.point), None)


def in_half_plane(z: Complex) -> bool:
    x, y = z
    return y > 0 or (y == 0 and x > 0)


def verify_classification(
    constraints: tuple[Row, ...], cls: CellClassification, n: int
) -> bool:
    """Recheck a classification from scratch, with no LP; callers audit with it.

    A witness is checked against the constraints and H.  An emptiness proof
    must be one valid Farkas certificate of C y = 0, y > 0.
    """
    if cls.feasible:
        if cls.witness is None or len(cls.witness) != n:
            return False
        if not all(in_half_plane(z) for z in cls.witness):
            return False
        for row in constraints:
            if sum(c * z[0] for c, z in zip(row, cls.witness)) != 0:
                return False
            if sum(c * z[1] for c, z in zip(row, cls.witness)) != 0:
                return False
        return True
    if cls.certificates is None or len(cls.certificates) != 1:
        return False
    return verify_infeasibility(constraints, _unit_rows(n), cls.certificates[0])


def slices_equal(rows_a, rows_b) -> bool:
    """Equality of rational row spans: each has the rank of their union."""
    a, b = tuple(rows_a), tuple(rows_b)
    return len(pivot_columns(a)) == len(pivot_columns(b)) == len(pivot_columns(a + b))


def fold_charge(vq: ValuedQuiver, charge: tuple[Complex, ...]) -> tuple[Complex, ...]:
    """Push a vertex charge down to orbit vertices by summing over orbits."""
    q = vq.source
    out = []
    for ov in vq.vertices:
        re = sum(charge[q.vertex_index[v]][0] for v in ov.members)
        im = sum(charge[q.vertex_index[v]][1] for v in ov.members)
        out.append((re, im))
    return tuple(out)

