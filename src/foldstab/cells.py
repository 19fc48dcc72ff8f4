"""Stability cells of hearts and their linear slices.

A central charge assigns each simple of a heart a complex number in the
closed-upper-half-plane region H = {Im z > 0} union {Im z = 0, Re z > 0}.
A cell is cut out of H^n by linear constraints C (numerical ones from the
kernel of the pairing form, or stability ones from a quiver automorphism).
The heart's basis change is unimodular, so C is an integer matrix.  A
charge lies on the real axis at the pinned coordinates Q and above it
elsewhere, so each Q is a branch with two strict integer systems: the
imaginary parts (C y = 0, y_Q = 0, y > 0 off Q) and the real parts
(C x = 0, x > 0 on Q).  Witnesses are therefore integer charges.

The imaginary system is solvable only when the complement of Q is the
support of a nonnegative vector of ker C, so Q contains the complement of
the maximal support S (Goldman-Tucker).  A short chain of exact LPs finds
~S: each infeasible step's Farkas multipliers name coordinates that vanish
on every such vector, and they are pinned before the next step.  A real
system solvable on Q stays solvable on every subset of Q, so the cell is
nonempty iff the real system on ~S is solvable.  When it is not, the chain
itself is the proof: its imaginary certificates and the real one on ~S, at
most n + 1 in all, rule out every one of the 2^n branches together.

A heart's rows are the vertex functionals r rewritten on its simples: the X
with X K = r, K the heart's K-matrix, from one unimodular solve and no
inverse.  Hearts share much of this work.  Each LP sees only ker C, up to a
positive scale, and its branch; so a `CellCache`, made for one graph and
dropped with it, keeps each LP outcome under (n, the primitive kernel of C,
branch, pinned set) and each classification under its rows.  Every heart
still settles each outcome against its own rows: its witness is checked,
and its certificates are built from its own equalities and verified.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InternalError
from .hearts import Heart, heart_k_matrix, heart_label
from .linalg import IntMatrix, int_identity, kernel_basis, pivot_columns, transpose, unimodular_solve
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


def heart_basis_inverse(catalog: Catalog, heart: Heart) -> IntMatrix:
    """Inverse of the heart's K-matrix, whose rows are the simples' classes."""
    return _solve_on_heart(catalog, heart, int_identity(len(heart.simples)))


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


class BranchCertificate(NamedTuple):
    real_axis: tuple[int, ...]  # coordinates pinned to the real axis
    axis: str  # "im" or "re": which half of the branch is infeasible
    certificate: Infeasibility


class CellClassification(NamedTuple):
    feasible: bool
    witness: tuple[Complex, ...] | None
    certificates: tuple[BranchCertificate, ...] | None


def _unit_row(n: int, j: int) -> Row:
    return tuple(1 if i == j else 0 for i in range(n))


def _im_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C y = 0, y_j = 0 on real_axis, y_j > 0 off it."""
    eqs = tuple(constraints) + tuple(_unit_row(n, j) for j in real_axis)
    return eqs, tuple(_unit_row(n, j) for j in range(n) if j not in real_axis)


def _re_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C x = 0, x_j > 0 on real_axis."""
    return tuple(constraints), tuple(_unit_row(n, j) for j in real_axis)


def _pinned_after(step: BranchCertificate, n: int) -> tuple[int, ...]:
    """The step's pinned coordinates and every free one with a positive multiplier."""
    free = (j for j in range(n) if j not in step.real_axis)
    lam = step.certificate.positive_multipliers
    return tuple(sorted({j for j, v in zip(free, lam) if v > 0}.union(step.real_axis)))


class CellCache:
    """What the cells of one graph share; `classify_cell` fills it.

    Make one per graph and drop it with the graph.  It keeps each whole
    classification under (rows, n), and each LP outcome (`ratlp.run_lp`)
    under (n, kernel, axis, pinned).  The kernel is the primitive basis of
    ker C: `kernel_basis` returns a positive multiple of the rational basis
    that the row space alone fixes, and the outcome does not change under
    that scale.  The LP's equalities are C and the pinned unit rows, so
    hearts whose rows differ but span the same space share every outcome,
    and each heart settles it against its own rows (`ratlp.settle`).
    """

    def __init__(self) -> None:
        self.cells: dict[tuple[tuple[Row, ...], int], CellClassification] = {}
        self.outcomes: dict[tuple, Witness | Row] = {}

    def solver(self, constraints: tuple[Row, ...], n: int):
        """The solve of `_chain` for these rows: an outcome is looked up, or found and kept."""
        null = kernel_basis(constraints, n)
        g = gcd(*(x for v in null for x in v)) or 1
        kernel = tuple(tuple(x // g for x in v) for v in null)

        def solve(axis: str, pinned: tuple[int, ...], eqs, pos):
            key = (n, kernel, axis, pinned)
            outcome = self.outcomes.get(key)
            if outcome is not None:
                return settle(outcome, eqs, pos)
            # ker C is the kernel of the real system and of the first imaginary one.
            res = solve_strict_system(eqs, pos, n, None if axis == "im" and pinned else null)
            self.outcomes[key] = res if isinstance(res, Witness) else res.positive_multipliers
            return res

        return solve


def classify_cell(
    constraints: tuple[Row, ...], n: int, cache: CellCache | None = None
) -> CellClassification:
    """Decide whether the constrained cell meets H^n, with proof either way.

    The chain starts with nothing pinned.  While the imaginary system is
    infeasible, every free coordinate with a positive multiplier is pinned
    and the system is solved again; the chain ends at ~S and costs at most
    n + 1 solves.  One more solve, of the real system on ~S, decides the
    cell.  A nonempty cell's witness lies on the branch ~S, the first branch
    with both systems solvable in order of size, then lexicographic.  An
    empty cell's certificates are the chain: one "im" certificate per
    infeasible step, in order, then the "re" certificate on ~S.  Each step
    pins at least one new coordinate, so there are at most n + 1.

    With a cache (`CellCache`), rows classified before get the same
    classification back, and an LP solved before for the same kernel is
    only settled against these rows.  The answer is the same either way.
    """
    if not constraints:
        return CellClassification(True, ((0, 1),) * n, None)
    if cache is None:
        def solve(axis, pinned, eqs, pos):
            return solve_strict_system(eqs, pos, n)

        return _chain(constraints, n, solve)
    key = (constraints, n)
    if key not in cache.cells:
        cache.cells[key] = _chain(constraints, n, cache.solver(constraints, n))
    return cache.cells[key]


def _chain(constraints: tuple[Row, ...], n: int, solve) -> CellClassification:
    """`classify_cell`'s chain, with solve(axis, pinned, equalities, positives) for each LP."""
    pinned: tuple[int, ...] = ()
    chain = []
    while True:
        y_res = solve("im", pinned, *_im_system(constraints, pinned, n))
        if not isinstance(y_res, Infeasibility):
            break
        chain.append(BranchCertificate(pinned, "im", y_res))
        pinned = _pinned_after(chain[-1], n)
    x_res = solve("re", pinned, *_re_system(constraints, pinned, n))
    if not isinstance(x_res, Infeasibility):
        return CellClassification(True, tuple(zip(x_res.point, y_res.point)), None)
    chain.append(BranchCertificate(pinned, "re", x_res))
    return CellClassification(False, None, tuple(chain))


def in_half_plane(z: Complex) -> bool:
    x, y = z
    return y > 0 or (y == 0 and x > 0)


def verify_classification(
    constraints: tuple[Row, ...], cls: CellClassification, n: int
) -> bool:
    """Recheck a classification from scratch, with no LP; callers audit with it.

    A witness is checked against the constraints and H.  An emptiness proof
    must start from nothing pinned, be "im" steps then one "re", pin at each
    link only what the previous step's positive multipliers allow, and carry
    a valid Farkas certificate of a system with a positive row at each step.
    That rules out every branch Q: the real certificate, zero-extended, does
    if Q contains the last set; otherwise the last step whose set Q contains
    has a positive multiplier off Q, and rules out Q's imaginary system.
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
    chain = cls.certificates
    if not chain or chain[0].real_axis != ():
        return False
    if any(c.axis != "im" for c in chain[:-1]) or chain[-1].axis != "re":
        return False
    for step, nxt in zip(chain, chain[1:]):
        if not set(nxt.real_axis).issubset(_pinned_after(step, n)):
            return False
    for c in chain:
        system = _im_system if c.axis == "im" else _re_system
        eqs, pos = system(constraints, c.real_axis, n)
        if not pos or not verify_infeasibility(eqs, pos, c.certificate):
            return False
    return True


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

