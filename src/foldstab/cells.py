"""Stability cells of hearts and their linear slices.

A central charge assigns each simple of a heart a complex number in the
closed-upper-half-plane region H = {Im z > 0} union {Im z = 0, Re z > 0}.
A cell is cut out of H^n by rational linear constraints C (numerical ones
from the kernel of the pairing form, or stability ones from a quiver
automorphism).  A charge lies on the real axis at the pinned coordinates Q
and above it elsewhere, so each Q is a branch with two strict rational
systems: the imaginary parts (C y = 0, y_Q = 0, y > 0 off Q) and the real
parts (C x = 0, x > 0 on Q).

The imaginary system is solvable only when the complement of Q is the
support of a nonnegative vector of ker C, so Q contains the complement of
the maximal support S (Goldman-Tucker).  A short chain of exact LPs finds
~S: each infeasible step's Farkas multipliers name coordinates that vanish
on every such vector, and they are pinned before the next step.  A real
system solvable on Q stays solvable on every subset of Q, so the cell is
nonempty iff the real system on ~S is solvable.  When it is not, the
infeasibility certificate of every one of the 2^n branches is read off the
chain's certificates, with no further LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InternalError
from .hearts import Heart, heart_k_matrix, heart_label
from .linalg import IntMatrix, rank, unimodular_inverse, vec_mat
from .quiver import Automorphism, ValuedQuiver
from .ratlp import Infeasibility, Row, solve_strict_system, verify_infeasibility
from .reps import Catalog

_ZERO = Fraction(0)
_ONE = Fraction(1)

Complex = tuple[Fraction, Fraction]


def heart_basis_inverse(catalog: Catalog, heart: Heart) -> IntMatrix:
    """Inverse of the heart's K-matrix, whose rows are the simples' classes.

    The simples of a heart form a basis of K(D), so the matrix is unimodular
    and its inverse is integral; any other determinant is an internal error.
    """
    try:
        return unimodular_inverse(heart_k_matrix(catalog, heart))
    except ValueError as exc:
        raise InternalError(
            f"K-matrix of heart {heart_label(catalog, heart)} is not unimodular: {exc}"
        ) from None


def vertex_functionals_to_heart(catalog: Catalog, heart: Heart, rows) -> tuple[Row, ...]:
    """Rewrite functionals on vertex charges as functionals on simple charges."""
    binv = heart_basis_inverse(catalog, heart)
    return tuple(vec_mat(row, binv) for row in rows)


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


@dataclass(frozen=True)
class BranchCertificate:
    real_axis: tuple[int, ...]  # coordinates pinned to the real axis
    axis: str  # "im" or "re": which half of the branch is infeasible
    certificate: Infeasibility


@dataclass(frozen=True)
class CellClassification:
    feasible: bool
    witness: tuple[Complex, ...] | None
    certificates: tuple[BranchCertificate, ...] | None


def _branches(n: int):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def _unit_row(n: int, j: int) -> Row:
    return tuple(1 if i == j else 0 for i in range(n))


def _im_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C y = 0, y_j = 0 on real_axis, y_j > 0 off it."""
    eqs = tuple(constraints) + tuple(_unit_row(n, j) for j in real_axis)
    return eqs, tuple(_unit_row(n, j) for j in range(n) if j not in real_axis)


def _re_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C x = 0, x_j > 0 on real_axis."""
    return tuple(constraints), tuple(_unit_row(n, j) for j in real_axis)


def classify_cell(constraints: tuple[Row, ...], n: int) -> CellClassification:
    """Decide whether the constrained cell meets H^n, with proof either way.

    The chain starts with nothing pinned.  While the imaginary system is
    infeasible, every free coordinate with a positive multiplier is pinned
    and the system is solved again; the chain ends at ~S and costs at most
    n + 1 solves.  One more solve, of the real system on ~S, decides the
    cell.  A nonempty cell's witness is the first branch of `_branches` with
    both systems solvable, which is ~S.  An empty cell gets a certificate
    for every branch, read off the chain by `_branch_certificate`.
    """
    if not constraints:
        return CellClassification(True, ((_ZERO, _ONE),) * n, None)
    pinned: tuple[int, ...] = ()
    chain = []
    while True:
        y_res = solve_strict_system(*_im_system(constraints, pinned, n), n)
        if not isinstance(y_res, Infeasibility):
            break
        chain.append((pinned, y_res))
        free = (j for j in range(n) if j not in pinned)
        vanish = {j for j, lam in zip(free, y_res.positive_multipliers) if lam > 0}
        pinned = tuple(sorted(vanish.union(pinned)))
    x_res = solve_strict_system(*_re_system(constraints, pinned, n), n)
    if not isinstance(x_res, Infeasibility):
        return CellClassification(True, tuple(zip(x_res.point, y_res.point)), None)
    m = len(constraints)
    certs = tuple(_branch_certificate(q, pinned, x_res, chain, m, n) for q in _branches(n))
    return CellClassification(False, None, certs)


def _branch_certificate(
    real_axis: tuple[int, ...],
    pinned: tuple[int, ...],
    x_cert: Infeasibility,
    chain: list[tuple[tuple[int, ...], Infeasibility]],
    m: int,
    n: int,
) -> BranchCertificate:
    """Infeasibility of one branch, derived from the chain with no LP.

    A branch containing ~S (= pinned) inherits the real certificate of ~S,
    its multipliers zero-extended.  Any other branch contains some chain
    step P whose multipliers are positive somewhere off the branch: those
    off the branch stay positive multipliers, those on it move to the
    branch's unit rows, and the sum is scaled up to at least 1.
    """
    q = set(real_axis)
    if q.issuperset(pinned):
        lam = dict(zip(pinned, x_cert.positive_multipliers))
        pos = tuple(lam.get(j, _ZERO) for j in real_axis)
        return BranchCertificate(real_axis, "re", Infeasibility(pos, x_cert.equality_multipliers))
    for p, cert in chain:
        if not q.issuperset(p):
            continue
        lam = dict(zip((j for j in range(n) if j not in p), cert.positive_multipliers))
        pos = tuple(lam[j] for j in range(n) if j not in q)
        total = sum(pos)
        if total == 0:
            continue
        on_branch = {**lam, **dict(zip(p, cert.equality_multipliers[m:]))}
        eq = cert.equality_multipliers[:m] + tuple(on_branch[j] for j in real_axis)
        if total < 1:
            pos, eq = tuple(v / total for v in pos), tuple(v / total for v in eq)
        certificate = Infeasibility(pos, eq)
        return BranchCertificate(real_axis, "im", certificate)
    raise InternalError(f"no chain step certifies branch {real_axis}")


def in_half_plane(z: Complex) -> bool:
    x, y = z
    return y > 0 or (y == 0 and x > 0)


def verify_classification(
    constraints: tuple[Row, ...], cls: CellClassification, n: int
) -> bool:
    """Recheck a classification from scratch; used by callers as an audit."""
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
    if cls.certificates is None:
        return False
    seen = {c.real_axis: c for c in cls.certificates}
    for real_axis in _branches(n):
        c = seen.get(real_axis)
        if c is None:
            return False
        system = _im_system if c.axis == "im" else _re_system
        eqs, pos = system(constraints, real_axis, n)
        if not pos:
            return False
        if not verify_infeasibility(eqs, pos, c.certificate):
            return False
    return True


def slices_equal(rows_a, rows_b) -> bool:
    """Equality of rational row spans."""
    a = tuple(tuple(Fraction(c) for c in r) for r in rows_a)
    b = tuple(tuple(Fraction(c) for c in r) for r in rows_b)
    if not a and not b:
        return True
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    both = a + b
    return ra == rb == rank(both)


def fold_charge(vq: ValuedQuiver, charge: tuple[Complex, ...]) -> tuple[Complex, ...]:
    """Push a vertex charge down to orbit vertices by summing over orbits."""
    q = vq.source
    out = []
    for ov in vq.vertices:
        re = sum((charge[q.vertex_index[v]][0] for v in ov.members), _ZERO)
        im = sum((charge[q.vertex_index[v]][1] for v in ov.members), _ZERO)
        out.append((re, im))
    return tuple(out)


def unfold_charge(vq: ValuedQuiver, folded: tuple[Complex, ...]) -> tuple[Complex, ...]:
    """Spread an orbit charge evenly over each orbit's members."""
    q = vq.source
    by_orbit = {ov.name: (ov, z) for ov, z in zip(vq.vertices, folded)}
    out: list[Complex] = [None] * len(q.vertices)  # type: ignore[list-item]
    for ov, z in by_orbit.values():
        m = len(ov.members)
        for v in ov.members:
            out[q.vertex_index[v]] = (z[0] / m, z[1] / m)
    return tuple(out)
