"""Stability cells of hearts and their linear slices.

A central charge assigns each simple of a heart a complex number in the
closed-upper-half-plane region H = {Im z > 0} union {Im z = 0, Re z > 0}.
A cell is cut out of H^n by rational linear constraints (numerical ones from
the kernel of the pairing form, or stability ones from a quiver
automorphism).  Feasibility splits over the subset of coordinates pinned to
the real axis; each branch is a pair of strict rational systems, one for the
imaginary parts and one for the real parts, decided exactly with a witness
or a verified infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InternalError
from .hearts import Heart, heart_k_matrix
from .linalg import inverse, mat, rank, vec_mat
from .quiver import Automorphism, ValuedQuiver, euler_form_cy3, integer_kernel
from .ratlp import Infeasibility, Row, solve_strict_system, verify_infeasibility
from .reps import Catalog

_ZERO = Fraction(0)
_ONE = Fraction(1)

Complex = tuple[Fraction, Fraction]


def _heart_basis_inverse(catalog: Catalog, heart: Heart):
    b = mat([[Fraction(c) for c in row] for row in heart_k_matrix(catalog, heart)])
    return inverse(b)


def vertex_functionals_to_heart(catalog: Catalog, heart: Heart, rows) -> tuple[Row, ...]:
    """Rewrite functionals on vertex charges as functionals on simple charges."""
    binv = _heart_basis_inverse(catalog, heart)
    out = []
    for row in rows:
        v = tuple(Fraction(c) for c in row)
        out.append(vec_mat(v, binv))
    return tuple(out)


def numerical_constraints(catalog: Catalog, heart: Heart) -> tuple[Row, ...]:
    """Charge must kill the kernel of the antisymmetrized pairing."""
    form = euler_form_cy3(catalog.quiver)
    return vertex_functionals_to_heart(catalog, heart, integer_kernel(form))


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
    return tuple(_ONE if i == j else _ZERO for i in range(n))


def classify_cell(constraints: tuple[Row, ...], n: int) -> CellClassification:
    """Decide whether the constrained cell meets H^n, with proof either way."""
    certs = []
    for real_axis in _branches(n):
        pinned = set(real_axis)
        y_eq = tuple(constraints) + tuple(_unit_row(n, j) for j in real_axis)
        y_pos = tuple(_unit_row(n, j) for j in range(n) if j not in pinned)
        y_res = solve_strict_system(y_eq, y_pos, n)
        if isinstance(y_res, Infeasibility):
            certs.append(BranchCertificate(real_axis, "im", y_res))
            continue
        x_eq = tuple(constraints)
        x_pos = tuple(_unit_row(n, j) for j in real_axis)
        x_res = solve_strict_system(x_eq, x_pos, n)
        if isinstance(x_res, Infeasibility):
            certs.append(BranchCertificate(real_axis, "re", x_res))
            continue
        witness = tuple((x, y) for x, y in zip(x_res.point, y_res.point))
        return CellClassification(True, witness, None)
    return CellClassification(False, None, tuple(certs))


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
        pinned = set(real_axis)
        if c.axis == "im":
            eqs = tuple(constraints) + tuple(_unit_row(n, j) for j in real_axis)
            pos = tuple(_unit_row(n, j) for j in range(n) if j not in pinned)
        else:
            eqs = tuple(constraints)
            pos = tuple(_unit_row(n, j) for j in real_axis)
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
