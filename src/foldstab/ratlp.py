"""Exact feasibility for homogeneous systems of strict rational inequalities.

Decides whether E t = 0, P t > 0 has a solution, exactly.  Strict
feasibility is homogeneous, so it reduces to the bounded program
max eps subject to P t >= eps, eps <= 1 on the equality kernel; the optimum
is 0 or 1.  A positive optimum yields an explicit witness; a zero optimum
yields dual multipliers forming a certificate of infeasibility (lambda >= 0,
sum lambda >= 1, lambda P + mu E = 0), which is re-verified before return.

Rows may hold ints or Fractions.  The equality kernel is the integer
`linalg.kernel_basis`, the simplex runs on a fraction-free integer tableau
over it, and the certificate is checked on integer multipliers; the
equality multipliers come from `linalg.solve`.  Results are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalError
from .linalg import bareiss_update, int_identity, kernel_basis, scaled_to_ints, solve, transpose

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = tuple[int | Fraction, ...]


@dataclass(frozen=True)
class Witness:
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasibility:
    positive_multipliers: tuple[Fraction, ...]
    equality_multipliers: tuple[Fraction, ...]


def _simplex_max(a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """max c.x s.t. a x <= b, x >= 0, with b >= 0.  Returns (value, x, duals).

    Bland's smallest-index rule throughout, so the method terminates.  The
    tableau is fraction-free (Bareiss 1968): each constraint row is scaled
    to integers, and every entry is kept as d times its rational value, d
    the last pivot, through `linalg.bareiss_update`.  The ratio test
    compares cross products, so the pivots are those of the rational
    tableau.
    """
    m, n = len(a), len(c)
    rows = []
    scales = []
    for i in range(m):
        ints, s = scaled_to_ints(list(a[i]) + [b[i]])
        row = ints[:n] + [0] * m + ints[n:]
        row[n + i] = 1
        rows.append(row)
        scales.append(s)
    ints, c_scale = scaled_to_ints(c)
    cost = [-x for x in ints] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    d = 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            y = rows[i][enter]
            if y > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * y
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InternalError("linear program is unbounded")
        prow = rows[leave]
        for i in range(m):
            if i != leave:
                rows[i] = bareiss_update(rows[i], prow, enter, d)
        cost = bareiss_update(cost, prow, enter, d)
        basis[leave] = enter
        d = prow[enter]
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rows[i][-1], d)
    duals = [Fraction(cost[n + i] * scales[i], d * c_scale) for i in range(m)]
    return Fraction(cost[-1], d * c_scale), tuple(x), tuple(duals)


def _normalize_witness(t: list[Fraction]) -> tuple[Fraction, ...]:
    ints, _ = scaled_to_ints(t)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def verify_infeasibility(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], cert: Infeasibility
) -> bool:
    """Check lambda >= 0, sum lambda >= 1 and lambda P + mu E = 0.

    The multipliers are brought to one common denominator first, so integer
    rows are checked in integers.
    """
    lam, mu = cert.positive_multipliers, cert.equality_multipliers
    if len(lam) != len(positives) or len(mu) != len(equalities):
        return False
    coeffs, den = scaled_to_ints((*lam, *mu))
    if any(l < 0 for l in coeffs[: len(lam)]) or sum(coeffs[: len(lam)]) < den:
        return False
    nvars = len(positives[0]) if positives else (len(equalities[0]) if equalities else 0)
    total = [0] * nvars
    for coeff, row in zip(coeffs, (*positives, *equalities)):
        if coeff:
            total = [t + coeff * r for t, r in zip(total, row)]
    return not any(total)


def solve_strict_system(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], nvars: int
) -> Witness | Infeasibility:
    """Decide E t = 0, P t > 0 over the rationals."""
    if not positives:
        return Witness(tuple(_ZERO for _ in range(nvars)))
    if equalities:
        null = kernel_basis(equalities)
    else:
        null = int_identity(nvars)
    k = len(null)
    reduced = []
    for p in positives:
        reduced.append(tuple(sum(pj * nj for pj, nj in zip(p, n) if pj) for n in null))
    # variables: z split into z+ and z-, then eps; rows: -Pz + eps <= 0, eps <= 1
    m = len(reduced)
    a = []
    b = []
    for r in reduced:
        a.append([-x for x in r] + [x for x in r] + [_ONE])
        b.append(_ZERO)
    a.append([_ZERO] * (2 * k) + [_ONE])
    b.append(_ONE)
    c = [_ZERO] * (2 * k) + [_ONE]
    value, x, duals = _simplex_max(a, b, c)
    if value > 0:
        z = [x[i] - x[k + i] for i in range(k)]
        t = [sum(z[i] * null[i][j] for i in range(k)) for j in range(nvars)]
        point = _normalize_witness(t)
        t = [x.numerator for x in point]
        for e in equalities:
            if sum(c1 * t1 for c1, t1 in zip(e, t)) != 0:
                raise InternalError("witness violates an equality")
        for p in positives:
            if sum(c1 * t1 for c1, t1 in zip(p, t)) <= 0:
                raise InternalError("witness violates a strict inequality")
        return Witness(point)
    lam = duals[:m]
    if any(l < 0 for l in lam) or sum(lam) < 1:
        raise InternalError("simplex duals do not certify infeasibility")
    mu = _solve_equality_multipliers(equalities, positives, lam)
    cert = Infeasibility(tuple(lam), mu)
    if not verify_infeasibility(equalities, positives, cert):
        raise InternalError("infeasibility certificate failed verification")
    return cert


def _solve_equality_multipliers(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], lam
) -> tuple[Fraction, ...]:
    if not equalities:
        return ()
    nvars = len(positives[0])
    rhs = tuple(-sum(l * p[j] for l, p in zip(lam, positives)) for j in range(nvars))
    mu = solve(transpose(equalities), rhs)
    if mu is None:
        raise InternalError("Farkas combination is not in the equality row space")
    return tuple(mu)
