"""Exact feasibility for homogeneous systems of strict rational inequalities.

Decides whether E t = 0, P t > 0 has a solution, entirely in Fractions.
Strict feasibility is homogeneous, so it reduces to the bounded program
max eps subject to P t >= eps, eps <= 1 on the equality kernel; the optimum
is 0 or 1.  A positive optimum yields an explicit witness; a zero optimum
yields dual multipliers forming a certificate of infeasibility (lambda >= 0,
sum lambda >= 1, lambda P + mu E = 0), which is re-verified before return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .linalg import kernel_basis, solve, transpose

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class Witness:
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasibility:
    positive_multipliers: tuple[Fraction, ...]
    equality_multipliers: tuple[Fraction, ...]


def _simplex_max(a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """max c.x s.t. a x <= b, x >= 0, with b >= 0.  Returns (value, x, duals).

    Bland's smallest-index rule throughout, so the method terminates.
    """
    m, n = len(a), len(c)
    width = n + m + 1
    rows = []
    for i in range(m):
        row = list(a[i]) + [_ZERO] * m + [b[i]]
        row[n + i] = _ONE
        rows.append(row)
    cost = [-x for x in c] + [_ZERO] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][width - 1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalError("linear program is unbounded")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, rows[leave])]
        basis[leave] = enter
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][width - 1]
    duals = [cost[n + i] for i in range(m)]
    return cost[width - 1], tuple(x), tuple(duals)


def _normalize_witness(t: list[Fraction]) -> tuple[Fraction, ...]:
    from math import gcd

    dens = 1
    for x in t:
        dens = dens * x.denominator // gcd(dens, x.denominator)
    ints = [int(x * dens) for x in t]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def verify_infeasibility(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], cert: Infeasibility
) -> bool:
    lam, mu = cert.positive_multipliers, cert.equality_multipliers
    if len(lam) != len(positives) or len(mu) != len(equalities):
        return False
    if any(l < 0 for l in lam) or sum(lam) < 1:
        return False
    nvars = len(positives[0]) if positives else (len(equalities[0]) if equalities else 0)
    for j in range(nvars):
        s = sum(l * p[j] for l, p in zip(lam, positives))
        s += sum(m * e[j] for m, e in zip(mu, equalities))
        if s != 0:
            return False
    return True


def solve_strict_system(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], nvars: int
) -> Witness | Infeasibility:
    """Decide E t = 0, P t > 0 over the rationals."""
    if not positives:
        return Witness(tuple(_ZERO for _ in range(nvars)))
    if equalities:
        null = kernel_basis(equalities)
    else:
        null = [tuple(_ONE if i == j else _ZERO for j in range(nvars)) for i in range(nvars)]
    k = len(null)
    reduced = []
    for p in positives:
        reduced.append(tuple(sum(p[j] * n[j] for j in range(nvars)) for n in null))
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
        t = list(_normalize_witness(t))
        for e in equalities:
            if sum(c1 * t1 for c1, t1 in zip(e, t)) != 0:
                raise InternalError("witness violates an equality")
        for p in positives:
            if sum(c1 * t1 for c1, t1 in zip(p, t)) <= 0:
                raise InternalError("witness violates a strict inequality")
        return Witness(tuple(t))
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
