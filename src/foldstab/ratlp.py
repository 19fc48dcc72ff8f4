"""Exact feasibility for homogeneous systems of strict integer inequalities.

Decides whether E t = 0, P t > 0 has a solution, exactly.  Strict
feasibility is homogeneous, so it reduces to the bounded program
max eps subject to P t >= eps, eps <= 1 on the equality kernel; the optimum
is 0 or 1.  A positive optimum yields an explicit witness; a zero optimum
yields dual multipliers forming a certificate of infeasibility (lambda >= 0,
sum lambda >= 1, lambda P + mu E = 0), which is re-verified before return.

Rows hold ints, and so does everything else: the equality kernel is the
integer `linalg.kernel_basis`, the simplex runs on a fraction-free integer
tableau over it, and the equality multipliers come from `linalg.echelon`.
Both answers are invariant under positive scaling, so each is returned as
a primitive integer vector: the witness t, and the certificate (lambda, mu).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InternalError
from .linalg import bareiss_update, echelon, kernel_basis

Row = tuple[int, ...]


class Witness(NamedTuple):
    point: tuple[int, ...]


class Infeasibility(NamedTuple):
    positive_multipliers: tuple[int, ...]
    equality_multipliers: tuple[int, ...]


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _simplex_max(a: list[list[int]], b: list[int], c: list[int]):
    """max c.x s.t. a x <= b, x >= 0, with b >= 0.  Returns (d, value, x, duals).

    Bland's smallest-index rule throughout, so the method terminates.  The
    tableau is fraction-free (Bareiss 1968): every entry is kept as d times
    its rational value, d the last pivot, through `linalg.bareiss_update`.
    Each pivot is chosen > 0, so d > 0, and the answers are integers over d.
    The ratio test compares cross products, so the pivots are those of the
    rational tableau.
    """
    m, n = len(a), len(c)
    rows = [[*a[i], *(int(i == j) for j in range(m)), b[i]] for i in range(m)]
    cost = [-x for x in c] + [0] * (m + 1)
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
    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    return d, cost[-1], x, cost[n : n + m]


def verify_infeasibility(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], cert: Infeasibility
) -> bool:
    """Check lambda >= 0, sum lambda >= 1 and lambda P + mu E = 0.

    Every row must have as many entries as the first.  Rows and multipliers
    may be ints or Fractions.
    """
    lam, mu = cert.positive_multipliers, cert.equality_multipliers
    if len(lam) != len(positives) or len(mu) != len(equalities):
        return False
    if any(l < 0 for l in lam) or sum(lam) < 1:
        return False
    rows = (*positives, *equalities)
    if any(len(row) != len(rows[0]) for row in rows):
        return False
    total = [0] * len(rows[0])
    for coeff, row in zip((*lam, *mu), rows):
        if coeff:
            total = [t + coeff * r for t, r in zip(total, row)]
    return not any(total)


def solve_strict_system(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], nvars: int
) -> Witness | Infeasibility:
    """Decide E t = 0, P t > 0 over the rationals, for integer E and P."""
    if not positives:
        return Witness((0,) * nvars)
    null = kernel_basis(equalities, nvars)
    k = len(null)
    nonzero = [[(j, pj) for j, pj in enumerate(p) if pj] for p in positives]
    reduced = [[sum(pj * v[j] for j, pj in nz) for v in null] for nz in nonzero]
    # variables: z split into z+ and z-, then eps; rows: -Pz + eps <= 0, eps <= 1
    m = len(reduced)
    a = [[-x for x in r] + r + [1] for r in reduced]
    a.append([0] * (2 * k) + [1])
    b = [0] * m + [1]
    c = [0] * (2 * k) + [1]
    _, value, x, duals = _simplex_max(a, b, c)
    if value > 0:
        dz = [x[i] - x[k + i] for i in range(k)]
        point = _primitive([sum(dz[i] * null[i][j] for i in range(k)) for j in range(nvars)])
        if any(sum(r * t for r, t in zip(e, point)) for e in equalities):
            raise InternalError("witness violates an equality")
        if any(sum(r * t for r, t in zip(p, point)) <= 0 for p in positives):
            raise InternalError("witness violates a strict inequality")
        return Witness(point)
    lam = duals[:m]
    if any(l < 0 for l in lam) or sum(lam) < 1:
        raise InternalError("simplex duals do not certify infeasibility")
    cert = _certificate(equalities, positives, lam)
    if not verify_infeasibility(equalities, positives, cert):
        raise InternalError("infeasibility certificate failed verification")
    return cert


def _certificate(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], lam: list[int]
) -> Infeasibility:
    """(lambda, mu) with mu E = -lambda P, divided by its gcd.

    `echelon` on [E^T | -lambda P] ends with every pivot equal to e and
    each row e times its reduced row, so mu = (last column) / e on the pivot
    columns and 0 elsewhere.  The pair is scaled by |e| to stay integral.
    """
    ncols = len(equalities)
    rhs = (-sum(l * p[j] for l, p in zip(lam, positives)) for j in range(len(positives[0])))
    rows, pivots, e, _ = echelon([(*col, r) for col, r in zip(zip(*equalities), rhs)])
    if ncols in pivots:
        raise InternalError("Farkas combination is not in the equality row space")
    mu = [0] * ncols
    for row, p in zip(rows, pivots):
        mu[p] = row[ncols] if e > 0 else -row[ncols]
    lm = _primitive([abs(e) * l for l in lam] + mu)
    return Infeasibility(lm[: len(lam)], lm[len(lam) :])
