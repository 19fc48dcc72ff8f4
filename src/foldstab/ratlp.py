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

`solve_strict_system` is two steps.  `run_lp` runs the program on a basis
of the kernel and returns the witness, or the multipliers lambda; it never
reads E itself.  `settle` checks that outcome against E and P: the witness
against every row, or mu built from E and the whole certificate verified.
A positive rescaling of the kernel basis changes neither the pivots nor
the primitive answers, so one outcome serves every system with the same
kernel and strict rows, each settled against its own E.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InternalError
from .linalg import bareiss_pivot, echelon, kernel_basis

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
    its rational value, d the last pivot, through `linalg.bareiss_pivot`.
    Each pivot is chosen > 0, so d > 0, and the answers are integers over d.
    The ratio test compares cross products, so the pivots are those of the
    rational tableau.
    """
    m, n = len(a), len(c)
    # rows 0..m-1 are the constraints with their slacks, row m the cost
    rows = [[*a[i], *[0] * i, 1, *[0] * (m - 1 - i), b[i]] for i in range(m)]
    rows.append([-x for x in c] + [0] * (m + 1))
    basis = [n + i for i in range(m)]
    d = 1
    while True:
        cost = rows[m]
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
        bareiss_pivot(rows, leave, enter, d)
        basis[leave] = enter
        d = rows[leave][enter]
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
    equalities: tuple[Row, ...], positives: tuple[Row, ...], nvars: int, null=None
) -> Witness | Infeasibility:
    """Decide E t = 0, P t > 0 over the rationals, for integer E and P.

    null, if given, is a basis of ker E that is a positive multiple of
    `kernel_basis`'s; the answer is the same, and the kernel is not found
    again.
    """
    if not positives:
        return Witness((0,) * nvars)
    if null is None:
        null = kernel_basis(equalities, nvars)
    return settle(run_lp(null, positives, nvars), equalities, positives)


def run_lp(null: tuple[Row, ...], positives: tuple[Row, ...], nvars: int) -> Witness | Row:
    """max eps on the span of null: the primitive witness, or the multipliers lambda.

    Neither is checked against the equalities yet; `settle` does that.  A
    positive rescaling of null changes neither Bland's pivots nor the
    primitive witness, and it rescales lambda by a positive factor.
    """
    k = len(null)
    cols = list(zip(*null)) if null else [()] * nvars  # cols[j][i] = null[i][j]
    reduced = []
    for p in positives:
        r = [0] * k
        for pj, col in zip(p, cols):
            if pj:
                r = [x + pj * y for x, y in zip(r, col)]
        reduced.append(r)
    # variables: z split into z+ and z-, then eps; rows: -Pz + eps <= 0, eps <= 1
    m = len(reduced)
    a = [[-x for x in r] + r + [1] for r in reduced]
    a.append([0] * (2 * k) + [1])
    b = [0] * m + [1]
    c = [0] * (2 * k) + [1]
    _, value, x, duals = _simplex_max(a, b, c)
    if value > 0:
        dz = [x[i] - x[k + i] for i in range(k)]
        return Witness(_primitive([sum([a * b for a, b in zip(dz, col)]) for col in cols]))
    lam = duals[:m]
    if any(l < 0 for l in lam) or sum(lam) < 1:
        raise InternalError("simplex duals do not certify infeasibility")
    return tuple(lam)


def settle(
    outcome: Witness | Row, equalities: tuple[Row, ...], positives: tuple[Row, ...]
) -> Witness | Infeasibility:
    """An LP outcome settled against these rows, with every check.

    A witness must satisfy the equalities and the strict rows.  From the
    multipliers lambda of the strict rows, the equality multipliers mu are
    built from these equalities, and the certificate is verified.  Any
    positive multiple of lambda gives the same primitive certificate.
    """
    if isinstance(outcome, Witness):
        point = outcome.point
        if any(sum(r * t for r, t in zip(e, point)) for e in equalities):
            raise InternalError("witness violates an equality")
        if any(sum(r * t for r, t in zip(p, point)) <= 0 for p in positives):
            raise InternalError("witness violates a strict inequality")
        return outcome
    cert = _certificate(equalities, positives, outcome)
    if not verify_infeasibility(equalities, positives, cert):
        raise InternalError("infeasibility certificate failed verification")
    return cert


def _certificate(
    equalities: tuple[Row, ...], positives: tuple[Row, ...], lam: Row
) -> Infeasibility:
    """(lambda, mu) with mu E = -lambda P, divided by its gcd.

    `echelon` on [E^T | -lambda P] ends with every pivot equal to e and
    each row e times its reduced row, so mu = (last column) / e on the pivot
    columns and 0 elsewhere.  The pair is scaled by |e| to stay integral.
    """
    ncols = len(equalities)
    rhs = [0] * len(positives[0])
    for l, p in zip(lam, positives):
        if l:
            rhs = [r - l * x for r, x in zip(rhs, p)]
    rows, pivots, e, _ = echelon([(*col, r) for col, r in zip(zip(*equalities), rhs)])
    if ncols in pivots:
        raise InternalError("Farkas combination is not in the equality row space")
    mu = [0] * ncols
    for row, p in zip(rows, pivots):
        mu[p] = row[ncols] if e > 0 else -row[ncols]
    lm = _primitive([abs(e) * l for l in lam] + mu)
    return Infeasibility(lm[: len(lam)], lm[len(lam) :])
