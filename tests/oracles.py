"""Independent reference computations used to cross-check the package.

Each oracle recomputes a result from a different definition than the
implementation: positive roots from the Tits form instead of reflections,
simple tilts by building modules (universal extensions, kernels and
cokernels of matrix maps) instead of class arithmetic, interval hearts by
exhaustive filtering of Hom/Ext tables computed on matrices instead of
breadth-first tilting, the folded exchange graph by trying every tilt
order by hand, and Coxeter lengths, descents and the longest element by
enumerating the Weyl group instead of sign tests on roots, and stability
cells by solving both strict systems of every real-axis branch instead of
one LP, and the simplex on a Fraction tableau instead of a fraction-free
integer one, and braid normal forms by re-walking every pair of factors
instead of walking left from the right end, and the rref, inverse and
determinant by Gauss-Jordan in Fractions instead of the fraction-free
`linalg.echelon`, and integer kernels by a Smith normal form instead of the
primitive echelon kernel of the transpose.  An empty cell's one certificate
is expanded into one per branch, each checkable on its own.  Hearts are
validated by Hom/Ext vanishing, read off the Euler table, and a Smith
normal form, and the automorphism acts on K-classes as a permutation
matrix.  `pairing` evaluates a form's integer matrix on two classes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from foldstab.braid import GarsideNF
from foldstab.cells import CellClassification, _unit_row
from foldstab.errors import InputError, InternalError, quote
from foldstab.hearts import Heart, heart_k_matrix, make_heart, seed_heart
from foldstab.linalg import IntMatrix, Matrix, int_identity, mat_mul, normalize_int_vector
from foldstab.quiver import Automorphism, Quiver
from foldstab.ratlp import Infeasibility, Row, solve_strict_system
from foldstab.reps import (
    Catalog,
    Representation,
    cokernel_module,
    ext1_dim,
    hom_dim,
    kernel_module,
    stack_hom_horizontal,
    stack_hom_vertical,
    universal_coextension,
    universal_extension,
)

Simple = tuple[int, int]


def tits_positive_roots(q: Quiver, bound: int = 3) -> set[tuple[int, ...]]:
    """Nonzero dimension vectors with Tits form value 1, coordinates <= bound."""
    n = len(q.vertices)
    pairs = [(q.vertex_index[a.tail], q.vertex_index[a.head]) for a in q.arrows]
    roots = set()
    for d in product(range(bound + 1), repeat=n):
        if not any(d):
            continue
        value = sum(c * c for c in d) - sum(d[i] * d[j] for i, j in pairs)
        if value == 1:
            roots.add(d)
    return roots


def fraction_det(rows) -> Fraction:
    n = len(rows)
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def fraction_rref(a) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, by Gauss-Jordan in Fractions.

    Each pivot row is divided by its pivot and cleared out of every other
    row.  The reference for `linalg.echelon` and the routines read off it.
    """
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


def fraction_inverse(a) -> Matrix:
    """Inverse by the Fraction rref of [a | I]; ValueError when singular."""
    n = len(a)
    r, pivots = fraction_rref(tuple((*row, *unit) for row, unit in zip(a, int_identity(n))))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in r)


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


def smith_left_kernel(a: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of {x integral : x a = 0} from the Smith form, sorted and sign-normalized.

    Rows of U opposite the zero diagonal entries of U a V = D: they come
    from a unimodular transform, so they span every integral kernel vector.
    """
    if not a:
        return ()
    u, d, _ = smith_normal_form(a)
    nonzero = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    return tuple(sorted(normalize_int_vector(u[i]) for i in range(nonzero, len(a))))


Table = tuple[tuple[int, ...], ...]


def module_tables(catalog: Catalog) -> tuple[Table, Table]:
    """dim Hom and dim Ext^1 between the catalog's matrix bricks."""
    reps = catalog.reps
    hom = tuple(tuple(hom_dim(x, y) for y in reps) for x in reps)
    ext = tuple(tuple(ext1_dim(x, y) for y in reps) for x in reps)
    return hom, ext


def _single_summand(catalog: Catalog, r: Representation, context: str) -> int:
    parts = catalog.identify(r)
    if len(parts) != 1:
        raise InternalError(f"{context} is not indecomposable: {parts}")
    return parts[0]


def module_tilt_forward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Forward tilt at position pos, computed on modules and identified."""
    s_idx, s_shift = heart.simples[pos]
    ms = catalog.reps[s_idx]
    out: list[Simple] = [(s_idx, s_shift + 1)]
    for i, (x_idx, x_shift) in enumerate(heart.simples):
        if i == pos:
            continue
        mx = catalog.reps[x_idx]
        gap = s_shift + 1 - x_shift
        if gap == 1:
            u = universal_extension(mx, ms)
            out.append((_single_summand(catalog, u, "universal extension"), x_shift))
        elif gap == 0:
            if hom_dim(mx, ms) == 0:
                out.append((x_idx, x_shift))
            else:
                target, phi = stack_hom_vertical(mx, ms)
                ker = kernel_module(phi, mx)
                cok = cokernel_module(phi, mx, target)
                if ker.is_zero() == cok.is_zero():
                    raise InternalError("tilt did not produce a single-degree simple")
                if cok.is_zero():
                    out.append((_single_summand(catalog, ker, "tilt kernel"), s_shift + 1))
                else:
                    out.append((_single_summand(catalog, cok, "tilt cokernel"), s_shift))
        else:
            out.append((x_idx, x_shift))
    return make_heart(out)


def module_tilt_backward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Backward tilt at position pos, computed on modules and identified."""
    s_idx, s_shift = heart.simples[pos]
    ms = catalog.reps[s_idx]
    out: list[Simple] = [(s_idx, s_shift - 1)]
    for i, (x_idx, x_shift) in enumerate(heart.simples):
        if i == pos:
            continue
        mx = catalog.reps[x_idx]
        gap = x_shift + 1 - s_shift
        if gap == 1:
            e = universal_coextension(mx, ms)
            out.append((_single_summand(catalog, e, "universal coextension"), x_shift))
        elif gap == 0:
            if hom_dim(ms, mx) == 0:
                out.append((x_idx, x_shift))
            else:
                source, phi = stack_hom_horizontal(ms, mx)
                ker = kernel_module(phi, source)
                cok = cokernel_module(phi, source, mx)
                if ker.is_zero() == cok.is_zero():
                    raise InternalError("tilt did not produce a single-degree simple")
                if ker.is_zero():
                    out.append((_single_summand(catalog, cok, "tilt cokernel"), x_shift))
                else:
                    out.append((_single_summand(catalog, ker, "tilt kernel"), x_shift + 1))
        else:
            out.append((x_idx, x_shift))
    return make_heart(out)


def smc_hearts(catalog: Catalog) -> set[tuple[Simple, ...]]:
    """All shift-{0,1} hearts, found by filtering every candidate set.

    A candidate passes when each ordered pair of distinct simples satisfies
    the gap conditions (Hom vanishing for gap >= 0, Ext vanishing on top of
    that for gap >= 1) and the classes form a basis of the root lattice.
    Hom and Ext come from the matrix bricks, not the catalog's tables.
    """
    n = len(catalog.quiver.vertices)
    hom, ext = module_tables(catalog)
    candidates = [(i, s) for i in range(len(catalog.reps)) for s in (0, 1)]

    def admissible(chosen: tuple[Simple, ...]) -> bool:
        for xi, (x, dx) in enumerate(chosen):
            for yi, (y, dy) in enumerate(chosen):
                if xi == yi:
                    continue
                gap = dy - dx
                if gap >= 0 and hom[x][y] != 0:
                    return False
                if gap >= 1 and ext[x][y] != 0:
                    return False
        rows = tuple(
            tuple((-c if s % 2 else c) for c in catalog.reps[i].dims) for i, s in chosen
        )
        return abs(fraction_det(rows)) == 1

    return {c for c in combinations(candidates, n) if admissible(c)}


def _position_orbits(perm: tuple[int, ...], simples: tuple[Simple, ...]):
    pos_of = {s: i for i, s in enumerate(simples)}
    seen: set[int] = set()
    orbits = []
    for start in range(len(simples)):
        if start in seen:
            continue
        orbit = []
        p = start
        while p not in seen:
            seen.add(p)
            orbit.append(p)
            idx, shift = simples[p]
            p = pos_of[(perm[idx], shift)]
        orbits.append(tuple(sorted(orbit)))
    return orbits


def brute_force_folded_eg(catalog: Catalog, perm: tuple[int, ...]):
    """Folded exchange graph by exhaustive orbit-tilt search from the seed.

    Every orbit tilt is carried out in every order of its member simples and
    all orders must land on the same heart.  Returns (hearts, edges) with
    hearts as simple tuples and edges as (source simples, orbit simples,
    target simples) triples.
    """

    def transported(simples: tuple[Simple, ...]) -> tuple[Simple, ...]:
        return tuple(sorted((perm[i], s) for i, s in simples))

    def tilt_orbit_all_orders(heart: Heart, orbit: tuple[int, ...]) -> Heart:
        chosen = [heart.simples[p] for p in orbit]
        results = set()
        for order in permutations(chosen):
            current = heart
            for simple in order:
                current = module_tilt_forward(catalog, current, current.position_of(simple))
            results.add(current)
        if len(results) != 1:
            raise AssertionError(f"orbit tilt is order dependent at {heart}")
        return results.pop()

    seed = seed_heart(catalog)
    assert transported(seed.simples) == seed.simples
    hearts = [seed.simples]
    ids = {seed.simples: 0}
    edges = set()
    stack = [seed]
    while stack:
        heart = stack.pop()
        for orbit in _position_orbits(perm, heart.simples):
            if any(heart.simples[p][1] != 0 for p in orbit):
                continue
            new = tilt_orbit_all_orders(heart, orbit)
            assert transported(new.simples) == new.simples
            if new.simples not in ids:
                ids[new.simples] = len(hearts)
                hearts.append(new.simples)
                stack.append(new)
            orbit_simples = tuple(sorted(heart.simples[p] for p in orbit))
            edges.add((heart.simples, orbit_simples, new.simples))
    return hearts, edges


class EnumeratedCoxeterSystem:
    """A finite Coxeter group enumerated by breadth-first search; lengths and
    descents are read off the table of all elements.

    With `max_length` the search stops at that length.  An element missing
    from the table is then longer than every element in it, so descents stay
    exact on the table, but there is no `w0`.  Otherwise the oracle can stand
    in for `foldstab.braid.CoxeterSystem` in `pairwise_normal_form` and
    `render_nf`.
    """

    def __init__(self, cartan: IntMatrix, max_length: int | None = None):
        self.rank = n = len(cartan)
        self.gens = tuple(
            tuple(
                tuple((1 if r == c else 0) - (cartan[r][c] if r == i else 0) for c in range(n))
                for r in range(n)
            )
            for i in range(n)
        )
        self.identity = int_identity(n)
        lengths = {self.identity: 0}
        frontier = [self.identity]
        depth = 0
        while frontier and (max_length is None or depth < max_length):
            depth += 1
            nxt = []
            for w in frontier:
                for g in self.gens:
                    u = mat_mul(g, w)
                    if u not in lengths:
                        lengths[u] = depth
                        nxt.append(u)
            frontier = nxt
        self.length: dict[IntMatrix, int] = lengths
        self.order = len(lengths)
        self.w0 = None
        if max_length is None:
            top = max(lengths.values())
            longest = [w for w, l in lengths.items() if l == top]
            if len(longest) != 1:
                raise InternalError("longest element is not unique")
            self.w0 = longest[0]

    def left_descents(self, w: IntMatrix) -> tuple[int, ...]:
        lw = self.length[w]
        return tuple(i for i, g in enumerate(self.gens) if self.length.get(mat_mul(g, w), lw + 1) < lw)

    def right_descents(self, w: IntMatrix) -> tuple[int, ...]:
        lw = self.length[w]
        return tuple(i for i, g in enumerate(self.gens) if self.length.get(mat_mul(w, g), lw + 1) < lw)

    def reduced_word(self, w: IntMatrix) -> tuple[int, ...]:
        letters = []
        while w != self.identity:
            s = min(self.left_descents(w))
            letters.append(s)
            w = mat_mul(self.gens[s], w)
        return tuple(letters)


def _pairwise_renormalize(system, factors: list[IntMatrix]) -> list[IntMatrix]:
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            while True:
                right = set(system.right_descents(x))
                move = next((s for s in system.left_descents(y) if s not in right), None)
                if move is None:
                    break
                x = mat_mul(x, system.gens[move])
                y = mat_mul(system.gens[move], y)
                changed = True
            factors[i], factors[i + 1] = x, y
        factors = [f for f in factors if f != system.identity]
    return factors


def pairwise_normal_form(system, word) -> GarsideNF:
    """Left-greedy normal form by re-walking every adjacent pair of factors
    after each letter, with products and tau = w0 . w0 by `mat_mul`, and tau
    applied to every factor at each inverse letter.

    The reference for `foldstab.braid.normal_form`, which walks from the
    right end only.  `system` is a `CoxeterSystem` or an
    `EnumeratedCoxeterSystem`.
    """
    power = 0
    factors: list[IntMatrix] = []
    for slot, exp in word:
        if not 0 <= slot < system.rank:
            raise InputError(f"generator slot {quote(slot)} out of range")
        g = system.gens[slot]
        if exp == 1:
            factors.append(g)
        elif exp == -1:
            power -= 1
            factors = [mat_mul(mat_mul(system.w0, f), system.w0) for f in factors]
            comp = mat_mul(system.w0, g)
            if comp != system.identity:
                factors.append(comp)
        else:
            raise InputError("letter exponent must be +1 or -1")
        factors = _pairwise_renormalize(system, factors)
        while factors and factors[0] == system.w0:
            power += 1
            factors.pop(0)
    return GarsideNF(power, tuple(factors))


def pairing(m: IntMatrix, x, y) -> int:
    """The bilinear form with matrix m on two classes: x^T m y."""
    return sum(a * c * b for a, row in zip(x, m) for c, b in zip(row, y))


def twist_k_matrix(v: tuple[int, ...], form: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """Matrix of the reflection-like twist x -> x + v (v^T E x) on classes."""
    n = len(v)
    ve = tuple(sum(v[k] * form[k][j] for k in range(n)) for j in range(n))
    return tuple(
        tuple((1 if i == j else 0) + v[i] * ve[j] for j in range(n)) for i in range(n)
    )


def frobenius_on_k(s: Automorphism) -> IntMatrix:
    """Permutation matrix of the vertex permutation on K-classes.

    Column of vertex v carries a 1 in the row of its image, so the matrix
    sends the class of the v-th simple to the class of the image simple.
    """
    q = s.quiver
    n = len(q.vertices)
    m = [[0] * n for _ in range(n)]
    for v in q.vertices:
        m[q.vertex_index[s.vertex(v)]][q.vertex_index[v]] = 1
    return tuple(tuple(row) for row in m)


def validate_heart(catalog: Catalog, heart: Heart) -> None:
    """Simple-mindedness: ordered Hom/Ext vanishing plus a unimodular K-basis."""
    n = len(catalog.quiver.vertices)
    if len(heart.simples) != n:
        raise InputError("heart has the wrong number of simples")
    if len(set(heart.simples)) != n:
        raise InputError("heart repeats a simple")
    for xi, (x_idx, x_shift) in enumerate(heart.simples):
        for yi, (y_idx, y_shift) in enumerate(heart.simples):
            if xi == yi:
                continue
            gap = y_shift - x_shift
            if gap >= 0 and catalog.euler[x_idx][y_idx] > 0:
                raise InputError("heart violates Hom vanishing")
            if gap >= 1 and catalog.euler[x_idx][y_idx] < 0:
                raise InputError("heart violates Ext vanishing")
    _, d, _ = smith_normal_form(heart_k_matrix(catalog, heart))
    if any(d[i][i] != 1 for i in range(n)):
        raise InputError("heart classes are not a lattice basis")


class BranchCertificate(NamedTuple):
    real_axis: tuple[int, ...]  # coordinates pinned to the real axis
    axis: str  # "im" or "re": which half of the branch is infeasible
    certificate: Infeasibility


def _branches(n: int):
    """Every real-axis branch: subsets of range(n) by size, then lexicographic."""
    for size in range(n + 1):
        yield from combinations(range(n), size)


def _im_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C y = 0, y_j = 0 on real_axis, y_j > 0 off it."""
    eqs = tuple(constraints) + tuple(_unit_row(n, j) for j in real_axis)
    return eqs, tuple(_unit_row(n, j) for j in range(n) if j not in real_axis)


def _re_system(constraints: tuple[Row, ...], real_axis: tuple[int, ...], n: int):
    """(equalities, positives) of C x = 0, x_j > 0 on real_axis."""
    return tuple(constraints), tuple(_unit_row(n, j) for j in real_axis)


def expand_certificate(cert: Infeasibility, n: int) -> tuple[BranchCertificate, ...]:
    """The certificate of every branch, in `_branches` order, that an empty
    cell's one certificate (lambda, mu) of C y = 0, y > 0 implies, with no LP.

    lambda + mu C = 0 and lambda >= 0.  Where lambda is positive off the
    branch Q, its entries off Q are the positive multipliers of Q's
    imaginary system, and (mu, lambda on Q) are the multipliers of its
    equalities.  Otherwise lambda vanishes off Q, and (lambda on Q, mu)
    certifies Q's real system.
    """
    lam, mu = cert
    out = []
    for q in _branches(n):
        off = tuple(lam[j] for j in range(n) if j not in q)
        on = tuple(lam[j] for j in q)
        if any(off):
            out.append(BranchCertificate(q, "im", Infeasibility(off, mu + on)))
        else:
            out.append(BranchCertificate(q, "re", Infeasibility(on, mu)))
    return tuple(out)


def branch_classify_cell(constraints: tuple[Row, ...], n: int) -> CellClassification:
    """Classify a cell by trying every real-axis branch in `_branches` order.

    The first branch whose imaginary and real systems are both solvable
    gives the witness; otherwise each branch keeps the certificate of
    whichever of its two systems was found infeasible first.
    """
    certs = []
    for real_axis in _branches(n):
        y_res = solve_strict_system(*_im_system(constraints, real_axis, n), n)
        if isinstance(y_res, Infeasibility):
            certs.append(BranchCertificate(real_axis, "im", y_res))
            continue
        x_res = solve_strict_system(*_re_system(constraints, real_axis, n), n)
        if isinstance(x_res, Infeasibility):
            certs.append(BranchCertificate(real_axis, "re", x_res))
            continue
        witness = tuple((x, y) for x, y in zip(x_res.point, y_res.point))
        return CellClassification(True, witness, None)
    return CellClassification(False, None, tuple(certs))


def fraction_simplex_max(a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """max c.x s.t. a x <= b, x >= 0, with b >= 0.  Returns (value, x, duals).

    The rational tableau with Bland's smallest-index rule: the pivot row is
    divided by the pivot and cleared out of every other row, all in
    Fractions.  The reference for the fraction-free `ratlp._simplex_max`.
    """
    m, n = len(a), len(c)
    width = n + m + 1
    rows = []
    for i in range(m):
        row = list(a[i]) + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        rows.append(row)
    cost = [-x for x in c] + [Fraction(0)] * (m + 1)
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
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = rows[i][width - 1]
    duals = [cost[n + i] for i in range(m)]
    return cost[width - 1], tuple(x), tuple(duals)
