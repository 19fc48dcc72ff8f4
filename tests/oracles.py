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
one chain of LPs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from foldstab.cells import BranchCertificate, CellClassification, _branches, _unit_row
from foldstab.errors import InternalError
from foldstab.hearts import Heart, make_heart, seed_heart
from foldstab.linalg import IntMatrix, int_identity, mat_mul
from foldstab.quiver import Quiver
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


def _det(rows: tuple[tuple[int, ...], ...]) -> Fraction:
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
        return abs(_det(rows)) == 1

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
    in for `foldstab.braid.CoxeterSystem` in `normal_form` and `render_nf`.
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

    def tau(self, w: IntMatrix) -> IntMatrix:
        return mat_mul(mat_mul(self.w0, w), self.w0)

    def reduced_word(self, w: IntMatrix) -> tuple[int, ...]:
        letters = []
        while w != self.identity:
            s = min(self.left_descents(w))
            letters.append(s)
            w = mat_mul(self.gens[s], w)
        return tuple(letters)


def branch_classify_cell(constraints: tuple[Row, ...], n: int) -> CellClassification:
    """Classify a cell by trying every real-axis branch in `_branches` order.

    The first branch whose imaginary and real systems are both solvable
    gives the witness; otherwise each branch keeps the certificate of
    whichever of its two systems was found infeasible first.
    """
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
