"""Exact quiver representations over the rationals.

A representation assigns a dimension to every vertex and a matrix to every
arrow.  Everything here is exact: matrices have Fraction entries and all
dimensions (Hom, Ext, kernels, cokernels) come from exact linear algebra.

The catalog of a Dynkin quiver holds one indecomposable per positive root
and works on the roots alone: the roots are `quiver.positive_roots` of the
quiver's Cartan matrix, and the Hom and Ext tables come from the Euler
form.  The matrix code stays as an independent oracle.  Each matrix brick is
built with pseudo-random small integer entries and certified by an
endomorphism check (End = k); a brick whose dimension vector is a root is the
unique indecomposable in its class, so the certificate pins it exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InternalError, UnsupportedTypeError
from .linalg import Matrix, kernel_basis, mat_vec, rank, rref, solve
from .quiver import (
    Automorphism,
    Quiver,
    cartan_matrix,
    dynkin_type,
    euler_form_cy3,
    euler_form_hereditary,
    integer_kernel,
    positive_roots,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows))


@dataclass(frozen=True)
class Representation:
    """Matrices indexed like the quiver's arrow list; dims like its vertices."""

    quiver: Quiver
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]

    def __post_init__(self):
        q = self.quiver
        if len(self.dims) != len(q.vertices) or len(self.maps) != len(q.arrows):
            raise InternalError("representation shape mismatch")
        for a, m in zip(q.arrows, self.maps):
            rows = self.dims[q.vertex_index[a.head]]
            cols = self.dims[q.vertex_index[a.tail]]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise InternalError(f"matrix shape mismatch on arrow {a.name!r}")

    @property
    def total(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total == 0


def zero_rep(q: Quiver) -> Representation:
    return Representation(q, (0,) * len(q.vertices), tuple(_zeros(0, 0) for _ in q.arrows))


def simple_rep(q: Quiver, v: int) -> Representation:
    dims = tuple(1 if u == v else 0 for u in q.vertices)
    maps = []
    for a in q.arrows:
        maps.append(_zeros(dims[q.vertex_index[a.head]], dims[q.vertex_index[a.tail]]))
    return Representation(q, dims, tuple(maps))


def direct_sum(reps: list[Representation]) -> Representation:
    if not reps:
        raise InternalError("empty direct sum")
    q = reps[0].quiver
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(len(q.vertices)))
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        block = [[_ZERO] * dims[ti] for _ in range(dims[hi])]
        ro = co = 0
        for r in reps:
            m = r.maps[ai]
            for i in range(r.dims[hi]):
                for j in range(r.dims[ti]):
                    block[ro + i][co + j] = m[i][j]
            ro += r.dims[hi]
            co += r.dims[ti]
        maps.append(tuple(tuple(row) for row in block))
    return Representation(q, dims, tuple(maps))


# A module map M -> N is one matrix per vertex commuting with the arrow maps.
ModuleMap = tuple[Matrix, ...]


def _var_offsets(m_dims, n_dims) -> tuple[list[int], int]:
    offsets = []
    total = 0
    for md, nd in zip(m_dims, n_dims):
        offsets.append(total)
        total += nd * md
    return offsets, total


def _intertwiner_rows(m: Representation, n: Representation):
    """Rows of the map (f_v) -> (f_h M_a - N_a f_t), one row per target entry."""
    q = m.quiver
    offsets, nvars = _var_offsets(m.dims, n.dims)
    rows = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        ma, na = m.maps[ai], n.maps[ai]
        for i in range(n.dims[hi]):
            for j in range(m.dims[ti]):
                row = [_ZERO] * nvars
                for k in range(m.dims[hi]):
                    row[offsets[hi] + i * m.dims[hi] + k] += ma[k][j]
                for l in range(n.dims[ti]):
                    row[offsets[ti] + l * m.dims[ti] + j] -= na[i][l]
                rows.append(tuple(row))
    return offsets, nvars, rows


def _unpack_map(vec, m: Representation, n: Representation, offsets) -> ModuleMap:
    out = []
    for vi in range(len(m.quiver.vertices)):
        nd, md = n.dims[vi], m.dims[vi]
        base = offsets[vi]
        out.append(tuple(tuple(vec[base + i * md + j] for j in range(md)) for i in range(nd)))
    return tuple(out)


def hom_space(m: Representation, n: Representation) -> list[ModuleMap]:
    """Basis of the space of module maps M -> N."""
    offsets, nvars, rows = _intertwiner_rows(m, n)
    if nvars == 0:
        return []
    if rows:
        basis = kernel_basis(tuple(rows))
    else:
        basis = [tuple(_ONE if i == j else _ZERO for j in range(nvars)) for i in range(nvars)]
    return [_unpack_map(vec, m, n, offsets) for vec in basis]


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_space(m, n))


# An Ext class is a cocycle: one matrix g_a per arrow, g_a : M_t -> N_h.
Cocycle = tuple[Matrix, ...]


def ext1_space(m: Representation, n: Representation) -> list[Cocycle]:
    """Basis of Ext^1(M, N) as cocycles modulo the intertwiner image."""
    q = m.quiver
    offsets, nvars, rows = _intertwiner_rows(m, n)
    tgt_offsets = []
    tgt_total = 0
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        tgt_offsets.append(tgt_total)
        tgt_total += n.dims[hi] * m.dims[ti]
    if tgt_total == 0:
        return []
    # rows[k] is target coordinate k as a functional of the source variables,
    # so the matrix whose rows are `rows` has row space = image coordinates.
    pivots: set[int] = set()
    if rows and nvars:
        cols = tuple(tuple(rows[k][j] for k in range(tgt_total)) for j in range(nvars))
        _, piv = rref(cols)
        pivots = set(piv)
    classes = []
    for k in range(tgt_total):
        if k in pivots:
            continue
        cocycle = []
        for ai, a in enumerate(q.arrows):
            hi = q.vertex_index[a.head]
            ti = q.vertex_index[a.tail]
            nd, md = n.dims[hi], m.dims[ti]
            g = [[_ZERO] * md for _ in range(nd)]
            base = tgt_offsets[ai]
            if base <= k < base + nd * md:
                g[(k - base) // md][(k - base) % md] = _ONE
            cocycle.append(tuple(tuple(r) for r in g))
        classes.append(tuple(cocycle))
    return classes


def ext1_dim(m: Representation, n: Representation) -> int:
    return len(ext1_space(m, n))


def extension_module(m: Representation, n: Representation, cocycle: Cocycle) -> Representation:
    """Middle term of 0 -> N -> E -> M -> 0 for the given cocycle."""
    q = m.quiver
    dims = tuple(nd + md for nd, md in zip(n.dims, m.dims))
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        na, ma, ga = n.maps[ai], m.maps[ai], cocycle[ai]
        block = [[_ZERO] * dims[ti] for _ in range(dims[hi])]
        for i in range(n.dims[hi]):
            for j in range(n.dims[ti]):
                block[i][j] = na[i][j]
            for j in range(m.dims[ti]):
                block[i][n.dims[ti] + j] = ga[i][j]
        for i in range(m.dims[hi]):
            for j in range(m.dims[ti]):
                block[n.dims[hi] + i][n.dims[ti] + j] = ma[i][j]
        maps.append(tuple(tuple(r) for r in block))
    return Representation(q, dims, tuple(maps))


def universal_extension(m: Representation, s: Representation) -> Representation:
    """Middle term of 0 -> S^d -> U -> M -> 0 over a basis of Ext^1(M, S)."""
    classes = ext1_space(m, s)
    if not classes:
        return m
    q = m.quiver
    d = len(classes)
    dims = tuple(d * sd + md for sd, md in zip(s.dims, m.dims))
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        sa, ma = s.maps[ai], m.maps[ai]
        block = [[_ZERO] * dims[ti] for _ in range(dims[hi])]
        for c in range(d):
            for i in range(s.dims[hi]):
                for j in range(s.dims[ti]):
                    block[c * s.dims[hi] + i][c * s.dims[ti] + j] = sa[i][j]
                for j in range(m.dims[ti]):
                    block[c * s.dims[hi] + i][d * s.dims[ti] + j] = classes[c][ai][i][j]
        for i in range(m.dims[hi]):
            for j in range(m.dims[ti]):
                block[d * s.dims[hi] + i][d * s.dims[ti] + j] = ma[i][j]
        maps.append(tuple(tuple(r) for r in block))
    return Representation(q, dims, tuple(maps))


def universal_coextension(m: Representation, s: Representation) -> Representation:
    """Middle term of 0 -> M -> E -> S^d -> 0 over a basis of Ext^1(S, M)."""
    classes = ext1_space(s, m)
    if not classes:
        return m
    q = m.quiver
    d = len(classes)
    dims = tuple(md + d * sd for sd, md in zip(s.dims, m.dims))
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        sa, ma = s.maps[ai], m.maps[ai]
        block = [[_ZERO] * dims[ti] for _ in range(dims[hi])]
        for i in range(m.dims[hi]):
            for j in range(m.dims[ti]):
                block[i][j] = ma[i][j]
            for c in range(d):
                for j in range(s.dims[ti]):
                    block[i][m.dims[ti] + c * s.dims[ti] + j] = classes[c][ai][i][j]
        for c in range(d):
            for i in range(s.dims[hi]):
                for j in range(s.dims[ti]):
                    block[m.dims[hi] + c * s.dims[hi] + i][m.dims[ti] + c * s.dims[ti] + j] = sa[i][j]
        maps.append(tuple(tuple(r) for r in block))
    return Representation(q, dims, tuple(maps))


def stack_hom_vertical(m: Representation, s: Representation) -> tuple[Representation, ModuleMap]:
    """Evaluation M -> S^d over a basis f_1..f_d of Hom(M, S), stacked row-wise."""
    fs = hom_space(m, s)
    d = len(fs)
    target = direct_sum([s] * d) if d else zero_rep(m.quiver)
    phi = []
    for vi in range(len(m.quiver.vertices)):
        rows = []
        for f in fs:
            rows.extend(f[vi])
        phi.append(tuple(rows))
    return target, tuple(phi)


def stack_hom_horizontal(s: Representation, m: Representation) -> tuple[Representation, ModuleMap]:
    """Evaluation S^d -> M over a basis f_1..f_d of Hom(S, M), side by side."""
    fs = hom_space(s, m)
    d = len(fs)
    source = direct_sum([s] * d) if d else zero_rep(m.quiver)
    phi = []
    for vi in range(len(m.quiver.vertices)):
        rows = []
        for i in range(m.dims[vi]):
            row = []
            for f in fs:
                row.extend(f[vi][i])
            rows.append(tuple(row))
        phi.append(tuple(rows))
    return source, tuple(phi)


def kernel_module(phi: ModuleMap, m: Representation) -> Representation:
    """Kernel of a module map phi : M -> N as a subrepresentation of M."""
    q = m.quiver
    bases = []
    for vi in range(len(q.vertices)):
        if m.dims[vi] == 0:
            bases.append([])
        elif not phi[vi]:
            bases.append([tuple(_ONE if i == j else _ZERO for j in range(m.dims[vi]))
                          for i in range(m.dims[vi])])
        else:
            bases.append(list(kernel_basis(phi[vi])))
    dims = tuple(len(b) for b in bases)
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        cols = []
        if dims[ti] and dims[hi]:
            bh = tuple(tuple(bases[hi][c][r] for c in range(dims[hi])) for r in range(m.dims[hi]))
            for x in bases[ti]:
                y = mat_vec(m.maps[ai], x)
                coeff = solve(bh, y)
                if coeff is None:
                    raise InternalError("kernel is not arrow-stable")
                cols.append(coeff)
            maps.append(tuple(tuple(cols[j][i] for j in range(dims[ti])) for i in range(dims[hi])))
        else:
            maps.append(_zeros(dims[hi], dims[ti]))
    return Representation(q, dims, tuple(maps))


def cokernel_module(phi: ModuleMap, m: Representation, n: Representation) -> Representation:
    """Cokernel of a module map phi : M -> N in complement coordinates of N."""
    q = n.quiver
    comps: list[list[int]] = []
    projs: list = []
    for vi in range(len(q.vertices)):
        nd = n.dims[vi]
        img_cols: list[tuple] = []
        if nd and m.dims[vi]:
            for j in range(m.dims[vi]):
                col = tuple(phi[vi][i][j] for i in range(nd))
                trial = img_cols + [col]
                if rank(tuple(zip(*trial))) == len(trial):
                    img_cols.append(col)
        comp: list[int] = []
        for j in range(nd):
            e = tuple(_ONE if i == j else _ZERO for i in range(nd))
            trial = img_cols + [e]
            if rank(tuple(zip(*trial))) == len(trial):
                img_cols.append(e)
                comp.append(j)
        comps.append(comp)
        if nd:
            b = tuple(tuple(img_cols[c][r] for c in range(nd)) for r in range(nd))
            projs.append((b, len(comp)))
        else:
            projs.append((None, 0))
    dims = tuple(len(c) for c in comps)
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        block = [[_ZERO] * dims[ti] for _ in range(dims[hi])]
        if dims[ti] and dims[hi]:
            bh, k = projs[hi]
            for cj, j in enumerate(comps[ti]):
                y = tuple(n.maps[ai][i][j] for i in range(n.dims[hi]))
                coeff = solve(bh, y)
                if coeff is None:
                    raise InternalError("cokernel projection failed")
                for ci in range(dims[hi]):
                    block[ci][cj] = coeff[n.dims[hi] - k + ci]
        maps.append(tuple(tuple(r) for r in block))
    return Representation(q, dims, tuple(maps))


def transport(r: Representation, s: Automorphism) -> Representation:
    """Twist a representation by a quiver automorphism (vertexwise relabeling)."""
    q = r.quiver
    dims = [0] * len(q.vertices)
    for vi, v in enumerate(q.vertices):
        dims[q.vertex_index[s.vertex(v)]] = r.dims[vi]
    maps: list = [None] * len(q.arrows)
    name_index = {a.name: i for i, a in enumerate(q.arrows)}
    for ai, a in enumerate(q.arrows):
        maps[name_index[s.arrow(a.name)]] = r.maps[ai]
    return Representation(q, tuple(dims), tuple(maps))


def _catalog_sort_key(q: Quiver, d: tuple[int, ...]):
    support = min(i for i, c in enumerate(d) if c)
    return (support, sum(d), d)


def _entries():
    """Deterministic pseudo-random integers in [-9, 9] from a linear congruence.

    Consecutive integers would make every block a rank-2 arithmetic
    progression, which is degenerate on roots like (1, 2, 3, 2, 1, 1).
    """
    state = 1
    while True:
        state = (state * 1103515245 + 12345) % 2**31
        yield (state >> 16) % 19 - 9


def _build_indecomposable(q: Quiver, d: tuple[int, ...]) -> Representation:
    """Generic integer entries, certified indecomposable by End = k."""
    entries = _entries()
    for _ in range(64):
        maps = []
        for a in q.arrows:
            rows = d[q.vertex_index[a.head]]
            cols = d[q.vertex_index[a.tail]]
            maps.append(
                tuple(tuple(Fraction(next(entries)) for _ in range(cols)) for _ in range(rows))
            )
        r = Representation(q, d, tuple(maps))
        if hom_dim(r, r) == 1:
            return r
    raise InternalError(f"no brick found for dimension vector {d}")


class _Bricks(Sequence):
    """One matrix brick per root, all built on first access to an entry.

    The length needs no bricks, so code that only counts the catalog (the
    benchmark's tracer reads len(catalog.reps)) builds no matrices.
    """

    def __init__(self, q: Quiver, roots: tuple[tuple[int, ...], ...]):
        self._quiver = q
        self._roots = roots

    def __len__(self) -> int:
        return len(self._roots)

    def __getitem__(self, i):
        return self._built[i]

    @cached_property
    def _built(self) -> tuple[Representation, ...]:
        return tuple(_build_indecomposable(self._quiver, d) for d in self._roots)


class Catalog:
    """All indecomposables of a Dynkin quiver, in a fixed deterministic order.

    Entry i is the unique indecomposable with dimension vector roots[i].  The
    category is directed, so for distinct entries at most one of Hom and Ext^1
    is nonzero and hom - ext is the Euler pairing; for an entry with itself
    the pairing is 1 = dim End.  hom_table and ext_table come from that
    alone.  The matrix bricks in `reps` are built only when read, as an
    independent oracle for the tables.
    """

    def __init__(self, q: Quiver):
        self.quiver = q
        dynkin_type(q)  # reflection closure only terminates for finite type
        roots = sorted(positive_roots(cartan_matrix(q)), key=lambda d: _catalog_sort_key(q, d))
        if len(roots) > 120:
            raise UnsupportedTypeError("catalog too large; quiver is not small Dynkin")
        self.roots: tuple[tuple[int, ...], ...] = tuple(roots)
        self.reps: Sequence[Representation] = _Bricks(q, self.roots)
        self.by_dims = {d: i for i, d in enumerate(self.roots)}
        labels = []
        k = 0
        for d in self.roots:
            if sum(d) == 1:
                v = q.vertices[d.index(1)]
                labels.append(f"T{v}")
            else:
                k += 1
                labels.append(f"X{k}")
        self.labels: tuple[str, ...] = tuple(labels)

    def __len__(self) -> int:
        return len(self.roots)

    def simple_index(self, v: int) -> int:
        dims = tuple(1 if u == v else 0 for u in self.quiver.vertices)
        return self.by_dims[dims]

    @cached_property
    def _euler(self) -> tuple[tuple[int, ...], ...]:
        """chi(roots[i], roots[j]) for every pair."""
        m = euler_form_hereditary(self.quiver).matrix
        cols = range(len(m))
        out = []
        for x in self.roots:
            row = [sum(x[i] * m[i][j] for i in cols) for j in cols]
            out.append(tuple(sum(map(mul, row, y)) for y in self.roots))
        return tuple(out)

    @cached_property
    def cy3_kernel(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer basis of the kernel of the antisymmetrized Euler form."""
        return integer_kernel(euler_form_cy3(self.quiver))

    @cached_property
    def hom_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(max(c, 0) for c in row) for row in self._euler)

    @cached_property
    def ext_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(max(-c, 0) for c in row) for row in self._euler)

    @cached_property
    def hom_order(self) -> tuple[int, ...]:
        """Topological order: i precedes j whenever Hom(i, j) != 0.

        Indecomposables over a Dynkin quiver admit no cycle of nonzero
        non-isomorphisms, so this order exists; sorting by total dimension
        alone would not work because maps run in both directions.
        """
        n = len(self.roots)
        h = self.hom_table
        indeg = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and h[i][j]:
                    indeg[j] += 1
        order = []
        ready = sorted(i for i in range(n) if indeg[i] == 0)
        while ready:
            i = ready.pop(0)
            order.append(i)
            for j in range(n):
                if i != j and h[i][j]:
                    indeg[j] -= 1
                    if indeg[j] == 0 and j not in ready:
                        ready.append(j)
            ready.sort()
        if len(order) != n:
            raise InternalError("Hom-nonvanishing graph has a cycle")
        return tuple(order)

    def identify(self, r: Representation) -> tuple[int, ...]:
        """Catalog indices of the indecomposable summands, with multiplicity.

        Fingerprints r by dim Hom(C_i, r) and solves the resulting
        unitriangular system along the Hom order.
        """
        if r.is_zero():
            return ()
        n = len(self.reps)
        b = [hom_dim(self.reps[i], r) for i in range(n)]
        h = self.hom_table
        order = self.hom_order
        mult = [0] * n
        for pos in range(n - 1, -1, -1):
            i = order[pos]
            acc = b[i]
            for later in order[pos + 1 :]:
                acc -= h[i][later] * mult[later]
            if acc < 0:
                raise InternalError("summand multiplicity went negative")
            mult[i] = acc
        if sum(mult[i] * self.reps[i].total for i in range(n)) != r.total:
            raise InternalError("decomposition does not account for the full dimension")
        out = []
        for i in range(n):
            out.extend([i] * mult[i])
        return tuple(out)

    def transport_index(self, s: Automorphism) -> tuple[int, ...]:
        """Permutation p with transport(C_i) isomorphic to C_{p[i]}."""
        q = self.quiver
        target = [q.vertex_index[s.vertex(v)] for v in q.vertices]
        out = []
        for d in self.roots:
            moved = [0] * len(d)
            for vi, c in enumerate(d):
                moved[target[vi]] = c
            idx = self.by_dims.get(tuple(moved))
            if idx is None:
                raise InternalError(f"transport of root {d} is not a root")
            out.append(idx)
        return tuple(out)


def cy3_hom_dims(catalog: Catalog, x, y) -> dict[int, int]:
    """Graded Hom dimensions between shifted sums in the 3-Calabi-Yau closure.

    x and y are sequences of (catalog index, shift) summands.  Degrees k with
    hom^k(x, y) = hom^0(x, y[k]) nonzero map to their dimensions; over the
    hereditary side every pair contributes its Hom/Ext in degrees 0 and 1
    plus the dual copies in degrees 3 and 2.
    """
    out: dict[int, int] = {}
    for xi, xs in x:
        for yi, ys in y:
            offset = xs - ys
            fwd = (catalog.hom_table[xi][yi], catalog.ext_table[xi][yi])
            bwd = (catalog.hom_table[yi][xi], catalog.ext_table[yi][xi])
            for j, d in enumerate(fwd):
                if d:
                    out[j + offset] = out.get(j + offset, 0) + d
            for j, d in enumerate(bwd):
                if d:
                    out[3 - j + offset] = out.get(3 - j + offset, 0) + d
    return {k: v for k, v in sorted(out.items())}
