"""Exact quiver representations over the rationals.

A representation assigns a dimension to every vertex and a matrix to every
arrow.  Everything here is exact: matrices have integer entries, or
Fractions where `linalg.solve` divided, and all dimensions (Hom, Ext,
kernels, cokernels) come from exact linear algebra.

The catalog of a Dynkin quiver holds one indecomposable per positive root
and works on the roots alone: the roots are `quiver.positive_roots` of the
quiver's Cartan matrix, and one integer table, the Euler form between them,
gives every Hom and Ext^1 dimension.  The matrix code stays as an
independent oracle, with one path per construction: the universal
(co)extensions are `extension_module` of stacked Ext^1 cocycles, a direct
sum is `extension_module` by zero cocycles, one summand at a time, and a
cokernel reads its basis off the pivot columns of `linalg.echelon`.  A
tuple of matrices (a module map, one block per vertex, or a cocycle, one
block per arrow) is one coordinate vector, laid out by `_offsets` and read
back by `_unpack`.  Each matrix brick is built with pseudo-random small
integer entries and certified by an endomorphism check (End = k); a brick
whose dimension vector is a root is the unique indecomposable in its class,
so the certificate pins it exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate
from math import prod
from operator import mul
from typing import NamedTuple

from .errors import InternalError, UnsupportedTypeError
from .linalg import (
    Matrix,
    int_identity,
    integer_left_kernel,
    kernel_basis,
    mat_vec,
    pivot_columns,
    solve,
    transpose,
)
from .quiver import (
    Automorphism,
    CheckedRecord,
    Quiver,
    cartan_matrix,
    dynkin_type,
    euler_form_cy3,
    euler_form_hereditary,
    positive_roots,
    simply_laced_degrees,
)

def _zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


class _RepresentationFields(NamedTuple):
    quiver: Quiver
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]


class Representation(CheckedRecord, _RepresentationFields):
    """Matrices indexed like the quiver's arrow list; dims like its vertices."""

    __slots__ = ()

    def __new__(cls, quiver: Quiver, dims: tuple[int, ...], maps: tuple[Matrix, ...]):
        if len(dims) != len(quiver.vertices) or len(maps) != len(quiver.arrows):
            raise InternalError("representation shape mismatch")
        for a, m in zip(quiver.arrows, maps):
            rows = dims[quiver.vertex_index[a.head]]
            cols = dims[quiver.vertex_index[a.tail]]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise InternalError(f"matrix shape mismatch on arrow {a.name!r}")
        return super().__new__(cls, quiver, dims, maps)

    @property
    def total(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total == 0


def zero_rep(q: Quiver) -> Representation:
    return Representation(q, (0,) * len(q.vertices), tuple(_zeros(0, 0) for _ in q.arrows))


def direct_sum(reps: list[Representation]) -> Representation:
    """Block-diagonal sum: each summand extends the sum before it by the zero cocycle."""
    if not reps:
        raise InternalError("empty direct sum")
    total = reps[0]
    for r in reps[1:]:
        zero = tuple(_zeros(*shape) for shape in _cocycle_shapes(r, total))
        total = extension_module(r, total, zero)
    return total


# A module map M -> N is one matrix per vertex commuting with the arrow maps.
ModuleMap = tuple[Matrix, ...]
# An Ext class is a cocycle: one matrix g_a per arrow, g_a : M_t -> N_h.
Cocycle = tuple[Matrix, ...]


def _cocycle_shapes(m: Representation, n: Representation) -> list[tuple[int, int]]:
    """Shape of a cocycle from M to N on each arrow: N at the head by M at the tail."""
    q = m.quiver
    return [(n.dims[q.vertex_index[a.head]], m.dims[q.vertex_index[a.tail]]) for a in q.arrows]


def _offsets(shapes: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Start of each (rows, cols) block in one row-major coordinate vector, and its length."""
    offsets = list(accumulate((rows * cols for rows, cols in shapes), initial=0))
    return offsets[:-1], offsets[-1]


def _unpack(vec, shapes: Sequence[tuple[int, int]]) -> tuple[Matrix, ...]:
    """The matrices laid out in vec by `_offsets`."""
    offsets, _ = _offsets(shapes)
    return tuple(
        tuple(tuple(vec[base + i * cols + j] for j in range(cols)) for i in range(rows))
        for base, (rows, cols) in zip(offsets, shapes)
    )


def _intertwiner_rows(m: Representation, n: Representation) -> tuple[int, list[tuple[int, ...]]]:
    """The map (f_v) -> (f_h M_a - N_a f_t) from map to cocycle coordinates.

    Returns the number of map coordinates and one row per cocycle
    coordinate.  A map has one N_v x M_v block per vertex, and a cocycle
    one block per arrow, shaped by `_cocycle_shapes`.
    """
    q = m.quiver
    offsets, nvars = _offsets(tuple(zip(n.dims, m.dims)))
    rows = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        ma, na = m.maps[ai], n.maps[ai]
        for i in range(n.dims[hi]):
            for j in range(m.dims[ti]):
                row = [0] * nvars
                for k in range(m.dims[hi]):
                    row[offsets[hi] + i * m.dims[hi] + k] += ma[k][j]
                for l in range(n.dims[ti]):
                    row[offsets[ti] + l * m.dims[ti] + j] -= na[i][l]
                rows.append(tuple(row))
    return nvars, rows


def hom_space(m: Representation, n: Representation) -> list[ModuleMap]:
    """Basis of the space of module maps M -> N."""
    nvars, rows = _intertwiner_rows(m, n)
    return [_unpack(vec, tuple(zip(n.dims, m.dims))) for vec in kernel_basis(rows, nvars)]


def hom_dim(m: Representation, n: Representation) -> int:
    return len(hom_space(m, n))


def ext1_space(m: Representation, n: Representation) -> list[Cocycle]:
    """Basis of Ext^1(M, N): the unit cocycles off the pivots of the intertwiner image.

    Row k of the intertwiner rows is cocycle coordinate k as a functional
    of the map coordinates, so the pivot columns of their transpose index a
    basis of the image, and the other unit cocycles complete it.
    """
    _, rows = _intertwiner_rows(m, n)
    image = set(pivot_columns(transpose(rows)))
    shapes = _cocycle_shapes(m, n)
    return [_unpack(unit, shapes) for k, unit in enumerate(int_identity(len(rows))) if k not in image]


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
        top = _side_by_side([n.maps[ai], cocycle[ai]], n.dims[hi])
        bottom = _side_by_side([_zeros(m.dims[hi], n.dims[ti]), m.maps[ai]], m.dims[hi])
        maps.append(_stack([top, bottom]))
    return Representation(q, dims, tuple(maps))


def _stack(blocks: Sequence[Matrix]) -> Matrix:
    """Matrices of one width, stacked row-wise."""
    return tuple(row for b in blocks for row in b)


def _side_by_side(blocks: Sequence[Matrix], rows: int) -> Matrix:
    """Matrices of `rows` rows each, joined side by side."""
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(rows))


def universal_extension(m: Representation, s: Representation) -> Representation:
    """Middle term of 0 -> S^d -> U -> M -> 0 over a basis of Ext^1(M, S)."""
    classes = ext1_space(m, s)
    if not classes:
        return m
    g = tuple(_stack([c[ai] for c in classes]) for ai in range(len(m.quiver.arrows)))
    return extension_module(m, direct_sum([s] * len(classes)), g)


def universal_coextension(m: Representation, s: Representation) -> Representation:
    """Middle term of 0 -> M -> E -> S^d -> 0 over a basis of Ext^1(S, M)."""
    classes = ext1_space(s, m)
    if not classes:
        return m
    q = m.quiver
    g = tuple(
        _side_by_side([c[ai] for c in classes], m.dims[q.vertex_index[a.head]])
        for ai, a in enumerate(q.arrows)
    )
    return extension_module(direct_sum([s] * len(classes)), m, g)


def stack_hom_vertical(m: Representation, s: Representation) -> tuple[Representation, ModuleMap]:
    """Evaluation M -> S^d over a basis f_1..f_d of Hom(M, S), stacked row-wise."""
    fs = hom_space(m, s)
    target = direct_sum([s] * len(fs)) if fs else zero_rep(m.quiver)
    phi = tuple(_stack([f[vi] for f in fs]) for vi in range(len(m.quiver.vertices)))
    return target, phi


def stack_hom_horizontal(s: Representation, m: Representation) -> tuple[Representation, ModuleMap]:
    """Evaluation S^d -> M over a basis f_1..f_d of Hom(S, M), side by side."""
    fs = hom_space(s, m)
    source = direct_sum([s] * len(fs)) if fs else zero_rep(m.quiver)
    phi = tuple(_side_by_side([f[vi] for f in fs], md) for vi, md in enumerate(m.dims))
    return source, phi


def kernel_module(phi: ModuleMap, m: Representation) -> Representation:
    """Kernel of a module map phi : M -> N as a subrepresentation of M."""
    q = m.quiver
    bases = [kernel_basis(f, md) for f, md in zip(phi, m.dims)]
    dims = tuple(len(b) for b in bases)
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        cols = []
        if dims[ti] and dims[hi]:
            bh = transpose(bases[hi])
            for x in bases[ti]:
                y = mat_vec(m.maps[ai], x)
                coeff = solve(bh, y)
                if coeff is None:
                    raise InternalError("kernel is not arrow-stable")
                cols.append(coeff)
            maps.append(transpose(cols))
        else:
            maps.append(_zeros(dims[hi], dims[ti]))
    return Representation(q, dims, tuple(maps))


def cokernel_module(phi: ModuleMap, m: Representation, n: Representation) -> Representation:
    """Cokernel of a module map phi : M -> N in complement coordinates of N.

    At each vertex the pivot columns of [phi_v | I] are the columns that
    greedy left-to-right independence would pick: those of phi_v are a basis
    of the image, and the unit columns after them complete it to a basis of
    N_v and index the cokernel coordinates.
    """
    q = n.quiver
    comps: list[list[int]] = []
    bases: list[Matrix] = []
    for vi in range(len(q.vertices)):
        nd, md = n.dims[vi], m.dims[vi]
        aug = tuple((*row, *unit) for row, unit in zip(phi[vi], int_identity(nd)))
        pivots = pivot_columns(aug)
        comps.append([p - md for p in pivots if p >= md])
        bases.append(tuple(tuple(row[p] for p in pivots) for row in aug))
    dims = tuple(len(c) for c in comps)
    maps = []
    for ai, a in enumerate(q.arrows):
        hi = q.vertex_index[a.head]
        ti = q.vertex_index[a.tail]
        block = [[0] * dims[ti] for _ in range(dims[hi])]
        if dims[ti] and dims[hi]:
            for cj, j in enumerate(comps[ti]):
                y = tuple(n.maps[ai][i][j] for i in range(n.dims[hi]))
                coeff = solve(bases[hi], y)
                if coeff is None:
                    raise InternalError("cokernel projection failed")
                for ci in range(dims[hi]):
                    block[ci][cj] = coeff[n.dims[hi] - dims[hi] + ci]
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


def _catalog_sort_key(d: tuple[int, ...]):
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
                tuple(tuple(next(entries) for _ in range(cols)) for _ in range(rows))
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


# Most hearts an interval exchange graph may have: E8's W-Catalan number.
MAX_HEARTS = 25_080


class Catalog:
    """All indecomposables of a Dynkin quiver, in a fixed deterministic order.

    Entry i is the unique indecomposable with dimension vector roots[i].  The
    category is directed, so for distinct entries at most one of Hom and Ext^1
    is nonzero and hom - ext is the Euler pairing; for an entry with itself
    the pairing is 1 = dim End.  So `euler[i][j]` alone gives
    Hom = max(chi, 0) and Ext^1 = max(-chi, 0).  The matrix bricks in `reps`
    are built only when read, as an independent oracle for that table.
    """

    def __init__(self, q: Quiver):
        self.quiver = q
        family, n, _ = dynkin_type(q)
        degrees = simply_laced_degrees(family, n)
        hearts = prod(degrees[-1] + d for d in degrees) // prod(degrees)
        if hearts > MAX_HEARTS:
            raise UnsupportedTypeError(f"{family}{n} has {hearts} hearts; the limit is E8's {MAX_HEARTS}")
        self.roots: tuple[tuple[int, ...], ...] = tuple(
            sorted(positive_roots(cartan_matrix(q)), key=_catalog_sort_key)
        )
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
    def euler(self) -> tuple[tuple[int, ...], ...]:
        """chi(roots[i], roots[j]) for every pair: Hom is max(chi, 0), Ext^1 max(-chi, 0)."""
        m = euler_form_hereditary(self.quiver)
        cols = range(len(m))
        out = []
        for x in self.roots:
            row = [sum(x[i] * m[i][j] for i in cols) for j in cols]
            out.append(tuple(sum(map(mul, row, y)) for y in self.roots))
        return tuple(out)

    @cached_property
    def cy3_kernel(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer basis of the kernel of the antisymmetrized Euler form."""
        return integer_left_kernel(euler_form_cy3(self.quiver))

    @cached_property
    def hom_order(self) -> tuple[int, ...]:
        """Topological order: i precedes j whenever Hom(i, j) != 0.

        Indecomposables over a Dynkin quiver admit no cycle of nonzero
        non-isomorphisms, so this order exists; sorting by total dimension
        alone would not work because maps run in both directions.
        """
        h = self.euler
        preds = {j: [i for i, row in enumerate(h) if i != j and row[j] > 0] for j in range(len(h))}
        try:
            return tuple(TopologicalSorter(preds).static_order())
        except CycleError:
            raise InternalError("Hom-nonvanishing graph has a cycle") from None

    def identify(self, r: Representation) -> tuple[int, ...]:
        """Catalog indices of the indecomposable summands, with multiplicity.

        Fingerprints r by dim Hom(C_i, r) and solves the resulting
        unitriangular system along the Hom order.
        """
        if r.is_zero():
            return ()
        n = len(self.reps)
        b = [hom_dim(self.reps[i], r) for i in range(n)]
        h = self.euler
        order = self.hom_order
        mult = [0] * n
        for pos in range(n - 1, -1, -1):
            i = order[pos]
            acc = b[i]
            for later in order[pos + 1 :]:
                acc -= max(h[i][later], 0) * mult[later]
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

