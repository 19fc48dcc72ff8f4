"""Quivers, admissible automorphisms, folding, and Euler forms.

A quiver is a finite directed multigraph with integer vertex ids and named
arrows.  An automorphism pairs a vertex bijection with a compatible arrow
bijection.  Folding a quiver along an automorphism produces a valued quiver:
orbit vertices and orbit arrows, each carrying its orbit size.  Every
automorphism of an acyclic quiver is admissible (no arrow inside a vertex
orbit): such an arrow and its images would close a directed cycle.  Orbit
identifiers are the least member (numerically for vertices,
lexicographically for arrow names).

Euler forms are integer matrices on the free abelian group over the
vertices, in sorted vertex order: the hereditary form is delta_ij minus the
arrow count i -> j, the CY3 form is its antisymmetrization, and the Cartan
matrix its symmetrization.  `positive_roots` closes a finite-type Cartan
matrix (of any crystallographic type) into its roots; catalog and Coxeter
systems share it, and `weyl_degrees` reads the Weyl group's degrees off
their heights; `simply_laced_degrees` gives those of A, D and E from the
type alone.
`cartan_type` is the one classifier of a Cartan matrix, symmetric or not:
`dynkin_type` names Q by `cartan_matrix(q)`, and `valued_type_name` names the
fold by `folded_cartan`, its Cartan matrix in orbit coordinates and the only
reading of the fold's valuation.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

from .errors import InputError, UnsupportedTypeError, quote
from .linalg import IntMatrix, IntVector


class Arrow(NamedTuple):
    name: str
    tail: int
    head: int


class CheckedRecord:
    """Base of a NamedTuple whose ``__new__`` checks its fields.

    ``_replace`` builds its result through ``_make``, which on a plain
    NamedTuple skips ``__new__``; here it goes through the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _QuiverFields(NamedTuple):
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]


class Quiver(CheckedRecord, _QuiverFields):
    """Finite acyclic quiver; vertices sorted, arrows sorted by name."""

    def __new__(cls, vertices: tuple[int, ...], arrows: tuple[Arrow, ...]):
        if not vertices:
            raise InputError("quiver needs at least one vertex")
        if tuple(sorted(set(vertices))) != vertices:
            raise InputError("vertex ids must be unique and sorted")
        names = [a.name for a in arrows]
        if sorted(set(names)) != list(names):
            raise InputError("arrow names must be unique and sorted")
        vs = set(vertices)
        for a in arrows:
            if a.tail not in vs or a.head not in vs:
                raise InputError(f"arrow {quote(a.name)} uses an undeclared vertex")
        preds: dict[int, list[int]] = {v: [] for v in vertices}
        for a in arrows:
            preds[a.head].append(a.tail)
        try:
            TopologicalSorter(preds).prepare()
        except CycleError:
            raise InputError("quiver must be acyclic") from None
        return super().__new__(cls, vertices, arrows)

    @staticmethod
    def make(vertices, arrows) -> "Quiver":
        """Build from any iterables; arrows as (name, tail, head) triples."""
        arrs = tuple(
            sorted((Arrow(str(n), int(t), int(h)) for n, t, h in arrows), key=lambda a: a.name)
        )
        return Quiver(tuple(sorted(set(int(v) for v in vertices))), arrs)

    @cached_property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}


class _AutomorphismFields(NamedTuple):
    quiver: Quiver
    vertex_images: tuple[int, ...]
    arrow_images: tuple[str, ...]


class Automorphism(CheckedRecord, _AutomorphismFields):
    """Quiver automorphism: vertex images aligned with quiver.vertices,
    arrow images aligned with quiver.arrows."""

    def __new__(cls, quiver: Quiver, vertex_images: tuple[int, ...], arrow_images: tuple[str, ...]):
        self = super().__new__(cls, quiver, vertex_images, arrow_images)
        q = self.quiver
        if sorted(self.vertex_images) != list(q.vertices):
            raise InputError("vertex permutation is not a bijection on the vertices")
        if sorted(self.arrow_images) != [a.name for a in q.arrows]:
            raise InputError("arrow permutation is not a bijection on the arrows")
        for a, img_name in zip(q.arrows, self.arrow_images):
            img = q.arrow_by_name[img_name]
            if img.tail != self.vertex(a.tail) or img.head != self.vertex(a.head):
                raise InputError(
                    f"arrow permutation is incompatible: {quote(a.name)} -> {quote(img_name)} "
                    "does not match the vertex permutation"
                )
        return self

    @staticmethod
    def identity(q: Quiver) -> "Automorphism":
        return Automorphism(q, q.vertices, tuple(a.name for a in q.arrows))

    def vertex(self, v: int) -> int:
        return self.vertex_images[self.quiver.vertex_index[v]]

    def arrow(self, name: str) -> str:
        return self._arrow_image[name]

    @cached_property
    def _arrow_image(self) -> dict[str, str]:
        return {a.name: img for a, img in zip(self.quiver.arrows, self.arrow_images)}

    def is_identity(self) -> bool:
        return self.vertex_images == self.quiver.vertices

    @cached_property
    def vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits as sorted tuples, listed by least member."""
        return cycles(self.quiver.vertices, self.vertex)

    @cached_property
    def arrow_orbits(self) -> tuple[tuple[str, ...], ...]:
        return cycles(tuple(a.name for a in self.quiver.arrows), self.arrow)


def cycles(items, step):
    """Cycles of the permutation step on items, as sorted tuples listed by least member."""
    seen: set = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        orbit = [x]
        seen.add(x)
        y = step(x)
        while y != x:
            orbit.append(y)
            seen.add(y)
            y = step(y)
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


class OrbitVertex(NamedTuple):
    name: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class OrbitArrow(NamedTuple):
    name: str
    members: tuple[str, ...]
    tail: int  # orbit vertex name
    head: int

    @property
    def size(self) -> int:
        return len(self.members)


class ValuedQuiver(NamedTuple):
    """Fold of a quiver: orbit vertices/arrows with their orbit sizes."""

    source: Quiver
    automorphism: Automorphism
    vertices: tuple[OrbitVertex, ...]
    arrows: tuple[OrbitArrow, ...]


def fold(q: Quiver, s: Automorphism) -> ValuedQuiver:
    """Fold q along an automorphism of q; every one is admissible.

    An arrow i -> F^m(i) inside a vertex orbit would have images
    F^m(i) -> F^2m(i) -> ..., a directed closed walk, and a Quiver is acyclic.
    """
    if s.quiver is not q and s.quiver != q:
        raise InputError("automorphism belongs to a different quiver")
    orbit_of = {v: o for o in s.vertex_orbits for v in o}
    overts = tuple(OrbitVertex(o[0], o) for o in s.vertex_orbits)
    oarrs = []
    for names in s.arrow_orbits:
        a = q.arrow_by_name[names[0]]
        oarrs.append(OrbitArrow(names[0], names, orbit_of[a.tail][0], orbit_of[a.head][0]))
    return ValuedQuiver(q, s, overts, tuple(oarrs))


def euler_form_hereditary(q: Quiver) -> IntMatrix:
    """chi(e_i, e_j) = delta_ij - #arrows(i -> j), on sorted vertices."""
    n = len(q.vertices)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in q.arrows:
        m[q.vertex_index[a.tail]][q.vertex_index[a.head]] -= 1
    return tuple(map(tuple, m))


def euler_form_cy3(q: Quiver) -> IntMatrix:
    """Antisymmetrized Euler form, chi3 = chi - chi^T."""
    m = euler_form_hereditary(q)
    return tuple(tuple(x - y for x, y in zip(row, col)) for row, col in zip(m, zip(*m)))


def cartan_matrix(q: Quiver) -> IntMatrix:
    """Symmetric Cartan matrix chi + chi^T of the underlying graph, on sorted vertices."""
    m = euler_form_hereditary(q)
    return tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(m, zip(*m)))


def cartan_for_type(family: str, rank: int) -> IntMatrix:
    """Standard crystallographic Cartan matrices, short roots at the high end."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, down=1, up=1):
        c[i][j] = -down
        c[j][i] = -up

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family in ("B", "C"):
        if rank < 2:
            raise UnsupportedTypeError(f"{family}{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        if family == "B":
            bond(rank - 2, rank - 1, down=2, up=1)
        else:
            bond(rank - 2, rank - 1, down=1, up=2)
    elif family == "D":
        if rank < 3:
            raise UnsupportedTypeError(f"D{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedTypeError(f"E{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(2, rank - 1)
    elif family == "F":
        if rank != 4:
            raise UnsupportedTypeError("only F4 exists")
        bond(0, 1)
        bond(1, 2, down=2, up=1)
        bond(2, 3)
    elif family == "G":
        if rank != 2:
            raise UnsupportedTypeError("only G2 exists")
        bond(0, 1, down=3, up=1)
    else:
        raise UnsupportedTypeError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in c)


def folded_cartan(vq: ValuedQuiver) -> IntMatrix:
    """Cartan matrix of the fold, indexed like vq.vertices.

    c_IJ = 2 delta_IJ - sum of |arrow orbit joining I and J| / |I|.  Each
    such arrow orbit maps onto I, so the division is exact.
    """
    index = {o.name: i for i, o in enumerate(vq.vertices)}
    n = len(vq.vertices)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for oa in vq.arrows:
        i, j = index[oa.tail], index[oa.head]
        c[i][j] -= oa.size // vq.vertices[i].size
        c[j][i] -= oa.size // vq.vertices[j].size
    return tuple(tuple(row) for row in c)


def positive_roots(cartan: IntMatrix) -> tuple[IntVector, ...]:
    """Sorted positive roots of a finite-type Cartan matrix, in the simple-root basis.

    Every positive root is reached from a simple root by reflections s_i that
    raise the height, i.e. where <alpha_i^v, beta> < 0.  No root of finite
    type has a coefficient above 6 (E8's highest root peaks there), while an
    infinite type has roots with unbounded coefficients; so the closure
    raises UnsupportedTypeError at the first coefficient above 6.
    """
    n = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for beta in frontier:
            for i, row in enumerate(cartan):
                k = sum(c * b for c, b in zip(row, beta))
                if k < 0:
                    if beta[i] - k > 6:
                        raise UnsupportedTypeError("Cartan matrix is not of finite type")
                    gamma = beta[:i] + (beta[i] - k,) + beta[i + 1 :]
                    if gamma not in roots:
                        roots.add(gamma)
                        nxt.append(gamma)
        frontier = nxt
    return tuple(sorted(roots))


def weyl_degrees(roots: tuple[IntVector, ...]) -> tuple[int, ...]:
    """Degrees of the Weyl group of a finite root system, ascending.

    The positive roots by height form the partition dual to the exponents
    m_i (Kostant), and the degrees are m_i + 1.  |W| is their product.  For
    an irreducible system the largest degree is the Coxeter number h, and the
    W-Catalan number prod (h + d_i) / d_i counts the hearts of the interval
    exchange graph.
    """
    by_height = Counter(map(sum, roots))
    return tuple(sorted(h + 1 for h, k in by_height.items() for _ in range(k - by_height[h + 1])))


def simply_laced_degrees(family: str, rank: int) -> tuple[int, ...]:
    """Degrees of the Weyl group of type A_n, D_n or E6-E8, ascending, read off
    the type (Humphreys, Reflection Groups and Coxeter Groups, table 3.1), so
    they cost no root closure."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family == "D":
        return tuple(sorted([*range(2, 2 * rank - 1, 2), rank]))
    return {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}[rank]


def frobenius_order(s: Automorphism) -> int:
    return math.lcm(*(len(o) for o in s.vertex_orbits))


def cartan_type(c: IntMatrix) -> tuple[str, int, tuple[int, ...]]:
    """Classify a connected finite-type Cartan matrix as (family, rank, node order).

    The bond graph (i ~ j when c_ij != 0) must be a tree with at most one
    branch node.  A path, walked from its lower end, is A when simply laced,
    else the first of B, C, F, G whose `cartan_for_type` it equals read in
    either direction (so B2 wins over C2); the order is the matching one.  A
    branched tree must be simply laced; D and E run along the long arm into
    the branch node, then list the short arms (for D their ends, sorted).
    """
    n = len(c)
    adj = [tuple(j for j in range(n) if j != i and c[i][j]) for i in range(n)]
    seen, stack = {0}, [0]
    while stack:
        fresh = set(adj[stack.pop()]) - seen
        seen |= fresh
        stack += fresh
    if sum(map(len, adj)) != 2 * (n - 1) or len(seen) != n:
        raise UnsupportedTypeError("underlying graph is not a tree")
    branch = [i for i in range(n) if len(adj[i]) > 2]
    if any(len(a) > 3 for a in adj) or len(branch) > 1:
        raise UnsupportedTypeError("underlying graph branches too much")

    def walk(prev, node) -> tuple[int, ...]:
        out = [node]
        while nxt := [j for j in adj[node] if j != prev]:
            prev, node = node, nxt[0]
            out.append(node)
        return tuple(out)

    laced = all(c[i][j] == -1 for i in range(n) for j in adj[i])
    if not branch:
        order = walk(None, min(i for i in range(n) if len(adj[i]) <= 1))
        if laced:
            return "A", n, order
        along = {tuple(tuple(c[i][j] for j in seq) for i in seq): seq for seq in (order, order[::-1])}
        for family in "BCFG":
            try:
                return family, n, along[cartan_for_type(family, n)]
            except (KeyError, UnsupportedTypeError):
                pass
        raise UnsupportedTypeError("valued path is not of type B, C, F or G")
    if not laced:
        raise UnsupportedTypeError("branched diagram is not simply laced")
    b = branch[0]
    arms = sorted((walk(b, j) for j in adj[b]), key=lambda arm: (len(arm), arm[-1]))
    lengths = tuple(len(a) for a in arms)
    if lengths[:2] == (1, 1):
        return "D", n, arms[2][::-1] + (b,) + tuple(sorted((arms[0][0], arms[1][0])))
    if lengths[0] == 1 and lengths[1] == 2 and lengths[2] in (2, 3, 4):
        return "E", n, arms[2][::-1] + (b,) + arms[1] + arms[0]
    raise UnsupportedTypeError(f"arm lengths {lengths} are not of Dynkin shape")


def dynkin_type(q: Quiver) -> tuple[str, int, tuple[int, ...]]:
    """Classify the underlying graph as (family, rank, canonical vertex order):
    `cartan_type` of `cartan_matrix(q)`, its order mapped back to vertex ids.
    The order fixes how vertices map to Coxeter generator slots."""
    pairs = {frozenset((a.tail, a.head)) for a in q.arrows}
    if len(pairs) != len(q.arrows):
        raise UnsupportedTypeError("multiple arrows between two vertices")
    family, rank, order = cartan_type(cartan_matrix(q))
    return family, rank, tuple(q.vertices[i] for i in order)


def valued_type_name(vq: ValuedQuiver) -> str | None:
    """Name the fold by `cartan_type` of its folded Cartan matrix, or None
    if it is not of finite type."""
    try:
        family, rank, _ = cartan_type(folded_cartan(vq))
    except UnsupportedTypeError:
        return None
    return f"{family}{rank}"
