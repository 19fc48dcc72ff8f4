"""Quivers, admissible automorphisms, folding, and Euler forms.

A quiver is a finite directed multigraph with integer vertex ids and named
arrows.  An automorphism pairs a vertex bijection with a compatible arrow
bijection.  Folding an acyclic quiver along an admissible automorphism (no
arrow inside a vertex orbit) produces a valued quiver: orbit vertices and
orbit arrows, each carrying its orbit size.  Orbit identifiers are the least
member (numerically for vertices, lexicographically for arrow names).

Euler forms live on the free abelian group over the vertices, in sorted
vertex order: the hereditary form is delta_ij minus the arrow count i -> j,
the CY3 form is its antisymmetrization, and the Cartan matrix its
symmetrization.  `positive_roots` closes a finite-type Cartan matrix (of any
crystallographic type) into its roots; catalog and Coxeter systems share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import AdmissibilityError, InputError, UnsupportedTypeError, quote
from .linalg import IntMatrix, IntVector, integer_left_kernel


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: int
    head: int


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver; vertices sorted, arrows sorted by name."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("quiver needs at least one vertex")
        if tuple(sorted(set(self.vertices))) != self.vertices:
            raise InputError("vertex ids must be unique and sorted")
        names = [a.name for a in self.arrows]
        if sorted(set(names)) != list(names):
            raise InputError("arrow names must be unique and sorted")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vs or a.head not in vs:
                raise InputError(f"arrow {quote(a.name)} uses an undeclared vertex")
        if self._has_cycle():
            raise InputError("quiver must be acyclic")

    @staticmethod
    def make(vertices, arrows) -> "Quiver":
        """Build from any iterables; arrows as (name, tail, head) triples."""
        arrs = tuple(
            sorted((Arrow(str(n), int(t), int(h)) for n, t, h in arrows), key=lambda a: a.name)
        )
        return Quiver(tuple(sorted(set(int(v) for v in vertices))), arrs)

    def _has_cycle(self) -> bool:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            out[a.tail].append(a.head)
            indeg[a.head] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen != len(self.vertices)

    @cached_property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def arrow_count(self, tail: int, head: int) -> int:
        return sum(1 for a in self.arrows if a.tail == tail and a.head == head)

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Underlying-graph adjacency (undirected, without multiplicity)."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def is_connected(self) -> bool:
        stack = [self.vertices[0]]
        seen = {self.vertices[0]}
        while stack:
            for w in self.neighbors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class Automorphism:
    """Quiver automorphism: vertex images aligned with quiver.vertices,
    arrow images aligned with quiver.arrows."""

    quiver: Quiver
    vertex_images: tuple[int, ...]
    arrow_images: tuple[str, ...]

    def __post_init__(self):
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

    @staticmethod
    def identity(q: Quiver) -> "Automorphism":
        return Automorphism(q, q.vertices, tuple(a.name for a in q.arrows))

    def vertex(self, v: int) -> int:
        return self.vertex_images[self.quiver.vertex_index[v]]

    def arrow(self, name: str) -> str:
        idx = next(i for i, a in enumerate(self.quiver.arrows) if a.name == name)
        return self.arrow_images[idx]

    def is_identity(self) -> bool:
        return self.vertex_images == self.quiver.vertices

    @cached_property
    def vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits as sorted tuples, listed by least member."""
        return _orbits(self.quiver.vertices, self.vertex)

    @cached_property
    def arrow_orbits(self) -> tuple[tuple[str, ...], ...]:
        return _orbits(tuple(a.name for a in self.quiver.arrows), self.arrow)

    def is_admissible(self) -> bool:
        orbit_of = {v: o for o in self.vertex_orbits for v in o}
        return all(orbit_of[a.tail] is not orbit_of[a.head] for a in self.quiver.arrows)


def _orbits(items, step):
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


@dataclass(frozen=True)
class OrbitVertex:
    name: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OrbitArrow:
    name: str
    members: tuple[str, ...]
    tail: int  # orbit vertex name
    head: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ValuedQuiver:
    """Fold of a quiver: orbit vertices/arrows with their orbit sizes."""

    source: Quiver
    automorphism: Automorphism
    vertices: tuple[OrbitVertex, ...]
    arrows: tuple[OrbitArrow, ...]


def fold(q: Quiver, s: Automorphism) -> ValuedQuiver:
    """Fold q along an admissible automorphism.

    Raises AdmissibilityError when some arrow joins two vertices of one orbit.
    """
    if s.quiver is not q and s.quiver != q:
        raise InputError("automorphism belongs to a different quiver")
    orbit_of = {v: o for o in s.vertex_orbits for v in o}
    for a in q.arrows:
        if orbit_of[a.tail] is orbit_of[a.head]:
            raise AdmissibilityError(
                f"arrow {quote(a.name)} joins vertices {a.tail} and {a.head} of one orbit"
            )
    overts = tuple(OrbitVertex(o[0], o) for o in s.vertex_orbits)
    oarrs = []
    for names in s.arrow_orbits:
        a = q.arrow_by_name[names[0]]
        oarrs.append(OrbitArrow(names[0], names, orbit_of[a.tail][0], orbit_of[a.head][0]))
    return ValuedQuiver(q, s, overts, tuple(oarrs))


@dataclass(frozen=True)
class BilinearForm:
    """Integer bilinear form on Z^basis; evaluate(x, y) = x^T M y."""

    basis: tuple[int, ...]
    matrix: IntMatrix

    def evaluate(self, x, y) -> int:
        return sum(
            x[i] * self.matrix[i][j] * y[j]
            for i in range(len(self.basis))
            for j in range(len(self.basis))
        )


def euler_form_hereditary(q: Quiver) -> BilinearForm:
    """chi(e_i, e_j) = delta_ij - #arrows(i -> j), on sorted vertices."""
    n = len(q.vertices)
    counts = [[0] * n for _ in range(n)]
    for a in q.arrows:
        counts[q.vertex_index[a.tail]][q.vertex_index[a.head]] += 1
    m = tuple(
        tuple((1 if i == j else 0) - counts[i][j] for j in range(n)) for i in range(n)
    )
    return BilinearForm(q.vertices, m)


def euler_form_cy3(q: Quiver) -> BilinearForm:
    """Antisymmetrized Euler form, chi3 = chi - chi^T."""
    h = euler_form_hereditary(q)
    n = len(h.basis)
    m = tuple(
        tuple(h.matrix[i][j] - h.matrix[j][i] for j in range(n)) for i in range(n)
    )
    return BilinearForm(h.basis, m)


def cartan_matrix(q: Quiver) -> IntMatrix:
    """Symmetric Cartan matrix chi + chi^T of the underlying graph, on sorted vertices."""
    m = euler_form_hereditary(q).matrix
    return tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(m, zip(*m)))


def positive_roots(cartan: IntMatrix) -> tuple[IntVector, ...]:
    """Sorted positive roots of a finite-type Cartan matrix, in the simple-root basis.

    Every positive root is reached from a simple root by reflections s_i that
    raise the height, i.e. where <alpha_i^v, beta> < 0.
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
                    gamma = beta[:i] + (beta[i] - k,) + beta[i + 1 :]
                    if gamma not in roots:
                        roots.add(gamma)
                        nxt.append(gamma)
        frontier = nxt
    return tuple(sorted(roots))


def integer_kernel(form: BilinearForm) -> tuple[IntVector, ...]:
    """Primitive basis of {x : x^T M = 0}, deterministic order and signs."""
    return integer_left_kernel(form.matrix)


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


def frobenius_order(s: Automorphism) -> int:
    return math.lcm(*(len(o) for o in s.vertex_orbits))


def dynkin_type(q: Quiver) -> tuple[str, int, tuple[int, ...]]:
    """Classify the underlying graph as (family, rank, canonical vertex order).

    Families are the simply laced ones; anything else (multi-arrows, cycles in
    the underlying graph, bad branching) raises UnsupportedTypeError.  The
    canonical order arranges a path end-to-end, and for branched types runs
    along the long arm into the branch vertex, then lists the two short-arm
    ends (sorted); it fixes how vertices map to Coxeter generator slots.
    """
    n = len(q.vertices)
    seen_pairs = set()
    for a in q.arrows:
        pair = (min(a.tail, a.head), max(a.tail, a.head))
        if pair in seen_pairs:
            raise UnsupportedTypeError("multiple arrows between two vertices")
        seen_pairs.add(pair)
    if len(seen_pairs) != n - 1 or not q.is_connected():
        raise UnsupportedTypeError("underlying graph is not a tree")
    deg = {v: len(q.neighbors[v]) for v in q.vertices}
    branch = [v for v in q.vertices if deg[v] > 2]
    if any(deg[v] > 3 for v in q.vertices) or len(branch) > 1:
        raise UnsupportedTypeError("underlying graph branches too much")

    if not branch:
        if n == 1:
            return "A", 1, q.vertices
        ends = sorted(v for v in q.vertices if deg[v] <= 1)
        order = _walk_path(q, ends[0])
        return "A", n, order

    c = branch[0]
    arms = []
    for first in q.neighbors[c]:
        arm = [first]
        prev = c
        while True:
            nxt = [w for w in q.neighbors[arm[-1]] if w != prev]
            if not nxt:
                break
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    arms.sort(key=lambda arm: (len(arm), arm[-1]))
    lengths = tuple(len(a) for a in arms)
    if lengths[:2] == (1, 1):
        long = arms[2]
        order = tuple(reversed(long)) + (c,) + tuple(sorted((arms[0][0], arms[1][0])))
        return "D", n, order
    if lengths[0] == 1 and lengths[1] == 2 and lengths[2] in (2, 3, 4):
        long = arms[2]
        order = tuple(reversed(long)) + (c,) + tuple(arms[1]) + (arms[0][0],)
        return "E", n, order
    raise UnsupportedTypeError(f"arm lengths {lengths} are not of Dynkin shape")


def _walk_path(q: Quiver, start: int) -> tuple[int, ...]:
    order = [start]
    prev = None
    while True:
        nxt = [w for w in q.neighbors[order[-1]] if w != prev]
        if not nxt:
            return tuple(order)
        prev = order[-1]
        order.append(nxt[0])


def folded_coxeter_exponents(vq: ValuedQuiver) -> dict[tuple[int, int], int]:
    """Coxeter exponent m for each adjacent orbit pair, keyed by sorted names.

    The symbol ratio p = |arrow orbit|^2 / (|tail orbit| * |head orbit|)
    determines m: 1 -> 3, 2 -> 4, 3 -> 6.  Non-adjacent pairs (m = 2) are not
    listed.  Raises UnsupportedTypeError when p falls outside that table or
    two orbit arrows join the same pair.
    """
    size_of = {o.name: o.size for o in vq.vertices}
    out: dict[tuple[int, int], int] = {}
    for oa in vq.arrows:
        key = (min(oa.tail, oa.head), max(oa.tail, oa.head))
        num = oa.size * oa.size
        den = size_of[oa.tail] * size_of[oa.head]
        if key in out or num % den != 0 or num // den not in (1, 2, 3):
            raise UnsupportedTypeError("fold is not of Dynkin shape")
        out[key] = {1: 3, 2: 4, 3: 6}[num // den]
    return out


def valued_type_name(vq: ValuedQuiver) -> str | None:
    """Name the fold when it matches a finite Coxeter pattern, else None.

    Simply laced folds reuse the A/D/E classifier.  A path with one terminal
    double bond is B (sizes 1,...,1,2) or C (sizes 2,...,2,1); ranks are
    always the orbit count.  Rank 2 with a double bond is reported as B2, a
    triple bond as G2, and the (1,1,2,2) middle-bond path of rank 4 as F4.
    """
    try:
        ms = folded_coxeter_exponents(vq)
    except UnsupportedTypeError:
        return None
    names = [o.name for o in vq.vertices]
    size = {o.name: o.size for o in vq.vertices}
    n = len(names)
    adj: dict[int, list[int]] = {v: [] for v in names}
    for u, w in ms:
        adj[u].append(w)
        adj[w].append(u)
    if len(ms) != n - 1:
        return None
    seen = {names[0]}
    stack = [names[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None

    if all(m == 3 for m in ms.values()):
        shape = Quiver.make(names, ((f"e{i}", u, w) for i, (u, w) in enumerate(sorted(ms))))
        try:
            family, rank, _ = dynkin_type(shape)
        except UnsupportedTypeError:
            return None
        return f"{family}{rank}"

    if any(len(ws) > 2 for ws in adj.values()):
        return None
    ends = [v for v in names if len(adj[v]) == 1]
    if n == 1 or len(ends) != 2:
        return None
    path = [min(ends)]
    while len(path) < n:
        path.append(next(w for w in adj[path[-1]] if len(path) < 2 or w != path[-2]))
    bonds = [ms[(min(u, w), max(u, w))] for u, w in zip(path, path[1:])]

    if n == 2:
        return {4: "B2", 6: "G2"}.get(bonds[0])
    for seq, labels in ((path, bonds), (path[::-1], bonds[::-1])):
        if labels[:-1] == [3] * (n - 2) and labels[-1] == 4:
            sizes = [size[v] for v in seq]
            if sizes == [1] * (n - 1) + [2]:
                return f"B{n}"
            if sizes == [2] * (n - 1) + [1]:
                return f"C{n}"
        if n == 4 and labels == [3, 4, 3] and [size[v] for v in seq] == [1, 1, 2, 2]:
            return "F4"
    return None
