"""Hearts, simple tilts, and exchange graphs.

A heart is recorded by its simple objects: pairs (catalog index, shift)
meaning the catalog module placed in homological degree -shift.  Tilting at
a simple S moves S one step (up for forward, down for backward) and rewrites
every other simple through extensions with S or Hom spaces to S, depending
on the shift gap.  Each rewritten simple is indecomposable, so its class
names it: [X] + ext*[S] for a universal extension, and +-(hom*[S] - [X]) for
the kernel or cokernel of the map between X and S^hom.  A tilt is therefore
class arithmetic plus one root lookup.

The interval exchange graph collects the hearts whose simples all sit at
shifts 0 or 1; it is finite for Dynkin quivers and every edge is a forward
tilt at a shift-0 simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InternalError
from .quiver import Automorphism
from .reps import Catalog

Simple = tuple[int, int]


@dataclass(frozen=True)
class Heart:
    simples: tuple[Simple, ...]

    def __post_init__(self):
        if tuple(sorted(self.simples)) != self.simples:
            raise InternalError("heart simples not in canonical order")

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.simples)

    def position_of(self, simple: Simple) -> int:
        return self.simples.index(simple)


def make_heart(simples) -> Heart:
    return Heart(tuple(sorted(simples)))


def seed_heart(catalog: Catalog) -> Heart:
    return make_heart((catalog.simple_index(v), 0) for v in catalog.quiver.vertices)


def k_class(catalog: Catalog, simple: Simple) -> tuple[int, ...]:
    idx, shift = simple
    sign = -1 if shift % 2 else 1
    return tuple(sign * c for c in catalog.roots[idx])


def heart_k_matrix(catalog: Catalog, heart: Heart) -> tuple[tuple[int, ...], ...]:
    return tuple(k_class(catalog, s) for s in heart.simples)


def simple_label(catalog: Catalog, simple: Simple) -> str:
    idx, shift = simple
    base = catalog.labels[idx]
    return base if shift == 0 else f"{base}^{shift}"


def heart_label(catalog: Catalog, heart: Heart) -> str:
    return "{" + ", ".join(simple_label(catalog, s) for s in heart.simples) + "}"


def _root_index(catalog: Catalog, dims: tuple[int, ...], context: str) -> int:
    idx = catalog.by_dims.get(dims)
    if idx is None:
        raise InternalError(f"{context} class {dims} is not a positive root")
    return idx


def _plus(catalog: Catalog, x_idx: int, d: int, s_idx: int) -> int:
    """The extension of X by S^d: class [X] + d[S]."""
    if not d:
        return x_idx
    x, s = catalog.roots[x_idx], catalog.roots[s_idx]
    return _root_index(catalog, tuple(a + d * b for a, b in zip(x, s)), "extension")


def _minus(catalog: Catalog, x_idx: int, d: int, s_idx: int) -> tuple[int, bool]:
    """The root of d[S] - [X] up to sign, and whether that class is positive.

    A positive class is the cokernel of X -> S^d in a forward tilt and the
    kernel of S^d -> X in a backward one; a negative class is the other side.
    """
    if not d:
        return x_idx, False
    x, s = catalog.roots[x_idx], catalog.roots[s_idx]
    v = tuple(d * b - a for a, b in zip(x, s))
    if all(c >= 0 for c in v):
        return _root_index(catalog, v, "tilt"), True
    return _root_index(catalog, tuple(-c for c in v), "tilt"), False


def tilt_forward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Forward tilt at the simple in position pos (it moves up one shift)."""
    s_idx, s_shift = heart.simples[pos]
    out: list[Simple] = [(s_idx, s_shift + 1)]
    for i, (x_idx, x_shift) in enumerate(heart.simples):
        if i == pos:
            continue
        gap = s_shift + 1 - x_shift
        if gap == 1:
            out.append((_plus(catalog, x_idx, catalog.ext_table[x_idx][s_idx], s_idx), x_shift))
        elif gap == 0:
            idx, coker = _minus(catalog, x_idx, catalog.hom_table[x_idx][s_idx], s_idx)
            out.append((idx, s_shift if coker else x_shift))
        else:
            out.append((x_idx, x_shift))
    return make_heart(out)


def tilt_backward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Backward tilt at the simple in position pos (it moves down one shift)."""
    s_idx, s_shift = heart.simples[pos]
    out: list[Simple] = [(s_idx, s_shift - 1)]
    for i, (x_idx, x_shift) in enumerate(heart.simples):
        if i == pos:
            continue
        gap = x_shift + 1 - s_shift
        if gap == 1:
            out.append((_plus(catalog, x_idx, catalog.ext_table[s_idx][x_idx], s_idx), x_shift))
        elif gap == 0:
            idx, ker = _minus(catalog, x_idx, catalog.hom_table[s_idx][x_idx], s_idx)
            out.append((idx, x_shift + 1 if ker else x_shift))
        else:
            out.append((x_idx, x_shift))
    return make_heart(out)


def validate_heart(catalog: Catalog, heart: Heart) -> None:
    """Simple-mindedness: ordered Hom/Ext vanishing plus a unimodular K-basis."""
    from .linalg import smith_normal_form

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
            if gap >= 0 and catalog.hom_table[x_idx][y_idx] != 0:
                raise InputError("heart violates Hom vanishing")
            if gap >= 1 and catalog.ext_table[x_idx][y_idx] != 0:
                raise InputError("heart violates Ext vanishing")
    _, d, _ = smith_normal_form(heart_k_matrix(catalog, heart))
    if any(d[i][i] != 1 for i in range(n)):
        raise InputError("heart classes are not a lattice basis")


@dataclass(frozen=True)
class ExchangeGraph:
    hearts: tuple[Heart, ...]
    edges: tuple[tuple[int, int, int], ...]  # (source id, simple position, target id)

    def heart_id(self, heart: Heart) -> int:
        return self.hearts.index(heart)


def _walk(seed: Heart, moves) -> tuple[tuple[Heart, ...], tuple]:
    """Breadth-first closure of seed under moves(heart) -> (label, heart) pairs.

    Hearts get ids in discovery order, and each edge is (source id, label,
    target id) in the order the moves were tried.
    """
    ids = {seed: 0}
    hearts = [seed]
    edges = []
    for hid, heart in enumerate(hearts):  # hearts grows as the walk goes
        for label, new in moves(heart):
            if new not in ids:
                ids[new] = len(hearts)
                hearts.append(new)
            edges.append((hid, label, ids[new]))
    return tuple(hearts), tuple(edges)


def build_interval_eg(catalog: Catalog) -> ExchangeGraph:
    """Breadth-first enumeration of the shift-{0,1} hearts from the seed."""

    def moves(heart: Heart):
        for pos, (_, shift) in enumerate(heart.simples):
            if shift == 0:
                yield pos, tilt_forward(catalog, heart, pos)

    return ExchangeGraph(*_walk(seed_heart(catalog), moves))


def transport_heart(perm: tuple[int, ...], heart: Heart) -> Heart:
    return make_heart((perm[idx], shift) for idx, shift in heart.simples)


def is_f_stable(perm: tuple[int, ...], heart: Heart) -> bool:
    return transport_heart(perm, heart) == heart


def f_orbits_of_heart(perm: tuple[int, ...], heart: Heart) -> tuple[tuple[int, ...], ...]:
    """Positions of the simples grouped into transport orbits."""
    if not is_f_stable(perm, heart):
        raise InputError("heart is not stable under the automorphism")
    pos_of = {s: i for i, s in enumerate(heart.simples)}
    seen: set[int] = set()
    orbits = []
    for start in range(len(heart.simples)):
        if start in seen:
            continue
        orbit = []
        p = start
        while p not in seen:
            seen.add(p)
            orbit.append(p)
            idx, shift = heart.simples[p]
            p = pos_of[(perm[idx], shift)]
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def multi_tilt(catalog: Catalog, heart: Heart, positions: tuple[int, ...]) -> Heart:
    """Tilt forward at several simples at once.

    Requires the selected simples to be pairwise non-interacting (Hom and Ext
    vanish in both directions), which makes the individual tilts commute.
    """
    chosen = [heart.simples[p] for p in positions]
    if len(set(chosen)) != len(chosen):
        raise InputError("duplicate tilt position")
    for i, (xi, _) in enumerate(chosen):
        for j, (yj, _) in enumerate(chosen):
            if i == j:
                continue
            if catalog.hom_table[xi][yj] or catalog.ext_table[xi][yj]:
                raise InputError("selected simples interact; multi-tilt undefined")
    current = heart
    for simple in chosen:
        current = tilt_forward(catalog, current, current.position_of(simple))
    return current


def orbit_tilt(catalog: Catalog, perm: tuple[int, ...], heart: Heart, orbit: tuple[int, ...]) -> Heart:
    """Forward tilt at a full transport orbit of simples."""
    orbits = f_orbits_of_heart(perm, heart)
    if orbit not in orbits:
        raise InputError("not a transport orbit of this heart")
    new = multi_tilt(catalog, heart, orbit)
    if not is_f_stable(perm, new):
        raise InternalError("orbit tilt left the stable locus")
    return new


@dataclass(frozen=True)
class FoldedEG:
    hearts: tuple[Heart, ...]
    # (source id, positions of the tilted orbit in the source heart, target id)
    edges: tuple[tuple[int, tuple[int, ...], int], ...]


def build_folded_eg(catalog: Catalog, perm: tuple[int, ...]) -> FoldedEG:
    """Exchange graph of stable hearts under orbit tilts at shift-0 orbits."""
    seed = seed_heart(catalog)
    if not is_f_stable(perm, seed):
        raise InternalError("seed heart is not stable")

    def moves(heart: Heart):
        for orbit in f_orbits_of_heart(perm, heart):
            if all(heart.simples[p][1] == 0 for p in orbit):
                yield orbit, orbit_tilt(catalog, perm, heart, orbit)

    return FoldedEG(*_walk(seed, moves))


@dataclass(frozen=True)
class OrbitExtPattern:
    source_size: int
    target_size: int
    period: int
    counts: tuple[int, ...]
    total: int


def orbit_ext_pattern(
    catalog: Catalog,
    perm: tuple[int, ...],
    heart: Heart,
    source_orbit: tuple[int, ...],
    target_orbit: tuple[int, ...],
) -> OrbitExtPattern:
    """Extension counts from an orbit base point into the transported targets.

    The base points are the least simples of each orbit; counts[k] is
    dim Ext^1 from the source base into the k-th transport of the target
    base.  The sequence is periodic with period lcm of the orbit sizes.
    """
    x_idx, _ = min(heart.simples[p] for p in source_orbit)
    y_idx, _ = min(heart.simples[p] for p in target_orbit)
    s, t = len(source_orbit), len(target_orbit)
    d = math.lcm(s, t)
    counts = []
    y = y_idx
    for _ in range(d):
        counts.append(catalog.ext_table[x_idx][y])
        y = perm[y]
    return OrbitExtPattern(s, t, d, tuple(counts), sum(counts))
