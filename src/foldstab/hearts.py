"""Hearts, simple tilts, and exchange graphs.

A heart is recorded by its simple objects: pairs (catalog index, shift)
meaning the catalog module placed in homological degree -shift.  Tilting at
a simple S moves S one step (up for forward, down for backward) and rewrites
every other simple through extensions with S or Hom spaces to S, depending
on the shift gap.  Both directions are one body, `_tilt`, that reads the
catalog's Euler table: Hom is its positive part and Ext^1 its negative part.
Each rewritten simple is indecomposable, so its class names it: [X] +
ext*[S] for a universal extension, and +-(hom*[S] - [X]) for the kernel or
cokernel of the map between X and S^hom.  A tilt is therefore class
arithmetic plus one root lookup.

An `ExchangeGraph` edge names the positions it tilts in its source heart.
The interval graph collects the hearts whose simples all sit at shifts 0 or
1; it is finite for Dynkin quivers and every edge is a forward tilt at one
shift-0 simple.  The folded graph collects the F-stable hearts, and every
edge is an orbit tilt at a shift-0 transport orbit.  An orbit tilt is one
simple tilt of the folded heart, and `orbit_tilt` is its one body.
Admissibility makes the Euler entries between members of an orbit vanish,
so their tilts commute, and `orbit_tilt` does them in turn.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InternalError
from .quiver import Automorphism, CheckedRecord, cycles
from .reps import Catalog

Simple = tuple[int, int]


class _HeartFields(NamedTuple):
    simples: tuple[Simple, ...]


class Heart(CheckedRecord, _HeartFields):
    __slots__ = ()

    def __new__(cls, simples: tuple[Simple, ...]):
        if tuple(sorted(simples)) != simples:
            raise InternalError("heart simples not in canonical order")
        return super().__new__(cls, simples)

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


def _tilt(catalog: Catalog, heart: Heart, pos: int, step: int) -> Heart:
    """Tilt at the simple S in position pos: forward (step 1) or backward (-1).

    S moves by step.  Another simple X meets S at gap g = 1 + step *
    (shift S - shift X) through chi = chi(X, S) forward and chi(S, X)
    backward.  At g = 1 it becomes the universal extension [X] + ext[S],
    ext = max(-chi, 0).  At g = 0 it becomes the cone of the map between X
    and S^hom, hom = max(chi, 0), with class hom[S] - [X]: a positive class
    moves by -step, a negative one is negated in place.  Any other X stays.
    """
    s_idx, s_shift = heart.simples[pos]
    s = catalog.roots[s_idx]
    out: list[Simple] = [(s_idx, s_shift + step)]
    for i, (x_idx, x_shift) in enumerate(heart.simples):
        if i == pos:
            continue
        chi = catalog.euler[x_idx][s_idx] if step > 0 else catalog.euler[s_idx][x_idx]
        gap = 1 + step * (s_shift - x_shift)
        if gap == 1 and chi < 0:
            v = tuple(a - chi * b for a, b in zip(catalog.roots[x_idx], s))
        elif gap == 0 and chi > 0:
            v = tuple(chi * b - a for a, b in zip(catalog.roots[x_idx], s))
            if min(v) >= 0:
                x_shift -= step
            else:
                v = tuple(-c for c in v)
        else:
            out.append((x_idx, x_shift))
            continue
        idx = catalog.by_dims.get(v)
        if idx is None:
            raise InternalError(f"tilt class {v} is not a positive root")
        out.append((idx, x_shift))
    return make_heart(out)


def tilt_forward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Forward tilt at the simple in position pos (it moves up one shift)."""
    return _tilt(catalog, heart, pos, 1)


def tilt_backward(catalog: Catalog, heart: Heart, pos: int) -> Heart:
    """Backward tilt at the simple in position pos (it moves down one shift)."""
    return _tilt(catalog, heart, pos, -1)


class ExchangeGraph(NamedTuple):
    hearts: tuple[Heart, ...]
    # (source id, positions tilted in the source heart, target id)
    edges: tuple[tuple[int, tuple[int, ...], int], ...]


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
                yield (pos,), tilt_forward(catalog, heart, pos)

    return ExchangeGraph(*_walk(seed_heart(catalog), moves))


def _transport_positions(perm: tuple[int, ...], heart: Heart) -> list[int | None]:
    """The position F sends each simple to, or None where its image is not in the heart."""
    pos_of = {s: i for i, s in enumerate(heart.simples)}
    return [pos_of.get((perm[idx], shift)) for idx, shift in heart.simples]


def is_f_stable(perm: tuple[int, ...], heart: Heart) -> bool:
    return None not in _transport_positions(perm, heart)


def f_orbits_of_heart(perm: tuple[int, ...], heart: Heart) -> tuple[tuple[int, ...], ...]:
    """Positions of the simples grouped into transport orbits."""
    image = _transport_positions(perm, heart)
    if None in image:
        raise InputError("heart is not stable under the automorphism")
    return cycles(range(len(image)), image.__getitem__)


def orbit_tilt(
    catalog: Catalog,
    perm: tuple[int, ...],
    heart: Heart,
    orbit: tuple[int, ...],
    orbits: tuple[tuple[int, ...], ...] | None = None,
) -> Heart:
    """Forward tilt at a full transport orbit: one simple tilt of the folded heart.

    orbits, if given, are the heart's transport orbits (`f_orbits_of_heart`),
    which a caller that has just read them passes so that F is not read
    again; orbit must be one of them either way.
    """
    if orbit not in (f_orbits_of_heart(perm, heart) if orbits is None else orbits):
        raise InputError("not a transport orbit of this heart")
    chosen = [heart.simples[p] for p in orbit]
    if any(catalog.euler[x][y] for x, _ in chosen for y, _ in chosen if x != y):
        raise InternalError("orbit members interact; the orbit tilt is undefined")
    new = heart
    for simple in chosen:
        new = tilt_forward(catalog, new, new.position_of(simple))
    if not is_f_stable(perm, new):
        raise InternalError("orbit tilt left the stable locus")
    return new


def build_folded_eg(catalog: Catalog, perm: tuple[int, ...]) -> ExchangeGraph:
    """Exchange graph of stable hearts under orbit tilts at shift-0 orbits.

    F's position map is read once per heart, for its orbits, and once per
    edge, by `orbit_tilt`'s stability check of the tilted heart.
    """

    def moves(heart: Heart):
        try:
            orbits = f_orbits_of_heart(perm, heart)
        except InputError:
            # Only the seed can fail here: orbit_tilt checked every other heart.
            raise InternalError("seed heart is not stable") from None
        for orbit in orbits:
            if all(heart.simples[p][1] == 0 for p in orbit):
                yield orbit, orbit_tilt(catalog, perm, heart, orbit, orbits)

    return ExchangeGraph(*_walk(seed_heart(catalog), moves))
