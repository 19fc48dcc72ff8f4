"""Seeded inputs for the benchmark: quiver spec files and braid word pairs.

Every generator takes a ``random.Random`` and returns plain text or tuples, so
the same seed gives byte-identical inputs.  Shapes are built on canonical
vertex ids first (A_n: the path 1-2-...-n; D_n: the path 1-...-(n-1) with n
hung on n-2; E6: the path 1-...-5 with 6 hung on 3) and then relabeled, so
the program never sees the canonical ids.
"""

from __future__ import annotations

import itertools
import random
import string

# Diagram automorphisms on canonical ids, as vertex maps.
FOLDS = {
    # name: (family, rank, automorphism as {vertex: image}, folded type)
    "a3_b2": ("A", 3, {1: 3, 3: 1}, "B2"),
    "d4_g2": ("D", 4, {1: 3, 3: 4, 4: 1}, "G2"),
    "d4_b3": ("D", 4, {3: 4, 4: 3}, "B3"),
    "a5_c3": ("A", 5, {1: 5, 5: 1, 2: 4, 4: 2}, "C3"),
    "d5_b4": ("D", 5, {4: 5, 5: 4}, "B4"),
    "a7_c4": ("A", 7, {1: 7, 7: 1, 2: 6, 6: 2, 3: 5, 5: 3}, "C4"),
    "d6_b5": ("D", 6, {5: 6, 6: 5}, "B5"),
    "e6_f4": ("E", 6, {1: 5, 5: 1, 2: 4, 4: 2}, "F4"),
}


def edges(family: str, rank: int) -> list[tuple[int, int]]:
    """Undirected edges of the canonical diagram, as sorted pairs."""
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if family == "E":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]
    raise ValueError(f"no canonical diagram for {family}{rank}")


def edge_orbits(family: str, rank: int, perm: dict[int, int]) -> list[list[tuple[int, int]]]:
    """Edges grouped into orbits of the automorphism.

    An orbit is listed as e, s(e), s^2(e), ... with each edge directed as the
    transport of the first, so orienting the first edge orients the orbit.
    """
    seen: set[tuple[int, int]] = set()
    orbits = []
    for u, v in edges(family, rank):
        orbit = []
        while (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            orbit.append((u, v))
            u, v = perm.get(u, u), perm.get(v, v)
        if orbit:
            orbits.append(orbit)
    return orbits


def invariant_orientations(family: str, rank: int, perm: dict[int, int]) -> list[list[tuple[int, int]]]:
    """Every orientation fixed by the automorphism, as lists of (tail, head):
    one direction per edge orbit."""
    orbits = edge_orbits(family, rank, perm)
    out = []
    for bits in itertools.product((False, True), repeat=len(orbits)):
        arrows = []
        for flip, orbit in zip(bits, orbits):
            arrows.extend((v, u) if flip else (u, v) for u, v in orbit)
        out.append(sorted(arrows))
    return out


def random_orientation(rng: random.Random, family: str, rank: int) -> list[tuple[int, int]]:
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges(family, rank)]


def _cycles(mapping: dict) -> str:
    """Cycle notation of a permutation, fixed points left out."""
    seen = set()
    out = []
    for start in sorted(mapping):
        if start in seen or mapping[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = mapping[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = mapping[x]
        out.append("(" + " ".join(str(v) for v in cycle) + ")")
    return "".join(out)


def render_spec(
    rng: random.Random,
    rank: int,
    arrows: list[tuple[int, int]],
    perm: dict[int, int] | None,
    comment: str,
) -> str:
    """Spec text for a relabeled copy of the canonical quiver.

    Vertex ids, arrow names and the listing order of vertices and arrows all
    come from the seed.  The arrow permutation is written out explicitly.
    """
    ids = rng.sample(range(100), rank)
    relabel = {v: ids[v - 1] for v in range(1, rank + 1)}
    names = rng.sample([a + b for a in string.ascii_lowercase for b in string.digits], len(arrows))
    name_of = {arrow: name for arrow, name in zip(arrows, names)}
    vertices = [relabel[v] for v in range(1, rank + 1)]
    rng.shuffle(vertices)
    listed = list(arrows)
    rng.shuffle(listed)
    lines = [f"# {comment}", "[quiver]"]
    lines.append("vertices = [" + ", ".join(str(v) for v in vertices) + "]")
    lines.append(
        "arrows = [" + ", ".join(f'"{name_of[a]}: {relabel[a[0]]} -> {relabel[a[1]]}"' for a in listed) + "]"
    )
    if perm:
        vmap = {relabel[v]: relabel[perm.get(v, v)] for v in range(1, rank + 1)}
        amap = {name_of[(t, h)]: name_of[(perm.get(t, t), perm.get(h, h))] for t, h in arrows}
        lines += ["", "[automorphism]"]
        lines.append(f'vertex_perm = "{_cycles(vmap)}"')
        lines.append(f'arrow_perm = "{_cycles(amap)}"')
    return "\n".join(lines) + "\n"


def fold_spec(rng: random.Random, fold: str, orientation: list[tuple[int, int]]) -> str:
    family, rank, perm, folded = FOLDS[fold]
    return render_spec(rng, rank, orientation, perm, f"{family}{rank} -> {folded}")


def plain_spec(rng: random.Random, family: str, rank: int) -> str:
    arrows = random_orientation(rng, family, rank)
    return render_spec(rng, rank, arrows, None, f"{family}{rank}")


# ---------------------------------------------------------------- braid words

def coxeter_m(family: str, rank: int) -> dict[tuple[int, int], int]:
    """Coxeter exponents on 0-based generator slots of a simply laced type.

    Slots follow the program's canonical diagram order (README, "braid
    --check"): along the path for A_n; for D_n the long arm into the branch
    vertex (slot n-3) and then the two short-arm ends.  Both are the
    canonical-id diagrams above, shifted to 0-based.
    """
    adjacent = {(u - 1, v - 1) for u, v in edges(family, rank)}
    return {
        (i, j): 3 if (i, j) in adjacent else 2
        for i in range(rank)
        for j in range(i + 1, rank)
    }


Letter = tuple[int, int]  # (0-based slot, +1 or -1)


def _m(ms: dict, i: int, j: int) -> int:
    return ms[(min(i, j), max(i, j))]


def random_word(rng: random.Random, rank: int, length: int, inverses: int) -> list[Letter]:
    """A word with exactly ``inverses`` inverse letters at seeded places."""
    signs = [-1] * inverses + [1] * (length - inverses)
    rng.shuffle(signs)
    return [(rng.randrange(rank), e) for e in signs]


def _insert_pair(rng: random.Random, rank: int, w: list[Letter]) -> None:
    i = rng.randrange(len(w) + 1)
    s, e = rng.randrange(rank), rng.choice((1, -1))
    w[i:i] = [(s, e), (s, -e)]


def rewrite(rng: random.Random, ms: dict, rank: int, word: list[Letter], moves: int) -> list[Letter]:
    """Apply seeded braid-group moves; the result is the same braid.

    Moves: commute two adjacent letters with m = 2; replace s t s by t s t
    (all exponents equal) where m = 3; insert s s^-1 or s^-1 s while the word
    is no longer than at the start; delete such a pair.  Pairs inserted at
    the end restore the starting length, so the result is as long as
    ``word`` or two letters longer.
    """
    w = list(word)
    for _ in range(moves):
        kind = rng.randrange(4)
        if kind == 0 and len(w) > 1:
            i = rng.randrange(len(w) - 1)
            a, b = w[i][0], w[i + 1][0]
            if a != b and _m(ms, a, b) == 2:
                w[i], w[i + 1] = w[i + 1], w[i]
        elif kind == 1 and len(w) > 2:
            i = rng.randrange(len(w) - 2)
            (a, ea), (b, eb), (c, ec) = w[i : i + 3]
            if a == c and a != b and ea == eb == ec and _m(ms, a, b) == 3:
                w[i : i + 3] = [(b, ea), (a, ea), (b, ea)]
        elif kind == 2 and len(w) <= len(word):
            _insert_pair(rng, rank, w)
        elif kind == 3:
            pairs = [i for i in range(len(w) - 1) if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]]
            if pairs:
                i = rng.choice(pairs)
                del w[i : i + 2]
    while len(w) < len(word):
        _insert_pair(rng, rank, w)
    return w


def render_word(word: list[Letter]) -> str:
    return " ".join(f"{s + 1}" if e == 1 else f"{s + 1}^-1" for s, e in word)


def word_pair(rng: random.Random, family: str, rank: int, base: list[Letter], equal: bool) -> str:
    """``"LHS = RHS"``: two seeded rewrites of ``base``, equal braids exactly
    when ``equal``.

    Both sides come from ``base`` through the moves of ``rewrite``, so they
    are words for the same braid.  An unequal pair then flips the sign of one
    letter of the right side, which changes the exponent sum (a homomorphism
    to Z) by 2.
    """
    ms = coxeter_m(family, rank)
    lhs = rewrite(rng, ms, rank, base, 4 * len(base))
    rhs = rewrite(rng, ms, rank, lhs, 4 * len(base))
    if not equal:
        i = rng.randrange(len(rhs))
        s, e = rhs[i]
        rhs[i] = (s, -e)
    return f"{render_word(lhs)} = {render_word(rhs)}"
