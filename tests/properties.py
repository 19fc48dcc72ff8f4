"""Bulk property suites shared by the unit tests and the acceptance gate.

Each run_* function sweeps one invariant over the small-type corpora and
returns the number of cases it actually checked, so callers can insist on a
minimum count.  All randomness is seeded; everything else is exhaustive.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from foldstab.hearts import (
    Heart,
    build_folded_eg,
    build_interval_eg,
    f_orbits_of_heart,
    is_f_stable,
    orbit_tilt,
    tilt_backward,
    tilt_forward,
)
from foldstab.linalg import int_identity, integer_left_kernel
from foldstab.quiver import Automorphism, Quiver, euler_form_cy3, euler_form_hereditary
from foldstab.reps import Catalog, direct_sum, ext1_dim, hom_dim, transport
from oracles import frobenius_on_k, pairing, twist_k_matrix


def dynkin_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of the A_n, D_n or E_n diagram on 1..n.

    The vertices form a path, except that vertex n hangs off n - 2 for D and
    off 3 for E.
    """
    edges = [(i, i + 1) for i in range(1, n - 1)]
    if n > 1:
        edges.append({"A": (n - 1, n), "D": (n - 2, n), "E": (3, n)}[family])
    return edges


def seeded_dynkin_spec(family: str, n: int, seed: int) -> str:
    """Spec text of an A_n, D_n or E_n quiver on `dynkin_edges`, each edge
    oriented by a seeded coin."""
    rng = random.Random(seed)
    arrows = [
        f'"a{i}: {t} -> {h}"' if rng.random() < 0.5 else f'"a{i}: {h} -> {t}"'
        for i, (t, h) in enumerate(dynkin_edges(family, n))
    ]
    return f"[quiver]\nvertices = {list(range(1, n + 1))}\narrows = [{', '.join(arrows)}]\n"


def _fold_types():
    """One diagram automorphism per fold type, as vertex images on `dynkin_edges`."""
    for n in (3, 5, 7):
        yield f"A{n} flip", "A", n, {v: n + 1 - v for v in range(1, n + 1)}
    for n in range(4, 9):
        yield f"D{n} swap", "D", n, {**{v: v for v in range(1, n - 1)}, n - 1: n, n: n - 1}
    yield "D4 triality", "D", 4, {1: 3, 2: 2, 3: 4, 4: 1}
    yield "E6 flip", "E", 6, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


def fold_census():
    """Every orientation Q of A3, A5, A7, D4-D8 and E6 that a fold's F fixes.

    Yields (fold name, Q, F), 148 pairs in all: 14 of type A, 6 of D4,
    8, 16, 32 and 64 of D5-D8, and 8 of E6.
    """
    for name, family, n, sigma in _fold_types():
        edges = dynkin_edges(family, n)
        for flips in product((False, True), repeat=len(edges)):
            arrows = {
                (h, t) if flip else (t, h): f"a{i}" for i, ((t, h), flip) in enumerate(zip(edges, flips))
            }
            images = [(sigma[t], sigma[h]) for t, h in arrows]
            if all(img in arrows for img in images):
                q = Quiver.make(range(1, n + 1), ((a, t, h) for (t, h), a in arrows.items()))
                s = Automorphism(
                    q,
                    tuple(sigma[v] for v in q.vertices),
                    tuple(arrows[(sigma[a.tail], sigma[a.head])] for a in q.arrows),
                )
                yield name, q, s


def run_tilt_round_trips(catalogs: list[Catalog]) -> int:
    """Forward-then-backward and backward-then-forward return the heart."""
    cases = 0
    for catalog in catalogs:
        eg = build_interval_eg(catalog)
        for heart in eg.hearts:
            for pos, (idx, shift) in enumerate(heart.simples):
                up = tilt_forward(catalog, heart, pos)
                down = tilt_backward(catalog, up, up.position_of((idx, shift + 1)))
                assert down == heart
                cases += 1
                low = tilt_backward(catalog, heart, pos)
                back = tilt_forward(catalog, low, low.position_of((idx, shift - 1)))
                assert back == heart
                cases += 1
    return cases


def _noninteracting_subsets(catalog: Catalog, heart: Heart):
    n = len(heart.simples)
    ok_pair = {}
    for i, j in combinations(range(n), 2):
        mi = catalog.reps[heart.simples[i][0]]
        mj = catalog.reps[heart.simples[j][0]]
        ok_pair[(i, j)] = (
            hom_dim(mi, mj) == 0
            and hom_dim(mj, mi) == 0
            and ext1_dim(mi, mj) == 0
            and ext1_dim(mj, mi) == 0
        )
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            if all(ok_pair[(i, j)] for i, j in combinations(subset, 2)):
                yield subset


def run_multi_tilt_orders(catalogs: list[Catalog]) -> int:
    """Tilts at pairwise non-interacting simples land on one heart in every order."""
    cases = 0
    for catalog in catalogs:
        eg = build_interval_eg(catalog)
        for heart in eg.hearts:
            for subset in _noninteracting_subsets(catalog, heart):
                results = set()
                for order in permutations(heart.simples[p] for p in subset):
                    current = heart
                    for simple in order:
                        current = tilt_forward(
                            catalog, current, current.position_of(simple)
                        )
                    results.add(current)
                    cases += 1
                assert len(results) == 1
    return cases


def run_euler_identity(catalogs: list[Catalog]) -> int:
    """dim Hom - dim Ext^1 equals the Euler pairing of the classes."""
    cases = 0
    for catalog in catalogs:
        chi = euler_form_hereditary(catalog.quiver)
        for x in catalog.reps:
            for y in catalog.reps:
                assert hom_dim(x, y) - ext1_dim(x, y) == pairing(chi, x.dims, y.dims)
                cases += 1
    return cases


def run_identify_additivity(catalogs: list[Catalog], per_catalog: int, seed: int = 0) -> int:
    """identify recovers the summand multiset of any direct sum."""
    rng = random.Random(seed)
    cases = 0
    for catalog in catalogs:
        n = len(catalog.reps)
        for _ in range(per_catalog):
            picks = sorted(rng.choices(range(n), k=rng.randint(2, 4)))
            total = direct_sum([catalog.reps[i] for i in picks])
            assert list(catalog.identify(total)) == picks
            cases += 1
    return cases


def run_orbit_tilt_stability(pairs: list[tuple[Catalog, Automorphism]]) -> int:
    """Orbit tilts stay inside the F-stable locus, in both directions."""
    cases = 0
    for catalog, s in pairs:
        perm = catalog.transport_index(s)
        feg = build_folded_eg(catalog, perm)
        for src_id, orbit, tgt_id in feg.edges:
            src = feg.hearts[src_id]
            tgt = orbit_tilt(catalog, perm, src, orbit)
            assert tgt == feg.hearts[tgt_id]
            assert is_f_stable(perm, tgt)
            cases += 1
            moved = [(src.simples[p][0], src.simples[p][1] + 1) for p in orbit]
            current = tgt
            for simple in moved:
                current = tilt_backward(catalog, current, current.position_of(simple))
            assert current == src
            assert is_f_stable(perm, current)
            cases += 1
    return cases


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _col_action(m, v):
    n = len(v)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def run_twist_relations(pairs: list[tuple[Catalog, Automorphism | None]]) -> int:
    """Twist matrices braid or commute by pairing, fix the kernel, square to
    the identity plus a nilpotent, and intertwine the Frobenius action."""
    cases = 0
    for catalog, s in pairs:
        q = catalog.quiver
        e3 = euler_form_cy3(q)
        n = len(q.vertices)
        ident = int_identity(n)
        twists = [twist_k_matrix(r.dims, e3) for r in catalog.reps]
        for i, u in enumerate(catalog.reps):
            for j, v in enumerate(catalog.reps):
                if i == j:
                    continue
                chi3 = pairing(e3, u.dims, v.dims)
                tu, tv = twists[i], twists[j]
                if abs(chi3) == 1:
                    assert _matmul(_matmul(tu, tv), tu) == _matmul(_matmul(tv, tu), tv)
                    cases += 1
                elif chi3 == 0:
                    assert _matmul(tu, tv) == _matmul(tv, tu)
                    cases += 1
        kernel = integer_left_kernel(e3)
        for t in twists:
            for k in kernel:
                assert _col_action(t, k) == tuple(k)
                cases += 1
            delta = tuple(
                tuple(t[i][j] - ident[i][j] for j in range(n)) for i in range(n)
            )
            assert _matmul(delta, delta) == tuple((0,) * n for _ in range(n))
            cases += 1
        if s is not None:
            f = frobenius_on_k(s)
            for r in catalog.reps:
                lhs = _matmul(_matmul(f, twist_k_matrix(r.dims, e3)), _inverse_perm(f))
                rhs = twist_k_matrix(transport(r, s).dims, e3)
                assert lhs == rhs
                cases += 1
    return cases


def _inverse_perm(p):
    n = len(p)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[j][i] = p[i][j]
    return tuple(tuple(row) for row in out)
