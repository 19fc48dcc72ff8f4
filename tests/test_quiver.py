from __future__ import annotations

import itertools
import json
import random
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from foldstab.errors import InputError, UnsupportedTypeError
from foldstab.linalg import integer_left_kernel
from foldstab.quiver import (
    Arrow,
    Automorphism,
    Quiver,
    cartan_for_type,
    cartan_type,
    dynkin_type,
    euler_form_cy3,
    euler_form_hereditary,
    fold,
    folded_cartan,
    frobenius_order,
    positive_roots,
    simply_laced_degrees,
    valued_type_name,
    weyl_degrees,
)
from foldstab.specfile import parse_quiver
from oracles import frobenius_on_k, pairing
from properties import dynkin_edges

SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_quiver_validation() -> None:
    with pytest.raises(InputError, match="^quiver needs at least one vertex$"):
        Quiver.make([], [])
    for vertices in ((2, 1), (1, 1)):
        with pytest.raises(InputError, match="^vertex ids must be unique and sorted$"):
            Quiver(vertices, ())
    a, b = Arrow("a", 1, 2), Arrow("b", 2, 1)
    with pytest.raises(InputError, match="^arrow names must be unique and sorted$"):
        Quiver.make([1, 2], [("a", 1, 2), ("a", 2, 1)])
    with pytest.raises(InputError, match="^arrow names must be unique and sorted$"):
        Quiver((1, 2), (b, a))
    with pytest.raises(InputError, match="^arrow 'a' uses an undeclared vertex$"):
        Quiver.make([1], [("a", 1, 2)])
    with pytest.raises(InputError, match="^quiver must be acyclic$"):
        Quiver((1, 2), (a, b))
    # _replace and _make build through the same checks.
    good = Quiver((1, 2), (a,))
    with pytest.raises(InputError, match="^vertex ids must be unique and sorted$"):
        good._replace(vertices=(2, 1))
    with pytest.raises(InputError, match="^quiver must be acyclic$"):
        Quiver._make(((1, 2), (a, b)))
    assert good._replace(vertices=(1, 2, 3)).vertex_index == {1: 0, 2: 1, 3: 2}
    with pytest.raises(InputError, match="^quiver must be acyclic$"):
        Quiver.make([1], [("a", 1, 1)])


def test_quiver_helpers(q_a3: Quiver) -> None:
    # The hereditary Euler form counts the arrows i -> j off the diagonal.
    chi = euler_form_hereditary(q_a3)
    assert chi[q_a3.vertex_index[2]][q_a3.vertex_index[1]] == -1
    assert chi[q_a3.vertex_index[1]][q_a3.vertex_index[2]] == 0
    # The indexes are computed once per quiver.
    assert q_a3.vertex_index is q_a3.vertex_index
    assert q_a3.arrow_by_name is q_a3.arrow_by_name


def test_automorphism_validation(q_a3: Quiver, flip_a3: Automorphism) -> None:
    with pytest.raises(InputError, match="^vertex permutation is not a bijection on the vertices$"):
        Automorphism(q_a3, (1, 1, 2), ("a", "b"))
    with pytest.raises(InputError, match="^arrow permutation is not a bijection on the arrows$"):
        Automorphism(q_a3, (3, 2, 1), ("a", "a"))
    with pytest.raises(
        InputError,
        match="^arrow permutation is incompatible: 'a' -> 'a' does not match the vertex permutation$",
    ):
        Automorphism(q_a3, (3, 2, 1), ("a", "b"))
    with pytest.raises(InputError, match="^vertex permutation is not a bijection on the vertices$"):
        flip_a3._replace(vertex_images=(1, 1, 2))
    with pytest.raises(InputError, match="^arrow permutation is incompatible: 'a' -> 'a' "):
        flip_a3._replace(arrow_images=("a", "b"))
    ident = Automorphism.identity(q_a3)
    assert ident.is_identity()
    assert not flip_a3.is_identity()
    assert ident.vertex_orbits == ((1,), (2,), (3,))
    assert flip_a3.vertex_orbits is flip_a3.vertex_orbits


def test_fold_a3_flip_is_b2(q_a3: Quiver, flip_a3: Automorphism) -> None:
    vq = fold(q_a3, flip_a3)
    assert valued_type_name(vq) == "B2"
    assert [(o.name, o.size) for o in vq.vertices] == [(1, 2), (2, 1)]
    assert len(vq.arrows) == 1
    arrow = vq.arrows[0]
    assert (arrow.tail, arrow.head, arrow.size) == (2, 1, 2)


def test_fold_d4_rotation_is_g2(q_d4: Quiver, rot_d4: Automorphism) -> None:
    vq = fold(q_d4, rot_d4)
    assert valued_type_name(vq) == "G2"
    assert sorted(o.size for o in vq.vertices) == [1, 3]


def test_fold_d4_swap_is_b3(q_d4: Quiver, swap_d4: Automorphism) -> None:
    vq = fold(q_d4, swap_d4)
    assert valued_type_name(vq) == "B3"
    assert [o.size for o in vq.vertices] == [1, 1, 2]


def test_fold_a5_flip_is_c3(q_a5: Quiver, flip_a5: Automorphism) -> None:
    vq = fold(q_a5, flip_a5)
    assert valued_type_name(vq) == "C3"
    assert [(o.name, o.size) for o in vq.vertices] == [(1, 2), (2, 2), (3, 1)]


def test_fold_e6_flip_is_f4() -> None:
    q = Quiver.make(
        [1, 2, 3, 4, 5, 6],
        [("a1", 1, 2), ("a2", 2, 3), ("a4", 4, 3), ("a5", 5, 4), ("a6", 6, 3)],
    )
    s = Automorphism(q, (5, 4, 3, 2, 1, 6), ("a5", "a4", "a2", "a1", "a6"))
    vq = fold(q, s)
    assert valued_type_name(vq) == "F4"
    assert sorted(o.size for o in vq.vertices) == [1, 1, 2, 2]


def test_fold_identity_keeps_type(q_a3: Quiver) -> None:
    vq = fold(q_a3, Automorphism.identity(q_a3))
    assert valued_type_name(vq) == "A3"
    assert all(o.size == 1 for o in vq.vertices)


def test_folded_cartan_of_fixtures() -> None:
    # Rows and columns follow vq.vertices: orbit {1 3} then {2}; {0} then {1 2 3}.
    for spec, cartan in (("a3_flip", ((2, -1), (-2, 2))), ("d4_triality", ((2, -3), (-1, 2)))):
        q, s = parse_quiver((SPECS / f"{spec}.toml").read_text(encoding="utf-8"))
        assert folded_cartan(fold(q, s)) == cartan


# Two copies of a Dynkin quiver, swapped by an order-4 automorphism whose
# square is a diagram automorphism of each copy.
DOUBLE_COVERS = [
    pytest.param(
        8,
        ["a: 2 -> 1", "b: 2 -> 3", "c: 2 -> 4", "e: 6 -> 5", "f: 6 -> 7", "g: 6 -> 8"],
        "(1 5)(2 6)(3 7 4 8)",
        "B3",
        id="2xD4",
    ),
    pytest.param(
        10,
        ["a: 1 -> 2", "b: 2 -> 3", "c: 4 -> 3", "d: 5 -> 4"]
        + ["e: 6 -> 7", "f: 7 -> 8", "g: 9 -> 8", "h: 10 -> 9"],
        "(1 6 5 10)(2 7 4 9)(3 8)",
        "C3",
        id="2xA5",
    ),
    pytest.param(
        12,
        ["a: 1 -> 2", "b: 2 -> 3", "c: 4 -> 3", "d: 5 -> 4", "e: 6 -> 3"]
        + ["f: 7 -> 8", "g: 8 -> 9", "h: 10 -> 9", "i: 11 -> 10", "j: 12 -> 9"],
        "(1 7 5 11)(2 8 4 10)(3 9)(6 12)",
        "F4",
        id="2xE6",
    ),
]


@pytest.mark.parametrize("n, arrows, vertex_perm, name", DOUBLE_COVERS)
def test_fold_names_disconnected_order4_cover(n, arrows, vertex_perm, name) -> None:
    spec = (
        f"[quiver]\nvertices = {list(range(1, n + 1))}\narrows = {json.dumps(arrows)}\n"
        f'[automorphism]\nvertex_perm = "{vertex_perm}"\n'
    )
    q, s = parse_quiver(spec)
    assert frobenius_order(s) == 4
    assert valued_type_name(fold(q, s)) == name


def _expected_fold(family: str, n: int, order: int) -> str:
    """ADE under the identity; A_{2k-1} -> C_k (C2 is named B2), D_{k+1} -> B_k,
    D4 by a 3-cycle -> G2, E6 -> F4."""
    if order == 1:
        return f"{family}{n}"
    if family == "A":
        return "B2" if n == 3 else f"C{(n + 1) // 2}"
    if family == "E":
        return "F4"
    return "G2" if order == 3 else f"B{n - 1}"


# folds: 2^(n-1) orientations under the identity, plus the orientations that
# each other diagram automorphism preserves (none for A_{2k}).
@pytest.mark.parametrize(
    "family, n, folds",
    [("A", 2, 2), ("A", 3, 6), ("A", 4, 8), ("A", 5, 20), ("A", 6, 32), ("A", 7, 72)]
    + [("D", 4, 24), ("D", 5, 24), ("D", 6, 48), ("E", 6, 40)],
)
def test_every_dynkin_fold_is_named(family, n, folds) -> None:
    """Every orientation under the identity and each invariant diagram automorphism."""
    edges = dynkin_edges(family, n)
    graph = {frozenset(e) for e in edges}
    vertices = tuple(range(1, n + 1))
    autos = [
        dict(zip(vertices, p))
        for p in itertools.permutations(vertices)
        if {frozenset((p[a - 1], p[b - 1])) for a, b in edges} == graph
    ]
    checked = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        name_of = {
            (b, a) if flip else (a, b): f"a{i}" for i, ((a, b), flip) in enumerate(zip(edges, flips))
        }
        q = Quiver.make(vertices, ((name, t, h) for (t, h), name in name_of.items()))
        for sigma in autos:
            images = [(sigma[a.tail], sigma[a.head]) for a in q.arrows]
            if not all(img in name_of for img in images):
                continue
            s = Automorphism(q, tuple(sigma[v] for v in vertices), tuple(name_of[i] for i in images))
            assert valued_type_name(fold(q, s)) == _expected_fold(family, n, frobenius_order(s))
            checked += 1
    assert checked == folds


def test_fold_rejects_foreign_automorphism(q_a3: Quiver, q_d4: Quiver, rot_d4) -> None:
    with pytest.raises(InputError):
        fold(q_a3, rot_d4)


def test_admissibility_of_fixtures(flip_a3, flip_a5, rot_d4, swap_d4) -> None:
    for s in (flip_a3, flip_a5, rot_d4, swap_d4):
        assert fold(s.quiver, s).source == s.quiver


@st.composite
def simple_acyclic_quivers(draw) -> Quiver:
    """At most one arrow per pair of vertices, each running forward in a drawn order."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = list(itertools.combinations(order, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Quiver.make(order, ((f"a{i}", t, h) for i, (t, h) in enumerate(pairs) if keep[i]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(q=simple_acyclic_quivers())
def test_every_automorphism_of_an_acyclic_quiver_is_admissible(q: Quiver) -> None:
    """An arrow inside a vertex orbit would close a directed cycle under F's powers."""
    name_of = {(a.tail, a.head): a.name for a in q.arrows}
    for images in itertools.permutations(q.vertices):
        sigma = dict(zip(q.vertices, images))
        moved = [(sigma[a.tail], sigma[a.head]) for a in q.arrows]
        if not all(m in name_of for m in moved):
            continue
        s = Automorphism(q, images, tuple(name_of[m] for m in moved))
        orbit_of = {v: o for o in s.vertex_orbits for v in o}
        assert all(orbit_of[a.tail] != orbit_of[a.head] for a in q.arrows)
        vq = fold(q, s)
        assert sum(o.size for o in vq.arrows) == len(q.arrows)


def test_automorphism_lookups_raise_key_error(flip_a3: Automorphism) -> None:
    assert [flip_a3.arrow(a.name) for a in flip_a3.quiver.arrows] == ["b", "a"]
    assert [flip_a3.vertex(v) for v in flip_a3.quiver.vertices] == [3, 2, 1]
    with pytest.raises(KeyError):
        flip_a3.arrow("zz")
    with pytest.raises(KeyError):
        flip_a3.vertex(9)


def test_dynkin_type_recognition(q_a2, q_a3, q_a5, q_d4, q_d5) -> None:
    assert dynkin_type(q_a2)[:2] == ("A", 2)
    assert dynkin_type(q_a3) == ("A", 3, (1, 2, 3))
    assert dynkin_type(q_a5)[:2] == ("A", 5)
    assert dynkin_type(q_d4)[:2] == ("D", 4)
    assert dynkin_type(q_d5)[:2] == ("D", 5)
    e6 = Quiver.make(
        [1, 2, 3, 4, 5, 6],
        [("a1", 1, 2), ("a2", 2, 3), ("a4", 4, 3), ("a5", 5, 4), ("a6", 6, 3)],
    )
    assert dynkin_type(e6)[:2] == ("E", 6)


def test_dynkin_type_rejections() -> None:
    kronecker = Quiver.make([1, 2], [("a", 1, 2), ("b", 1, 2)])
    with pytest.raises(UnsupportedTypeError):
        dynkin_type(kronecker)
    square = Quiver.make(
        [1, 2, 3, 4], [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)]
    )
    with pytest.raises(UnsupportedTypeError, match="not a tree"):
        dynkin_type(square)
    # Three edges on four vertices, but a triangle and an isolated vertex.
    triangle = Quiver.make([1, 2, 3, 4], [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)])
    with pytest.raises(UnsupportedTypeError, match="not a tree"):
        dynkin_type(triangle)
    star4 = Quiver.make(
        [0, 1, 2, 3, 4],
        [("a", 0, 1), ("b", 0, 2), ("c", 0, 3), ("d", 0, 4)],
    )
    with pytest.raises(UnsupportedTypeError):
        dynkin_type(star4)
    t333 = Quiver.make(
        [0, 1, 2, 3, 4, 5, 6],
        [
            ("a1", 0, 1),
            ("a2", 1, 2),
            ("b1", 0, 3),
            ("b2", 3, 4),
            ("c1", 0, 5),
            ("c2", 5, 6),
        ],
    )
    with pytest.raises(UnsupportedTypeError):
        dynkin_type(t333)


def test_non_dynkin_fold_has_no_name() -> None:
    kronecker = Quiver.make([1, 2], [("a", 1, 2), ("b", 1, 2)])
    vq = fold(kronecker, Automorphism.identity(kronecker))
    assert valued_type_name(vq) is None
    # Swapping two arms of a 4-armed star leaves a branch node with a double bond.
    star4 = Quiver.make([0, 1, 2, 3, 4], [("a", 0, 1), ("b", 0, 2), ("c", 0, 3), ("d", 0, 4)])
    swap = Automorphism(star4, (0, 2, 1, 3, 4), ("b", "a", "c", "d"))
    assert folded_cartan(fold(star4, swap))[0] == (2, -2, -1, -1)
    assert valued_type_name(fold(star4, swap)) is None


STANDARD_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(f, n) for f in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family, rank", STANDARD_TYPES)
def test_cartan_type_names_every_standard_matrix(family, rank) -> None:
    """Relabelled nodes give the same name, and reading the matrix along the
    returned order gives the same matrix.  C2 is B2 read backwards."""
    standard = cartan_for_type(family, rank)
    name, n, order = cartan_type(standard)
    assert (name, n) == ("B" if (family, rank) == ("C", 2) else family, rank)
    canonical = tuple(tuple(standard[i][j] for j in order) for i in order)
    if name not in "ADE":
        assert canonical == cartan_for_type(name, rank)
    for seed in range(5):
        perm = list(range(rank))
        random.Random(seed).shuffle(perm)
        relabelled = tuple(tuple(standard[i][j] for j in perm) for i in perm)
        again, _, order = cartan_type(relabelled)
        assert again == name
        assert sorted(order) == list(range(rank))
        assert tuple(tuple(relabelled[i][j] for j in order) for i in order) == canonical


def test_positive_roots_refuses_infinite_type() -> None:
    kronecker = ((2, -2), (-2, 2))
    affine_a2 = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    for cartan in (kronecker, affine_a2):
        with pytest.raises(UnsupportedTypeError, match="not of finite type"):
            positive_roots(cartan)
    assert positive_roots(((2, 0), (0, 2))) == ((0, 1), (1, 0))


def test_frobenius_order(q_a3, flip_a3, rot_d4, swap_d4) -> None:
    assert frobenius_order(Automorphism.identity(q_a3)) == 1
    assert frobenius_order(flip_a3) == 2
    assert frobenius_order(rot_d4) == 3
    assert frobenius_order(swap_d4) == 2


def test_frobenius_on_k_is_permutation(flip_a3) -> None:
    f = frobenius_on_k(flip_a3)
    assert f == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    square = tuple(
        tuple(sum(f[i][k] * f[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert square == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_euler_form_hereditary_a3(q_a3) -> None:
    chi = euler_form_hereditary(q_a3)
    assert q_a3.vertices == (1, 2, 3)
    assert chi == ((1, 0, 0), (-1, 1, -1), (0, 0, 1))
    assert pairing(chi, (1, 1, 0), (0, 1, 0)) == 1
    assert pairing(chi, (0, 1, 0), (1, 0, 0)) == -1
    assert pairing(chi, (0, 1, 0), (1, 1, 0)) == 0


def test_euler_form_cy3_is_antisymmetrization(q_a3) -> None:
    chi = euler_form_hereditary(q_a3)
    chi3 = euler_form_cy3(q_a3)
    n = len(chi)
    for i in range(n):
        for j in range(n):
            assert chi3[i][j] == chi[i][j] - chi[j][i]


def test_integer_kernel_pins(q_a2, q_a3, q_d4) -> None:
    assert integer_left_kernel(euler_form_cy3(q_a2)) == ()
    assert integer_left_kernel(euler_form_cy3(q_a3)) == ((1, 0, -1),)
    kern = integer_left_kernel(euler_form_cy3(q_d4))
    assert len(kern) == 2
    form = euler_form_cy3(q_d4)
    for row in kern:
        for j in range(4):
            unit = tuple(1 if t == j else 0 for t in range(4))
            assert pairing(form, row, unit) == 0


# (family, rank) -> (degrees, W-Catalan number): Humphreys, Reflection Groups
# and Coxeter Groups, table 3.1, and the counts of Fomin-Reading.
WEYL_DEGREES = {
    ("A", 3): ((2, 3, 4), 14),
    ("A", 10): ((2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 58786),
    ("B", 3): ((2, 4, 6), 20),
    ("C", 3): ((2, 4, 6), 20),
    ("D", 4): ((2, 4, 4, 6), 50),
    ("D", 9): ((2, 4, 6, 8, 9, 10, 12, 14, 16), 35750),
    ("E", 6): ((2, 5, 6, 8, 9, 12), 833),
    ("E", 7): ((2, 6, 8, 10, 12, 14, 18), 4160),
    ("E", 8): ((2, 8, 12, 14, 18, 20, 24, 30), 25080),
    ("F", 4): ((2, 6, 8, 12), 105),
    ("G", 2): ((2, 6), 8),
}


@pytest.mark.parametrize("family, rank", sorted(WEYL_DEGREES))
def test_weyl_degrees_from_root_heights(family, rank) -> None:
    degrees, catalan = WEYL_DEGREES[family, rank]
    assert weyl_degrees(positive_roots(cartan_for_type(family, rank))) == degrees
    if family in "ADE":
        assert simply_laced_degrees(family, rank) == degrees
    assert prod(degrees[-1] + d for d in degrees) // prod(degrees) == catalan
