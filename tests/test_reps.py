from __future__ import annotations

import pytest

from foldstab.errors import UnsupportedTypeError
from foldstab.quiver import Automorphism, Quiver, cartan_matrix, euler_form_hereditary, positive_roots
from foldstab.reps import (
    Catalog,
    cy3_hom_dims,
    direct_sum,
    ext1_dim,
    ext1_space,
    extension_module,
    hom_dim,
    hom_space,
    simple_rep,
    transport,
    universal_coextension,
    universal_extension,
    zero_rep,
)

from oracles import tits_positive_roots


def test_positive_roots_match_tits_form(q_a2, q_a3, q_a5, q_d4, q_d5) -> None:
    for q in (q_a2, q_a3, q_a5, q_d4, q_d5):
        assert set(positive_roots(cartan_matrix(q))) == tits_positive_roots(q)
    # Highest-root coefficients reach 3 on E6 and 4 on E7.
    e6 = Quiver.make(range(1, 7), [("a", 1, 2), ("b", 3, 2), ("c", 3, 4), ("d", 5, 4), ("e", 6, 3)])
    e7 = Quiver.make(range(1, 8), [(f"a{i}", i, i + 1) for i in range(1, 6)] + [("b", 7, 3)])
    for q, bound, count in ((e6, 3, 36), (e7, 4, 63)):
        roots = positive_roots(cartan_matrix(q))
        assert len(roots) == count
        assert set(roots) == tits_positive_roots(q, bound)


def test_catalog_sizes(cat_a2, cat_a3, cat_a5, cat_d4, cat_d5) -> None:
    assert len(cat_a2) == 3
    assert len(cat_a3) == 6
    assert len(cat_a5) == 15
    assert len(cat_d4) == 12
    assert len(cat_d5) == 20


def test_catalog_rejects_infinite_type() -> None:
    kronecker = Quiver.make([1, 2], [("a", 1, 2), ("b", 1, 2)])
    with pytest.raises(UnsupportedTypeError):
        Catalog(kronecker)


def test_catalog_labels_a3(cat_a3) -> None:
    assert cat_a3.labels == ("T1", "X1", "X2", "T2", "X3", "T3")
    assert [r.dims for r in cat_a3.reps] == [
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    ]
    assert cat_a3.simple_index(1) == 0
    assert cat_a3.simple_index(2) == 3
    assert cat_a3.simple_index(3) == 5


def test_catalog_entries_are_bricks(cat_a3, cat_d4) -> None:
    for cat in (cat_a3, cat_d4):
        for r in cat.reps:
            assert hom_dim(r, r) == 1


def test_e6_catalog_bricks() -> None:
    e6 = Quiver.make(
        [1, 2, 3, 4, 5, 6],
        [("a1", 1, 2), ("a2", 2, 3), ("a4", 4, 3), ("a5", 5, 4), ("a6", 6, 3)],
    )
    cat = Catalog(e6)
    assert len(cat.reps) == 36
    assert [r.dims for r in cat.reps] == list(cat.roots)
    assert (1, 2, 3, 2, 1, 1) in cat.by_dims
    for r in cat.reps:
        assert hom_dim(r, r) == 1


def test_hom_ext_pins_a3(cat_a3) -> None:
    t1 = cat_a3.reps[cat_a3.simple_index(1)]
    t2 = cat_a3.reps[cat_a3.simple_index(2)]
    x1 = cat_a3.reps[cat_a3.by_dims[(1, 1, 0)]]
    x2 = cat_a3.reps[cat_a3.by_dims[(1, 1, 1)]]
    assert hom_dim(t2, t1) == 0
    assert ext1_dim(t2, t1) == 1
    assert ext1_dim(t1, t2) == 0
    assert hom_dim(x1, t1) == 0
    assert hom_dim(t1, x1) == 1
    assert hom_dim(x2, x1) == 1
    assert hom_dim(x1, x2) == 0
    assert ext1_dim(x1, x2) == 0


def test_hom_space_of_zero_and_identity(q_a3, cat_a3) -> None:
    z = zero_rep(q_a3)
    assert hom_dim(z, cat_a3.reps[0]) == 0
    maps = hom_space(cat_a3.reps[2], cat_a3.reps[2])
    assert len(maps) == 1


def test_extension_recovers_middle_term(cat_a3) -> None:
    t1 = cat_a3.reps[cat_a3.simple_index(1)]
    t2 = cat_a3.reps[cat_a3.simple_index(2)]
    cocycles = ext1_space(t2, t1)
    assert len(cocycles) == 1
    middle = extension_module(t2, t1, cocycles[0])
    assert middle.dims == (1, 1, 0)
    assert cat_a3.identify(middle) == (cat_a3.by_dims[(1, 1, 0)],)


def test_universal_extension_and_coextension(cat_a3) -> None:
    t1 = cat_a3.reps[cat_a3.simple_index(1)]
    t2 = cat_a3.reps[cat_a3.simple_index(2)]
    u = universal_extension(t2, t1)
    assert cat_a3.identify(u) == (cat_a3.by_dims[(1, 1, 0)],)
    assert ext1_dim(u, t1) == 0
    c = universal_coextension(t1, t2)
    assert cat_a3.identify(c) == (cat_a3.by_dims[(1, 1, 0)],)
    assert ext1_dim(t2, c) == 0
    untouched = universal_extension(t1, t2)
    assert untouched.dims == t1.dims


def test_identify_direct_sums(cat_a3) -> None:
    picks = [0, 0, 3, 4]
    total = direct_sum([cat_a3.reps[i] for i in picks])
    assert list(cat_a3.identify(total)) == picks
    assert cat_a3.identify(zero_rep(cat_a3.quiver)) == ()


def test_hom_order_is_topological(cat_a3) -> None:
    order = cat_a3.hom_order
    assert sorted(order) == list(range(6))
    pos = {i: p for p, i in enumerate(order)}
    for i in range(6):
        for j in range(6):
            if i != j and cat_a3.hom_table[i][j]:
                assert pos[i] < pos[j]


def test_transport_permutes_catalog(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    assert perm == (5, 4, 2, 3, 1, 0)
    assert sorted(perm) == list(range(6))
    for i, r in enumerate(cat_a3.reps):
        assert transport(r, flip_a3).dims == cat_a3.reps[perm[i]].dims


def test_transport_identity(cat_d4, q_d4) -> None:
    ident = Automorphism.identity(q_d4)
    assert cat_d4.transport_index(ident) == tuple(range(12))


def test_simple_rep_shape(q_a3) -> None:
    s = simple_rep(q_a3, 2)
    assert s.dims == (0, 1, 0)
    assert s.total == 1
    assert not s.is_zero()


def test_euler_pairing_against_tables(cat_a3) -> None:
    chi = euler_form_hereditary(cat_a3.quiver)
    n = len(cat_a3.reps)
    for i in range(n):
        for j in range(n):
            expected = cat_a3.hom_table[i][j] - cat_a3.ext_table[i][j]
            assert chi.evaluate(cat_a3.reps[i].dims, cat_a3.reps[j].dims) == expected


def test_cy3_hom_dims_shapes(cat_a3) -> None:
    t1 = (cat_a3.simple_index(1), 0)
    t2 = (cat_a3.simple_index(2), 0)
    dims = cy3_hom_dims(cat_a3, (t1,), (t1,))
    assert dims[0] == 1 and dims[3] == 1
    assert cy3_hom_dims(cat_a3, (t2,), (t1,)) == {1: 1}
    assert cy3_hom_dims(cat_a3, (t1,), (t2,)) == {2: 1}
    assert cy3_hom_dims(cat_a3, ((t2[0], 1),), (t1,)) == {2: 1}
    both = cy3_hom_dims(cat_a3, (t1, t2), (t1, t2))
    assert both[0] == 2 and both[3] == 2 and both[1] == 1 and both[2] == 1
