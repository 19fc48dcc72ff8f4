from __future__ import annotations

import hashlib

import pytest

from foldstab.errors import InternalError, UnsupportedTypeError
from foldstab.specfile import parse_quiver
from foldstab.quiver import Automorphism, Quiver, cartan_matrix, euler_form_hereditary, positive_roots
from foldstab.reps import (
    Catalog,
    Representation,
    direct_sum,
    ext1_dim,
    ext1_space,
    extension_module,
    hom_dim,
    hom_space,
    cokernel_module,
    kernel_module,
    stack_hom_horizontal,
    stack_hom_vertical,
    transport,
    universal_coextension,
    universal_extension,
    zero_rep,
)

from oracles import pairing, tits_positive_roots
from properties import seeded_dynkin_spec


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


def test_representation_checks_its_shape(q_a2) -> None:
    with pytest.raises(InternalError, match="^representation shape mismatch$"):
        Representation(q_a2, (0,), ((),))
    with pytest.raises(InternalError, match="^representation shape mismatch$"):
        Representation(q_a2, (0, 0), ())
    # Arrow a: 1 -> 2 needs a dims[2] x dims[1] matrix.
    with pytest.raises(InternalError, match="^matrix shape mismatch on arrow 'a'$"):
        Representation(q_a2, (0, 1), ((),))
    with pytest.raises(InternalError, match="^matrix shape mismatch on arrow 'a'$"):
        Representation(q_a2, (1, 1), (((),),))
    # _replace and _make build through the same checks.
    good = Representation(q_a2, (1, 1), (((1,),),))
    with pytest.raises(InternalError, match="^representation shape mismatch$"):
        good._replace(dims=(1,))
    with pytest.raises(InternalError, match="^matrix shape mismatch on arrow 'a'$"):
        good._replace(dims=(1, 2))
    with pytest.raises(InternalError, match="^matrix shape mismatch on arrow 'a'$"):
        Representation._make((q_a2, (0, 1), ((),)))


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


@pytest.mark.parametrize("family, rank, hearts", [("A", 10, 58786), ("D", 9, 35750)])
def test_catalog_refuses_more_hearts_than_e8(family, rank, hearts) -> None:
    q, _ = parse_quiver(seeded_dynkin_spec(family, rank, 1))
    with pytest.raises(UnsupportedTypeError, match=f"^{family}{rank} has {hearts} hearts"):
        Catalog(q)


def test_catalog_admits_up_to_e8() -> None:
    for family, rank, roots in (("A", 9, 45), ("D", 8, 56), ("E", 8, 120)):
        q, _ = parse_quiver(seeded_dynkin_spec(family, rank, 1))
        assert len(Catalog(q)) == roots


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


def test_direct_sum_is_block_diagonal(cat_a3, cat_d4) -> None:
    for cat in (cat_a3, cat_d4):
        q = cat.quiver
        for picks in ((0, 1, 2), (2, 0, 2), (len(cat) - 1, 3, 1)):
            parts = [cat.reps[i] for i in picks]
            total = direct_sum(parts)
            assert total.dims == tuple(map(sum, zip(*(r.dims for r in parts))))
            for ai, a in enumerate(q.arrows):
                hi, ti = q.vertex_index[a.head], q.vertex_index[a.tail]
                rows, cols, width = [], 0, total.dims[ti]
                for r in parts:
                    for row in r.maps[ai]:
                        rows.append((0,) * cols + row + (0,) * (width - cols - len(row)))
                    cols += r.dims[ti]
                assert total.maps[ai] == tuple(rows)
                assert len(rows) == total.dims[hi]


@pytest.mark.parametrize("name", ["cat_a3", "cat_d4", "cat_a5", "cat_d5"])
def test_hom_order_is_topological(name, request) -> None:
    cat = request.getfixturevalue(name)
    order = cat.hom_order
    assert sorted(order) == list(range(len(cat)))
    pos = {i: p for p, i in enumerate(order)}
    for i in range(len(cat)):
        for j in range(len(cat)):
            if i != j and cat.euler[i][j] > 0:
                assert pos[i] < pos[j]


def test_hom_order_rejects_a_cycle(q_a2) -> None:
    cat = Catalog(q_a2)
    cat.euler = ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    with pytest.raises(InternalError, match="cycle"):
        cat.hom_order


def test_module_builders_on_every_brick_pair(cat_a3, cat_d4) -> None:
    for cat in (cat_a3, cat_d4):
        for x in cat.reps:
            for s in cat.reps:
                u = universal_extension(x, s)
                d = ext1_dim(x, s)
                assert u.dims == tuple(xd + d * sd for xd, sd in zip(x.dims, s.dims))
                assert ext1_dim(u, s) == 0
                c = universal_coextension(x, s)
                d = ext1_dim(s, x)
                assert c.dims == tuple(xd + d * sd for xd, sd in zip(x.dims, s.dims))
                assert ext1_dim(s, c) == 0
                target, phi = stack_hom_vertical(x, s)
                source, psi = stack_hom_horizontal(s, x)
                for src, tgt, f in ((x, target, phi), (source, x, psi)):
                    ker = kernel_module(f, src)
                    cok = cokernel_module(f, src, tgt)
                    for v in range(len(x.dims)):
                        assert ker.dims[v] - cok.dims[v] == src.dims[v] - tgt.dims[v]


def test_transport_permutes_catalog(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    assert perm == (5, 4, 2, 3, 1, 0)
    assert sorted(perm) == list(range(6))
    for i, r in enumerate(cat_a3.reps):
        assert transport(r, flip_a3).dims == cat_a3.reps[perm[i]].dims


def test_transport_identity(cat_d4, q_d4) -> None:
    ident = Automorphism.identity(q_d4)
    assert cat_d4.transport_index(ident) == tuple(range(12))


def test_euler_pairing_against_tables(cat_a3) -> None:
    chi = euler_form_hereditary(cat_a3.quiver)
    n = len(cat_a3.reps)
    for i in range(n):
        for j in range(n):
            expected = cat_a3.euler[i][j]
            assert pairing(chi, cat_a3.reps[i].dims, cat_a3.reps[j].dims) == expected


# sha256 of every matrix construction of the module oracle on the 805 ordered
# brick pairs of seeded A3, D4, A5 and D5 (seed 1), taken before `rref` and
# `rank` left `linalg` and `direct_sum` became an extension by zero cocycles.
ORACLE_DIGEST = "768689c796c66661226c02f4063f00e044050f6e397ca5030008d4386b18391b"


def _module_oracle_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    pairs = 0

    def put(*reps_or_maps) -> None:
        for x in reps_or_maps:
            h.update(repr((x.dims, x.maps) if isinstance(x, Representation) else x).encode())

    for family, n in (("A", 3), ("D", 4), ("A", 5), ("D", 5)):
        q, _ = parse_quiver(seeded_dynkin_spec(family, n, 1))
        bricks = Catalog(q).reps
        for m in bricks:
            for s in bricks:
                pairs += 1
                put(universal_extension(m, s), universal_coextension(m, s), direct_sum([m, s]))
                put(tuple(hom_space(m, s)), tuple(ext1_space(m, s)))
                target, phi = stack_hom_vertical(m, s)
                source, psi = stack_hom_horizontal(s, m)
                put(target, phi, source, psi)
                put(kernel_module(phi, m), cokernel_module(phi, m, target))
                put(kernel_module(psi, source), cokernel_module(psi, source, m))
    return pairs, h.hexdigest()


def test_module_oracle_is_pinned_byte_for_byte() -> None:
    assert _module_oracle_digest() == (805, ORACLE_DIGEST)
