from __future__ import annotations

from pathlib import Path

import pytest

from foldstab import hearts
from foldstab.errors import InputError, InternalError
from foldstab.hearts import (
    Heart,
    build_folded_eg,
    build_interval_eg,
    f_orbits_of_heart,
    heart_k_matrix,
    heart_label,
    is_f_stable,
    make_heart,
    orbit_tilt,
    seed_heart,
    tilt_backward,
    tilt_forward,
)

from foldstab.quiver import Automorphism, Quiver
from foldstab.reps import Catalog
from foldstab.specfile import parse_quiver

from oracles import (
    _position_orbits,
    brute_force_folded_eg,
    module_tables,
    module_tilt_backward,
    module_tilt_forward,
    smc_hearts,
    validate_heart,
)
from properties import seeded_dynkin_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"

EXPECTED_HEARTS = [
    {"T1", "T2", "X3^1"},
    {"T1", "T3^1", "X3"},
    {"T1^1", "X1", "X3^1"},
    {"T1", "T2^1", "T3^1"},
    {"T1^1", "T3^1", "X2"},
    {"T2", "X1^1", "X3^1"},
    {"T1", "T2^1", "T3"},
    {"T1", "T2", "T3"},
    {"X1", "X2^1", "X3"},
    {"T1^1", "T2^1", "T3^1"},
    {"T1^1", "T3", "X1"},
    {"T3^1", "X1^1", "X3"},
    {"T1^1", "T2^1", "T3"},
    {"T2", "T3", "X1^1"},
]

EXPECTED_STABLE = [
    {"T1^1", "T3^1", "X2"},
    {"T2", "X1^1", "X3^1"},
    {"T1", "T2^1", "T3"},
    {"T1", "T2", "T3"},
    {"X1", "X2^1", "X3"},
    {"T1^1", "T2^1", "T3^1"},
]


def _label_set(catalog, heart: Heart) -> frozenset[str]:
    return frozenset(heart_label(catalog, heart)[1:-1].split(", "))


def test_seed_heart(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    assert heart_label(cat_a3, seed) == "{T1, T2, T3}"
    assert [shift for _, shift in seed.simples] == [0, 0, 0]
    assert heart_k_matrix(cat_a3, seed) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    validate_heart(cat_a3, seed)


def test_shift_negates_k_class(cat_a3) -> None:
    shifted = make_heart([(0, 1), (3, 0), (5, 2)])
    rows = heart_k_matrix(cat_a3, shifted)
    assert rows == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_interval_eg_a2_matches_oracle(cat_a2) -> None:
    eg = build_interval_eg(cat_a2)
    assert len(eg.hearts) == 5
    assert len(eg.edges) == 5
    assert {h.simples for h in eg.hearts} == smc_hearts(cat_a2)


def test_interval_eg_a3_matches_atlas(cat_a3) -> None:
    eg = build_interval_eg(cat_a3)
    assert len(eg.hearts) == 14
    assert len(eg.edges) == 21
    labels = [_label_set(cat_a3, h) for h in eg.hearts]
    assert sorted(map(sorted, labels)) == sorted(map(sorted, EXPECTED_HEARTS))
    assert {h.simples for h in eg.hearts} == smc_hearts(cat_a3)


def test_interval_eg_a3_seed_adjacency(cat_a3) -> None:
    eg = build_interval_eg(cat_a3)
    seed = seed_heart(cat_a3)
    seed_id = eg.hearts.index(seed)
    targets = {
        seed.simples[pos]: _label_set(cat_a3, eg.hearts[tgt])
        for src, (pos,), tgt in eg.edges
        if src == seed_id
    }
    t1 = (cat_a3.simple_index(1), 0)
    t2 = (cat_a3.simple_index(2), 0)
    t3 = (cat_a3.simple_index(3), 0)
    assert targets[t1] == {"T1^1", "X1", "T3"}
    assert targets[t2] == {"T1", "T2^1", "T3"}
    assert targets[t3] == {"T1", "X3", "T3^1"}


def test_interval_eg_a3_f_stable(cat_a3, flip_a3) -> None:
    eg = build_interval_eg(cat_a3)
    perm = cat_a3.transport_index(flip_a3)
    stable = [_label_set(cat_a3, h) for h in eg.hearts if is_f_stable(perm, h)]
    assert sorted(map(sorted, stable)) == sorted(map(sorted, EXPECTED_STABLE))


def test_interval_eg_a3_is_connected(cat_a3) -> None:
    eg = build_interval_eg(cat_a3)
    reach = {0}
    frontier = [0]
    undirected: dict[int, set[int]] = {}
    for a, _, b in eg.edges:
        undirected.setdefault(a, set()).add(b)
        undirected.setdefault(b, set()).add(a)
    while frontier:
        v = frontier.pop()
        for w in undirected.get(v, ()):
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    assert reach == set(range(len(eg.hearts)))


def test_interval_eg_d4_matches_oracle(cat_d4) -> None:
    eg = build_interval_eg(cat_d4)
    assert len(eg.hearts) == 50
    assert len(eg.edges) == 100
    assert {h.simples for h in eg.hearts} == smc_hearts(cat_d4)


def test_interval_eg_a5_count(cat_a5) -> None:
    assert len(build_interval_eg(cat_a5).hearts) == 132


def test_euler_tables_match_module_tables(cat_a3, cat_d4, cat_a5, cat_d5) -> None:
    for catalog in (cat_a3, cat_d4, cat_a5, cat_d5):
        hom, ext = module_tables(catalog)
        n = len(catalog)
        assert catalog.euler == tuple(tuple(hom[i][j] - ext[i][j] for j in range(n)) for i in range(n))
        # The premise of reading Hom and Ext^1 off the sign of chi: between
        # distinct indecomposables at most one of them is nonzero.
        assert not any(hom[i][j] and ext[i][j] for i in range(n) for j in range(n) if i != j)


def test_class_tilts_match_module_tilts(cat_a3, cat_d4, cat_a5, cat_d5) -> None:
    cases = 0
    for catalog in (cat_a3, cat_d4, cat_a5, cat_d5):
        for heart in build_interval_eg(catalog).hearts:
            for pos in range(len(heart.simples)):
                assert tilt_forward(catalog, heart, pos) == module_tilt_forward(catalog, heart, pos)
                assert tilt_backward(catalog, heart, pos) == module_tilt_backward(catalog, heart, pos)
                cases += 1
    assert cases == 14 * 3 + 50 * 4 + 132 * 5 + 182 * 5


def test_tilt_rejects_a_class_that_is_not_a_root(cat_a3) -> None:
    # Not a heart: T1 sits at shifts 0 and 1.  Tilting at T1 rewrites its
    # shifted copy to the class hom(T1, T1)[T1] - [T1] = 0, which names no
    # indecomposable, and that must fail loudly.
    bogus = make_heart([(0, 0), (0, 1), (5, 0)])
    with pytest.raises(InternalError, match="not a positive root"):
        tilt_forward(cat_a3, bogus, 0)


def _quiver_with_branch(chain: int, branch_at: int) -> Quiver:
    """Chain 1 -> 2 -> ... -> chain, plus vertex chain + 1 -> branch_at."""
    arrows = [(f"a{i}", i, i + 1) for i in range(1, chain)]
    arrows.append(("b", chain + 1, branch_at))
    return Quiver.make(list(range(1, chain + 2)), arrows)


def test_interval_eg_e7_e8_count_w_catalan() -> None:
    assert len(build_interval_eg(Catalog(_quiver_with_branch(6, 3))).hearts) == 4160
    assert len(build_interval_eg(Catalog(_quiver_with_branch(7, 3))).hearts) == 25080


def test_all_a3_hearts_validate(cat_a3) -> None:
    for heart in build_interval_eg(cat_a3).hearts:
        validate_heart(cat_a3, heart)


def test_validate_rejects_bad_hearts(cat_a3) -> None:
    with pytest.raises(InputError, match="wrong number"):
        validate_heart(cat_a3, make_heart([(0, 0)]))
    with pytest.raises(InputError, match="Hom"):
        validate_heart(cat_a3, make_heart([(0, 0), (1, 0), (5, 0)]))
    with pytest.raises(InputError, match="Ext"):
        validate_heart(cat_a3, make_heart([(0, 1), (3, 0), (5, 1)]))
    with pytest.raises(InputError, match="repeats"):
        validate_heart(cat_a3, make_heart([(0, 0), (0, 0), (5, 0)]))


def test_heart_checks_order_and_hashes_as_its_simples() -> None:
    with pytest.raises(InternalError, match="^heart simples not in canonical order$"):
        Heart(((1, 0), (0, 0)))
    with pytest.raises(InternalError, match="^heart simples not in canonical order$"):
        make_heart([(1, 0), (0, 0)])._replace(simples=((1, 0), (0, 0)))
    with pytest.raises(InternalError, match="^heart simples not in canonical order$"):
        Heart._make((((1, 0), (0, 0)),))
    simples = [(2, 1), (0, 0), (1, 0)]
    assert hash(make_heart(simples)) == hash((tuple(sorted(simples)),))


def test_tilt_forward_changes_one_shift(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    up = tilt_forward(cat_a3, seed, 1)
    assert heart_label(cat_a3, up) == "{T1, T2^1, T3}"
    down = tilt_backward(cat_a3, up, up.position_of((3, 1)))
    assert down == seed


def test_tilt_produces_valid_hearts(cat_a3) -> None:
    eg = build_interval_eg(cat_a3)
    for heart in eg.hearts:
        for pos in range(3):
            validate_heart(cat_a3, tilt_forward(cat_a3, heart, pos))
            validate_heart(cat_a3, tilt_backward(cat_a3, heart, pos))


def test_f_orbits(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    seed = seed_heart(cat_a3)
    orbits = f_orbits_of_heart(perm, seed)
    assert sorted(len(o) for o in orbits) == [1, 2]
    unstable = tilt_forward(cat_a3, seed, 0)
    with pytest.raises(InputError, match="not stable"):
        f_orbits_of_heart(perm, unstable)


def test_orbit_tilt_seed_center(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    seed = seed_heart(cat_a3)
    t2 = (cat_a3.simple_index(2), 0)
    orbit = next(
        o for o in f_orbits_of_heart(perm, seed) if [seed.simples[p] for p in o] == [t2]
    )
    new = orbit_tilt(cat_a3, perm, seed, orbit)
    assert heart_label(cat_a3, new) == "{T1, T2^1, T3}"
    assert is_f_stable(perm, new)
    with pytest.raises(InputError, match="orbit"):
        orbit_tilt(cat_a3, perm, seed, (0,))
    with pytest.raises(InputError, match="orbit"):
        orbit_tilt(cat_a3, perm, seed, (0, 0))


def test_orbit_tilt_refuses_interacting_members(cat_a2) -> None:
    # No admissible automorphism swaps the two ends of an arrow, so this
    # orbit can only come from a wrong transport permutation.
    i, j = cat_a2.simple_index(1), cat_a2.simple_index(2)
    perm = list(range(len(cat_a2.roots)))
    perm[i], perm[j] = j, i
    seed = seed_heart(cat_a2)
    orbits = f_orbits_of_heart(tuple(perm), seed)
    assert orbits == ((0, 1),)
    with pytest.raises(InternalError, match="interact"):
        orbit_tilt(cat_a2, tuple(perm), seed, (0, 1))


def test_folded_eg_counts(cat_a3, flip_a3, cat_d4, rot_d4, swap_d4, cat_a5, flip_a5) -> None:
    assert len(build_folded_eg(cat_a3, cat_a3.transport_index(flip_a3)).hearts) == 6
    assert len(build_folded_eg(cat_d4, cat_d4.transport_index(rot_d4)).hearts) == 8
    assert len(build_folded_eg(cat_d4, cat_d4.transport_index(swap_d4)).hearts) == 20
    assert len(build_folded_eg(cat_a5, cat_a5.transport_index(flip_a5)).hearts) == 20


def test_folded_eg_matches_brute_force(cat_a3, flip_a3, cat_d4, rot_d4) -> None:
    for catalog, s in ((cat_a3, flip_a3), (cat_d4, rot_d4)):
        perm = catalog.transport_index(s)
        feg = build_folded_eg(catalog, perm)
        oracle_hearts, oracle_edges = brute_force_folded_eg(catalog, perm)
        assert {h.simples for h in feg.hearts} == set(oracle_hearts)
        impl_edges = {
            (
                feg.hearts[a].simples,
                tuple(sorted(feg.hearts[a].simples[p] for p in orbit)),
                feg.hearts[b].simples,
            )
            for a, orbit, b in feg.edges
        }
        assert impl_edges == oracle_edges


def test_folded_hearts_cover_all_stable(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    feg = build_folded_eg(cat_a3, perm)
    eg = build_interval_eg(cat_a3)
    stable = {h.simples for h in eg.hearts if is_f_stable(perm, h)}
    assert {h.simples for h in feg.hearts} == stable


def test_walks_call_the_public_tilts_once_per_edge(monkeypatch) -> None:
    # perfbench/tracer.py counts tilts by wrapping these module-level names;
    # a walk that went round them would read zero tilts.
    q, s = parse_quiver((SPECS / "a3_flip.toml").read_text(encoding="utf-8"))
    catalog = Catalog(q)
    calls = {"tilt_forward": 0, "orbit_tilt": 0}

    def counted(name):
        fn = getattr(hearts, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(hearts, name, counted(name))
    interval = build_interval_eg(catalog)
    assert calls == {"tilt_forward": len(interval.edges), "orbit_tilt": 0}
    calls["tilt_forward"] = 0
    folded = build_folded_eg(catalog, catalog.transport_index(s))
    assert calls["orbit_tilt"] == len(folded.edges)


# name -> (family, rank, orientation seed) of a quiver built here, not in specs/.
SEEDED = {"A7": ("A", 7, 7), "D5": ("D", 5, 5), "E6": ("E", 6, 1)}


ALL_SPECS = sorted(p.stem for p in SPECS.glob("*.toml")) + sorted(SEEDED)


def _parse_spec(spec: str):
    if spec in SEEDED:
        return parse_quiver(seeded_dynkin_spec(*SEEDED[spec]))
    return parse_quiver((SPECS / f"{spec}.toml").read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_folded_eg_of_the_identity_is_the_interval_eg(spec) -> None:
    catalog = Catalog(_parse_spec(spec)[0])
    identity = catalog.transport_index(Automorphism.identity(catalog.quiver))
    assert build_folded_eg(catalog, identity) == build_interval_eg(catalog)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_f_stability_and_orbits_match_the_transported_heart(spec) -> None:
    q, s = _parse_spec(spec)
    catalog = Catalog(q)
    interval = build_interval_eg(catalog).hearts
    for f in (Automorphism.identity(q),) + ((s,) if s else ()):
        perm = catalog.transport_index(f)
        for h in interval:
            stable = make_heart((perm[idx], shift) for idx, shift in h.simples) == h
            assert is_f_stable(perm, h) == stable
            if stable:
                assert f_orbits_of_heart(perm, h) == tuple(_position_orbits(perm, h.simples))
            else:
                with pytest.raises(InputError, match="not stable"):
                    f_orbits_of_heart(perm, h)


def test_folded_walk_reads_f_once_per_heart_and_edge(monkeypatch) -> None:
    q, s = parse_quiver((SPECS / "e6_fold.toml").read_text(encoding="utf-8"))
    catalog = Catalog(q)
    perm = catalog.transport_index(s)
    reads, tilts = [], []
    positions, tilt = hearts._transport_positions, hearts.orbit_tilt
    monkeypatch.setattr(hearts, "_transport_positions", lambda *a: reads.append(a) or positions(*a))
    monkeypatch.setattr(hearts, "orbit_tilt", lambda *a: tilts.append(a) or tilt(*a))
    graph = build_folded_eg(catalog, perm)
    assert (len(graph.hearts), len(graph.edges)) == (105, 210)
    assert len(tilts) == len(graph.edges)
    assert len(reads) <= len(graph.hearts) + len(graph.edges)


def test_orbit_tilt_checks_the_orbit_it_is_given(cat_a3, flip_a3) -> None:
    perm = cat_a3.transport_index(flip_a3)
    seed = seed_heart(cat_a3)
    orbits = f_orbits_of_heart(perm, seed)
    for orbit in orbits:
        assert orbit_tilt(cat_a3, perm, seed, orbit, orbits) == orbit_tilt(cat_a3, perm, seed, orbit)
    with pytest.raises(InputError, match="not a transport orbit"):
        orbit_tilt(cat_a3, perm, seed, (0,), orbits)
    with pytest.raises(InputError, match="not a transport orbit"):
        orbit_tilt(cat_a3, perm, seed, (0,))
