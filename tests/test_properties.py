from __future__ import annotations

from foldstab.cells import CellCache, classify_cell, f_constraints
from foldstab.hearts import build_folded_eg, build_interval_eg, is_f_stable
from foldstab.quiver import Automorphism, fold, valued_type_name
from foldstab.reps import Catalog

from properties import (
    fold_census,
    run_euler_identity,
    run_identify_additivity,
    run_multi_tilt_orders,
    run_orbit_tilt_stability,
    run_tilt_round_trips,
    run_twist_relations,
)


def test_tilt_round_trips(cat_a2, cat_a3, cat_d4) -> None:
    cases = run_tilt_round_trips([cat_a2, cat_a3, cat_d4])
    assert cases == 504


def test_multi_tilt_orders(cat_a2, cat_a3, cat_d4, cat_a5) -> None:
    cases = run_multi_tilt_orders([cat_a2, cat_a3, cat_d4, cat_a5])
    assert cases == 2472


def test_euler_identity(cat_a2, cat_a3, cat_a5, cat_d4, cat_d5) -> None:
    cases = run_euler_identity([cat_a2, cat_a3, cat_a5, cat_d4, cat_d5])
    assert cases == 814


def test_identify_additivity(cat_a2, cat_a3, cat_d4) -> None:
    cases = run_identify_additivity([cat_a2, cat_a3, cat_d4], 170, seed=20240817)
    assert cases == 510


def test_orbit_tilt_stability(
    cat_a2, cat_a3, cat_d4, cat_a5, flip_a3, rot_d4, swap_d4, flip_a5
) -> None:
    pairs = [
        (cat_a2, Automorphism.identity(cat_a2.quiver)),
        (cat_a3, Automorphism.identity(cat_a3.quiver)),
        (cat_d4, Automorphism.identity(cat_d4.quiver)),
        (cat_a5, Automorphism.identity(cat_a5.quiver)),
        (cat_a3, flip_a3),
        (cat_d4, rot_d4),
        (cat_d4, swap_d4),
        (cat_a5, flip_a5),
    ]
    cases = run_orbit_tilt_stability(pairs)
    assert cases == 1060


def test_twist_relations(
    cat_a2, cat_a3, cat_d4, cat_a5, cat_d5, flip_a3, rot_d4, flip_a5
) -> None:
    pairs = [
        (cat_a2, None),
        (cat_a3, flip_a3),
        (cat_d4, rot_d4),
        (cat_a5, flip_a5),
        (cat_d5, None),
    ]
    cases = run_twist_relations(pairs)
    assert cases == 760


# fold: (pairs (Q, F), hearts of Q, rank of Q, type of S, hearts of S, rank of S).
# The heart counts are the W-Catalan numbers of each type.
FOLD_CENSUS = {
    "A3 flip": (2, 14, 3, "B2", 6, 2),
    "A5 flip": (4, 132, 5, "C3", 20, 3),
    "A7 flip": (8, 1430, 7, "C4", 70, 4),
    "D4 swap": (4, 50, 4, "B3", 20, 3),
    "D4 triality": (2, 50, 4, "G2", 8, 2),
    "D5 swap": (8, 182, 5, "B4", 70, 4),
    "D6 swap": (16, 672, 6, "B5", 252, 5),
    "D7 swap": (32, 2508, 7, "B6", 924, 6),
    "D8 swap": (64, 9438, 8, "B7", 3432, 7),
    "E6 flip": (8, 833, 6, "F4", 105, 4),
}


def test_fold_census_has_every_fixed_orientation() -> None:
    census = list(fold_census())
    assert len(census) == 148
    for name in FOLD_CENSUS:
        assert sum(n == name for n, _, _ in census) == FOLD_CENSUS[name][0]
    for _, q, s in census:
        arrows = {(a.tail, a.head) for a in q.arrows}
        assert not s.is_identity()
        assert {(s.vertex(a.tail), s.vertex(a.head)) for a in q.arrows} == arrows


def test_fold_census_counts_hearts_and_edges() -> None:
    """Every census pair but the D7 and D8 ones, 52 in all.  On each heart
    the F-cell is nonempty exactly when F fixes the heart, the paper's
    Stab^F D(Gamma_Q) = Stab D(Gamma_S) read heart by heart."""
    cases = hearts = 0
    for name, q, s in fold_census():
        if name in ("D7 swap", "D8 swap"):
            continue
        _, q_hearts, q_rank, s_type, s_hearts, s_rank = FOLD_CENSUS[name]
        assert valued_type_name(fold(q, s)) == s_type
        catalog = Catalog(q)
        perm = catalog.transport_index(s)
        eg = build_interval_eg(catalog)
        assert len(eg.hearts) == q_hearts
        assert len(eg.edges) == q_rank * q_hearts // 2
        assert sum(is_f_stable(perm, h) for h in eg.hearts) == s_hearts
        cache = CellCache()
        for h in eg.hearts:
            cls = classify_cell(f_constraints(catalog, s, h), len(h.simples), cache)
            assert cls.feasible == is_f_stable(perm, h), (name, h)
        hearts += len(eg.hearts)
        folded = build_folded_eg(catalog, perm)
        assert len(folded.hearts) == s_hearts
        assert len(folded.edges) == s_rank * s_hearts // 2
        cases += 1
    assert cases == 52
    assert hearts == 31168
