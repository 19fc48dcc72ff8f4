"""Acceptance gate: one test per release criterion, each printing a PASS line.

Criteria cover the folding fixtures, the 14-heart exchange graph with its
F-stable sublocus, the numerical kernel, the feasible-iff-stable cell
classification, braid relation verification, the bulk property suites, the
brute-force folded-graph oracle, and CLI determinism.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from foldstab.braid import CoxeterSystem, parse_word, words_equal
from foldstab.cells import (
    classify_cell,
    f_constraint_rows,
    numerical_constraints,
    slices_equal,
    verify_classification,
)
from foldstab.hearts import (
    build_folded_eg,
    build_interval_eg,
    heart_label,
    is_f_stable,
)
from foldstab.linalg import integer_left_kernel
from foldstab.quiver import Automorphism, euler_form_cy3, fold, valued_type_name

from oracles import brute_force_folded_eg
from properties import (
    run_euler_identity,
    run_identify_additivity,
    run_multi_tilt_orders,
    run_orbit_tilt_stability,
    run_tilt_round_trips,
    run_twist_relations,
)

pytestmark = pytest.mark.acceptance

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


def _fold_profile(q, s):
    vq = fold(q, s)
    return (
        valued_type_name(vq),
        tuple((ov.name, ov.size) for ov in vq.vertices),
        tuple((oa.name, oa.size, oa.tail, oa.head) for oa in vq.arrows),
    )


def test_c1_folding_fixtures(q_a3, flip_a3, q_d4, rot_d4, swap_d4, q_a5, flip_a5) -> None:
    start = time.perf_counter()
    assert _fold_profile(q_a3, flip_a3) == (
        "B2",
        ((1, 2), (2, 1)),
        (("a", 2, 2, 1),),
    )
    assert _fold_profile(q_d4, rot_d4) == (
        "G2",
        ((0, 1), (1, 3)),
        (("c1", 3, 0, 1),),
    )
    assert _fold_profile(q_d4, swap_d4) == (
        "B3",
        ((0, 1), (1, 1), (2, 2)),
        (("c1", 1, 0, 1), ("c2", 2, 0, 2)),
    )
    assert _fold_profile(q_a5, flip_a5) == (
        "C3",
        ((1, 2), (2, 2), (3, 1)),
        (("p1", 2, 1, 2), ("p2", 2, 2, 3)),
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS: C1 folding fixtures B2/G2/B3/C3 with orbit labels ({elapsed:.3f}s)")


def test_c2_exchange_graph_atlas(cat_a3, flip_a3) -> None:
    start = time.perf_counter()
    eg = build_interval_eg(cat_a3)
    assert len(eg.hearts) == 14
    labels = [
        frozenset(heart_label(cat_a3, h)[1:-1].split(", ")) for h in eg.hearts
    ]
    assert sorted(map(sorted, labels)) == sorted(map(sorted, EXPECTED_HEARTS))
    perm = cat_a3.transport_index(flip_a3)
    stable = [
        frozenset(heart_label(cat_a3, h)[1:-1].split(", "))
        for h in eg.hearts
        if is_f_stable(perm, h)
    ]
    assert len(stable) == 6
    assert sorted(map(sorted, stable)) == sorted(map(sorted, EXPECTED_STABLE))
    parent = list(range(len(eg.hearts)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, _, b in eg.edges:
        parent[find(a)] = find(b)
    assert len({find(v) for v in range(len(eg.hearts))}) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: C2 A3 exchange graph: 14 hearts, 6 F-stable, labels match, connected ({elapsed:.3f}s)")


def test_c3_numerical_kernel(q_a3, q_d4, rot_d4) -> None:
    start = time.perf_counter()
    kernel_a3 = integer_left_kernel(euler_form_cy3(q_a3))
    assert kernel_a3 == ((1, 0, -1),)
    kernel_d4 = integer_left_kernel(euler_form_cy3(q_d4))
    assert len(kernel_d4) == 2
    f_rows = f_constraint_rows(rot_d4)
    for k in kernel_d4:
        assert slices_equal(f_rows, f_rows + (k,))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS: C3 numerical kernel is span(e1-e3); D4 F-constraints contain the kernel ({elapsed:.3f}s)")


def test_c4_cell_classification(cat_a3, flip_a3) -> None:
    start = time.perf_counter()
    eg = build_interval_eg(cat_a3)
    perm = cat_a3.transport_index(flip_a3)
    feasible = 0
    infeasible = 0
    for heart in eg.hearts:
        rows = numerical_constraints(cat_a3, heart)
        cls = classify_cell(rows, 3)
        assert verify_classification(rows, cls, 3)
        assert cls.feasible == is_f_stable(perm, heart)
        if cls.feasible:
            feasible += 1
        else:
            infeasible += 1
            assert cls.certificates
    assert feasible == 6
    assert infeasible == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: C4 feasible iff F-stable on all 14 hearts (6 feasible, 8 certified empty) ({elapsed:.3f}s)")


def test_c5_braid_relations(q_a3, q_d4, q_a2) -> None:
    start = time.perf_counter()
    sys_a3, _ = CoxeterSystem.from_quiver(q_a3)
    assert words_equal(sys_a3, parse_word("1 3 2 1 3 2"), parse_word("2 1 3 2 1 3"))
    sys_d4, slot_of = CoxeterSystem.from_quiver(q_d4)
    outer = [slot_of[v] + 1 for v in (1, 2, 3)]
    center = slot_of[0] + 1
    abc = " ".join(str(x) for x in outer)
    lhs = parse_word(" ".join([f"{abc} {center}"] * 3))
    rhs = parse_word(" ".join([f"{center} {abc}"] * 3))
    assert words_equal(sys_d4, lhs, rhs)
    sys_a2, _ = CoxeterSystem.from_quiver(q_a2)
    assert not words_equal(sys_a2, parse_word("1 2"), parse_word("2 1"))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS: C5 A3 and D4 folded braid relations hold; A2 negative control fails ({elapsed:.3f}s)")


def test_c6_property_suites(
    cat_a2, cat_a3, cat_d4, cat_a5, cat_d5, flip_a3, rot_d4, swap_d4, flip_a5
) -> None:
    core = [cat_a2, cat_a3, cat_d4]
    counts = {
        "tilt round-trips": run_tilt_round_trips(core),
        "multi-tilt orders": run_multi_tilt_orders(core + [cat_a5]),
        "Euler identity": run_euler_identity(core + [cat_a5, cat_d5]),
        "identify additivity": run_identify_additivity(core, 170, seed=20240817),
        "orbit tilt stability": run_orbit_tilt_stability(
            [(c, Automorphism.identity(c.quiver)) for c in core + [cat_a5]]
            + [(cat_a3, flip_a3), (cat_d4, rot_d4), (cat_d4, swap_d4), (cat_a5, flip_a5)]
        ),
        "twist relations": run_twist_relations(
            [(cat_a2, None), (cat_a3, flip_a3), (cat_d4, rot_d4), (cat_a5, flip_a5), (cat_d5, None)]
        ),
    }
    assert all(count >= 500 for count in counts.values()), counts
    summary = ", ".join(f"{name} {count}" for name, count in counts.items())
    print(f"PASS: C6 property suites each >= 500 cases ({summary})")


def test_c7_folded_graph_oracle(cat_a3, flip_a3, cat_d4, rot_d4) -> None:
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS: C7 folded graphs match the brute-force oracle on A3 and D4/G2 ({elapsed:.3f}s)")


def test_c8_cli_determinism(child_env) -> None:
    runs = [
        ("fold", str(SPECS / "a3_flip.toml")),
        ("fold", str(SPECS / "d4_triality.toml"), "--format", "json"),
        ("eg", str(SPECS / "a3_flip.toml")),
        ("eg", str(SPECS / "d4_triality.toml"), "--fold", "--format", "json"),
        ("classify", str(SPECS / "a3_flip.toml")),
        ("classify", str(SPECS / "a3_flip.toml"), "--fold", "--format", "json"),
        ("braid", str(SPECS / "a3_flip.toml")),
        ("braid", str(SPECS / "a2_chain.toml"), "--check", "1 2 1 = 2 1 2"),
        ("report", str(SPECS / "a3_flip.toml")),
        ("report", str(SPECS / "d4_triality.toml"), "--format", "table"),
    ]
    for argv in runs:
        outputs = []
        for hashseed in ("3", "301"):
            proc = subprocess.run(
                [sys.executable, "-m", "foldstab", *argv],
                capture_output=True,
                env=child_env({"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"}),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
        if "--format" in argv and "json" in argv:
            json.loads(outputs[0])
    print(f"PASS: C8 every CLI command byte-identical across {len(runs)} reruns")
