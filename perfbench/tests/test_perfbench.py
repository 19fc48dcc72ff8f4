"""Tests of the benchmark itself: inputs, expected answers, checkers, tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import expect
import gen
import run
import tracer
import workloads
from foldstab.braid import CoxeterSystem, parse_word, words_equal
from foldstab.quiver import dynkin_type, fold, valued_type_name
from foldstab.specfile import parse_quiver

from conftest import BENCH, ROOT


def _build(workload: str, seed: int, workdir) -> tuple[list[workloads.Op], dict[str, bytes]]:
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(workload, seed, str(workdir))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return ops, files


def _strip(ops: list[workloads.Op], workdir) -> list[tuple]:
    return [(op.label, tuple(a.replace(str(workdir), "") for a in op.args), op.check, op.expected) for op in ops]


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    ops_a, files_a = _build(workload, 7, tmp_path / "a")
    ops_b, files_b = _build(workload, 7, tmp_path / "b")
    assert files_a == files_b
    assert _strip(ops_a, tmp_path / "a") == _strip(ops_b, tmp_path / "b")
    ops_c, files_c = _build(workload, 8, tmp_path / "c")
    assert files_c != files_a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_specs_parse_and_fold_as_labelled(tmp_path, workload):
    ops, files = _build(workload, 3, tmp_path)
    assert ops and len(files) == len(ops)
    for op in ops:
        with open(op.args[-1], encoding="utf-8") as fh:
            q, s = parse_quiver(fh.read())
        family, rank, _ = dynkin_type(q)
        assert f"{family}{rank}" == op.expected["ambient"]
        folded = op.expected.get("folded")
        if folded:
            assert valued_type_name(fold(q, s)) == folded
        elif s is not None:
            assert s.is_identity()


@pytest.mark.parametrize("name", sorted(gen.FOLDS))
def test_invariant_orientations_are_f_invariant_and_distinct(name):
    family, rank, perm, _ = gen.FOLDS[name]
    orientations = gen.invariant_orientations(family, rank, perm)
    assert len(orientations) == 2 ** len(gen.edge_orbits(family, rank, perm))
    assert len({tuple(o) for o in orientations}) == len(orientations)
    for arrows in orientations:
        moved = sorted((perm.get(t, t), perm.get(h, h)) for t, h in arrows)
        assert moved == arrows


def test_cells_pass_runs_a_classify_and_a_report_per_fold_on_two_orientations(tmp_path):
    ops, _ = _build("cells", 5, tmp_path)
    assert len(ops) == 8
    for name in ("a3_b2", "d4_g2", "d4_b3", "a5_c3"):
        mine = [op for op in ops if op.label.endswith(name)]
        assert sorted(op.args[0] for op in mine) == ["classify", "report"]
        patterns = set()
        for op in mine:
            with open(op.args[-1], encoding="utf-8") as fh:
                q, _ = parse_quiver(fh.read())
            patterns.add(_degree_pattern(q))
        if name in ("a5_c3", "d4_b3"):
            assert len(patterns) == 2


def _degree_pattern(q):
    """Sorted (in, out) degrees: tells apart the invariant orientations of
    A5 -> C3 and of D4 -> B3 whatever the labels."""
    return tuple(sorted(
        (sum(a.head == v for a in q.arrows), sum(a.tail == v for a in q.arrows)) for v in q.vertices
    ))


def test_word_pairs_are_equal_exactly_when_labelled():
    system = CoxeterSystem.from_type("A", 4)
    rng = random.Random(1)
    for k in range(6):
        equal = k % 2 == 0
        text = gen.word_pair(rng, "A", 4, gen.random_word(rng, 4, 30, 6), equal)
        lhs, rhs = (parse_word(side) for side in text.split("="))
        assert len(lhs) in (30, 32) and len(rhs) in (30, 32, 34)
        if not equal:
            assert sum(e for _, e in lhs) != sum(e for _, e in rhs)
        assert words_equal(system, lhs, rhs) is equal


def test_coxeter_slots_match_the_program():
    for family, rank in (("A", 4), ("A", 5), ("D", 4), ("D", 5)):
        ms = gen.coxeter_m(family, rank)
        cartan = CoxeterSystem.from_type(family, rank).cartan
        for (i, j), m in ms.items():
            assert (cartan[i][j] != 0) == (m == 3)


# ---------------------------------------------------------------- expectation table

def test_expectation_table_matches_the_hard_coded_numbers():
    hearts = {"A3": 14, "D4": 50, "A5": 132, "A6": 429, "D5": 182, "A7": 1430}
    edges = {"A3": 21, "D4": 100, "A5": 330, "D5": 455}
    folded = {"B2": 6, "G2": 8, "B3": 20, "C3": 20, "B4": 70, "C4": 70, "B5": 252}
    for name, count in {**hearts, **folded}.items():
        assert expect.CATALAN[name] == count
    for name, count in edges.items():
        assert expect.edge_count(name) == count


_EXPONENTS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(1, 2 * n, 2)),
    "C": lambda n: list(range(1, 2 * n, 2)),
    "D": lambda n: list(range(1, 2 * n - 2, 2)) + [n - 1],
    "E": lambda n: {6: [1, 4, 5, 7, 8, 11]}[n],
    "F": lambda n: [1, 5, 7, 11],
    "G": lambda n: [1, 5],
}


@pytest.mark.parametrize("name", sorted(expect.CATALAN))
def test_catalan_numbers_follow_the_exponent_formula(name):
    exps = _EXPONENTS[name[0]](int(name[1:]))
    h = max(exps) + 1
    num = math.prod(h + e + 1 for e in exps)
    den = math.prod(e + 1 for e in exps)
    assert num % den == 0 and expect.CATALAN[name] == num // den


# ---------------------------------------------------------------- checkers

def _foldstab(args, cwd=ROOT) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "foldstab", *args], cwd=cwd, env=env, capture_output=True, check=True).stdout


def test_checkers_accept_right_and_reject_wrong_outputs():
    spec = os.path.join(ROOT, "specs", "a3_flip.toml")
    dot = _foldstab(["eg", spec])
    assert expect.check("eg_dot", dot, ambient="A3", folded="B2", kind="interval") is None
    lines = dot.decode().splitlines()
    cut = ("\n".join(lines[:1] + lines[2:]) + "\n").encode()
    assert "hearts" in expect.check("eg_dot", cut, ambient="A3", folded="B2", kind="interval")
    assert expect.check("eg_dot", dot, ambient="A3", folded="G2", kind="interval") is not None

    table = _foldstab(["classify", spec])
    assert expect.check("classify_table", table, ambient="A3", folded="B2", fold_charges=False) is None
    report = _foldstab(["report", "--format", "table", spec])
    assert expect.check("report_table", report, ambient="A3", folded="B2") is None
    wrong = report.replace(b"B2 relation: VERIFIED", b"B2 relation: FAILED")
    assert expect.check("report_table", wrong, ambient="A3", folded="B2") is not None
    assert expect.check("report_json", b"{not json", ambient="A3", folded="B2").startswith("unreadable")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:11]) == (100.0 / 11, 1.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


# ---------------------------------------------------------------- tracer

@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--fold", "specs/a3_flip.toml"],
        ["report", "specs/d4_triality.toml"],
        ["braid", "--check", "1 2 1 = 2 1 2^-1", "specs/a3_flip.toml"],
        ["fold", "specs/no_such_file.toml"],
    ],
)
def test_traced_child_stdout_is_byte_identical(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain = subprocess.run([sys.executable, "-m", "foldstab", *args], cwd=ROOT, env=env, capture_output=True)
    spans = str(tmp_path / "spans.json")
    traced = subprocess.run(
        [sys.executable, os.path.join(BENCH, "tracer.py"), spans, "1", "--", *args],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["op"] == 1
    root = doc["span_name"][0]
    assert doc["names"][root] == "cli.main" and doc["parent"][0] == -1


def test_layer_metrics_attribute_self_time_by_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spans = str(tmp_path / "spans.json")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "tracer.py"), spans, "1", "--", "classify", "specs/a3_flip.toml"],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    m = tracer.layer_metrics([spans], ops=1)
    assert m["cells.classify_calls"][0] == 14
    assert m["reps.catalog_builds"][0] == 1 and m["hearts.eg_builds"][0] == 1
    assert m["hearts.hearts_found"][0] == 14
    assert m["ratlp.solves"][0] > 0 and m["linalg.kernel_basis_calls"][0] > 0
    selfs = sum(m[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    main = (doc["end"][0] - doc["start"][0]) / 1e9
    assert selfs == pytest.approx(main, rel=1e-6)


# ---------------------------------------------------------------- run.py

def test_run_refuses_a_directory_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


_BUSY = """\
import os, sys, time
start = time.time()
while time.process_time() < 0.3:
    pass
print(os.environ["PYTHONPATH"].split(os.pathsep)[0], start, time.time())
"""


@pytest.mark.parametrize("swap", [False, True])
def test_pair_runs_program_and_reference_in_turns(tmp_path, swap):
    runner = run.Runner(ROOT, str(tmp_path))
    t0 = time.time()
    prog, ref = runner.pair([sys.executable, "-c", _BUSY], swap)
    elapsed = time.time() - t0
    assert prog.code == ref.code == 0
    p_path, p_start, p_end = prog.stdout.split()
    r_path, r_start, r_end = ref.stdout.split()
    assert p_path.decode() == os.path.join(ROOT, "src") and r_path.decode() == run.REFERENCE
    # Each ran while the other was stopped: their lives overlap, but the
    # pair took as long as the two together.
    assert float(p_start) < float(r_end) and float(r_start) < float(p_end)
    assert elapsed > 0.55
    for side in (prog, ref):
        assert 0.3 <= side.cpu_s <= side.wall_s * 1.1


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = {name: unit for name, (_, unit) in tracer.layer_metrics([], ops=1).items()}
    reported["trace.overhead_ratio"] = "ratio"
    assert declared == reported
