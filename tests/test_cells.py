from __future__ import annotations

import ast
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

import pytest

from foldstab import cells
from foldstab.cells import (
    CellCache,
    CellClassification,
    classify_cell,
    f_constraint_rows,
    f_constraints,
    fold_charge,
    in_half_plane,
    numerical_constraints,
    slices_equal,
    vertex_functionals_to_heart,
    verify_classification,
)
from foldstab.errors import InternalError
from foldstab.hearts import (
    build_interval_eg,
    heart_k_matrix,
    heart_label,
    is_f_stable,
    make_heart,
    seed_heart,
)
from foldstab.linalg import int_identity, integer_left_kernel, mat_mul, unimodular_solve
from foldstab.quiver import Automorphism, euler_form_cy3, fold
from foldstab.ratlp import Infeasibility, solve_strict_system, verify_infeasibility
from foldstab.reps import Catalog
from foldstab.specfile import parse_quiver
from oracles import _im_system, _re_system, branch_classify_cell, expand_certificate
from properties import seeded_dynkin_spec

F = Fraction


def test_numerical_constraints_seed_a3(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    rows = numerical_constraints(cat_a3, seed)
    assert rows == ((F(1), F(0), F(-1)),)


def test_numerical_constraints_a2_empty(cat_a2) -> None:
    assert numerical_constraints(cat_a2, seed_heart(cat_a2)) == ()


def test_f_constraint_rows(flip_a3, rot_d4) -> None:
    assert f_constraint_rows(flip_a3) == ((1, 0, -1),)
    assert f_constraint_rows(rot_d4) == ((0, 1, -1, 0), (0, 0, 1, -1))


def test_d4_kernel_inside_f_span(q_d4, rot_d4, swap_d4) -> None:
    kernel = integer_left_kernel(euler_form_cy3(q_d4))
    f_rows = f_constraint_rows(rot_d4)
    assert all(slices_equal(f_rows, f_rows + (k,)) for k in kernel)
    assert slices_equal(kernel, f_rows)
    swap_rows = f_constraint_rows(swap_d4)
    assert not all(slices_equal(swap_rows, swap_rows + (k,)) for k in kernel)


def test_a3_numerical_equals_f_slice_on_every_heart(cat_a3, flip_a3) -> None:
    for heart in build_interval_eg(cat_a3).hearts:
        num = numerical_constraints(cat_a3, heart)
        stab = f_constraints(cat_a3, flip_a3, heart)
        assert slices_equal(num, stab)


def test_classification_matches_f_stability(cat_a3, flip_a3) -> None:
    eg = build_interval_eg(cat_a3)
    perm = cat_a3.transport_index(flip_a3)
    feasible_labels = set()
    stable_labels = set()
    for heart in eg.hearts:
        rows = numerical_constraints(cat_a3, heart)
        cls = classify_cell(rows, 3)
        assert verify_classification(rows, cls, 3)
        if cls.feasible:
            feasible_labels.add(heart_label(cat_a3, heart))
        if is_f_stable(perm, heart):
            stable_labels.add(heart_label(cat_a3, heart))
    assert feasible_labels == stable_labels
    assert len(feasible_labels) == 6


def test_top_heart_infeasible_with_branch_certificates(cat_a3) -> None:
    eg = build_interval_eg(cat_a3)
    top = next(h for h in eg.hearts if heart_label(cat_a3, h) == "{T1, T2, X3^1}")
    rows = numerical_constraints(cat_a3, top)
    cls = classify_cell(rows, 3)
    assert not cls.feasible
    assert cls.witness is None
    # C = (1 1 1) kills no y > 0: lambda = (1, 1, 1) and mu = (-1,) prove it.
    assert cls.certificates == (Infeasibility((1, 1, 1), (-1,)),)
    assert verify_classification(rows, cls, 3)
    # lambda is positive off every branch but the one with all three on the
    # real axis, where x1 + x2 + x3 = 0 has no solution with x > 0.
    branches = expand_certificate(cls.certificates[0], 3)
    assert [(c.real_axis, c.axis) for c in branches] == [
        ((), "im"), ((0,), "im"), ((1,), "im"), ((2,), "im"),
        ((0, 1), "im"), ((0, 2), "im"), ((1, 2), "im"), ((0, 1, 2), "re"),
    ]


def test_feasible_witness_structure(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    rows = numerical_constraints(cat_a3, seed)
    cls = classify_cell(rows, 3)
    assert cls.feasible
    assert cls.certificates is None
    assert len(cls.witness) == 3
    assert all(in_half_plane(z) for z in cls.witness)
    for row in rows:
        assert sum(c * z[0] for c, z in zip(row, cls.witness)) == 0
        assert sum(c * z[1] for c, z in zip(row, cls.witness)) == 0


def test_unconstrained_cell_feasible() -> None:
    cls = classify_cell((), 2)
    assert cls.feasible
    assert verify_classification((), cls, 2)


def test_fully_pinched_cell() -> None:
    rows = ((1, 0), (0, 1))
    cls = classify_cell(rows, 2)
    assert not cls.feasible
    # ker C = 0 holds no y > 0, and y_1 = 0 alone says so.
    assert cls.certificates == (Infeasibility((1, 0), (-1, 0)),)
    assert verify_classification(rows, cls, 2)
    branches = expand_certificate(cls.certificates[0], 2)
    assert [(c.real_axis, c.axis) for c in branches] == [
        ((), "im"), ((0,), "re"), ((1,), "im"), ((0, 1), "re"),
    ]


def test_verify_rejects_tampering(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    rows = numerical_constraints(cat_a3, seed)
    cls = classify_cell(rows, 3)
    bad = CellClassification(True, ((F(1), F(1)), (F(1), F(1)), (F(2), F(1))), None)
    assert not verify_classification(rows, bad, 3)
    off_plane = CellClassification(True, ((F(0), F(0)),) * 3, None)
    assert not verify_classification((), off_plane, 3)
    assert not verify_classification(rows, CellClassification(False, None, None), 3)
    assert not verify_classification(rows, CellClassification(False, None, ()), 3)


def test_in_half_plane() -> None:
    assert in_half_plane((F(0), F(1)))
    assert in_half_plane((F(3), F(0)))
    assert not in_half_plane((F(0), F(0)))
    assert not in_half_plane((F(-1), F(0)))
    assert not in_half_plane((F(1), F(-1)))


def test_vertex_functionals_roundtrip(cat_a3) -> None:
    seed = seed_heart(cat_a3)
    rows = vertex_functionals_to_heart(cat_a3, seed, ((1, 2, 3),))
    assert rows == ((F(1), F(2), F(3)),)


@pytest.mark.parametrize("name", ["cat_a3", "cat_d4", "cat_a5"])
def test_heart_basis_inverse_on_every_heart(name, request) -> None:
    """Every heart's K-matrix has an integral inverse: X K = I from one
    unimodular solve."""
    catalog = request.getfixturevalue(name)
    n = len(catalog.quiver.vertices)
    for heart in build_interval_eg(catalog).hearts:
        binv = unimodular_solve(heart_k_matrix(catalog, heart), int_identity(n))
        assert all(type(x) is int for row in binv for x in row)
        assert mat_mul(binv, heart_k_matrix(catalog, heart)) == int_identity(n)


def test_heart_basis_inverse_rejects_a_non_basis(cat_a3, cat_d4) -> None:
    # e1, e2 and e1 + e2 are dependent; three leaves of D4 and its highest
    # root span a sublattice of index 2.
    singular = make_heart((cat_a3.by_dims[d], 0) for d in ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(InternalError, match="heart {.*} is not unimodular: matrix is singular"):
        vertex_functionals_to_heart(cat_a3, singular, int_identity(3))
    top = max(cat_d4.roots, key=sum)
    leaves = [tuple(int(i == j) for j in range(4)) for i in range(4) if top[i] == 1]
    index_two = make_heart((cat_d4.by_dims[d], 0) for d in leaves + [top])
    label = heart_label(cat_d4, index_two)
    with pytest.raises(InternalError, match="determinant -?2 is not") as info:
        numerical_constraints(cat_d4, index_two)
    assert label in str(info.value)


def test_slices_equal() -> None:
    a = ((F(1), F(0)), (F(0), F(1)))
    b = ((F(1), F(1)), (F(1), F(-1)))
    assert slices_equal(a, b)
    assert not slices_equal(a, ((F(1), F(0)),))
    assert slices_equal((), ())
    assert not slices_equal((), ((F(1), F(0)),))
    assert slices_equal(((F(0), F(0)),), ())


def test_charge_fold_unfold(q_a3, flip_a3) -> None:
    vq = fold(q_a3, flip_a3)
    charge = ((F(1), F(2)), (F(0), F(3)), (F(1), F(2)))
    folded = fold_charge(vq, charge)
    assert set(folded) == {(F(2), F(4)), (F(0), F(3))}


# ---------------------------------------------------------------- one LP against the branch oracle

SPECS = Path(__file__).resolve().parent.parent / "specs"
FIXTURES = ("a1_trivial", "a2_chain", "a3_flip", "a5_flip", "d4_swap", "d4_triality", "e6_fold")


@cache
def _fixture(name: str):
    q, s = parse_quiver((SPECS / f"{name}.toml").read_text(encoding="utf-8"))
    catalog = Catalog(q)
    return catalog, s or Automorphism.identity(q), build_interval_eg(catalog).hearts


def _cells(name: str, family: str):
    """(constraints, n) of every heart of a fixture, for one constraint family."""
    catalog, s, hearts = _fixture(name)
    for heart in hearts:
        if family == "numerical":
            rows = numerical_constraints(catalog, heart)
        else:
            rows = f_constraints(catalog, s, heart)
        yield rows, len(heart.simples)


@cache
def _empty_cells(name: str, family: str):
    """(constraints, n, classification) of every empty cell of a fixture."""
    classified = ((rows, n, classify_cell(rows, n)) for rows, n in _cells(name, family))
    return tuple(cell for cell in classified if not cell[2].feasible)


def _shape(cls: CellClassification, certificates):
    """Verdict, witness and the branches that the certificates rule out, in order."""
    covered = None if certificates is None else tuple(c.real_axis for c in certificates)
    return cls.feasible, cls.witness, covered


@pytest.mark.parametrize(
    "name,family",
    [
        (name, family)
        for name in ("a3_flip", "d4_swap", "d4_triality", "a5_flip")
        for family in ("numerical", "f")
    ]
    + [("e6_fold", "numerical")],
)
def test_chain_agrees_with_branch_oracle(name, family) -> None:
    oracle = {}
    for rows, n in _cells(name, family):
        cls = classify_cell(rows, n)
        assert verify_classification(rows, cls, n)
        if (rows, n) not in oracle:
            expected = branch_classify_cell(rows, n)
            oracle[rows, n] = _shape(expected, expected.certificates)
        branches = None if cls.feasible else expand_certificate(cls.certificates[0], n)
        assert _shape(cls, branches) == oracle[rows, n]


@pytest.mark.parametrize("name", FIXTURES)
def test_expanded_chain_proof_certifies_every_branch(name) -> None:
    for family in ("numerical", "f"):
        for rows, n, cls in _empty_cells(name, family):
            branches = expand_certificate(cls.certificates[0], n)
            assert len({c.real_axis for c in branches}) == len(branches) == 2**n
            for c in branches:
                system = _im_system if c.axis == "im" else _re_system
                assert verify_infeasibility(*system(rows, c.real_axis, n), c.certificate)


def test_empty_cells_carry_one_certificate() -> None:
    empty = [cell for name in FIXTURES for f in ("numerical", "f") for cell in _empty_cells(name, f)]
    assert len(empty) == 1058
    assert all(len(cls.certificates) == 1 for _, _, cls in empty)
    # Each stands for 2^n branch certificates, 54,212 over the fixtures.
    assert sum(2**n for _, n, _ in empty) == 54212


def _certificate_mutants(certificates: tuple):
    """Tampered copies of an emptiness proof, named."""
    (cert,) = certificates
    lam, mu = cert
    j = max(range(len(lam)), key=lam.__getitem__)
    negated = lam[:j] + (-lam[j],) + lam[j + 1 :]
    yield "negate a multiplier", (cert._replace(positive_multipliers=negated),)
    yield "zero it", (Infeasibility((0,) * len(lam), (0,) * len(mu)),)
    yield "drop an equality multiplier", (cert._replace(equality_multipliers=mu[:-1]),)
    yield "truncate lambda", (cert._replace(positive_multipliers=lam[:-1]),)
    yield "two certificates", (cert, cert)
    yield "no certificate", ()


@pytest.mark.parametrize("name,family", [("a3_flip", "numerical"), ("d4_swap", "numerical")])
def test_verify_rejects_tampered_branch_certificates(name, family) -> None:
    empty = _empty_cells(name, family)
    assert empty
    rejected = set()
    for rows, n, cls in empty:
        assert verify_classification(rows, cls, n)
        for mutant, tampered in _certificate_mutants(cls.certificates):
            assert not verify_classification(rows, cls._replace(certificates=tampered), n), mutant
            rejected.add(mutant)
    assert len(rejected) == 6


def test_audit_solves_no_lp(monkeypatch) -> None:
    pinched = ((1, 0), (0, 1))
    cases = [(rows, n, classify_cell(rows, n)) for rows, n in _cells("a3_flip", "numerical")]
    cases.append((pinched, 2, classify_cell(pinched, 2)))
    monkeypatch.setattr(cells, "solve_strict_system", None)
    assert any(not cls.feasible for _, _, cls in cases)
    for rows, n, cls in cases:
        assert verify_classification(rows, cls, n)


@pytest.mark.parametrize("name,family", [("d4_swap", "numerical"), ("a5_flip", "f")])
def test_classify_cell_costs_one_solve(name, family, monkeypatch) -> None:
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_strict_system(*args)

    monkeypatch.setattr(cells, "solve_strict_system", counted)
    for rows, n in [*_cells(name, family), ((), 4)]:
        calls.clear()
        classify_cell(rows, n)
        assert len(calls) == (1 if rows else 0)


def test_unconstrained_cell_runs_no_lp(monkeypatch) -> None:
    monkeypatch.setattr(cells, "solve_strict_system", None)
    for n in range(1, 7):
        assert classify_cell((), n) == CellClassification(True, ((F(0), F(1)),) * n, None)


# ---------------------------------------------------------------- integer answers


def _is_int_vector(v) -> bool:
    return all(type(x) is int for x in v)


@pytest.mark.parametrize("name", FIXTURES)
def test_witnesses_and_certificates_are_primitive_integer_vectors(name) -> None:
    """Constraint rows are integral; each part of a witness is zero or
    primitive, and each certificate (lambda, mu) has gcd 1."""
    for family in ("numerical", "f"):
        for rows, n in _cells(name, family):
            assert all(_is_int_vector(row) for row in rows)
            cls = classify_cell(rows, n)
            if cls.feasible:
                for part in zip(*cls.witness):
                    assert _is_int_vector(part) and gcd(*part) in (0, 1), (rows, part)
            else:
                for cert in cls.certificates:
                    lm = (*cert.positive_multipliers, *cert.equality_multipliers)
                    assert _is_int_vector(lm) and gcd(*lm) == 1, (rows, lm)


@pytest.mark.parametrize("module", ("ratlp", "cells", "cli"))
def test_lp_path_imports_nothing_from_fractions(module) -> None:
    tree = ast.parse(Path(cells.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imported = {a.name for node in nodes if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert imported and "fractions" not in imported


# ---------------------------------------------------------------- the per-graph cache

# The seeded quivers of tests/test_stdout_digests.py: (family, rank, orientation seed).
SEEDED = {"A7": ("A", 7, 7), "D5": ("D", 5, 5)}


def _graph(name: str):
    if name in SEEDED:
        q, s = parse_quiver(seeded_dynkin_spec(*SEEDED[name]))
        catalog = Catalog(q)
        return catalog, s or Automorphism.identity(q), build_interval_eg(catalog).hearts
    return _fixture(name)


@pytest.mark.parametrize("name", FIXTURES + tuple(SEEDED))
def test_cache_changes_no_classification(name) -> None:
    """One cache for the whole graph, shared by both constraint families:
    every heart's classification, witnesses and certificates included, is
    the one `classify_cell` makes with no cache."""
    catalog, s, hearts = _graph(name)
    cache = CellCache()
    for heart in hearts:
        n = len(heart.simples)
        for rows in (numerical_constraints(catalog, heart), f_constraints(catalog, s, heart)):
            assert classify_cell(rows, n, cache) == classify_cell(rows, n), heart


@pytest.mark.parametrize("name", ("d4_swap", "a5_flip"))
def test_cache_solves_each_lp_once(name, monkeypatch) -> None:
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_strict_system(*args)

    monkeypatch.setattr(cells, "solve_strict_system", counted)
    cells_of_graph = list(_cells(name, "numerical"))
    cache = CellCache()
    for rows, n in cells_of_graph:
        classify_cell(rows, n, cache)
    cached = len(calls)
    assert cached == len(cache.outcomes)
    assert len(cache.cells) == len({cell for cell in cells_of_graph if cell[0]})
    calls.clear()
    for rows, n in cells_of_graph:
        classify_cell(rows, n)
    assert cached < len(calls) / 2


def test_cache_keys_include_n() -> None:
    """Full-rank rows have an empty kernel whatever n is; the LPs differ."""
    cache = CellCache()
    for n in (1, 2, 3):
        rows = int_identity(n)
        assert classify_cell(rows, n, cache) == classify_cell(rows, n)
