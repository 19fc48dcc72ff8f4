from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest

from oracles import EnumeratedCoxeterSystem

from foldstab.braid import (
    CoxeterSystem,
    cartan_for_type,
    normal_form,
    orbit_words,
    parse_word,
    render_nf,
    twist_k_matrix,
    verify_folded_relations,
    words_equal,
)
from foldstab.errors import InputError, UnsupportedTypeError
from foldstab.quiver import euler_form_cy3
from foldstab.specfile import parse_quiver


def test_cartan_pins() -> None:
    assert cartan_for_type("A", 2) == ((2, -1), (-1, 2))
    assert cartan_for_type("B", 2) == ((2, -2), (-1, 2))
    assert cartan_for_type("C", 2) == ((2, -1), (-2, 2))
    assert cartan_for_type("G", 2) == ((2, -3), (-1, 2))
    with pytest.raises(UnsupportedTypeError):
        cartan_for_type("G", 3)
    with pytest.raises(UnsupportedTypeError):
        cartan_for_type("Z", 2)


def test_weyl_group_orders() -> None:
    assert CoxeterSystem.from_type("A", 3).order == 24
    assert CoxeterSystem.from_type("B", 2).order == 8
    assert CoxeterSystem.from_type("G", 2).order == 12
    assert CoxeterSystem.from_type("B", 3).order == 48
    assert CoxeterSystem.from_type("C", 3).order == 48
    assert CoxeterSystem.from_type("D", 4).order == 192


def test_from_quiver_slots(q_a3) -> None:
    system, slot_of = CoxeterSystem.from_quiver(q_a3)
    assert system.order == 24
    assert slot_of == {1: 0, 2: 1, 3: 2}


@pytest.mark.parametrize(
    "spec, family, rank",
    [("a3_flip", "A", 3), ("d4_swap", "D", 4), ("a5_flip", "A", 5), ("e6_fold", "E", 6)],
)
def test_from_quiver_cartan_is_in_dynkin_order(spec, family, rank) -> None:
    path = Path(__file__).resolve().parent.parent / "specs" / f"{spec}.toml"
    q, _ = parse_quiver(path.read_text(encoding="utf-8"))
    system, _ = CoxeterSystem.from_quiver(q)
    assert system.cartan == cartan_for_type(family, rank)


def test_longest_element(q_a3) -> None:
    system, _ = CoxeterSystem.from_quiver(q_a3)
    assert system.left_descents(system.w0) == (0, 1, 2)
    assert system.right_descents(system.w0) == (0, 1, 2)
    assert system.reduced_word(system.w0) == (0, 1, 0, 2, 1, 0)
    assert system.tau(system.gens[0]) == system.gens[2]
    assert system.tau(system.gens[1]) == system.gens[1]


def test_parse_word() -> None:
    assert parse_word("1 2 1^-1") == ((0, 1), (1, 1), (0, -1))
    assert parse_word("1,2") == ((0, 1), (1, 1))
    assert parse_word("2^3") == ((1, 1), (1, 1), (1, 1))
    assert parse_word("2^-2") == ((1, -1), (1, -1))
    assert parse_word("") == ()
    with pytest.raises(InputError, match="numbered from 1"):
        parse_word("0 1")
    with pytest.raises(InputError, match="bad braid letter 'x'"):
        parse_word("x")


def test_normal_form_basics() -> None:
    system = CoxeterSystem.from_type("A", 2)
    assert normal_form(system, parse_word("1 1^-1")).is_trivial()
    assert render_nf(system, normal_form(system, parse_word(""))) == "e"
    assert render_nf(system, normal_form(system, parse_word("1 2 1"))) == "D"
    assert render_nf(system, normal_form(system, parse_word("1 2 1 1 2 1"))) == "D^2"
    assert render_nf(system, normal_form(system, parse_word("1^-1"))) == "D^-1 . 12"
    assert render_nf(system, normal_form(system, parse_word("1 1"))) == "1 . 1"


def test_normal_form_rejects_bad_letters() -> None:
    system = CoxeterSystem.from_type("A", 2)
    with pytest.raises(InputError, match="out of range"):
        normal_form(system, ((5, 1),))
    with pytest.raises(InputError, match="exponent"):
        normal_form(system, ((0, 2),))


def test_braid_relation_a2() -> None:
    system = CoxeterSystem.from_type("A", 2)
    assert words_equal(system, parse_word("1 2 1"), parse_word("2 1 2"))
    assert not words_equal(system, parse_word("1 2"), parse_word("2 1"))


def test_inverse_cancels_everywhere() -> None:
    system = CoxeterSystem.from_type("B", 2)
    word = parse_word("1 2 2 1 2")
    inv = tuple((s, -e) for s, e in reversed(word))
    assert normal_form(system, word + inv).is_trivial()
    assert normal_form(system, inv + word).is_trivial()


def test_delta_squared_is_central() -> None:
    system = CoxeterSystem.from_type("A", 3)
    delta2 = parse_word("1 3 2 1 3 2 1 3 2 1 3 2")
    for g in ("1", "2", "3"):
        assert words_equal(
            system, delta2 + parse_word(g), parse_word(g) + delta2
        )


def test_a3_half_twist_squares_to_delta(q_a3) -> None:
    system, _ = CoxeterSystem.from_quiver(q_a3)
    lhs = normal_form(system, parse_word("1 3 2 1 3 2"))
    assert render_nf(system, lhs) == "D"
    assert words_equal(system, parse_word("1 3 2 1 3 2"), parse_word("2 1 3 2 1 3"))


def test_folded_relations_a3(q_a3, flip_a3) -> None:
    checks, name = verify_folded_relations(q_a3, flip_a3)
    assert name == "B2"
    assert len(checks) == 1
    c = checks[0]
    assert c.exponent == 4
    assert c.holds
    assert c.lhs_nf == c.rhs_nf


def test_folded_relations_d4(q_d4, rot_d4, swap_d4) -> None:
    checks, name = verify_folded_relations(q_d4, rot_d4)
    assert name == "G2"
    assert [c.exponent for c in checks] == [6]
    assert all(c.holds for c in checks)
    checks, name = verify_folded_relations(q_d4, swap_d4)
    assert name == "B3"
    assert sorted(c.exponent for c in checks) == [2, 3, 4]
    assert all(c.holds for c in checks)


def test_folded_relations_a5(q_a5, flip_a5) -> None:
    checks, name = verify_folded_relations(q_a5, flip_a5)
    assert name == "C3"
    assert sorted(c.exponent for c in checks) == [2, 3, 4]
    assert all(c.holds for c in checks)


def test_folded_relations_identity(q_a2) -> None:
    from foldstab.quiver import Automorphism

    checks, name = verify_folded_relations(q_a2, Automorphism.identity(q_a2))
    assert name == "A2"
    assert [c.exponent for c in checks] == [3]
    assert all(c.holds for c in checks)


def test_orbit_words(q_a3, flip_a3) -> None:
    _, slot_of = CoxeterSystem.from_quiver(q_a3)
    words = orbit_words(q_a3, flip_a3, slot_of)
    assert words == {1: (0, 2), 2: (1,)}


def test_twist_matrices(cat_a3) -> None:
    form = euler_form_cy3(cat_a3.quiver).matrix
    n = 3
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for r in cat_a3.reps:
        t = twist_k_matrix(tuple(r.dims), form)
        square = tuple(
            tuple(sum(t[i][k] * t[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        nilpotent = tuple(
            tuple(square[i][j] - 2 * t[i][j] + ident[i][j] for j in range(n))
            for i in range(n)
        )
        assert all(all(x == 0 for x in row) for row in nilpotent)


def test_twist_preserves_pairing(cat_a3) -> None:
    form = euler_form_cy3(cat_a3.quiver)
    m = form.matrix
    n = 3
    v = (1, 1, 0)
    t = twist_k_matrix(v, m)
    for x in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
        for y in ((0, 0, 1), (1, 1, 0), (0, 1, 1)):
            tx = tuple(sum(t[i][k] * x[k] for k in range(n)) for i in range(n))
            ty = tuple(sum(t[i][k] * y[k] for k in range(n)) for i in range(n))
            assert form.evaluate(tx, ty) == form.evaluate(x, y)


def test_e6_fold_relations() -> None:
    spec = Path(__file__).resolve().parent.parent / "specs" / "e6_fold.toml"
    with open(spec, encoding="utf-8") as fh:
        q, s = parse_quiver(fh.read())
    checks, name = verify_folded_relations(q, s)
    assert name == "F4"
    assert sorted(c.exponent for c in checks) == [2, 2, 2, 3, 3, 4]
    assert all(c.holds for c in checks)


ORACLE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]


@lru_cache(maxsize=None)
def _oracle(family: str, rank: int) -> EnumeratedCoxeterSystem:
    return EnumeratedCoxeterSystem(cartan_for_type(family, rank))


@pytest.mark.parametrize("family, rank", ORACLE_TYPES)
def test_descents_match_enumeration(family, rank) -> None:
    system = CoxeterSystem.from_type(family, rank)
    oracle = _oracle(family, rank)
    assert system.order == oracle.order
    assert system.w0 == oracle.w0
    for w in oracle.length:
        assert system.left_descents(w) == oracle.left_descents(w)
        assert system.right_descents(w) == oracle.right_descents(w)


@pytest.mark.parametrize("family, rank", ORACLE_TYPES)
def test_normal_forms_match_enumeration(family, rank) -> None:
    system = CoxeterSystem.from_type(family, rank)
    oracle = _oracle(family, rank)
    rng = random.Random(100 * rank + ord(family))
    for _ in range(6):
        word = tuple(
            (rng.randrange(rank), rng.choice((1, -1))) for _ in range(rng.randint(1, 14))
        )
        nf = normal_form(system, word)
        assert nf == normal_form(oracle, word)
        assert render_nf(system, nf) == render_nf(oracle, nf)


def test_e6_short_elements_match_truncated_enumeration() -> None:
    system = CoxeterSystem.from_type("E", 6)
    oracle = EnumeratedCoxeterSystem(cartan_for_type("E", 6), max_length=5)
    # Coefficients of the Poincare polynomial, degrees 2, 5, 6, 8, 9, 12.
    assert len(oracle.length) == 1 + 6 + 20 + 50 + 105 + 195
    for w, length in oracle.length.items():
        assert len(system.reduced_word(w)) == length
        assert system.left_descents(w) == oracle.left_descents(w)
        assert system.right_descents(w) == oracle.right_descents(w)


@pytest.mark.parametrize(
    "rank, order, positive_roots", [(6, 51840, 36), (7, 2903040, 63), (8, 696729600, 120)]
)
def test_e_series_order_and_longest_word(rank, order, positive_roots) -> None:
    system = CoxeterSystem.from_type("E", rank)
    assert system.order == order
    assert len(system.reduced_word(system.w0)) == positive_roots
