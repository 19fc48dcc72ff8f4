from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from foldstab import ratlp
from foldstab.cells import classify_cell, f_constraints, numerical_constraints
from foldstab.hearts import build_interval_eg
from foldstab.linalg import scaled_to_ints
from foldstab.ratlp import (
    Infeasibility,
    Witness,
    solve_strict_system,
    verify_infeasibility,
)
from foldstab.reps import Catalog
from foldstab.specfile import parse_quiver
from oracles import fraction_simplex_max

F = Fraction


def _rows(*rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)


def _check(equalities, positives, res) -> None:
    if isinstance(res, Witness):
        for e in equalities:
            assert sum(c * t for c, t in zip(e, res.point)) == 0
        for p in positives:
            assert sum(c * t for c, t in zip(p, res.point)) > 0
    else:
        assert verify_infeasibility(equalities, positives, res)


def test_no_positives_gives_zero_witness() -> None:
    res = solve_strict_system(_rows((1, 1)), (), 2)
    assert isinstance(res, Witness)
    assert res.point == (0, 0)


def test_unconstrained_positive() -> None:
    pos = _rows((1, 0), (0, 1))
    res = solve_strict_system((), pos, 2)
    assert isinstance(res, Witness)
    _check((), pos, res)


def test_feasible_with_equality() -> None:
    eqs = _rows((1, 1, 1))
    pos = _rows((1, -1, 0), (0, 0, 1))
    res = solve_strict_system(eqs, pos, 3)
    assert isinstance(res, Witness)
    _check(eqs, pos, res)


def test_opposite_rows_infeasible() -> None:
    pos = _rows((1, 0), (-1, 0))
    res = solve_strict_system((), pos, 2)
    assert isinstance(res, Infeasibility)
    _check((), pos, res)
    lam = res.positive_multipliers
    assert all(l >= 0 for l in lam)
    assert sum(lam) >= 1
    assert res.equality_multipliers == ()


def test_equality_pins_variable_to_zero() -> None:
    eqs = _rows((1, 0),)
    pos = _rows((1, 0),)
    res = solve_strict_system(eqs, pos, 2)
    assert isinstance(res, Infeasibility)
    _check(eqs, pos, res)
    lam, mu = res.positive_multipliers, res.equality_multipliers
    assert len(mu) == 1
    assert lam[0] * 1 + mu[0] * 1 == 0


def test_full_rank_equalities_kill_everything() -> None:
    eqs = _rows((1, 0), (0, 1))
    pos = _rows((1, 1),)
    res = solve_strict_system(eqs, pos, 2)
    assert isinstance(res, Infeasibility)
    _check(eqs, pos, res)


def test_three_rows_summing_to_zero() -> None:
    pos = _rows((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    res = solve_strict_system((), pos, 3)
    assert isinstance(res, Infeasibility)
    _check((), pos, res)


def test_near_degenerate_feasible() -> None:
    eqs = _rows((1, 1, -2),)
    pos = _rows((1, -1, 0), (1, 2, -3))
    res = solve_strict_system(eqs, pos, 3)
    _check(eqs, pos, res)


def test_witness_is_normalized() -> None:
    pos = _rows((2, 0), (0, 3))
    res = solve_strict_system((), pos, 2)
    assert isinstance(res, Witness)
    assert all(t.denominator == 1 for t in res.point)
    from math import gcd

    g = 0
    for t in res.point:
        g = gcd(g, abs(int(t)))
    assert g == 1


def test_verify_rejects_bad_certificates() -> None:
    eqs = _rows((1, 0),)
    pos = _rows((1, 0),)
    good = solve_strict_system(eqs, pos, 2)
    assert isinstance(good, Infeasibility)
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(-1),), good.equality_multipliers))
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(0),), (F(0),)))
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(1),), (F(5),)))
    assert not verify_infeasibility(eqs, pos, Infeasibility((), ()))


def test_verify_rejects_ragged_rows() -> None:
    """Truncating to the shortest row would leave lambda P = (0, 5) unseen."""
    assert not verify_infeasibility((), ((1,), (-1, 5)), Infeasibility((1, 1), ()))
    assert not verify_infeasibility(((0,),), ((1, 0), (-1, 0)), Infeasibility((1, 1), (0,)))
    assert verify_infeasibility(((0, 1),), ((1, 0), (-1, 0)), Infeasibility((1, 1), (0,)))


def test_random_systems_always_decided() -> None:
    import random

    rng = random.Random(11)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        eqs = _rows(
            *[
                [rng.randint(-2, 2) for _ in range(nvars)]
                for _ in range(rng.randint(0, 2))
            ]
        )
        pos = _rows(
            *[
                [rng.randint(-2, 2) for _ in range(nvars)]
                for _ in range(rng.randint(1, 4))
            ]
        )
        res = solve_strict_system(eqs, pos, nvars)
        _check(eqs, pos, res)


def test_verify_clears_denominators_of_fraction_rows() -> None:
    pos = ((F(1, 2), F(0)), (F(-1, 3), F(0)))
    eqs = ((F(0), F(2, 7)),)
    assert verify_infeasibility(eqs, pos, Infeasibility((F(2, 5), F(3, 5)), (F(0),)))
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(1, 5), F(3, 5)), (F(0),)))
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(1, 5), F(3, 10)), (F(0),)))
    assert not verify_infeasibility(eqs, pos, Infeasibility((F(2, 5), F(3, 5)), (F(1, 9),)))


# ---------------------------------------------------------------- simplex against its oracle

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _recorded_lps(monkeypatch, run) -> list:
    """The (a, b, c) of every LP that `run` hands to the simplex."""
    lps = []
    simplex = ratlp._simplex_max

    def recorder(a, b, c):
        lps.append(([list(r) for r in a], list(b), list(c)))
        return simplex(a, b, c)

    monkeypatch.setattr(ratlp, "_simplex_max", recorder)
    run()
    monkeypatch.undo()
    return lps


def _assert_same_as_oracle(lps) -> None:
    """The integer simplex's answers over its d equal the Fraction tableau's."""
    for a, b, c in lps:
        d, value, x, duals = ratlp._simplex_max(a, b, c)
        assert d > 0
        ours = F(value, d), tuple(F(v, d) for v in x), tuple(F(v, d) for v in duals)
        fa = [[F(v) for v in row] for row in a]
        assert ours == fraction_simplex_max(fa, [F(v) for v in b], [F(v) for v in c]), (a, b, c)


def test_simplex_matches_fraction_oracle_on_cell_lps(monkeypatch) -> None:
    def classify_every_cell():
        for name in ("a3_flip", "d4_swap", "d4_triality", "a5_flip"):
            q, s = parse_quiver((SPECS / f"{name}.toml").read_text(encoding="utf-8"))
            catalog = Catalog(q)
            for heart in build_interval_eg(catalog).hearts:
                n = len(heart.simples)
                classify_cell(numerical_constraints(catalog, heart), n)
                classify_cell(f_constraints(catalog, s, heart), n)

    lps = _recorded_lps(monkeypatch, classify_every_cell)
    assert len(lps) > 1000
    _assert_same_as_oracle(lps)


def test_simplex_matches_fraction_oracle_on_random_systems(monkeypatch) -> None:
    """Entries drawn over denominators 2, 3 and 7, each row scaled to
    integers, which keeps its solution set.  Every LP starts with all but
    its last row at ratio 0, so with two or more strict rows Bland's
    tie-break picks the first pivot."""
    rng = random.Random(7)
    scales = []

    def row(nvars):
        drawn = [F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 7))) for _ in range(nvars)]
        ints, s = scaled_to_ints(drawn)
        scales.append(s)
        return tuple(ints)

    def solve_random_systems():
        for _ in range(2000):
            nvars = rng.randint(1, 4)
            eqs = tuple(row(nvars) for _ in range(rng.randint(0, 2)))
            pos = tuple(row(nvars) for _ in range(rng.randint(1, 4)))
            _check(eqs, pos, solve_strict_system(eqs, pos, nvars))

    lps = _recorded_lps(monkeypatch, solve_random_systems)
    assert len(lps) >= 2000
    assert 7 in scales
    _assert_same_as_oracle(lps)
