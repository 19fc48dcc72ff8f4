from __future__ import annotations

from foldstab.quiver import Automorphism

from properties import (
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
