import random

import pytest

from _oracle import relative_state
from occlusim.geometry import Vec2


def actor(px, py, vx, vy, r):
    return (px, py), (vx, vy), r


def test_relative_state_paper_geometry():
    # Stationary pedestrian 10 m ahead of the AV with the standard radii.
    ped = actor(10.0, 0.0, 0.0, 0.0, 1.524)
    av = actor(0.0, 0.0, 0.0, 0.0, 2.22504)
    x, y, vx, vy, r_sum = relative_state(ped, av)
    assert (x, y, vx, vy) == (10.0, 0.0, 0.0, 0.0)
    assert r_sum == pytest.approx(3.74904, abs=1e-12)


def test_relative_state_identity_case():
    a = actor(3.0, -2.0, 1.0, 4.0, 1.0)
    b = actor(3.0, -2.0, 1.0, 4.0, 1.0)
    assert relative_state(a, b) == (0.0, 0.0, 0.0, 0.0, 2.0)


def test_relative_state_componentwise():
    ped = actor(5.0, 3.0, 0.0, -1.2192, 1.524)
    av = actor(1.0, 1.0, 20.0, 0.0, 2.22504)
    x, y, vx, vy, r_sum = relative_state(ped, av)
    assert (x, y, vx, vy) == (4.0, 2.0, -20.0, -1.2192)
    assert r_sum == pytest.approx(3.74904, abs=1e-12)


def test_relative_state_antisymmetry():
    rng = random.Random(7)
    for _ in range(50):
        a = actor(rng.uniform(-50, 50), rng.uniform(-50, 50),
                  rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0.1, 3))
        b = actor(rng.uniform(-50, 50), rng.uniform(-50, 50),
                  rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0.1, 3))
        x, y, vx, vy, r_sum = relative_state(a, b)
        assert relative_state(b, a) == (-x, -y, -vx, -vy, r_sum)


def test_vec_ops():
    # Vec2 holds a position: two fields, no per-instance dict.
    v = Vec2(3.0, 4.0)
    assert (v.x, v.y) == (3.0, 4.0)
    assert Vec2.__slots__ == ("x", "y")
    assert not hasattr(v, "__dict__")
