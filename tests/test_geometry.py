import random

import pytest

from occlusim.geometry import ActorState, Vec2, relative_state


def actor(px, py, vx, vy, r):
    return ActorState(Vec2(px, py), Vec2(vx, vy), r)


def test_relative_state_paper_geometry():
    # Stationary pedestrian 10 m ahead of the AV with the standard radii.
    ped = actor(10.0, 0.0, 0.0, 0.0, 1.524)
    av = actor(0.0, 0.0, 0.0, 0.0, 2.22504)
    rel = relative_state(ped, av)
    assert rel.x_rel == Vec2(10.0, 0.0)
    assert rel.v_rel == Vec2(0.0, 0.0)
    assert rel.r_sum == pytest.approx(3.74904, abs=1e-12)


def test_relative_state_identity_case():
    a = actor(3.0, -2.0, 1.0, 4.0, 1.0)
    b = actor(3.0, -2.0, 1.0, 4.0, 1.0)
    rel = relative_state(a, b)
    assert rel.x_rel == Vec2(0.0, 0.0)
    assert rel.v_rel == Vec2(0.0, 0.0)
    assert rel.r_sum == 2.0


def test_relative_state_componentwise():
    ped = actor(5.0, 3.0, 0.0, -1.2192, 1.524)
    av = actor(1.0, 1.0, 20.0, 0.0, 2.22504)
    rel = relative_state(ped, av)
    assert rel.x_rel == Vec2(4.0, 2.0)
    assert rel.v_rel == Vec2(-20.0, -1.2192)
    assert rel.r_sum == pytest.approx(3.74904, abs=1e-12)


def test_relative_state_antisymmetry():
    rng = random.Random(7)
    for _ in range(50):
        a = actor(rng.uniform(-50, 50), rng.uniform(-50, 50),
                  rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0.1, 3))
        b = actor(rng.uniform(-50, 50), rng.uniform(-50, 50),
                  rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0.1, 3))
        fwd = relative_state(a, b)
        rev = relative_state(b, a)
        assert rev.x_rel == Vec2(-fwd.x_rel.x, -fwd.x_rel.y)
        assert rev.v_rel == Vec2(-fwd.v_rel.x, -fwd.v_rel.y)
        assert rev.r_sum == fwd.r_sum


def test_vec_ops():
    v = Vec2(3.0, 4.0)
    w = Vec2(-1.0, 2.0)
    assert v + w == Vec2(2.0, 6.0)
    assert v - w == Vec2(4.0, 2.0)
    assert v.scaled(2.0) == Vec2(6.0, 8.0)
    assert v.dot(w) == 5.0
    assert v.norm() == 5.0
    assert v.norm_sq() == 25.0

