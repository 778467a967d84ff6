import math
import random

import pytest

from _oracle import brute_force_ttc
from occlusim.geometry import ActorState, Vec2
from occlusim.ttc import ttc

PED_R = 1.524
AV_R = 2.22504
R_SUM = PED_R + AV_R


def rel_ttc(x, y, vx, vy, ped_r=PED_R, av_r=AV_R):
    """ttc() of a pedestrian at (x, y) moving at (vx, vy) relative to a
    stationary AV at the origin."""
    return ttc(ActorState(Vec2(x, y), Vec2(vx, vy), ped_r),
               ActorState(Vec2(0.0, 0.0), Vec2(0.0, 0.0), av_r))


class TestQuadraticCoeffs:
    """The contact quadratic's coefficients, seen through ttc()."""

    def test_head_on(self):
        # a = 100, b = -300, c = 900 - R^2, d = b^2 - a c: the first root.
        c = 900.0 - R_SUM * R_SUM
        expected = c / (300.0 + math.sqrt(300.0 * 300.0 - 100.0 * c))
        assert rel_ttc(30.0, 0.0, -10.0, 0.0) == expected

    def test_perpendicular_motion_zeroes_b(self):
        # b = 0: the pair is at closest approach now, so outside contact
        # range there is no future contact, and inside it the TTC is 0.
        assert rel_ttc(0.0, 10.0, 5.0, 0.0) is None
        assert rel_ttc(0.0, 3.0, 5.0, 0.0) == 0.0

    def test_zero_relative_velocity(self):
        # a = 0 with both actors moving: never touches from outside.
        out = ttc(ActorState(Vec2(20.0, 0.0), Vec2(7.0, -1.0), PED_R),
                  ActorState(Vec2(0.0, 0.0), Vec2(7.0, -1.0), AV_R))
        assert out is None


class TestClassify:
    def test_head_on_closed_form(self):
        out = rel_ttc(30.0, 0.0, -10.0, 0.0)
        # Head-on: (gap - contact radius) / closing speed.
        assert out == pytest.approx((30.0 - R_SUM) / 10.0, rel=1e-12)
        assert out == pytest.approx(2.625096, abs=1e-9)

    def test_negative_discriminant_is_invalid(self):
        assert rel_ttc(0.0, 10.0, 5.0, -0.1) is None

    def test_receding_is_invalid(self):
        assert rel_ttc(30.0, 0.0, 10.0, 0.0) is None

    def test_overlap_reports_zero(self):
        assert rel_ttc(1.0, 0.0, -10.0, 0.0) == 0.0

    def test_exact_touch_reports_zero(self):
        # |X| = R exactly (c = 0) while closing.
        assert rel_ttc(2.0, 0.0, -2.0, 0.0, ped_r=1.0, av_r=1.0) == 0.0

    def test_stationary_outside_is_invalid(self):
        assert rel_ttc(20.0, 0.0, 0.0, 0.0) is None

    def test_stationary_overlapping_is_zero(self):
        assert rel_ttc(1.0, 0.0, 0.0, 0.0) == 0.0

    def test_tangency_double_root(self):
        # Offset exactly r_sum laterally: the path grazes at one instant.
        out = rel_ttc(30.0, R_SUM, -10.0, 0.0)
        assert out is not None
        assert out == pytest.approx(3.0, rel=1e-6)


class TestTtc:
    def test_stationary_ped_ahead(self):
        ped = ActorState(Vec2(30.0, 0.0), Vec2(0.0, 0.0), 1.524)
        av = ActorState(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.22504)
        assert ttc(ped, av) == pytest.approx(2.625096, abs=1e-9)

    def test_coincident_actors_report_zero(self):
        ped = ActorState(Vec2(0.0, 0.0), Vec2(0.0, 1.0), 1.524)
        av = ActorState(Vec2(0.0, 0.0), Vec2(10.0, 0.0), 2.22504)
        assert ttc(ped, av) == 0.0

    def test_oblique_case_matches_oracle(self):
        out = ttc(
            ActorState(Vec2(20.0, 5.0), Vec2(-8.0, -1.0), 1.524),
            ActorState(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 2.22504),
        )
        expected = brute_force_ttc(20.0, 5.0, -8.0, -1.0, R_SUM)
        assert out is not None and expected is not None
        assert out == pytest.approx(expected, abs=1e-4)

    def test_oracle_agreement_random_sample(self):
        rng = random.Random(12345)
        for _ in range(40):
            ang_x = rng.uniform(0, 2 * math.pi)
            ang_v = rng.uniform(0, 2 * math.pi)
            dist = rng.uniform(R_SUM, 120.0)
            speed = rng.uniform(1.0, 40.0)
            x, y = dist * math.cos(ang_x), dist * math.sin(ang_x)
            vx, vy = speed * math.cos(ang_v), speed * math.sin(ang_v)
            got = ttc(
                ActorState(Vec2(x, y), Vec2(vx, vy), 1.524),
                ActorState(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 2.22504),
            )
            want = brute_force_ttc(x, y, vx, vy, R_SUM)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got == pytest.approx(want, abs=1e-4)


class TestInvariants:
    def _random_pair(self, rng):
        ped = ActorState(
            Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100)),
            Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20)),
            1.524,
        )
        av = ActorState(
            Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100)),
            Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20)),
            2.22504,
        )
        return ped, av

    def test_root_correctness(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            ped, av = self._random_pair(rng)
            out = ttc(ped, av)
            if out is None or out == 0.0:
                continue
            checked += 1
            x = ped.pos - av.pos
            v = ped.vel - av.vel
            r = ped.radius + av.radius
            # At the reported time the separation equals the contact radius.
            sep = (x + v.scaled(out)).norm()
            assert sep == pytest.approx(r, rel=1e-6)
            # Strictly separated at sampled earlier times.
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert (x + v.scaled(out * frac)).norm() > r

    def test_translation_and_galilean_invariance(self):
        rng = random.Random(4242)
        for _ in range(40):
            ped, av = self._random_pair(rng)
            base = ttc(ped, av)
            shift = Vec2(rng.uniform(-500, 500), rng.uniform(-500, 500))
            boost = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            shifted = ttc(
                ActorState(ped.pos + shift, ped.vel, ped.radius),
                ActorState(av.pos + shift, av.vel, av.radius),
            )
            boosted = ttc(
                ActorState(ped.pos, ped.vel + boost, ped.radius),
                ActorState(av.pos, av.vel + boost, av.radius),
            )
            for other in (shifted, boosted):
                if base is None:
                    assert other is None
                else:
                    assert other == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_scale_covariance(self):
        rng = random.Random(31)
        for _ in range(40):
            ped, av = self._random_pair(rng)
            base = ttc(ped, av)
            k = rng.uniform(0.1, 10.0)
            scaled = ttc(
                ActorState(ped.pos.scaled(k), ped.vel.scaled(k), ped.radius * k),
                ActorState(av.pos.scaled(k), av.vel.scaled(k), av.radius * k),
            )
            if base is None:
                assert scaled is None
            else:
                assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_stable_root_far_head_on(self):
        # Far-away head-on approach: b^2 dominates a*c, where the naive
        # quadratic formula loses digits.
        out = ttc(
            ActorState(Vec2(2.0e5, 0.0), Vec2(-1.0, 0.0), 1.524),
            ActorState(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 2.22504),
        )
        # The only rounding left is the discriminant's catastrophic-free
        # residual; the naive root would be wrong in the first digits.
        assert out == pytest.approx(2.0e5 - R_SUM, abs=1e-4)
