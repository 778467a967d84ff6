import math
import random

import pytest

from _oracle import brute_force_ttc
from occlusim.ttc import ttc

PED_R = 1.524
AV_R = 2.22504
R_SUM = PED_R + AV_R


class TestQuadraticCoeffs:
    """The contact quadratic's coefficients, seen through ttc()."""

    def test_head_on(self):
        # a = 100, b = -300, c = 900 - R^2, d = b^2 - a c: the first root.
        c = 900.0 - R_SUM * R_SUM
        expected = c / (300.0 + math.sqrt(300.0 * 300.0 - 100.0 * c))
        assert ttc(30.0, 0.0, -10.0, 0.0, R_SUM) == expected

    def test_perpendicular_motion_zeroes_b(self):
        # b = 0: the pair is at closest approach now, so outside contact
        # range there is no future contact, and inside it the TTC is 0.
        assert ttc(0.0, 10.0, 5.0, 0.0, R_SUM) is None
        assert ttc(0.0, 3.0, 5.0, 0.0, R_SUM) == 0.0

    def test_zero_relative_velocity(self):
        # a = 0 with both actors moving at (7, -1): never touches from outside.
        assert ttc(20.0, 0.0, 7.0 - 7.0, -1.0 - -1.0, R_SUM) is None


class TestClassify:
    def test_head_on_closed_form(self):
        out = ttc(30.0, 0.0, -10.0, 0.0, R_SUM)
        # Head-on: (gap - contact radius) / closing speed.
        assert out == pytest.approx((30.0 - R_SUM) / 10.0, rel=1e-12)
        assert out == pytest.approx(2.625096, abs=1e-9)

    def test_negative_discriminant_is_invalid(self):
        assert ttc(0.0, 10.0, 5.0, -0.1, R_SUM) is None

    def test_receding_is_invalid(self):
        assert ttc(30.0, 0.0, 10.0, 0.0, R_SUM) is None

    def test_overlap_reports_zero(self):
        assert ttc(1.0, 0.0, -10.0, 0.0, R_SUM) == 0.0

    def test_exact_touch_reports_zero(self):
        # |X| = R exactly (c = 0) while closing.
        assert ttc(2.0, 0.0, -2.0, 0.0, 1.0 + 1.0) == 0.0

    def test_stationary_outside_is_invalid(self):
        assert ttc(20.0, 0.0, 0.0, 0.0, R_SUM) is None

    def test_stationary_overlapping_is_zero(self):
        assert ttc(1.0, 0.0, 0.0, 0.0, R_SUM) == 0.0

    def test_tangency_double_root(self):
        # Offset exactly r_sum laterally: the path grazes at one instant.
        out = ttc(30.0, R_SUM, -10.0, 0.0, R_SUM)
        assert out is not None
        assert out == pytest.approx(3.0, rel=1e-6)


def pair_ttc(ped, av, r_sum=R_SUM):
    """ttc() of two actors given as absolute (x, y, vx, vy) states."""
    return ttc(ped[0] - av[0], ped[1] - av[1], ped[2] - av[2], ped[3] - av[3], r_sum)


class TestTtc:
    def test_stationary_ped_ahead(self):
        # Pedestrian standing 30 m ahead of an AV driving at 10 m/s.
        assert pair_ttc((30.0, 0.0, 0.0, 0.0), (0.0, 0.0, 10.0, 0.0)) == pytest.approx(
            2.625096, abs=1e-9)

    def test_coincident_actors_report_zero(self):
        assert pair_ttc((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 10.0, 0.0)) == 0.0

    def test_oblique_case_matches_oracle(self):
        out = ttc(20.0, 5.0, -8.0, -1.0, R_SUM)
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
            got = ttc(x, y, vx, vy, R_SUM)
            want = brute_force_ttc(x, y, vx, vy, R_SUM)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got == pytest.approx(want, abs=1e-4)


class TestInvariants:
    def _random_pair(self, rng):
        ped = tuple(rng.uniform(-100, 100) for _ in range(2)) + tuple(
            rng.uniform(-20, 20) for _ in range(2))
        av = tuple(rng.uniform(-100, 100) for _ in range(2)) + tuple(
            rng.uniform(-20, 20) for _ in range(2))
        return ped, av

    def test_root_correctness(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            ped, av = self._random_pair(rng)
            out = pair_ttc(ped, av)
            if out is None or out == 0.0:
                continue
            checked += 1
            x, y, vx, vy = (p - a for p, a in zip(ped, av))
            # At the reported time the separation equals the contact radius.
            sep = math.hypot(x + vx * out, y + vy * out)
            assert sep == pytest.approx(R_SUM, rel=1e-6)
            # Strictly separated at sampled earlier times.
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert math.hypot(x + vx * out * frac, y + vy * out * frac) > R_SUM

    def test_translation_and_galilean_invariance(self):
        rng = random.Random(4242)
        for _ in range(40):
            ped, av = self._random_pair(rng)
            base = pair_ttc(ped, av)
            sx, sy = rng.uniform(-500, 500), rng.uniform(-500, 500)
            bx, by = rng.uniform(-30, 30), rng.uniform(-30, 30)
            shifted = pair_ttc((ped[0] + sx, ped[1] + sy, ped[2], ped[3]),
                               (av[0] + sx, av[1] + sy, av[2], av[3]))
            boosted = pair_ttc((ped[0], ped[1], ped[2] + bx, ped[3] + by),
                               (av[0], av[1], av[2] + bx, av[3] + by))
            for other in (shifted, boosted):
                if base is None:
                    assert other is None
                else:
                    assert other == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_scale_covariance(self):
        rng = random.Random(31)
        for _ in range(40):
            ped, av = self._random_pair(rng)
            base = pair_ttc(ped, av)
            k = rng.uniform(0.1, 10.0)
            scaled = pair_ttc(tuple(v * k for v in ped), tuple(v * k for v in av),
                              PED_R * k + AV_R * k)
            if base is None:
                assert scaled is None
            else:
                assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_stable_root_far_head_on(self):
        # Far-away head-on approach: b^2 dominates a*c, where the naive
        # quadratic formula loses digits.
        out = ttc(2.0e5, 0.0, -1.0, 0.0, R_SUM)
        # The only rounding left is the discriminant's catastrophic-free
        # residual; the naive root would be wrong in the first digits.
        assert out == pytest.approx(2.0e5 - R_SUM, abs=1e-4)
