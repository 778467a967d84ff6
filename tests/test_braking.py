import random

import pytest

from occlusim.braking import BrakePolicy, brake_pressure, deceleration_for


@pytest.fixture
def policy():
    return BrakePolicy()


class TestBrakePressure:
    def test_worked_example_six_seconds(self, policy):
        # 40% of full pressure with the default thresholds.
        assert brake_pressure(6.0, policy) == 80.0

    def test_above_threshold_no_brake(self, policy):
        assert brake_pressure(12.0, policy) == 0.0

    def test_boundaries(self, policy):
        assert brake_pressure(0.0, policy) == 200.0
        assert brake_pressure(10.0, policy) == 0.0

    def test_no_valid_ttc_no_brake(self, policy):
        assert brake_pressure(None, policy) == 0.0

    def test_linear_and_monotone_on_active_range(self, policy):
        rng = random.Random(2024)
        taus = sorted(rng.uniform(0.0, 10.0) for _ in range(100))
        prev = None
        for tau in taus:
            p = brake_pressure(tau, policy)
            assert 0.0 <= p <= policy.max_pressure_bar
            assert p == pytest.approx(200.0 - 20.0 * tau, abs=1e-9)
            if prev is not None:
                assert p <= prev + 1e-12
            prev = p

    def test_continuous_at_threshold(self, policy):
        eps = 1e-9
        assert brake_pressure(10.0 - eps, policy) == pytest.approx(0.0, abs=1e-6)
        assert brake_pressure(10.0 + eps, policy) == 0.0

    def test_bounded_for_all_inputs(self, policy):
        for tau in (None, 0.0, 1e-9, 5.0, 9.999, 10.0, 50.0, 1e9):
            p = brake_pressure(tau, policy)
            assert 0.0 <= p <= policy.max_pressure_bar


class TestDeceleration:
    def test_endpoints(self, policy):
        assert deceleration_for(200.0, policy) == 8.0
        assert deceleration_for(0.0, policy) == 0.0

    def test_linearity(self, policy):
        assert deceleration_for(80.0, policy) == pytest.approx(3.2, abs=1e-12)

    def test_composition_monotone_in_ttc(self, policy):
        rng = random.Random(5)
        taus = sorted(rng.uniform(0.0, 12.0) for _ in range(100))
        decels = [deceleration_for(brake_pressure(t, policy), policy) for t in taus]
        for earlier, later in zip(decels, decels[1:]):
            assert later <= earlier + 1e-12


class TestPolicyValidation:
    def test_defaults(self, policy):
        assert policy.ttc_threshold_s == 10.0
        assert policy.max_pressure_bar == 200.0
        assert policy.max_decel_mps2 == 8.0
