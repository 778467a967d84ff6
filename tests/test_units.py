import pytest

from occlusim.scenario import MPS_PER_MPH, mph_to_mps, to_si
from occlusim.world import AV_RADIUS_M, METERS_PER_FOOT, PED_RADIUS_M


def test_exact_conversion_factors():
    assert mph_to_mps(45.0) == pytest.approx(20.1168, abs=1e-12)
    assert to_si(4.0) == pytest.approx(1.2192, abs=1e-12)
    assert to_si(12.0) == pytest.approx(3.6576, abs=1e-12)
    assert AV_RADIUS_M == pytest.approx(2.22504, abs=1e-12)
    assert PED_RADIUS_M == pytest.approx(1.524, abs=1e-12)


def test_linearity():
    for convert in (mph_to_mps, to_si):
        assert convert(3.0 + 4.0) == pytest.approx(convert(3.0) + convert(4.0), rel=1e-15)


def test_mph_helpers_match_to_si():
    # Each conversion is one product with its factor, the value first.
    for value in (0.0, 4.0, 7.3, 12.0, 45.0, 1e300):
        assert mph_to_mps(value) == value * MPS_PER_MPH
        assert to_si(value) == value * METERS_PER_FOOT
    assert (AV_RADIUS_M, PED_RADIUS_M) == (7.3 * METERS_PER_FOOT, 5.0 * METERS_PER_FOOT)
