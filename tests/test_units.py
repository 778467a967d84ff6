import math

import pytest

from occlusim.units import mph_to_mps, to_si


def test_exact_conversion_factors():
    assert to_si(45.0, "mph") == pytest.approx(20.1168, abs=1e-12)
    assert to_si(4.0, "ft_per_s") == pytest.approx(1.2192, abs=1e-12)
    assert to_si(11.2, "ft_per_s2") == pytest.approx(3.41376, abs=1e-12)
    assert to_si(12.0, "ft") == pytest.approx(3.6576, abs=1e-12)
    assert to_si(7.3, "ft") == pytest.approx(2.22504, abs=1e-12)
    assert to_si(5.0, "ft") == pytest.approx(1.524, abs=1e-12)


def test_unknown_unit_rejected():
    with pytest.raises(ValueError, match="unknown unit"):
        to_si(1.0, "furlongs")


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        to_si(math.inf, "mph")
    with pytest.raises(ValueError):
        to_si(math.nan, "ft")


def test_linearity():
    for unit in ("mph", "ft", "ft_per_s", "ft_per_s2"):
        assert to_si(3.0 + 4.0, unit) == pytest.approx(
            to_si(3.0, unit) + to_si(4.0, unit), rel=1e-15
        )


def test_mph_helpers_match_to_si():
    assert mph_to_mps(45.0) == to_si(45.0, "mph")
