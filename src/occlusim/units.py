"""Conversions between customary road units (mph, feet) and SI.

Everything inside the simulator runs in SI; config files and CSV output
use road units and convert at the boundary.
"""

from __future__ import annotations

MPS_PER_MPH = 0.44704
METERS_PER_FOOT = 0.3048

_SI_FACTOR = {
    "mph": MPS_PER_MPH,
    "ft": METERS_PER_FOOT,
    "ft_per_s": METERS_PER_FOOT,
}


def to_si(value: float, unit: str) -> float:
    """Convert *value* in the named unit to its SI counterpart.

    Supported units: mph -> m/s, ft -> m, ft_per_s -> m/s.
    """
    try:
        return value * _SI_FACTOR[unit]
    except KeyError:
        raise ValueError(
            f"unknown unit {unit!r}; expected one of {sorted(_SI_FACTOR)}"
        ) from None


def mph_to_mps(mph: float) -> float:
    return to_si(mph, "mph")
