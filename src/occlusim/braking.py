"""Proportional collision-avoidance braking.

The controller brakes only when the time-to-collision drops to the policy
threshold, and then with pressure proportional to how far below the
threshold it is: full pressure at TTC 0, zero pressure at the threshold.
Pressure maps linearly to deceleration, reaching ``max_decel_mps2`` at
full pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ttc import TtcOutcome


@dataclass(frozen=True, slots=True)
class BrakePolicy:
    """Thresholds of the proportional braking law.

    ttc_threshold_s: TTC at or below which braking engages (seconds).
    max_pressure_bar: pressure commanded at TTC 0 (bars).
    max_decel_mps2: deceleration produced by full pressure (m/s^2).
    """

    ttc_threshold_s: float = 10.0
    max_pressure_bar: float = 200.0
    max_decel_mps2: float = 8.0


def brake_pressure(t: TtcOutcome, policy: BrakePolicy) -> float:
    """Commanded braking pressure in bars for a TTC outcome.

    No valid TTC, or TTC above the threshold: 0 (maintain speed).
    Otherwise pressure scales linearly from 0 at the threshold up to
    ``max_pressure_bar`` at TTC 0.
    """
    if t is None or t > policy.ttc_threshold_s:
        return 0.0
    return (policy.ttc_threshold_s - t) / policy.ttc_threshold_s * policy.max_pressure_bar


def deceleration_for(pressure_bar: float, policy: BrakePolicy) -> float:
    """Deceleration magnitude (m/s^2) produced by a pressure command."""
    if not (0.0 <= pressure_bar <= policy.max_pressure_bar):
        raise ValueError(
            f"pressure must lie in [0, {policy.max_pressure_bar}], got {pressure_bar}"
        )
    return pressure_bar / policy.max_pressure_bar * policy.max_decel_mps2

