"""Proportional collision-avoidance braking.

The controller brakes only when the time-to-collision drops to
``tau_max_s``, and then with pressure proportional to how far below it
the TTC is: ``p_max_bar`` at TTC 0, zero at ``tau_max_s``. Pressure maps
linearly to deceleration, reaching ``d_max_mps2`` at ``p_max_bar``. The
law reads these keys from a run's :class:`ScenarioConfig` or from a
:class:`BrakePolicy`, which holds them under the same names.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .ttc import TtcOutcome

if TYPE_CHECKING:  # scenario imports world, which imports this module
    from .scenario import ScenarioConfig


BrakePolicy = namedtuple("BrakePolicy", "tau_max_s p_max_bar d_max_mps2",
                         defaults=(10.0, 200.0, 8.0))
BrakePolicy.__doc__ = """The braking law's keys outside a config, with the config's names
and defaults.

tau_max_s: TTC at or below which braking engages (seconds).
p_max_bar: pressure commanded at TTC 0 (bars).
d_max_mps2: deceleration produced by ``p_max_bar`` (m/s^2).
"""


def brake_pressure(t: TtcOutcome, policy: BrakePolicy | ScenarioConfig) -> float:
    """Commanded braking pressure in bars for a TTC outcome.

    No valid TTC, or TTC above ``tau_max_s``: 0 (maintain speed).
    Otherwise pressure scales linearly from 0 at ``tau_max_s`` up to
    ``p_max_bar`` at TTC 0.
    """
    if t is None or t > policy.tau_max_s:
        return 0.0
    return (policy.tau_max_s - t) / policy.tau_max_s * policy.p_max_bar


def deceleration_for(pressure_bar: float, policy: BrakePolicy | ScenarioConfig) -> float:
    """Deceleration magnitude (m/s^2) produced by a pressure command."""
    return pressure_bar / policy.p_max_bar * policy.d_max_mps2
