"""Closed-form predictions of a run's key times, from its config alone.

Nothing here imports ``occlusim.world``, ``occlusim.ttc`` or
``occlusim.harness``: a prediction reads only the config's keys and
properties, so a fault in the stepped world cannot read the same on both
sides of a check against it.

``reveal_time`` is when the pedestrian, walking from its start at constant
speed once it has entered, clears the AV's blocked sight line: the
stopped transmitter's inner edge, ``cfg.sightline_edge_y()``. The
pedestrian enters on the first step of the run's time grid at or after
its calibrated entry, so a run without the relay detects it within one
step after this time.
"""

from __future__ import annotations

# The guard a run compares its grid times against the entry with.
T_EPS = 1e-9


def first_step_time(cfg) -> float:
    """The first time on the run's grid 0, dt, 2 dt, ... at or after
    ``cfg.ped_entry_time_s - T_EPS``, the grid summed step by step as a
    run sums it."""
    t_s = 0.0
    while t_s < cfg.ped_entry_time_s - T_EPS:
        t_s += cfg.dt_s
    return t_s


def reveal_time(cfg) -> float:
    """When the pedestrian's center reaches the sight-line edge."""
    walk_m = cfg.sightline_edge_y() - cfg.ped_start_offset_m
    return first_step_time(cfg) + walk_m / cfg.ped_speed_mps
