"""Closed-form predictions of a run's key times, from its config alone.

Nothing here imports ``occlusim.world``, ``occlusim.ttc`` or
``occlusim.harness``: a prediction reads only the config's keys and its
staged SI facts, and restates the paper's disc radii itself, so a fault in
the stepped world cannot read the same on both sides of a check against it.

A run steps on the time grid 0, dt, 2 dt, ..., each time the last plus
dt. The pedestrian enters on the first grid time at or after its
calibrated entry and then walks at constant speed; the stopped
transmitter's center sits at ``0.02 - AV_RADIUS_M`` on its lane center,
its bumper 0.02 m past the walk line; an AV that never brakes keeps its
speed from its start ``approach_time_s`` before the walk line.

``reveal_time`` is when the pedestrian clears the AV's blocked sight line:
the transmitter's inner edge, ``cfg.sightline_edge_y``. A run without
the relay detects it within one step after this time.

``first_delivery_time`` is when the relay's first message reaches the AV.
The transmitter sends on the pedestrian's entry step, and then on the first
step at or after each last send plus ``bsm_period_s``, while its tracker
holds the pedestrian (within ``tx_sensor_range_m``, as with every range
this module is used with); a send reaches the AV only if the AV is within
``v2v_range_m`` of the transmitter, and arrives ``latency_s`` later. With
no drops a run reads it on ``first_grid_time`` of that arrival, which can
lie a few ulps before it: a run compares times on its summed grid with
the ``T_EPS`` guard.

``unbraked_contact_time`` is the first grid time at which the discs of an
AV that never brakes and the pedestrian overlap.

``first_ttc`` is the time to contact at a given time, from the closed-form
positions of the unbraked AV and the pedestrian and their velocities. A
run cannot brake before its first estimate, so its first TTC is this at
its detection time, whatever its brake law.

``ttc_rate`` is how fast the time to contact moves under a relative
acceleration (a, 0), the pedestrian's as seen from an AV decelerating at
a. Differentiating |P| = R_SUM_M along the motion, for the contact offset
P = X + V tau, gives dtau/dt = -1 - tau (P.A) / (P.V). A braked run's TTC
rises from one step to the next when this is positive at the step's start
and falls when it is negative, except on a step within which it changes
sign.
"""

from __future__ import annotations

import math

METERS_PER_FOOT = 0.3048

# The guard a run compares its grid times against the entry and the send
# slots with.
T_EPS = 1e-9

# The paper's discs: half the car's 14.6 ft length, and the pedestrian's
# 5 ft reach; they touch at the sum.
AV_RADIUS_M = 7.3 * METERS_PER_FOOT
R_SUM_M = AV_RADIUS_M + 5.0 * METERS_PER_FOOT


def grid(cfg):
    """The run's grid times 0, dt, 2 dt, ..., without end, summed step by
    step as a run sums them."""
    t_s = 0.0
    while True:
        yield t_s
        t_s += cfg.dt_s


def first_grid_time(cfg, at_s: float) -> float:
    """The first grid time at or after *at_s* - ``T_EPS``: the step on which
    a run sees an event timed *at_s*."""
    return next(t_s for t_s in grid(cfg) if t_s >= at_s - T_EPS)


def first_step_time(cfg) -> float:
    """The pedestrian's entry step."""
    return first_grid_time(cfg, cfg.ped_entry_time_s)


def unbraked_av_x(cfg, t_s: float) -> float:
    """The x of the center of an AV that never brakes, at time *t_s*."""
    return cfg.av_speed_mps * t_s - cfg.av_speed_mps * cfg.approach_time_s


def reveal_time(cfg) -> float:
    """When the pedestrian's center reaches the sight-line edge."""
    walk_m = cfg.sightline_edge_y - cfg.ped_start_offset_m
    return first_step_time(cfg) + walk_m / cfg.ped_speed_mps


def first_delivery_time(cfg) -> float | None:
    """When the first message that reaches the AV arrives, or None when the
    AV has passed out of radio range before any send slot finds it in
    range."""
    tx_x = 0.02 - AV_RADIUS_M
    dy = cfg.av_lane_y - cfg.tx_lane_y
    next_send_s = first_step_time(cfg)
    for t_s in grid(cfg):
        if t_s < next_send_s - T_EPS:  # not a send slot
            continue
        next_send_s = t_s + cfg.bsm_period_s
        dx = unbraked_av_x(cfg, t_s) - tx_x
        if math.hypot(dx, dy) <= cfg.v2v_range_m:
            return t_s + cfg.latency_s
        if dx > cfg.v2v_range_m:
            return None


def unbraked_contact_time(cfg) -> float | None:
    """The first grid time at which the discs overlap, the pedestrian at
    its start until the entry step, or None once the AV has passed the
    walk line by the contact radius without touching."""
    t_first = first_step_time(cfg)
    for t_s in grid(cfg):
        av_x = unbraked_av_x(cfg, t_s)
        ped_y = cfg.ped_start_offset_m + cfg.ped_speed_mps * max(t_s - t_first, 0.0)
        if math.hypot(av_x, ped_y - cfg.av_lane_y) <= R_SUM_M:
            return t_s
        if av_x > R_SUM_M:
            return None


def first_ttc(cfg, t_s: float) -> float | None:
    """Seconds until the discs of the unbraked AV and the pedestrian, from
    their closed-form positions at *t_s*, first touch: 0.0 when they
    already overlap, None when their paths never bring them within the
    contact radius ahead. The smaller root of |X + V t| = R_SUM_M, for the
    pedestrian's position X and velocity V relative to the AV."""
    ped_y = cfg.ped_start_offset_m + cfg.ped_speed_mps * max(t_s - first_step_time(cfg), 0.0)
    x, y = 0.0 - unbraked_av_x(cfg, t_s), ped_y - cfg.av_lane_y
    if math.hypot(x, y) <= R_SUM_M:
        return 0.0
    return _contact_root(x, y, -cfg.av_speed_mps, cfg.ped_speed_mps, R_SUM_M)


def ttc_rate(x: float, y: float, vx: float, vy: float, a: float,
             r_sum: float) -> float | None:
    """dtau/dt for the pedestrian at (x, y) moving at (vx, vy) relative to
    an AV that decelerates at *a*, for discs that touch at *r_sum* apart:
    -1 - tau (P.A) / (P.V) with P = X + V tau and A = (a, 0). None when the
    discs are apart and their paths never bring them within *r_sum* ahead."""
    tau = _contact_root(x, y, vx, vy, r_sum)
    if tau is None:
        return None
    px, py = x + vx * tau, y + vy * tau
    return -1.0 - tau * (px * a) / (px * vx + py * vy)


def _contact_root(x: float, y: float, vx: float, vy: float, r_sum: float) -> float | None:
    """The smaller root of |X + V t| = *r_sum* if it lies ahead, else None."""
    a, half_b, c = vx * vx + vy * vy, x * vx + y * vy, x * x + y * y - r_sum * r_sum
    discriminant = half_b * half_b - a * c
    if discriminant < 0.0:
        return None
    root = (-half_b - math.sqrt(discriminant)) / a
    return root if root > 0.0 else None
