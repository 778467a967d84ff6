"""Discrete-time world: three actors, line-of-sight occlusion, onboard
sensing, the V2V relay, the proportional brake law, and contact detection.

One :class:`WorldState` is owned by exactly one run and stepped
sequentially; it holds only what the next step reads, and distinct runs
share nothing mutable. Per tick, :func:`step` tests contact; then, only
once the pedestrian is active, steps the V2V channel, advances the
pedestrian and tests the AV's sensor; then makes the control decision, the
package's only one (its reference is ``tests/_oracle.py::compute_control``),
and moves the AV. It returns what it observed (TTC, pressure, estimate
source, contact); the caller keeps what it needs. The AV and the pedestrian
are plain floats, so a step builds no vector or actor records. The
pedestrian crosses on the walk line, x = 0, so only its y moves. All
randomness comes from the seeded generator that the world holds only when
it steps a link that drops messages (none without the relay), so runs with
identical inputs are bit-identical.

The run's fixed terms, the occluder's bounds, the sensor's envelope, the V2V
link's geometry and the activation time, its only entry time, are staged as
floats when the world is built (see :class:`WorldState`). The transmitter
arrives as one ``Vec2``, read once, as perfbench asserts (ROADMAP item 1).

Everything here is built from a :class:`ScenarioConfig`, which validates
every value once; nothing below checks it again. The V2V channel and
the brake law read their keys straight from it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import TYPE_CHECKING

from .ttc import TtcOutcome, ttc

if TYPE_CHECKING:  # scenario imports this module
    from .geometry import Vec2
    from .scenario import ScenarioConfig

METERS_PER_FOOT = 0.3048  # exact, the international foot

# Disc radii: half the subject car's body length, and the pedestrian's
# reach envelope (7.3 ft and 5 ft); the discs touch at their sum.
AV_RADIUS_M = 7.3 * METERS_PER_FOOT
PED_RADIUS_M = 5.0 * METERS_PER_FOOT
R_SUM_M = AV_RADIUS_M + PED_RADIUS_M
_NEG_R_SUM_M = -R_SUM_M

# Guard for timestamp comparisons on the accumulated time grid.
_T_EPS = 1e-9


def V2VMessage(sent_at_s: float, ped_y: float, ped_vy: float) -> tuple[float, float, float]:
    """One accepted broadcast of the pedestrian's position and velocity
    across the road, as the plain tuple (sent_at_s, ped_y, ped_vy). Called
    once per accepted broadcast: perfbench/tracer.py counts the calls."""
    return sent_at_s, ped_y, ped_vy


class WorldState:
    """Mutable state of one simulation run; it holds only what the next
    step reads. The AV drives along +x at ``av_speed`` (m/s) with its
    center at (``av_x``, ``av_y``); its lane never changes. The
    pedestrian's center is (0, ``ped_y``) and it walks along +y at
    ``ped_vy``. The stopped transmitter's center is (``tx_x``, ``tx_y``) and
    ``occluder`` its footprint's bounds (min_x, max_x, min_y, max_y).

    Staged once, as the channel and the step use them: ``tx_dx_sq``, the
    squared x offset of the transmitter's tracker, at its front-center, from
    the walk line; ``av_tx_dy``, ``av_y - tx_y``; and ``active_from_s``,
    ``ped_entry_time_s - _T_EPS``. The pedestrian is active, has stepped out
    and begun crossing, once ``t_s >= active_from_s``; before then there is
    nothing for either vehicle to detect, and it does not move. ``rng`` is
    the seeded generator of a lossy link that the run steps, else None.
    """

    __slots__ = ("av_x", "av_y", "av_speed", "av_sensor_range_m", "av_sensor_cos_fov", "tx_x",
                 "tx_y", "tx_dx_sq", "av_tx_dy", "occluder", "ped_y", "ped_vy", "active_from_s",
                 "road_width_m", "rng", "t_s", "in_flight", "latest_ped_info", "next_send_s")

    def __init__(self, av_x: float, av_y: float, av_speed: float, av_sensor_range_m: float,
                 av_sensor_cos_fov: float, transmitter: Vec2,
                 occluder: tuple[float, float, float, float], ped_y: float, ped_vy: float,
                 ped_entry_time_s: float, road_width_m: float, rng: random.Random | None) -> None:
        self.av_x, self.av_y, self.av_speed = av_x, av_y, av_speed
        self.av_sensor_range_m, self.av_sensor_cos_fov = av_sensor_range_m, av_sensor_cos_fov
        self.tx_x, self.tx_y, self.occluder = transmitter.x, transmitter.y, occluder
        dx = 0.0 - (self.tx_x + AV_RADIUS_M)
        self.tx_dx_sq, self.av_tx_dy = dx * dx, av_y - self.tx_y
        self.ped_y, self.ped_vy = ped_y, ped_vy
        self.active_from_s = ped_entry_time_s - _T_EPS
        self.road_width_m, self.rng = road_width_m, rng
        self.t_s = self.next_send_s = 0.0
        self.in_flight: deque[tuple[float, float, float]] = deque()
        self.latest_ped_info: tuple[float, float, float] | None = None


# Nothing in the package calls either name. perfbench/tracer.py wraps both
# (replace counted as geometry.actor_replace, compute_control timed), so
# they stay as placeholders until ROADMAP item 1 re-keys the benchmark.
replace = compute_control = None


def los_occluded(sensor_x: float, sensor_y: float, target_x: float, target_y: float,
                 occluder: tuple[float, float, float, float]) -> bool:
    """True iff the open segment sensor -> target crosses the rectangle
    *occluder* = (min_x, max_x, min_y, max_y), or the target lies inside
    (or on) it."""
    min_x, max_x, min_y, max_y = occluder

    if min_x <= target_x <= max_x and min_y <= target_y <= max_y:
        return True

    # Liang-Barsky clip of the segment against the rectangle slabs (Liang &
    # Barsky, "A new concept and method for line clipping", ACM TOG 3(1), 1984),
    # written out once per axis: this runs on every step of every run.
    t0 = 0.0
    t1 = 1.0
    dx = target_x - sensor_x
    if dx == 0.0:
        if not (min_x <= sensor_x <= max_x):
            return False
    else:
        ta = (min_x - sensor_x) / dx
        tb = (max_x - sensor_x) / dx
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return False
    dy = target_y - sensor_y
    if dy == 0.0:
        if not (min_y <= sensor_y <= max_y):
            return False
    else:
        ta = (min_y - sensor_y) / dy
        tb = (max_y - sensor_y) / dy
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return False
    # Endpoint-only grazes do not block (open segment).
    return t0 < t1


def sense(sensor_x: float, sensor_y: float, range_m: float, cos_fov: float,
          target_y: float, occluder: tuple[float, float, float, float]) -> float | None:
    """Ground-truth observation of a target on the walk line, at
    (0, *target_y*): its y, or None when out of range, outside the field
    of view, or occluded. The sensor faces +x, the direction of travel,
    and *cos_fov* is the cosine of its half-angle. The range boundary is
    inclusive: a target exactly at range is still seen."""
    dx = 0.0 - sensor_x
    dy = target_y - sensor_y
    dist_sq = dx * dx + dy * dy
    if dist_sq > range_m * range_m:
        return None
    # A full-circle sensor (cos_fov == -1) sees every bearing, even one
    # that rounding puts just below -1. Any narrower one needs no clamp:
    # a bearing rounded past +-1 falls on the same side of cos_fov.
    if dist_sq > 0.0 and cos_fov > -1.0 and dx / math.sqrt(dist_sq) < cos_fov:
        return None
    return None if los_occluded(sensor_x, sensor_y, 0.0, target_y, occluder) else target_y


def channel_step(world: WorldState, channel: ScenarioConfig, dt: float) -> None:
    """Broadcast and delivery for one step; *channel* is the run's config.

    Precondition: the pedestrian is active. :func:`step` calls this only
    then, so before entry nothing is sent and nothing is in flight.

    While the crossing pedestrian is within ``tx_sensor_range_m`` of the
    transmitter's tracker, at its front-center, it sends every
    ``bsm_period_s``; the tracker sees all around, past any occluder, and
    its range boundary is inclusive. A message is accepted only if the AV
    is within ``v2v_range_m`` at send time and the seeded ``drop_prob``
    draw passes; the slot and the draw are spent in radio range or not.
    Every accepted message is delivered once ``latency_s`` has passed since
    its send; the newest delivered wins. A zero-latency link delivers it on
    the step it was sent without queueing it, unless older messages are
    still in flight; every other link passes it through ``in_flight``.
    """
    t_s = world.t_s
    in_flight = world.in_flight
    ped_y = world.ped_y
    dy = ped_y - world.tx_y
    tx_range_m = channel.tx_sensor_range_m
    if world.tx_dx_sq + dy * dy <= tx_range_m * tx_range_m and t_s >= world.next_send_s - _T_EPS:
        world.next_send_s = t_s + channel.bsm_period_s
        range_m, drop_prob = channel.v2v_range_m, channel.drop_prob
        # hypot(a, b) >= |a|: an AV farther back than the range is out of it.
        gap = world.tx_x - world.av_x
        in_range = gap <= range_m and math.hypot(gap, world.av_tx_dy) <= range_m
        dropped = drop_prob > 0.0 and world.rng.random() < drop_prob
        if in_range and not dropped:
            msg = V2VMessage(t_s, ped_y, world.ped_vy)
            # Nothing queued and no latency: the message is due now and the newest.
            if not in_flight and channel.latency_s == 0.0:
                world.latest_ped_info = msg
                return
            in_flight.append(msg)

    if in_flight:
        latency_s = channel.latency_s
        due_s = t_s + _T_EPS
        while in_flight and in_flight[0][0] + latency_s <= due_s:
            world.latest_ped_info = in_flight.popleft()


def brake_pressure(t: TtcOutcome, cfg: ScenarioConfig) -> float:
    """The brake law: commanded pressure in bars for a TTC outcome. 0 (hold
    speed) with no valid TTC or one above ``tau_max_s``; otherwise linear
    from 0 at ``tau_max_s`` up to ``p_max_bar`` at TTC 0."""
    if t is None or t > cfg.tau_max_s:
        return 0.0
    return (cfg.tau_max_s - t) / cfg.tau_max_s * cfg.p_max_bar


def deceleration_for(pressure_bar: float, cfg: ScenarioConfig) -> float:
    """Deceleration magnitude (m/s^2) produced by a pressure command,
    linear up to ``d_max_mps2`` at ``p_max_bar``."""
    return pressure_bar / cfg.p_max_bar * cfg.d_max_mps2


# What a step without a pedestrian estimate returns, indexed by contact.
_NO_ESTIMATE = ((None, 0.0, None, False), (None, 0.0, None, True))


def step(world: WorldState, dt: float, policy: ScenarioConfig,
         channel: ScenarioConfig, v2v_enabled: bool) -> tuple[TtcOutcome, float, str | None, bool]:
    """Advance the world by one timestep and return what it observed:
    (TTC, pressure, estimate source, contact), the control decision as the
    reference ``tests/_oracle.py::compute_control`` makes it plus whether
    the discs overlapped at the step's start.

    Order per tick: contact test on current positions; then, only once the
    pedestrian is active, transmitter broadcast and message delivery (with
    the relay), the pedestrian's advance and the AV sensor's roadway gate;
    then the AV's control, deceleration, semi-implicit AV position
    integration, and the clock. The transmitter is stopped. The channel
    and the sensor see the world as it was at the step's start. Contact is
    tested before anything moves, so the step on which the discs meet
    still reports the controller's decision. Nothing is latched: a caller
    that steps past a contact sees it reported again while the discs
    overlap.

    Without the relay nothing reads the channel, and the seeded generator
    feeds only the channel, so the channel is not stepped at all. Before
    the pedestrian is active it sends nothing, so nothing can be in flight
    or delivered, and the channel is not stepped either.
    """
    av_x = world.av_x
    av_y = world.av_y
    ped_y = world.ped_y
    t_s = world.t_s
    # hypot(a, b) >= |b|: discs farther apart across the road cannot touch.
    dy = ped_y - av_y
    contact = _NEG_R_SUM_M <= dy <= R_SUM_M and math.hypot(0.0 - av_x, dy) <= R_SUM_M

    # The AV's own sensor, at its front-center, sees the pedestrian only
    # once active and on the roadway: it flags roadway intruders, not
    # people on the shoulder, while the transmitter holds the pedestrian
    # it yielded to wherever it walks.
    y = None
    if t_s >= world.active_from_s:
        if v2v_enabled:
            channel_step(world, channel, dt)
        vy = world.ped_vy
        world.ped_y = ped_y + vy * dt
        if 0.0 <= ped_y <= world.road_width_m:
            y = sense(av_x + AV_RADIUS_M, av_y, world.av_sensor_range_m,
                      world.av_sensor_cos_fov, ped_y, world.occluder)

    speed = world.av_speed
    if y is not None:
        source = "sensor"
    else:
        msg = world.latest_ped_info
        if msg is None:  # no estimate: hold speed
            world.av_x = av_x + speed * dt
            world.t_s = t_s + dt
            return _NO_ESTIMATE[contact]
        source = "v2v"
        sent_at_s, msg_y, vy = msg
        y = msg_y + vy * (t_s - sent_at_s)

    # Relative to the AV, which moves along +x only; the pedestrian is on
    # the walk line, x = 0, and does not move along it.
    outcome = ttc(0.0 - av_x, y - av_y, 0.0 - speed, vy, R_SUM_M)
    pressure = brake_pressure(outcome, policy)

    # Longitudinal kinematics: brake, clamp at standstill, then move with
    # the new velocity. The AV never re-accelerates once a threat clears.
    # Zero pressure leaves the speed as it is (v - 0.0 * dt == v).
    if pressure != 0.0:
        speed -= deceleration_for(pressure, policy) * dt
        if speed <= 0.0:
            speed = 0.0
        world.av_speed = speed
    world.av_x = av_x + speed * dt
    world.t_s = t_s + dt
    return outcome, pressure, source, contact
