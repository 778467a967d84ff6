"""Discrete-time world: three actors, line-of-sight occlusion, onboard
sensing, the V2V relay, proportional braking, and collision detection.

One :class:`WorldState` is owned by exactly one run and stepped
sequentially; distinct runs share nothing mutable. The two moving actors,
the AV and the pedestrian, are plain floats, so a step builds no vector or
actor records; the stopped transmitter is a record built once per run.
All randomness comes from the seeded generator held by the world (used
only for message drops), so runs with identical inputs are bit-identical.

The parameter records here are built from a :class:`ScenarioConfig`,
which validates every value once; they do not check their fields again.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from dataclasses import replace  # noqa: F401  perfbench/tracer.py counts world.replace calls

from .braking import BrakePolicy, brake_pressure, deceleration_for
from .geometry import ActorState, Vec2
from .ttc import TtcOutcome, ttc

# Guard for timestamp comparisons on the accumulated time grid.
_T_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class VehicleBody:
    """Axis-aligned rectangular footprint of a vehicle, used as an
    occluder. Defaults: 14.6 ft long (twice the AV disc radius), 1.8 m wide."""

    length_m: float = 4.45008
    width_m: float = 1.8


@dataclass(frozen=True, slots=True)
class SensorModel:
    """Detection envelope of the AV's onboard sensor: range and half-angle
    of the field of view about the +x heading."""

    range_m: float
    fov_half_angle_rad: float


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """V2V channel knobs: delivery delay, drop probability, radio range,
    and broadcast period."""

    latency_s: float
    drop_prob: float
    range_m: float
    period_s: float


@dataclass(slots=True)
class V2VMessage:
    """Pedestrian position and velocity relayed by the transmitter. Not
    frozen: one is built per broadcast, and a frozen dataclass costs
    several times as much to build."""

    sent_at_s: float
    ped_x: float
    ped_y: float
    ped_vx: float
    ped_vy: float


@dataclass(slots=True)
class WorldState:
    """Mutable state of one simulation run.

    The AV drives along +x at ``av_speed`` (m/s) with its center at
    (``av_x``, ``av_y``); its lane never changes. The pedestrian's center
    is (``ped_x``, ``ped_y``) and its velocity (``ped_vx``, ``ped_vy``).
    ``last_estimate`` names the source of the AV's pedestrian estimate on
    the last step: "sensor", "v2v", or None when it had none.
    """

    av_x: float
    av_y: float
    av_speed: float
    av_radius_m: float
    av_sensor: SensorModel
    transmitter: ActorState
    transmitter_body: VehicleBody
    tx_sensor_range_m: float
    ped_x: float
    ped_y: float
    ped_vx: float
    ped_vy: float
    ped_radius_m: float
    ped_entry_time_s: float
    road_width_m: float
    rng: random.Random
    t_s: float = 0.0
    in_flight: deque[V2VMessage] = field(default_factory=deque)
    latest_ped_info: V2VMessage | None = None
    next_send_s: float = 0.0
    detected_time_s: float | None = None
    first_ttc_s: TtcOutcome = None
    collided: bool = False
    collision_time_s: float | None = None
    last_ttc_s: TtcOutcome = None
    last_pressure_bar: float = 0.0
    last_estimate: str | None = None

    def pedestrian_active(self) -> bool:
        """True once the pedestrian has stepped out and begun crossing.

        Before the entry time there is nothing for either vehicle to
        detect; the pedestrian is off stage.
        """
        return self.t_s >= self.ped_entry_time_s - _T_EPS


def los_occluded(sensor_x: float, sensor_y: float, target_x: float, target_y: float,
                 occluder: Vec2, body: VehicleBody) -> bool:
    """True iff the open segment sensor -> target crosses the rectangle of
    *body* centered on *occluder*, or the target lies inside (or on) it."""
    half_l = body.length_m / 2.0
    half_w = body.width_m / 2.0
    min_x = occluder.x - half_l
    max_x = occluder.x + half_l
    min_y = occluder.y - half_w
    max_y = occluder.y + half_w

    if min_x <= target_x <= max_x and min_y <= target_y <= max_y:
        return True

    # Liang-Barsky clip of the segment against the rectangle slabs.
    dx = target_x - sensor_x
    dy = target_y - sensor_y
    t0, t1 = 0.0, 1.0
    for d, lo, hi, s in ((dx, min_x, max_x, sensor_x), (dy, min_y, max_y, sensor_y)):
        if d == 0.0:
            if not (lo <= s <= hi):
                return False
            continue
        ta = (lo - s) / d
        tb = (hi - s) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    # Endpoint-only grazes do not block (open segment).
    return t0 < t1 and t1 > 0.0 and t0 < 1.0


def sense(sensor_x: float, sensor_y: float, model: SensorModel,
          target: tuple[float, float, float, float],
          occluders: list[tuple[Vec2, VehicleBody]]) -> tuple[float, float, float, float] | None:
    """Ground-truth observation of a target (x, y, vx, vy): the target
    itself, or None when out of range, outside the field of view, or
    occluded. The sensor faces +x, the direction of travel. The range
    boundary is inclusive: a target exactly at range is still seen."""
    dx = target[0] - sensor_x
    dy = target[1] - sensor_y
    dist_sq = dx * dx + dy * dy
    if dist_sq > model.range_m * model.range_m:
        return None
    if dist_sq > 0.0:
        cos_bearing = dx / math.sqrt(dist_sq)
        # Clamp against rounding before comparing with the FOV cosine.
        cos_bearing = max(-1.0, min(1.0, cos_bearing))
        if cos_bearing < math.cos(model.fov_half_angle_rad):
            return None
    for occ_pos, occ_body in occluders:
        if los_occluded(sensor_x, sensor_y, target[0], target[1], occ_pos, occ_body):
            return None
    return target


def channel_step(world: WorldState, channel: ChannelModel, dt: float) -> None:
    """Broadcast and delivery for one step.

    While the crossing pedestrian is within the transmitter's tracking
    range it emits one message per channel period. The tracker sits at the
    transmitter's front-center and sees all around, past any occluder; its
    range boundary is inclusive. A message is enqueued only if the AV is
    within radio range at send time and the seeded drop draw passes; the
    send slot is consumed either way. Messages are delivered once their
    send time plus latency has elapsed; the newest delivered message wins.
    """
    if world.pedestrian_active():
        tx = world.transmitter
        dx = world.ped_x - (tx.pos.x + tx.radius)
        dy = world.ped_y - tx.pos.y
        tracked = dx * dx + dy * dy <= world.tx_sensor_range_m * world.tx_sensor_range_m
        if tracked and world.t_s >= world.next_send_s - _T_EPS:
            world.next_send_s = world.t_s + channel.period_s
            in_range = math.hypot(world.av_x - tx.pos.x, world.av_y - tx.pos.y) <= channel.range_m
            dropped = channel.drop_prob > 0.0 and world.rng.random() < channel.drop_prob
            if in_range and not dropped:
                world.in_flight.append(
                    V2VMessage(world.t_s, world.ped_x, world.ped_y, world.ped_vx, world.ped_vy)
                )

    while world.in_flight and world.in_flight[0].sent_at_s + channel.latency_s <= world.t_s + _T_EPS:
        world.latest_ped_info = world.in_flight.popleft()


def _own_observation(world: WorldState) -> tuple[float, float, float, float] | None:
    if not world.pedestrian_active():
        return None
    # The AV flags roadway intruders, not people on the shoulder; the
    # transmitter holds the pedestrian it yielded to wherever it walks.
    if not (0.0 <= world.ped_y <= world.road_width_m):
        return None
    # The sensor sits at the AV's front-center.
    return sense(
        world.av_x + world.av_radius_m,
        world.av_y,
        world.av_sensor,
        (world.ped_x, world.ped_y, world.ped_vx, world.ped_vy),
        occluders=[(world.transmitter.pos, world.transmitter_body)],
    )


def compute_control(world: WorldState, policy: BrakePolicy,
                    v2v_enabled: bool) -> tuple[TtcOutcome, float]:
    """One control evaluation: pick the pedestrian estimate, compute the
    TTC, and derive the pressure command.

    The AV's own observation is preferred over V2V when both exist. A V2V
    estimate is extrapolated at constant velocity over its age. With no
    estimate at all the AV holds speed. The first step with any estimate
    fixes detected_time and the TTC recorded at that instant.
    """
    own = _own_observation(world)
    if own is not None:
        world.last_estimate = "sensor"
        x, y, vx, vy = own
    elif v2v_enabled and world.latest_ped_info is not None:
        world.last_estimate = "v2v"
        msg = world.latest_ped_info
        age = world.t_s - msg.sent_at_s
        vx, vy = msg.ped_vx, msg.ped_vy
        x = msg.ped_x + vx * age
        y = msg.ped_y + vy * age
    else:
        world.last_estimate = None
        return None, 0.0

    # Relative to the AV, which moves along +x only.
    outcome = ttc(x - world.av_x, y - world.av_y, vx - world.av_speed, vy,
                  world.ped_radius_m + world.av_radius_m)
    if world.detected_time_s is None:
        world.detected_time_s = world.t_s
        world.first_ttc_s = outcome
    return outcome, brake_pressure(outcome, policy)


def step(world: WorldState, dt: float, policy: BrakePolicy, channel: ChannelModel,
         v2v_enabled: bool, braking: bool = True) -> None:
    """Advance the world by one timestep.

    Order per tick: collision latch on current positions, transmitter
    broadcast and message delivery, AV control, deceleration, semi-implicit
    AV position integration, pedestrian advance, then the clock; the
    transmitter is stopped. The latch runs first so the controller still
    evaluates the contact state: the step on which the discs meet records
    a full-pressure decision instead of ending silently. ``braking=False``
    computes but discards the pressure command (used to verify that the
    calibrated scenario collides without mitigation).

    Without the relay nothing reads the channel, and the seeded generator
    feeds only the channel, so the channel is not stepped at all.
    """
    if not world.collided:
        gap = math.hypot(world.ped_x - world.av_x, world.ped_y - world.av_y)
        if gap <= world.ped_radius_m + world.av_radius_m:
            world.collided = True
            world.collision_time_s = world.t_s

    if v2v_enabled:
        channel_step(world, channel, dt)

    outcome, pressure = compute_control(world, policy, v2v_enabled)
    if not braking:
        pressure = 0.0
    world.last_ttc_s = outcome
    world.last_pressure_bar = pressure

    # Longitudinal kinematics: brake, clamp at standstill, then move with
    # the new velocity. The AV never re-accelerates once a threat clears.
    speed = max(0.0, world.av_speed - deceleration_for(pressure, policy) * dt)
    world.av_speed = speed
    world.av_x += speed * dt

    if world.pedestrian_active():
        world.ped_x += world.ped_vx * dt
        world.ped_y += world.ped_vy * dt

    world.t_s += dt
