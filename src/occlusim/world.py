"""Discrete-time world: three actors, line-of-sight occlusion, onboard
sensing, the V2V relay, proportional braking, and collision detection.

One :class:`WorldState` is owned by exactly one run and stepped
sequentially; distinct runs share nothing mutable. All randomness comes
from the seeded generator held by the world (used only for message
drops), so runs with identical inputs are bit-identical.

The parameter records here are built from a :class:`ScenarioConfig`,
which validates every value once; they do not check their fields again.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace

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
    """Detection envelope of an onboard sensor: range and half-angle of
    the field of view about the +x heading."""

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


@dataclass(frozen=True, slots=True)
class V2VMessage:
    """Pedestrian position/velocity relayed by the transmitter."""

    sent_at_s: float
    ped_pos: Vec2
    ped_vel: Vec2


@dataclass(frozen=True, slots=True)
class PedestrianEstimate:
    """Freshest pedestrian information available to the AV, tagged with
    its source ("sensor" or "v2v") and observation time."""

    source: str
    observed_at_s: float
    pos: Vec2
    vel: Vec2


@dataclass
class WorldState:
    """Mutable state of one simulation run."""

    av: ActorState
    av_sensor: SensorModel
    transmitter: ActorState
    transmitter_body: VehicleBody
    transmitter_sensor: SensorModel
    pedestrian: ActorState
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
    last_estimate: PedestrianEstimate | None = None

    def pedestrian_active(self) -> bool:
        """True once the pedestrian has stepped out and begun crossing.

        Before the entry time there is nothing for either vehicle to
        detect; the pedestrian is off stage.
        """
        return self.t_s >= self.ped_entry_time_s - _T_EPS

    def av_sensor_pos(self) -> Vec2:
        """The AV's sensor sits at the front-center of the vehicle."""
        return Vec2(self.av.pos.x + self.av.radius, self.av.pos.y)


def los_occluded(sensor_pos: Vec2, target_pos: Vec2, occluder_pos: Vec2,
                 body: VehicleBody) -> bool:
    """True iff the open segment sensor -> target crosses the occluder's
    rectangle, or the target lies inside (or on) the rectangle footprint."""
    half_l = body.length_m / 2.0
    half_w = body.width_m / 2.0
    min_x = occluder_pos.x - half_l
    max_x = occluder_pos.x + half_l
    min_y = occluder_pos.y - half_w
    max_y = occluder_pos.y + half_w

    if min_x <= target_pos.x <= max_x and min_y <= target_pos.y <= max_y:
        return True

    # Liang-Barsky clip of the segment against the rectangle slabs.
    dx = target_pos.x - sensor_pos.x
    dy = target_pos.y - sensor_pos.y
    t0, t1 = 0.0, 1.0
    for d, lo, hi, s in ((dx, min_x, max_x, sensor_pos.x), (dy, min_y, max_y, sensor_pos.y)):
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


def sense(sensor_pos: Vec2, model: SensorModel, target: ActorState,
          occluders: list[tuple[Vec2, VehicleBody]]) -> tuple[Vec2, Vec2] | None:
    """Ground-truth observation of the target, or None when out of range,
    outside the field of view, or occluded. Every sensor faces +x, the
    direction of travel. The range boundary is inclusive: a target exactly
    at range is still seen."""
    to_target = target.pos - sensor_pos
    dist_sq = to_target.norm_sq()
    if dist_sq > model.range_m * model.range_m:
        return None
    if dist_sq > 0.0:
        cos_bearing = to_target.x / math.sqrt(dist_sq)
        # Clamp against rounding before comparing with the FOV cosine.
        cos_bearing = max(-1.0, min(1.0, cos_bearing))
        if cos_bearing < math.cos(model.fov_half_angle_rad):
            return None
    for occ_pos, occ_body in occluders:
        if los_occluded(sensor_pos, target.pos, occ_pos, occ_body):
            return None
    return target.pos, target.vel


def channel_step(world: WorldState, channel: ChannelModel, dt: float) -> None:
    """Broadcast and delivery for one step.

    While the transmitter senses the crossing pedestrian it emits one
    message per channel period. A message is enqueued only if the AV is
    within radio range at send time and the seeded drop draw passes; the
    send slot is consumed either way. Messages are delivered once their
    send time plus latency has elapsed; the newest delivered message wins.
    """
    if world.pedestrian_active():
        obs = sense(
            Vec2(world.transmitter.pos.x + world.transmitter.radius, world.transmitter.pos.y),
            world.transmitter_sensor,
            world.pedestrian,
            occluders=[],
        )
        if obs is not None and world.t_s >= world.next_send_s - _T_EPS:
            world.next_send_s = world.t_s + channel.period_s
            in_range = (world.av.pos - world.transmitter.pos).norm() <= channel.range_m
            dropped = channel.drop_prob > 0.0 and world.rng.random() < channel.drop_prob
            if in_range and not dropped:
                world.in_flight.append(V2VMessage(world.t_s, obs[0], obs[1]))

    while world.in_flight and world.in_flight[0].sent_at_s + channel.latency_s <= world.t_s + _T_EPS:
        world.latest_ped_info = world.in_flight.popleft()


def _own_observation(world: WorldState) -> tuple[Vec2, Vec2] | None:
    if not world.pedestrian_active():
        return None
    # The AV flags roadway intruders, not people on the shoulder; the
    # transmitter holds the pedestrian it yielded to wherever it walks.
    if not (0.0 <= world.pedestrian.pos.y <= world.road_width_m):
        return None
    return sense(
        world.av_sensor_pos(),
        world.av_sensor,
        world.pedestrian,
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
    estimate: PedestrianEstimate | None = None
    own = _own_observation(world)
    if own is not None:
        estimate = PedestrianEstimate("sensor", world.t_s, own[0], own[1])
    elif v2v_enabled and world.latest_ped_info is not None:
        msg = world.latest_ped_info
        age = world.t_s - msg.sent_at_s
        estimate = PedestrianEstimate("v2v", msg.sent_at_s,
                                      msg.ped_pos + msg.ped_vel.scaled(age), msg.ped_vel)

    world.last_estimate = estimate
    if estimate is None:
        return None, 0.0

    ped_guess = ActorState(estimate.pos, estimate.vel, world.pedestrian.radius)
    outcome = ttc(ped_guess, world.av)
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
    """
    if not world.collided:
        gap = (world.pedestrian.pos - world.av.pos).norm()
        if gap <= world.pedestrian.radius + world.av.radius:
            world.collided = True
            world.collision_time_s = world.t_s

    channel_step(world, channel, dt)

    outcome, pressure = compute_control(world, policy, v2v_enabled)
    if not braking:
        pressure = 0.0
    world.last_ttc_s = outcome
    world.last_pressure_bar = pressure

    # Longitudinal kinematics: brake, clamp at standstill, then move with
    # the new velocity. The AV never re-accelerates once a threat clears.
    new_speed = max(0.0, world.av.vel.x - deceleration_for(pressure, policy) * dt)
    new_vel = Vec2(new_speed, world.av.vel.y)
    world.av = replace(world.av, vel=new_vel, pos=world.av.pos + new_vel.scaled(dt))

    if world.pedestrian_active():
        world.pedestrian = replace(
            world.pedestrian, pos=world.pedestrian.pos + world.pedestrian.vel.scaled(dt)
        )

    world.t_s += dt
