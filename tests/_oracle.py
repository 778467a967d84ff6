"""Reference implementations that the package's fast forms are checked
against.

``brute_force_ttc`` is a time-to-collision oracle independent of the
closed form: it steps the relative motion on a fine time grid, reports the
first sample where the separation is within the contact radius, then
sharpens the bracket by bisection. Used to cross-check the quadratic
solver.

``los_occluded_loop`` is the sight-line test in its loop form, one pass
per slab; ``occlusim.world.los_occluded`` writes the same clip out once
per axis and must return the same boolean.

``sense_clamped`` is the sensor check with its bearing cosine clamped to
[-1, 1] before the field-of-view test; ``occlusim.world.sense`` gates the
field of view without the clamp and must return the same observation.

``relative_state`` is the pedestrian's position and velocity seen from the
AV, with the radius sum, in the argument order of ``occlusim.ttc.ttc``.

``compute_control`` is the control decision in its stand-alone form: it
only reads the world, picks the pedestrian estimate (the AV's sensor, then
the relayed V2V message, then none), computes the TTC and derives the
pressure. ``occlusim.world.step`` makes the same decision inline, the
package's only one.

``channel_step`` is the V2V channel's step in its queue form, with every
term worked out on each call from the transmitter's center in the world,
where ``occlusim.scenario.build_world`` places it.
``occlusim.world.channel_step`` reads the terms that the world staged when
it was built.

``step_composed`` is one world step composed from separate pieces: this
module's ``channel_step``, then its ``compute_control`` on the world as the
channel left it, then the kinematics. ``occlusim.world.step`` must return
the same and leave the same world, so a whole run checks the staged link
against code it does not share.

``run_reference`` is a whole run stepped by ``step_composed``, with its own
copy of the bookkeeping and the stop rules that
``occlusim.harness.run_scenario`` documents and its own unbraked law,
tail length and miss margin, sharing none of the harness's constants.
``run_scenario`` must return the same result and the same rows.

``write_trace_csv_rowwise`` is the trace writer in its per-row form: one
format and one ``%`` per row, every float cell formatted in its row.
``occlusim.harness.write_trace_csv`` formats the whole trace in one ``%``
and reuses a speed or pressure text while the float object repeats, and
must return the same text.

``replace`` is a config rebuilt in full from another's keys with some of
them changed, every rule and calibration run anew.
``occlusim.scenario.config_for`` copies a validated base and checks only
the speed and the strategy of the key rules, and must give the same config
or the same error.

``same_config`` tells whether two configs hold equal keys. A
``ScenarioConfig`` defines no ``==``: only tests compare configs, and
between two configs ``==`` is identity.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from occlusim import world as world_mod
from occlusim.harness import NO_TTC_SENTINEL_S, TRACE_HEADER
from occlusim.scenario import ScenarioConfig, SimResult, build_world
from occlusim.ttc import ttc
from occlusim.world import (AV_RADIUS_M, PED_RADIUS_M, R_SUM_M, brake_pressure, los_occluded,
                            sense)

FINE_DT = 1e-5
# How far, as a share of |X|^2 |V|^2, a results-only run's relative path
# must miss the contact disc for the run to end.
MISS_MARGIN = 2.0 ** -30
# The guard on the channel's timestamp comparisons.
T_EPS = 1e-9
_CHUNK = 2_000_000

# One trace row in TRACE_HEADER's column order; ped_x_m is always 0, and
# the no-valid-TTC sentinel prints bare.
_TRACE_ROW = "%.4f,%.4f,%.4f,0.0000,%.4f,%.4f,%.4f,%s,%s"
_TRACE_ROW_NO_TTC = "%.4f,%.4f,%.4f,0.0000,%.4f,10000,%.4f,%s,%s"
_BOOL_TEXT = ("false", "true")


def replace(cfg: ScenarioConfig, **changes: object) -> ScenarioConfig:
    """A copy of *cfg* with *changes* to its keys, validated and calibrated anew."""
    attrs = vars(cfg)
    return ScenarioConfig(**{key: attrs[key] for key in cfg.KEYS} | changes)


def same_config(a: ScenarioConfig, b: ScenarioConfig) -> bool:
    """Whether *a* and *b* are both configs whose keys are equal."""
    return (a.__class__ is b.__class__ is ScenarioConfig
            and all(getattr(a, key) == getattr(b, key) for key in ScenarioConfig.KEYS))


def brute_force_ttc(x: float, y: float, vx: float, vy: float, r: float,
                    dt: float = FINE_DT) -> float | None:
    """First t >= 0 with |(x, y) + (vx, vy) t| <= r, or None.

    The scan only needs to cover [0, t*] where t* is the time of closest
    approach; beyond it the separation grows forever.
    """
    r2 = r * r
    if x * x + y * y <= r2:
        return 0.0
    speed_sq = vx * vx + vy * vy
    if speed_sq == 0.0:
        return None
    t_star = -(x * vx + y * vy) / speed_sq
    if t_star <= 0.0:
        return None
    n = int(t_star / dt) + 2

    first_idx: int | None = None
    start = 0
    while start < n:
        end = min(n, start + _CHUNK)
        t = np.arange(start, end, dtype=np.float64) * dt
        sep_sq = (x + vx * t) ** 2 + (y + vy * t) ** 2
        hits = np.nonzero(sep_sq <= r2)[0]
        if hits.size:
            first_idx = start + int(hits[0])
            break
        start = end
    if first_idx is None:
        return None
    if first_idx == 0:
        return 0.0

    lo = (first_idx - 1) * dt
    hi = first_idx * dt
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (x + vx * mid) ** 2 + (y + vy * mid) ** 2 <= r2:
            hi = mid
        else:
            lo = mid
    return hi


def los_occluded_loop(sensor_x: float, sensor_y: float, target_x: float, target_y: float,
                      occluder: tuple[float, float, float, float]) -> bool:
    """True iff the open segment sensor -> target crosses the rectangle
    *occluder* = (min_x, max_x, min_y, max_y), or the target lies inside
    (or on) it: a Liang-Barsky clip that loops over the two slabs."""
    min_x, max_x, min_y, max_y = occluder

    if min_x <= target_x <= max_x and min_y <= target_y <= max_y:
        return True

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


def sense_clamped(sensor_x: float, sensor_y: float, range_m: float, cos_fov: float,
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
    if dist_sq > 0.0:
        cos_bearing = dx / math.sqrt(dist_sq)
        # Clamp against rounding before comparing with the FOV cosine.
        cos_bearing = max(-1.0, min(1.0, cos_bearing))
        if cos_bearing < cos_fov:
            return None
    return None if los_occluded_loop(sensor_x, sensor_y, 0.0, target_y, occluder) else target_y


def relative_state(ped, av):
    """Relative state of *ped* with respect to *av*, each a plain tuple
    ((x, y), (vx, vy), radius): (x, y, vx, vy, r_sum) with
    (x, y) = ped position - av position, (vx, vy) = ped velocity - av
    velocity and r_sum = ped radius + av radius."""
    ((px, py), (pvx, pvy), pr), ((ax, ay), (avx, avy), ar) = ped, av
    return px - ax, py - ay, pvx - avx, pvy - avy, pr + ar


def compute_control(world, policy):
    """One control evaluation: pick the pedestrian estimate, compute the
    TTC, and derive the pressure command. Returns (TTC, pressure, source),
    where source is "sensor", "v2v", or None when the AV has no estimate;
    the world is only read.

    The AV's own observation is preferred over V2V when both exist; a run
    without the relay never steps the channel, so it has no V2V estimate.
    A V2V estimate is extrapolated at constant velocity over its age. With
    no estimate at all the AV holds speed.
    """
    # The AV's own sensor, at its front-center, sees the pedestrian only
    # once active and on the roadway: it flags roadway intruders, not
    # people on the shoulder, while the transmitter holds the pedestrian
    # it yielded to wherever it walks.
    y = None
    ped_y = world.ped_y
    if world.t_s >= world.active_from_s and 0.0 <= ped_y <= world.road_width_m:
        y = sense(world.av_x + AV_RADIUS_M, world.av_y, world.av_sensor_range_m,
                  world.av_sensor_cos_fov, ped_y, world.occluder)
    if y is not None:
        source = "sensor"
        vy = world.ped_vy
    elif world.latest_ped_info is not None:
        source = "v2v"
        sent_at_s, msg_y, vy = world.latest_ped_info
        y = msg_y + vy * (world.t_s - sent_at_s)
    else:
        return None, 0.0, None

    # The AV moves along +x only; the pedestrian is on the walk line, x = 0,
    # and does not move along it.
    outcome = ttc(*relative_state(((0.0, y), (0.0, vy), PED_RADIUS_M),
                                  ((world.av_x, world.av_y), (world.av_speed, 0.0), AV_RADIUS_M)))
    return outcome, brake_pressure(outcome, policy), source


def channel_step(world, cfg) -> None:
    """Broadcast and delivery for one step of the pedestrian's activity, as
    :func:`occlusim.world.channel_step` documents them. The transmitter's
    center is the world's (``tx_x``, ``tx_y``), where ``build_world`` placed
    it, and its tracker sits at its front-center. Every send slot in tracker
    range spends a drop draw, in radio range or not."""
    t_s, ped_y = world.t_s, world.ped_y
    tx_x, tx_y = world.tx_x, world.tx_y
    dx, dy = 0.0 - (tx_x + AV_RADIUS_M), ped_y - tx_y
    in_tracker_range = dx * dx + dy * dy <= cfg.tx_sensor_range_m * cfg.tx_sensor_range_m
    if in_tracker_range and t_s >= world.next_send_s - T_EPS:
        world.next_send_s = t_s + cfg.bsm_period_s
        in_range = math.hypot(world.av_x - tx_x, world.av_y - tx_y) <= cfg.v2v_range_m
        dropped = cfg.drop_prob > 0.0 and world.rng.random() < cfg.drop_prob
        if in_range and not dropped:
            world.in_flight.append((t_s, ped_y, world.ped_vy))
    while world.in_flight and world.in_flight[0][0] + cfg.latency_s <= t_s + T_EPS:
        world.latest_ped_info = world.in_flight.popleft()


def step_composed(world, dt: float, policy, channel, v2v_enabled: bool):
    """Advance *world* one step as :func:`occlusim.world.step` documents it,
    with the control from :func:`compute_control`; returns (TTC, pressure,
    source, contact)."""
    av_x, ped_y, t_s = world.av_x, world.ped_y, world.t_s
    contact = math.hypot(0.0 - av_x, ped_y - world.av_y) <= world_mod.R_SUM_M
    active = t_s >= world.active_from_s
    if v2v_enabled and active:
        channel_step(world, channel)
    outcome, pressure, source = compute_control(world, policy)
    speed = world.av_speed
    if pressure != 0.0:
        speed -= world_mod.deceleration_for(pressure, policy) * dt
        if speed <= 0.0:
            speed = 0.0
        world.av_speed = speed
    world.av_x = av_x + speed * dt
    if active:
        world.ped_y = ped_y + world.ped_vy * dt
    world.t_s = t_s + dt
    return outcome, pressure, source, contact


def run_reference(cfg, braking: bool = True) -> tuple[SimResult, list[tuple]]:
    """Run *cfg* to its end with :func:`step_composed` and return the result
    row and the trace rows :func:`occlusim.harness.run_scenario` documents.

    The run ends after the first step whose start had contact, or 5 s after
    the pedestrian has cleared the AV's lane by more than R_SUM_M. A run
    with ``cfg.tail_s`` 0 also ends after the first step that has a TTC of
    None, once it has detected, when the relative path from the world after
    the step, X + V t with X = (-av_x, ped_y - av_y) and
    V = (-av_speed, ped_vy), misses the contact disc:
    cross^2 - R_SUM_M^2 a > MISS_MARGIN |X|^2 a, with a = V.V and
    cross = X x V. An unbraked run uses a law whose threshold no TTC is at
    or below."""
    w = build_world(cfg)
    policy = cfg if braking else SimpleNamespace(tau_max_s=-1.0)
    clearance_y = cfg.av_lane_y + world_mod.R_SUM_M
    sight = (w.av_y, w.occluder)
    rows = []
    detected_at = first_ttc = min_ttc = collision_at = cleared_at = None
    max_pressure = 0.0
    while True:
        t_s = w.t_s
        ttc_s, pressure, source, contact = step_composed(w, cfg.dt_s, policy, cfg, cfg.v2v)
        if source is not None and detected_at is None:
            detected_at, first_ttc = t_s, ttc_s
        if ttc_s is not None and (min_ttc is None or ttc_s < min_ttc):
            min_ttc = ttc_s
        max_pressure = max(max_pressure, pressure)
        rows.append((w.t_s, w.av_x, w.av_speed, w.ped_y, ttc_s, pressure, source, sight))
        if contact:
            collision_at = t_s
            break
        if cleared_at is None and w.ped_y > clearance_y:
            cleared_at = w.t_s
        if cleared_at is not None and w.t_s >= cleared_at + 5.0:
            break
        if cfg.tail_s == 0.0 and detected_at is not None and ttc_s is None:
            x, y = 0.0 - w.av_x, w.ped_y - w.av_y
            vx, vy = 0.0 - w.av_speed, w.ped_vy
            a = vx * vx + vy * vy
            cross = x * vy - y * vx
            if cross * cross - R_SUM_M * R_SUM_M * a > MISS_MARGIN * (x * x + y * y) * a:
                break
    result = SimResult(cfg.av_speed_mph, "with_v2v" if cfg.v2v else "without_v2v", detected_at,
                       first_ttc, min_ttc, collision_at is not None, collision_at, max_pressure)
    return result, rows


def write_trace_csv_rowwise(trace: list[tuple]) -> str:
    """Per-step trace as CSV text, from rows in the order
    :func:`occlusim.harness.run_scenario` records them. The ped_x_m column
    keeps the trace's layout: the pedestrian crosses at x = 0, so it is
    always 0.0000. The occluded column is the sight line from the AV's
    front-center sensor to the pedestrian, checked against the row's
    occluder."""
    if not trace:
        raise ValueError("no trace rows to serialize")
    lines = [TRACE_HEADER]
    append = lines.append
    for t_s, av_x, speed, ped_y, ttc_s, pressure, source, (sensor_y, occluder) in trace:
        occluded = los_occluded(av_x + AV_RADIUS_M, sensor_y, 0.0, ped_y, occluder)
        detected = source is not None
        # One format per row; %.4f prints exactly what f"{x:.4f}" does.
        if ttc_s is None or ttc_s >= NO_TTC_SENTINEL_S:
            append(_TRACE_ROW_NO_TTC % (t_s, av_x, speed, ped_y, pressure,
                                        _BOOL_TEXT[detected], _BOOL_TEXT[occluded]))
        else:
            append(_TRACE_ROW % (t_s, av_x, speed, ped_y, ttc_s, pressure,
                                 _BOOL_TEXT[detected], _BOOL_TEXT[occluded]))
    return "\n".join(lines) + "\n"
