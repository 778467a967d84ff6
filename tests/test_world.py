import math
import random

import pytest

from occlusim.braking import BrakePolicy
from occlusim.geometry import ActorState, Vec2
from occlusim.world import (
    ChannelModel,
    SensorModel,
    V2VMessage,
    VehicleBody,
    WorldState,
    channel_step,
    compute_control,
    los_occluded,
    sense,
    step,
)

BODY = VehicleBody(length_m=4.45, width_m=1.8)


def make_world(av_pos=(-50.0, 5.4864), av_speed=20.0, ped_pos=(0.0, 2.0),
               ped_vel=(0.0, 1.2192), tx_pos=(-2.2, 1.8288), entry=0.0,
               av_sensor=None, tx_range=150.0, seed=0) -> WorldState:
    """A hand-built three-actor world for targeted checks."""
    return WorldState(
        av_x=av_pos[0],
        av_y=av_pos[1],
        av_speed=av_speed,
        av_radius_m=2.22504,
        av_sensor=av_sensor or SensorModel(150.0, math.pi / 2),
        transmitter=ActorState(Vec2(*tx_pos), Vec2(0.0, 0.0), 2.22504),
        transmitter_body=BODY,
        tx_sensor_range_m=tx_range,
        ped_x=ped_pos[0],
        ped_y=ped_pos[1],
        ped_vx=ped_vel[0],
        ped_vy=ped_vel[1],
        ped_radius_m=1.524,
        ped_entry_time_s=entry,
        road_width_m=14.6304,
        rng=random.Random(seed),
    )


IDEAL = ChannelModel(latency_s=0.0, drop_prob=0.0, range_m=300.0, period_s=0.02)
POLICY = BrakePolicy()


class TestLosOccluded:
    def test_collinear_blocking(self):
        assert los_occluded(0, 0, 20, 0, Vec2(10, 0), BODY)

    def test_segment_clears_rectangle(self):
        assert not los_occluded(0, 0, 20, 10, Vec2(10, 0), BODY)

    def test_target_inside_footprint(self):
        assert los_occluded(0, 0, 10.5, 0.4, Vec2(10, 0), BODY)

    def test_target_on_footprint_boundary(self):
        assert los_occluded(0, 5, 10.0, BODY.width_m / 2, Vec2(10, 0), BODY)

    def test_segment_test_symmetric(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            b = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            occ = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            inside_a = abs(a.x - occ.x) <= BODY.length_m / 2 and abs(a.y - occ.y) <= BODY.width_m / 2
            inside_b = abs(b.x - occ.x) <= BODY.length_m / 2 and abs(b.y - occ.y) <= BODY.width_m / 2
            if inside_a or inside_b:
                continue
            forward = los_occluded(a.x, a.y, b.x, b.y, occ, BODY)
            assert forward == los_occluded(b.x, b.y, a.x, a.y, occ, BODY)

    def test_rectangle_fully_aside_never_blocks(self):
        # Occluder strictly on one side of the segment's bounding box.
        rng = random.Random(13)
        for _ in range(100):
            a = Vec2(rng.uniform(-20, 0), rng.uniform(-5, 5))
            b = Vec2(rng.uniform(1, 20), rng.uniform(-5, 5))
            occ = Vec2(rng.uniform(-20, 20), 5 + BODY.width_m / 2 + rng.uniform(0.01, 10))
            assert not los_occluded(a.x, a.y, b.x, b.y, occ, BODY)


class TestSense:
    def test_clear_line_of_sight(self):
        target = (30.0, 0.0, 0.0, 1.0)
        model = SensorModel(150.0, math.pi / 4)
        assert sense(0, 0, model, target, []) == target

    def test_blocked_by_occluder(self):
        target = (20.0, 0.0, 0.0, 1.0)
        model = SensorModel(150.0, math.pi / 4)
        assert sense(0, 0, model, target, [(Vec2(10, 0), BODY)]) is None

    def test_range_boundary_exclusive_beyond(self):
        model = SensorModel(150.0, math.pi / 4)
        assert sense(0, 0, model, (151.0, 0.0, 0.0, 0.0), []) is None
        assert sense(0, 0, model, (150.0, 0.0, 0.0, 0.0), []) is not None

    def test_fov_gates_lateral_targets(self):
        model = SensorModel(150.0, math.pi / 4)
        assert sense(0, 0, model, (10.0, 9.0, 0.0, 0.0), []) is not None
        assert sense(0, 0, model, (10.0, 11.0, 0.0, 0.0), []) is None

    def test_full_circle_fov_sees_behind(self):
        model = SensorModel(150.0, math.pi)
        assert sense(0, 0, model, (-10.0, 0.0, 0.0, 0.0), []) is not None


class TestChannel:
    def test_same_step_delivery_with_zero_latency(self):
        w = make_world()
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is not None
        assert (w.latest_ped_info.ped_x, w.latest_ped_info.ped_y) == (w.ped_x, w.ped_y)

    # With the transmitter at x = -radius its tracker, at the front-center,
    # sits on the origin; the pedestrian stands 10 m behind it.

    def test_tracker_relays_pedestrian_behind_it(self):
        w = make_world(tx_pos=(-2.22504, 0.0), ped_pos=(-10.0, 0.0), tx_range=10.0)
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is not None
        assert (w.latest_ped_info.ped_x, w.latest_ped_info.ped_y) == (w.ped_x, w.ped_y)

    def test_tracker_ignores_pedestrian_beyond_range(self):
        w = make_world(tx_pos=(-2.22504, 0.0), ped_pos=(-10.0, 0.0), tx_range=9.99)
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is None
        assert not w.in_flight
        assert w.next_send_s == 0.0  # no send slot consumed

    def test_drop_prob_one_never_delivers(self):
        w = make_world()
        lossy = ChannelModel(latency_s=0.0, drop_prob=1.0, range_m=300.0, period_s=0.02)
        for _ in range(50):
            step(w, 0.02, POLICY, lossy, v2v_enabled=True)
        assert w.latest_ped_info is None

    def test_latency_delays_delivery_five_steps(self):
        w = make_world()
        delayed = ChannelModel(latency_s=0.1, drop_prob=0.0, range_m=300.0, period_s=0.02)
        deliveries = []
        for k in range(10):
            channel_step(w, delayed, 0.02)
            deliveries.append(w.latest_ped_info is not None)
            w.t_s += 0.02
        # First send at t=0; first delivery once 0.1 s has elapsed (step 5).
        assert deliveries[:5] == [False] * 5
        assert deliveries[5] is True

    def test_out_of_range_messages_not_sent(self):
        w = make_world(av_pos=(-500.0, 5.4864))
        short = ChannelModel(latency_s=0.0, drop_prob=0.0, range_m=300.0, period_s=0.02)
        channel_step(w, short, 0.02)
        assert w.latest_ped_info is None
        assert not w.in_flight

    def test_no_broadcast_before_pedestrian_entry(self):
        w = make_world(entry=1.0)
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is None

    def test_period_limits_send_rate(self):
        w = make_world()
        slow = ChannelModel(latency_s=10.0, drop_prob=0.0, range_m=300.0, period_s=0.1)
        for _ in range(10):
            channel_step(w, slow, 0.02)
            w.t_s += 0.02
        # 0.2 s elapsed at 0.1 s period: sends at t=0 and t=0.1 only.
        assert len(w.in_flight) == 2

    def test_seeded_drops_reproducible(self):
        lossy = ChannelModel(latency_s=0.0, drop_prob=0.5, range_m=300.0, period_s=0.02)

        def run(seed):
            w = make_world(seed=seed)
            pattern = []
            for _ in range(40):
                channel_step(w, lossy, 0.02)
                pattern.append(len(w.in_flight) + (w.latest_ped_info is not None))
                w.t_s += 0.02
            return pattern

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestComputeControl:
    def test_no_estimate_no_brake(self):
        w = make_world(entry=100.0)
        outcome, pressure = compute_control(w, POLICY, v2v_enabled=True)
        assert outcome is None
        assert pressure == 0.0
        assert w.detected_time_s is None

    def test_v2v_estimate_six_second_ttc_gives_80_bar(self):
        # Head-on V2V geometry engineered to a 6 s TTC.
        w = make_world(av_pos=(-100.0, 5.4864), av_speed=20.0,
                       ped_pos=(0.0, 5.4864), ped_vel=(0.0, 0.0))
        gap = 6.0 * 20.0 + 3.74904  # contact in exactly 6 s
        w.av_x = -gap
        # Occluded from the AV: inject the relay estimate directly.
        channel_step(w, IDEAL, 0.02)
        w.av_sensor = SensorModel(1.0, math.pi / 2)
        outcome, pressure = compute_control(w, POLICY, v2v_enabled=True)
        assert outcome == pytest.approx(6.0, rel=1e-12)
        assert pressure == pytest.approx(80.0, rel=1e-12)

    def test_v2v_disabled_ignores_relay(self):
        w = make_world(av_pos=(-120.0, 5.4864),
                       av_sensor=SensorModel(10.0, math.pi / 2))
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is not None
        outcome, pressure = compute_control(w, POLICY, v2v_enabled=False)
        assert outcome is None and pressure == 0.0

    def test_own_sensor_preferred_over_v2v(self):
        w = make_world(av_pos=(-30.0, 5.4864), ped_pos=(0.0, 4.5), tx_pos=(-200.0, 1.8288))
        channel_step(w, IDEAL, 0.02)
        compute_control(w, POLICY, v2v_enabled=True)
        assert w.last_estimate == "sensor"

    def test_shoulder_pedestrian_is_relayed_not_sensed(self):
        # In range and in clear view, but off the roadway (y < 0).
        w = make_world(av_pos=(-30.0, 5.4864), ped_pos=(0.0, -1.0), tx_pos=(-100.0, 1.8288))
        occluders = [(w.transmitter.pos, w.transmitter_body)]
        target = (w.ped_x, w.ped_y, w.ped_vx, w.ped_vy)
        assert sense(w.av_x + w.av_radius_m, w.av_y, w.av_sensor, target, occluders) is not None
        outcome, pressure = compute_control(w, POLICY, v2v_enabled=False)
        assert outcome is None and pressure == 0.0
        assert w.last_estimate is None
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is not None
        assert (w.latest_ped_info.ped_x, w.latest_ped_info.ped_y) == (w.ped_x, w.ped_y)

    def test_v2v_extrapolates_stale_messages(self):
        # Pedestrian not yet active, so no fresh broadcast overwrites the
        # queued stale message. Sent at t = 0 and read at t = 0.5, it puts
        # the pedestrian 1 m further along its -x walk: head-on at 22 m/s,
        # contact is 6 s away (6.045 s from the stale position).
        w = make_world(av_pos=(-(1.0 + 3.74904 + 6.0 * 22.0), 5.4864), entry=100.0)
        w.in_flight.append(V2VMessage(0.0, 0.0, 5.4864, -2.0, 0.0))
        w.t_s = 0.5
        channel_step(w, IDEAL, 0.02)
        outcome, _ = compute_control(w, POLICY, v2v_enabled=True)
        assert w.last_estimate == "v2v"
        assert outcome == pytest.approx(6.0, rel=1e-12)

    def test_detected_time_latches_once(self):
        w = make_world(av_pos=(-30.0, 5.4864), ped_pos=(0.0, 4.5), tx_pos=(-200.0, 1.8288))
        compute_control(w, POLICY, v2v_enabled=False)
        first = w.detected_time_s
        assert first is not None
        w.t_s += 0.5
        compute_control(w, POLICY, v2v_enabled=False)
        assert w.detected_time_s == first


class TestStep:
    def test_full_brake_euler_arithmetic(self):
        w = make_world(av_pos=(-100.0, 5.4864), av_speed=20.0,
                       ped_pos=(0.0, 5.4864), ped_vel=(0.0, 0.0))
        # Overlapping estimate: full pressure this step.
        w.av_x = -1.0
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.last_pressure_bar == 200.0
        assert w.av_speed == pytest.approx(20.0 - 8.0 * 0.02, rel=1e-12)

    def test_channel_not_stepped_without_relay(self):
        # Nothing reads the channel then, and its drop draws are the only
        # use of the seeded generator.
        w = make_world()
        lossy = ChannelModel(latency_s=0.0, drop_prob=0.5, range_m=300.0, period_s=0.02)
        rng_state = w.rng.getstate()
        for _ in range(10):
            step(w, 0.02, POLICY, lossy, v2v_enabled=False)
        assert w.latest_ped_info is None and not w.in_flight
        assert w.rng.getstate() == rng_state

    def test_speed_clamps_at_zero(self):
        w = make_world(av_pos=(-1.0, 5.4864), av_speed=0.05,
                       ped_pos=(0.0, 5.4864), ped_vel=(0.0, 0.0))
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.av_speed == 0.0

    def test_pedestrian_advances_at_walk_speed(self):
        w = make_world(ped_pos=(0.0, 2.0), ped_vel=(0.0, 1.2192))
        y0 = w.ped_y
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.ped_y == pytest.approx(y0 + 0.024384, rel=1e-12)

    def test_pedestrian_holds_before_entry(self):
        w = make_world(entry=5.0)
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.ped_y == 2.0

    def test_collision_latch_is_monotone(self):
        w = make_world(av_pos=(-2.0, 5.4864), av_speed=30.0,
                       ped_pos=(0.0, 5.4864), ped_vel=(0.0, 1.2192))
        for _ in range(200):
            step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
            if w.collided:
                break
        assert w.collided
        t_hit = w.collision_time_s
        for _ in range(50):
            step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.collided
        assert w.collision_time_s == t_hit

    def test_speed_never_increases(self):
        w = make_world(av_pos=(-80.0, 5.4864), av_speed=15.0)
        speeds = [w.av_speed]
        for _ in range(400):
            step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
            speeds.append(w.av_speed)
        for earlier, later in zip(speeds, speeds[1:]):
            assert later <= earlier + 1e-12
        assert all(s >= 0.0 for s in speeds)
