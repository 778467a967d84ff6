import copy
import math
import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle import channel_step as channel_step_reference
from _oracle import compute_control, los_occluded_loop, replace, sense_clamped, step_composed
from occlusim import world as world_mod
from occlusim.geometry import Vec2
from occlusim.harness import run_scenario, write_results_csv, write_trace_csv
from occlusim.scenario import ScenarioConfig, build_world, config_for
from occlusim.ttc import ttc
from occlusim.world import (
    _T_EPS,
    AV_RADIUS_M,
    R_SUM_M,
    WorldState,
    channel_step,
    los_occluded,
    sense,
    step,
)

LENGTH, WIDTH = 4.45, 1.8


def rect(cx: float, cy: float) -> tuple[float, float, float, float]:
    """Bounds of a LENGTH x WIDTH footprint centered on (cx, cy)."""
    return (cx - LENGTH / 2, cx + LENGTH / 2, cy - WIDTH / 2, cy + WIDTH / 2)


# A footprint far off every sight line below, for sensing with no occluder.
CLEAR = rect(0.0, -1000.0)
COS_45 = math.cos(math.pi / 4)


def make_world(av_pos=(-50.0, 5.4864), av_speed=20.0, ped_y=2.0, ped_vy=1.2192,
               tx_pos=(-2.2, 1.8288), entry=0.0, sensor_range=150.0, seed=0) -> WorldState:
    """A hand-built three-actor world for targeted checks; the pedestrian
    is on the walk line, x = 0."""
    return WorldState(
        av_x=av_pos[0],
        av_y=av_pos[1],
        av_speed=av_speed,
        av_sensor_range_m=sensor_range,
        av_sensor_cos_fov=math.cos(math.pi / 2),
        transmitter=Vec2(*tx_pos),
        occluder=rect(*tx_pos),
        ped_y=ped_y,
        ped_vy=ped_vy,
        ped_entry_time_s=entry,
        road_width_m=14.6304,
        rng=random.Random(seed),
    )


# Coordinates on a coarse grid meet rectangle edges, corners and each other
# exactly, so the clip's ties and zero directions come up; any float in a
# wide box covers the rest.
COORD = st.one_of(st.integers(-4, 4).map(float), st.floats(-60.0, 60.0))


@st.composite
def rectangles(draw) -> tuple[float, float, float, float]:
    min_x, max_x = sorted((draw(COORD), draw(COORD)))
    min_y, max_y = sorted((draw(COORD), draw(COORD)))
    return (min_x, max_x, min_y, max_y)


# A 4 x 2 box with its corner on the origin, for exact boundary cases.
BOX = (0.0, 4.0, 0.0, 2.0)

# Field-of-view cosines at and just inside the full circle, where a
# bearing cosine rounded below -1 meets the gate, and the rest of [-1, 1].
COS_FOV = st.one_of(
    st.just(-1.0),
    st.sampled_from([math.nextafter(-1.0, 0.0), -1.0 + 1e-12, 0.0, COS_45, 1.0]),
    st.floats(-1.0, 1.0),
)
# Offsets down to 1e-160 and below: a squared offset is subnormal from
# about 1.5e-154 down, and 0 under about 2e-162.
TINY = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-166, -150))
SENSE_COORD = st.one_of(COORD, TINY)

# The channel is the run's config: ideal apart from a 300 m radio range.
IDEAL = ScenarioConfig(v2v_range_m=300.0)
POLICY = ScenarioConfig()


class TestLosOccluded:
    def test_collinear_blocking(self):
        assert los_occluded(0, 0, 20, 0, rect(10, 0))

    def test_segment_clears_rectangle(self):
        assert not los_occluded(0, 0, 20, 10, rect(10, 0))

    def test_target_inside_footprint(self):
        assert los_occluded(0, 0, 10.5, 0.4, rect(10, 0))

    def test_target_on_footprint_boundary(self):
        assert los_occluded(0, 5, 10.0, WIDTH / 2, rect(10, 0))

    def test_segment_test_symmetric(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            b = Vec2(rng.uniform(-30, 30), rng.uniform(-30, 30))
            occ = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            inside_a = abs(a.x - occ.x) <= LENGTH / 2 and abs(a.y - occ.y) <= WIDTH / 2
            inside_b = abs(b.x - occ.x) <= LENGTH / 2 and abs(b.y - occ.y) <= WIDTH / 2
            if inside_a or inside_b:
                continue
            forward = los_occluded(a.x, a.y, b.x, b.y, rect(occ.x, occ.y))
            assert forward == los_occluded(b.x, b.y, a.x, a.y, rect(occ.x, occ.y))

    def test_rectangle_fully_aside_never_blocks(self):
        # Occluder strictly on one side of the segment's bounding box.
        rng = random.Random(13)
        for _ in range(100):
            a = Vec2(rng.uniform(-20, 0), rng.uniform(-5, 5))
            b = Vec2(rng.uniform(1, 20), rng.uniform(-5, 5))
            occ = Vec2(rng.uniform(-20, 20), 5 + WIDTH / 2 + rng.uniform(0.01, 10))
            assert not los_occluded(a.x, a.y, b.x, b.y, rect(occ.x, occ.y))

    @pytest.mark.parametrize("sensor,target,expected", [
        ((2.0, -5.0), (2.0, 5.0), True),     # dx == 0 inside the x slab
        ((5.0, -5.0), (5.0, 5.0), False),    # dx == 0 beside it
        ((4.0, -5.0), (4.0, 5.0), True),     # dx == 0 along the right edge
        ((0.0, -5.0), (0.0, 5.0), True),     # dx == 0 along the left edge
        ((-5.0, 1.0), (9.0, 1.0), True),     # dy == 0 inside the y slab
        ((-5.0, 3.0), (9.0, 3.0), False),    # dy == 0 above it
        ((-5.0, 2.0), (9.0, 2.0), True),     # dy == 0 along the top edge
        ((-5.0, 0.0), (9.0, 0.0), True),     # dy == 0 along the bottom edge
        ((-5.0, 3.0), (-5.0, 3.0), False),   # zero-length segment outside
        ((-5.0, 1.0), (0.0, 1.0), True),     # target on the left edge
        ((10.0, 10.0), (4.0, 2.0), True),    # target on a corner
        ((4.0, 1.0), (9.0, 1.0), False),     # touches only at its sensor end
        ((-1.0, 1.0), (1.0, 3.0), False),    # touches only the corner (0, 2)
        ((2.0, 1.0), (10.0, 10.0), True),    # sensor inside
    ])
    def test_boundary_cases_match_loop_form(self, sensor, target, expected):
        assert los_occluded(*sensor, *target, BOX) is expected
        assert los_occluded_loop(*sensor, *target, BOX) is expected

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(sx=COORD, sy=COORD, tx=COORD, ty=COORD, occluder=rectangles())
    @example(sx=0.0, sy=0.0, tx=0.0, ty=0.0, occluder=(0.0, 0.0, 0.0, 0.0))
    @example(sx=-1.0, sy=0.0, tx=1.0, ty=0.0, occluder=(0.0, 0.0, -1.0, 1.0))
    def test_unrolled_clip_matches_loop_form(self, sx, sy, tx, ty, occluder):
        assert los_occluded(sx, sy, tx, ty, occluder) == los_occluded_loop(sx, sy, tx, ty, occluder)


class TestSense:
    # The target stands on the walk line, x = 0; the sensor moves instead.

    def test_clear_line_of_sight(self):
        assert sense(-30, 2.0, 150.0, COS_45, 2.0, CLEAR) == 2.0

    def test_blocked_by_occluder(self):
        assert sense(-20, 0, 150.0, COS_45, 0.0, rect(-10, 0)) is None

    def test_range_boundary_exclusive_beyond(self):
        assert sense(-151, 0, 150.0, COS_45, 0.0, CLEAR) is None
        assert sense(-150, 0, 150.0, COS_45, 0.0, CLEAR) is not None

    def test_fov_gates_lateral_targets(self):
        assert sense(-10, 0, 150.0, COS_45, 9.0, CLEAR) is not None
        assert sense(-10, 0, 150.0, COS_45, 11.0, CLEAR) is None

    def test_full_circle_fov_sees_behind(self):
        assert sense(10, 0, 150.0, math.cos(math.pi), 0.0, CLEAR) is not None

    def test_bearing_measured_from_sensor_off_the_axis(self):
        # From (-10, 3) the target at y = 9 is 6 m across: a 31 degree
        # bearing, inside the 45 degree half-angle. From (-10, -3), the
        # mirror of that sensor, it is 12 m across and outside.
        assert sense(-10, 3.0, 150.0, COS_45, 9.0, CLEAR) == 9.0
        assert sense(-10, -3.0, 150.0, COS_45, 9.0, CLEAR) is None

    def test_full_circle_sees_a_bearing_rounded_below_minus_one(self):
        # 1e-160 behind the target, dx * dx is subnormal and the bearing
        # cosine reads -1.0000056; a full-circle sensor still sees it.
        dx = 0.0 - 1e-160
        assert dx / math.sqrt(dx * dx) < -1.0
        assert sense(1e-160, 0.0, 1.0, -1.0, 0.0, CLEAR) == 0.0

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(sx=SENSE_COORD, dy=st.one_of(st.just(0.0), SENSE_COORD), ty=SENSE_COORD,
           range_m=st.one_of(st.just(150.0), st.floats(1e-300, 200.0)),
           cos_fov=COS_FOV, occluder=st.one_of(st.just(CLEAR), rectangles()))
    @example(sx=1e-160, dy=0.0, ty=0.0, range_m=1.0, cos_fov=-1.0, occluder=CLEAR)
    @example(sx=1e-160, dy=0.0, ty=0.0, range_m=1.0, cos_fov=math.nextafter(-1.0, 0.0),
             occluder=CLEAR)
    def test_fov_gate_matches_clamped_form(self, sx, dy, ty, range_m, cos_fov, occluder):
        # The sensor's lane is drawn as an offset from the target's y, so
        # tiny and zero offsets come up at every y.
        args = (sx, ty - dy, range_m, cos_fov, ty, occluder)
        assert sense(*args) == sense_clamped(*args)


# The transmitter as build_world places it for IDEAL's keys: the reference
# channel reads it from the config, the world from its own slots.
TX_POS = (-IDEAL.tx_stop_gap_m - AV_RADIUS_M, IDEAL.tx_lane_y)


def ulps_from(x: float, n: int) -> float:
    """The float *n* steps above *x*, or -*n* steps below it."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def radio_edges(draw) -> tuple[float, float, float]:
    """A radio range, then the AV's x and y: far out, exactly the range
    behind the transmitter or a float beside that, a few floats either
    side of where the AV's distance to the transmitter equals the range,
    or anywhere within twice the range."""
    tx_x, tx_y = TX_POS
    range_m = draw(st.one_of(st.sampled_from((100.0, 150.0, 300.0)), st.floats(0.5, 1000.0)))
    av_y = draw(st.one_of(st.just(tx_y), st.floats(tx_y - 20.0, tx_y + 20.0)))
    dy = av_y - tx_y
    back = tx_x - range_m
    edge = tx_x - math.sqrt(max(range_m * range_m - dy * dy, 0.0))
    av_x = draw(st.one_of(
        st.floats(1.0, 1e6).map(lambda far: back - far),
        st.floats(1.0, 1e6).map(lambda far: tx_x + range_m + far),
        st.sampled_from((-1, 0, 1)).map(lambda n: ulps_from(back, n)),
        st.integers(-3, 3).map(lambda n: ulps_from(edge, n)),
        st.floats(tx_x - 2.0 * range_m, tx_x + 2.0 * range_m),
    ))
    return range_m, av_x, av_y


class TestChannel:
    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(case=radio_edges(), drop_prob=st.sampled_from((0.0, 0.5)), seed=st.integers(0, 3))
    def test_send_slot_enqueues_what_the_unguarded_reference_does(self, case, drop_prob, seed):
        # The world rules the AV out of radio range by its gap along the
        # road before it takes the root; the reference always takes it.
        # A 10 s latency keeps every enqueued message in the queue.
        range_m, av_x, av_y = case
        channel = replace(IDEAL, v2v_range_m=range_m, latency_s=10.0, drop_prob=drop_prob)
        w = make_world(av_pos=(av_x, av_y), tx_pos=TX_POS, seed=seed)
        ref = copy.deepcopy(w)
        channel_step(w, channel, 0.02)
        channel_step_reference(ref, channel)
        assert w.next_send_s == ref.next_send_s == channel.bsm_period_s  # a send slot
        assert [*w.in_flight] == [*ref.in_flight]
        assert world_slots(w) == world_slots(ref)

    def test_same_step_delivery_with_zero_latency(self):
        w = make_world()
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info == (0.0, w.ped_y, w.ped_vy)
        assert not w.in_flight  # queued and due at once

    def test_zero_latency_send_leaves_nothing_queued_before_it(self):
        # An older message still in flight is due too; the new one is
        # delivered after it and wins.
        w = make_world()
        w.t_s = 0.5
        w.in_flight.append((0.4, 1.0, 1.0))
        channel_step(w, IDEAL, 0.02)
        assert not w.in_flight
        assert w.latest_ped_info == (0.5, w.ped_y, w.ped_vy)

    # With the transmitter at x = -radius its tracker, at the front-center,
    # sits on the origin; the pedestrian stands 10 m from it along the
    # walk line.

    def test_tracker_relays_pedestrian_beside_it(self):
        w = make_world(tx_pos=(-2.22504, 0.0), ped_y=-10.0)
        channel_step(w, replace(IDEAL, tx_sensor_range_m=10.0), 0.02)
        assert w.latest_ped_info is not None
        assert w.latest_ped_info[1] == w.ped_y

    def test_tracker_ignores_pedestrian_beyond_range(self):
        w = make_world(tx_pos=(-2.22504, 0.0), ped_y=-10.0)
        channel_step(w, replace(IDEAL, tx_sensor_range_m=9.99), 0.02)
        assert w.latest_ped_info is None
        assert not w.in_flight
        assert w.next_send_s == 0.0  # no send slot consumed

    def test_tracker_range_measured_from_its_own_position(self):
        # The tracker sits at (0, 5): a pedestrian at y = 15 is 10 m from
        # it and relayed, one at y = -5 is 10 m from it and, at a 9.99 m
        # range, not.
        w = make_world(tx_pos=(-2.22504, 5.0), ped_y=15.0)
        channel_step(w, replace(IDEAL, tx_sensor_range_m=10.0), 0.02)
        assert w.latest_ped_info is not None
        assert w.latest_ped_info[1] == 15.0
        w = make_world(tx_pos=(-2.22504, 5.0), ped_y=-5.0)
        channel_step(w, replace(IDEAL, tx_sensor_range_m=9.99), 0.02)
        assert w.latest_ped_info is None
        assert not w.in_flight

    def test_drop_prob_one_never_delivers(self):
        w = make_world()
        lossy = replace(IDEAL, drop_prob=1.0)
        for _ in range(50):
            step(w, 0.02, POLICY, lossy, v2v_enabled=True)
        assert w.latest_ped_info is None

    def test_latency_delays_delivery_five_steps(self):
        w = make_world()
        delayed = replace(IDEAL, latency_s=0.1)
        deliveries = []
        for k in range(10):
            channel_step(w, delayed, 0.02)
            deliveries.append(w.latest_ped_info is not None)
            w.t_s += 0.02
        # First send at t=0; first delivery once 0.1 s has elapsed (step 5).
        assert deliveries[:5] == [False] * 5
        assert deliveries[5] is True

    def test_out_of_range_messages_not_sent(self):
        # The AV is about 498 m from the transmitter, past the 300 m range.
        w = make_world(av_pos=(-500.0, 5.4864))
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is None
        assert not w.in_flight

    def test_no_broadcast_before_pedestrian_entry(self):
        # The step steps the channel only once the pedestrian is active:
        # until then nothing is sent and no send slot is consumed.
        w = make_world(entry=0.1)
        for _ in range(5):
            step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.latest_ped_info is None and not w.in_flight
        assert w.next_send_s == 0.0
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.latest_ped_info is not None
        assert w.latest_ped_info[0] == pytest.approx(0.1)

    def test_period_limits_send_rate(self):
        w = make_world()
        slow = replace(IDEAL, latency_s=10.0, bsm_period_s=0.1)
        for _ in range(10):
            channel_step(w, slow, 0.02)
            w.t_s += 0.02
        # 0.2 s elapsed at 0.1 s period: sends at t=0 and t=0.1 only.
        assert len(w.in_flight) == 2

    def test_seeded_drops_reproducible(self):
        lossy = replace(IDEAL, drop_prob=0.5)

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

    @pytest.mark.parametrize("channel", [{}, {"latency_s": 0.3, "drop_prob": 0.5}])
    def test_every_held_message_was_built_and_each_ideal_one_delivered(self, monkeypatch,
                                                                       channel):
        # The benchmark's tracer counts deliveries as V2VMessage calls less
        # the queue's growth. That holds only if every message the world
        # holds is one that call returned; on the ideal channel each one is
        # also delivered on the step it is built.
        made = {}
        build = world_mod.V2VMessage

        def recording(*args):
            msg = build(*args)
            made[id(msg)] = msg  # kept alive, so no id is reused
            return msg

        monkeypatch.setattr(world_mod, "V2VMessage", recording)
        cfg = replace(config_for(ScenarioConfig(), 45.0, True), **channel)
        w = build_world(cfg)
        latest, changes, queued = None, 0, 0
        for _ in range(1500):
            step(w, cfg.dt_s, cfg, cfg, True)
            if w.latest_ped_info is not latest:
                latest = w.latest_ped_info
                changes += 1
            held = [*w.in_flight] if latest is None else [latest, *w.in_flight]
            assert all(made.get(id(msg)) is msg for msg in held)
            queued = max(queued, len(w.in_flight))
        assert changes > 0
        if channel:
            assert queued > 0
        else:
            assert len(made) == changes


    @pytest.mark.parametrize("latency_s", [0.0, 0.3])
    def test_zero_latency_link_never_queues(self, monkeypatch, latency_s):
        # A zero-latency link hands each accepted message to the AV on the
        # step it is built; a delayed one queues every message. Either way
        # each built message is delivered or, at the end, still queued.
        made = []
        build = world_mod.V2VMessage

        def recording(*args):
            made.append(build(*args))
            return made[-1]

        monkeypatch.setattr(world_mod, "V2VMessage", recording)
        cfg = replace(config_for(ScenarioConfig(), 45.0, True), latency_s=latency_s)
        w = build_world(cfg)
        w.in_flight = AppendCounting()
        latest, delivered = None, 0
        for _ in range(1500):
            step(w, cfg.dt_s, cfg, cfg, True)
            if w.latest_ped_info is not latest:
                latest = w.latest_ped_info
                delivered += 1
        assert w.in_flight.appends == (len(made) if latency_s else 0)
        assert len(made) > 0 and delivered == len(made) - len(w.in_flight)
        assert bool(w.in_flight) == bool(latency_s)

    @pytest.mark.parametrize("speed", [10.0, 45.0, 70.0])
    @pytest.mark.parametrize("drop_prob", [0.0, 0.5])
    def test_sub_guard_latency_queues_yet_matches_the_zero_latency_link(self, monkeypatch,
                                                                        speed, drop_prob):
        # A latency below the clock guard is due on the sending step too,
        # but only a zero latency skips the queue: both paths give the same
        # results and trace bytes.
        queues = []

        def counting():
            queues.append(AppendCounting())
            return queues[-1]

        monkeypatch.setattr(world_mod, "deque", counting)
        assert 0.0 < 5e-10 < _T_EPS
        outputs, appends = [], []
        for latency_s in (0.0, 5e-10):
            cfg = ScenarioConfig(av_speed_mph=speed, latency_s=latency_s, drop_prob=drop_prob,
                                 seed=1)
            result, trace = run_scenario(cfg)
            outputs.append(write_results_csv([result]) + write_trace_csv(trace))
            appends.append(queues.pop().appends)
        assert appends[0] == 0 < appends[1]
        assert outputs[0] == outputs[1]


class AppendCounting(deque):
    """A deque that counts its appends."""

    appends = 0

    def append(self, item) -> None:
        self.appends += 1
        super().append(item)


def world_slots(w: WorldState) -> dict:
    """Every WorldState slot by value; the generator by its state."""
    return {name: w.rng.getstate() if name == "rng" else copy.deepcopy(getattr(w, name))
            for name in WorldState.__slots__}


class TestComputeControl:
    def test_no_estimate_no_brake(self):
        w = make_world(entry=100.0)
        assert compute_control(w, POLICY) == (None, 0.0, None)

    def test_v2v_estimate_six_second_ttc_gives_80_bar(self):
        # Head-on V2V geometry engineered to a 6 s TTC.
        w = make_world(av_pos=(-100.0, 5.4864), av_speed=20.0, ped_y=5.4864, ped_vy=0.0)
        gap = 6.0 * 20.0 + 3.74904  # contact in exactly 6 s
        w.av_x = -gap
        # Occluded from the AV: inject the relay estimate directly.
        channel_step(w, IDEAL, 0.02)
        w.av_sensor_range_m = 1.0
        outcome, pressure, source = compute_control(w, POLICY)
        assert source == "v2v"
        assert outcome == pytest.approx(6.0, rel=1e-12)
        assert pressure == pytest.approx(80.0, rel=1e-12)

    def test_own_sensor_preferred_over_v2v(self):
        w = make_world(av_pos=(-30.0, 5.4864), ped_y=4.5, tx_pos=(-200.0, 1.8288))
        channel_step(w, replace(IDEAL, tx_sensor_range_m=300.0), 0.02)
        assert w.latest_ped_info is not None
        # Put the relayed pedestrian 1 m short of the true one, so the TTC
        # tells the two estimates apart.
        sent_at_s, ped_y, ped_vy = w.latest_ped_info
        w.latest_ped_info = (sent_at_s, ped_y - 1.0, ped_vy)
        outcome, _, source = compute_control(w, POLICY)
        assert source == "sensor"
        relative = (0.0 - w.av_x, w.ped_y - w.av_y, 0.0 - w.av_speed, w.ped_vy, R_SUM_M)
        assert outcome == ttc(*relative)
        assert outcome != ttc(relative[0], relative[1] - 1.0, *relative[2:])

    def test_shoulder_pedestrian_is_relayed_not_sensed(self):
        # In range and in clear view, but off the roadway (y < 0).
        w = make_world(av_pos=(-30.0, 5.4864), ped_y=-1.0, tx_pos=(-100.0, 1.8288))
        assert sense(w.av_x + AV_RADIUS_M, w.av_y, w.av_sensor_range_m, w.av_sensor_cos_fov,
                     w.ped_y, w.occluder) is not None
        assert compute_control(w, POLICY) == (None, 0.0, None)
        channel_step(w, IDEAL, 0.02)
        assert w.latest_ped_info is not None
        assert w.latest_ped_info[1] == w.ped_y

    def test_v2v_extrapolates_stale_messages(self):
        # Every fresh broadcast is dropped, so none overwrites the queued
        # stale message, and the pedestrian stands inside the occluder,
        # hidden from the AV. Sent at t = 0 from 3 m short of the AV's
        # lane at 2 m/s and read at t = 0.5, the message puts the
        # pedestrian 1 m further across, 2 m short of the lane.
        w = make_world(av_pos=(-40.0, 5.4864), av_speed=20.0)
        stale = (0.0, 5.4864 - 3.0, 2.0)
        w.in_flight.append(stale)
        w.t_s = 0.5
        channel_step(w, replace(IDEAL, drop_prob=1.0), 0.02)
        assert not w.in_flight and w.latest_ped_info is stale
        outcome, _, source = compute_control(w, POLICY)
        assert source == "v2v"

        def first_contact(y):
            # Smaller root of |X + V t| = R_SUM_M for X = (40, y), V = (-20, 2).
            x, vx, vy = 40.0, -20.0, 2.0
            a, b, c = vx * vx + vy * vy, x * vx + y * vy, x * x + y * y - R_SUM_M * R_SUM_M
            return (-b - math.sqrt(b * b - a * c)) / a

        assert outcome == pytest.approx(first_contact((5.4864 - 2.0) - 5.4864), rel=1e-12)
        assert abs(outcome - first_contact(-3.0)) > 0.01

    @pytest.mark.parametrize("sensed, source", [(True, "sensor"), (False, "v2v")])
    def test_world_is_only_read(self, sensed, source):
        # A delivered message and one still in flight, with the pedestrian
        # in the AV's view or out of its sensor range.
        w = make_world(av_pos=(-30.0, 5.4864), ped_y=4.5, tx_pos=(-200.0, 1.8288),
                       sensor_range=150.0 if sensed else 10.0)
        channel_step(w, replace(IDEAL, tx_sensor_range_m=300.0), 0.02)
        w.in_flight.append((5.0, 4.0, 1.0))
        w.t_s = 0.5
        before = world_slots(w)
        msg = w.latest_ped_info
        outcome, pressure, got = compute_control(w, POLICY)
        assert got == source and outcome is not None and pressure > 0.0
        assert world_slots(w) == before
        assert w.latest_ped_info is msg


# The channels the step's differential property draws: ideal, late,
# lossy, and one that drops every broadcast. A brake law no TTC engages.
CHANNELS = (IDEAL, replace(IDEAL, latency_s=0.1), replace(IDEAL, drop_prob=0.5),
            replace(IDEAL, drop_prob=1.0))
UNBRAKED = SimpleNamespace(tau_max_s=-1.0)


@st.composite
def pre_step_worlds(draw):
    """A world before a step, with the step's arguments and the estimate
    source the step must report: the AV sees the pedestrian itself
    ("sensor"), knows it only from a delivered message ("v2v"), or has no
    estimate (None); the pedestrian active or not, the law braked or not."""
    source = draw(st.sampled_from(("sensor", "v2v", None)))
    t_s = draw(st.floats(0.0, 20.0))
    if source == "sensor" or draw(st.booleans()):
        entry = t_s - draw(st.floats(0.0, 5.0))
    else:
        entry = t_s + draw(st.floats(0.02, 5.0))
    if source == "sensor":
        # On the roadway, in range and in view, with the occluder behind the AV.
        av_x = draw(st.floats(-140.0, -5.0))
        ped_y = draw(st.floats(0.0, 14.6304))
        gap, sensor_range = 200.0 - AV_RADIUS_M, 150.0  # the transmitter at x = -200
    else:
        # The AV's sensor reaches nothing; the transmitter relays nearby.
        av_x = draw(st.floats(-140.0, 5.0))
        ped_y = draw(st.floats(-5.0, 20.0))
        gap, sensor_range = IDEAL.tx_stop_gap_m, 0.01
    # Placed as build_world places it: the reference channel reads the
    # transmitter from the config, the step from the world.
    tx_pos = (-gap - AV_RADIUS_M, IDEAL.tx_lane_y)
    w = make_world(av_pos=(av_x, draw(st.floats(0.0, 10.0))), av_speed=draw(st.floats(0.0, 30.0)),
                   ped_y=ped_y, ped_vy=draw(st.floats(0.0, 2.0)), tx_pos=tx_pos, entry=entry,
                   sensor_range=sensor_range, seed=draw(st.integers(0, 3)))
    w.t_s = t_s
    active = t_s >= entry
    if source == "v2v":
        w.latest_ped_info = (t_s - draw(st.floats(0.0, 2.0)), draw(st.floats(-5.0, 20.0)),
                             draw(st.floats(0.0, 2.0)))
    if source is not None and active:  # nothing is in flight before entry
        sent = sorted(draw(st.lists(st.floats(t_s - 1.0, t_s), max_size=2)))
        w.in_flight.extend((s_at, ped_y, w.ped_vy) for s_at in sent)
    channel = CHANNELS[-1] if source is None else draw(st.sampled_from(CHANNELS))
    args = (draw(st.sampled_from((0.005, 0.02, 0.1))), draw(st.sampled_from((POLICY, UNBRAKED))),
            replace(channel, tx_stop_gap_m=gap), draw(st.booleans()))
    return w, args, source


class TestStep:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(case=pre_step_worlds())
    def test_step_matches_control_on_the_channel_stepped_world(self, case):
        # The reference steps the channel on a copy of the world, runs
        # compute_control on it, then moves the actors; the step must
        # return the same and leave the same world.
        w, args, source = case
        ref = copy.deepcopy(w)
        expected = step_composed(ref, *args)
        assert expected[2] == source
        assert step(w, *args) == expected
        assert world_slots(w) == world_slots(ref)

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False))
    @example(a=5e-324, b=5e-324)
    @example(a=1e308, b=-1e308)
    @example(a=1e-200, b=R_SUM_M)
    def test_hypot_is_never_below_a_leg(self, a, b):
        # The step's contact test takes the root only when the gap across
        # the road is within R_SUM_M, which this makes exact.
        assert math.hypot(a, b) >= abs(b)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_contact_at_exactly_the_radius_sum_across_the_road(self, sign):
        w = make_world(av_pos=(0.0, 0.0), ped_y=sign * R_SUM_M, entry=100.0)
        assert step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)[3] is True
        w = make_world(av_pos=(0.0, 0.0), ped_y=sign * math.nextafter(R_SUM_M, math.inf),
                       entry=100.0)
        assert step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)[3] is False

    def test_full_brake_euler_arithmetic(self):
        w = make_world(av_pos=(-100.0, 5.4864), av_speed=20.0, ped_y=5.4864, ped_vy=0.0)
        # Overlapping estimate: full pressure this step.
        w.av_x = -1.0
        _, pressure, _, _ = step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert pressure == 200.0
        assert w.av_speed == pytest.approx(20.0 - 8.0 * 0.02, rel=1e-12)

    def test_v2v_disabled_ignores_relay(self):
        # Out of the AV's sensor range, the pedestrian is known only
        # through the relay, which a run without V2V never reads.
        relayed = make_world(av_pos=(-120.0, 5.4864), sensor_range=10.0)
        assert step(relayed, 0.02, POLICY, IDEAL, v2v_enabled=True)[2] == "v2v"
        w = make_world(av_pos=(-120.0, 5.4864), sensor_range=10.0)
        assert step(w, 0.02, POLICY, IDEAL, v2v_enabled=False) == (None, 0.0, None, False)
        assert w.latest_ped_info is None

    def test_channel_not_stepped_without_relay(self):
        # Nothing reads the channel then, and its drop draws are the only
        # use of the seeded generator.
        w = make_world()
        lossy = replace(IDEAL, drop_prob=0.5)
        rng_state = w.rng.getstate()
        for _ in range(10):
            step(w, 0.02, POLICY, lossy, v2v_enabled=False)
        assert w.latest_ped_info is None and not w.in_flight
        assert w.rng.getstate() == rng_state

    def test_speed_clamps_at_zero(self):
        w = make_world(av_pos=(-1.0, 5.4864), av_speed=0.05, ped_y=5.4864, ped_vy=0.0)
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.av_speed == 0.0

    def test_pedestrian_advances_at_walk_speed(self):
        w = make_world(ped_y=2.0, ped_vy=1.2192)
        y0 = w.ped_y
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.ped_y == pytest.approx(y0 + 0.024384, rel=1e-12)

    def test_pedestrian_holds_before_entry(self):
        w = make_world(entry=5.0)
        step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
        assert w.ped_y == 2.0

    def test_speed_never_increases(self):
        w = make_world(av_pos=(-80.0, 5.4864), av_speed=15.0)
        speeds = [w.av_speed]
        for _ in range(400):
            step(w, 0.02, POLICY, IDEAL, v2v_enabled=True)
            speeds.append(w.av_speed)
        for earlier, later in zip(speeds, speeds[1:]):
            assert later <= earlier + 1e-12
        assert all(s >= 0.0 for s in speeds)
