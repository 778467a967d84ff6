"""Hypothesis properties of whole runs.

Metamorphic relations between runs: the channel knobs cannot touch a run
without the relay, the relay can only bring detection forward, a late or
lossy relay can only push it back, and on one seed a channel no later and
no lossier than another never detects later. Trace invariants of every
calibrated run: time strictly increases, the AV never speeds up, the pressure stays
within [0, p_max], there is one row per step, the pedestrian never
leaves the walk line, and the written occluded column is the loop-form
sight-line check of the row's values. The staging premise:
every calibrated run collides when the AV never brakes. A run without the
clearance tail, as a sweep makes it, gives the full run's result and a
prefix of its trace, the relay never makes a collision that the run
without it avoids, and every run gives the result and rows of the
reference run stepped by the composed step. And a robustness
property: any finite config is either rejected at load time by a config
error naming a key, or steps with finite state and bounded commands.
"""

import math
import re

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from _oracle import los_occluded_loop, run_reference
from conftest import named_rows
from occlusim import ScenarioConfig, SweepSpec, run_scenario, sweep, write_results_csv
from occlusim import world as world_mod
from occlusim.harness import DEFAULT_SWEEP_SPEEDS_MPH, TRACE_HEADER, write_trace_csv
from occlusim.scenario import ConfigError, build_world, config_for, replace
from occlusim.world import AV_RADIUS_M

POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
# Any finite float, drawn positive more often, as most keys must be.
ANY_FINITE = st.one_of(POSITIVE, st.floats(allow_nan=False, allow_infinity=False))

# Every key that only shapes the V2V channel or its random draws.
CHANNEL_KEYS = {
    "latency_s": st.floats(0.0, allow_infinity=False),
    "drop_prob": st.floats(0.0, 1.0),
    "v2v_range_m": POSITIVE,
    "bsm_period_s": POSITIVE,
    "tx_sensor_range_m": POSITIVE,
    "seed": st.integers(),
}

FLOAT_KEYS = [k for k in ScenarioConfig.KEYS if isinstance(getattr(ScenarioConfig, k), float)]
KEY_PREFIX = re.compile(rf"^({'|'.join(ScenarioConfig.KEYS)}): ")

# A staging whose conflict falls inside the first 200 steps, so the TTC
# and the brake law run on the relayed estimate.
SHORT = ScenarioConfig(approach_time_s=3.0, ped_start_offset_m=2.0)


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(speed=st.sampled_from(DEFAULT_SWEEP_SPEEDS_MPH),
       channel=st.fixed_dictionaries({}, optional=CHANNEL_KEYS))
def test_channel_never_touches_the_unrelayed_run_or_delays_detection(sweep_runs, speed, channel):
    base_without = sweep_runs[(speed, False)][0]
    cfg = replace(ScenarioConfig(), **channel)
    without = run_scenario(config_for(cfg, speed, False))[0]
    assert write_results_csv([without]) == write_results_csv([base_without])
    relayed = run_scenario(config_for(cfg, speed, True))[0]
    # Both runs are identical until the first estimate, which the relay
    # can only bring forward.
    if without.detected_time_s is not None:
        assert relayed.detected_time_s is not None
        assert relayed.detected_time_s <= without.detected_time_s


# Calibrated configs: every test speed and step size the contact-radius
# rule admits up to 100 mph, any channel, any brake law.
CALIBRATED = st.fixed_dictionaries({
    "av_speed_mph": st.floats(10.0, 100.0),
    "v2v": st.booleans(),
    "dt_s": st.sampled_from((0.005, 0.01, 0.02, 0.05)),
    "tau_max_s": st.floats(0.5, 20.0),
    "p_max_bar": st.floats(1.0, 500.0),
    "d_max_mps2": st.floats(0.5, 12.0),
    "latency_s": st.floats(0.0, 1.0),
    "drop_prob": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**32),
})


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(keys=CALIBRATED)
def test_every_trace_keeps_its_invariants(keys):
    cfg = ScenarioConfig(**keys)
    original = world_mod.step
    steps = 0

    def counting_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return original(*args, **kwargs)

    world_mod.step = counting_step
    try:
        _, trace = run_scenario(cfg)
    finally:
        world_mod.step = original
    trace = named_rows(trace)
    assert len(trace) == steps
    for earlier, later in zip(trace, trace[1:]):
        assert later.t_s > earlier.t_s
        assert later.av_speed_mps <= earlier.av_speed_mps
    assert all(0.0 <= row.pressure_bar <= cfg.p_max_bar for row in trace)
    # The pedestrian crosses on the walk line, x = 0, whatever the step,
    # the brake law or the channel.
    ped_x_col = TRACE_HEADER.split(",").index("ped_x_m")
    rows = write_trace_csv(trace).splitlines()[1:]
    assert all(row.split(",")[ped_x_col] == "0.0000" for row in rows)
    # The occluded cell, worked out when the trace is written, is the loop
    # form's verdict on the row's unrounded floats.
    occluder = build_world(cfg).occluder
    for rec, row in zip(trace, rows, strict=True):
        blocked = los_occluded_loop(rec.av_x_m + AV_RADIUS_M, cfg.av_lane_y, 0.0, rec.ped_y_m,
                                    occluder)
        assert row.rsplit(",", 1)[1] == ("true" if blocked else "false")


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(keys=CALIBRATED)
def test_every_unbraked_calibrated_run_collides(keys):
    assert run_scenario(ScenarioConfig(**keys), braking=False)[0].collision


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(keys=CALIBRATED)
def test_results_only_run_is_a_prefix_of_the_full_run_with_its_result(keys):
    cfg = ScenarioConfig(**keys)
    for braking in (True, False):
        result, trace = run_scenario(cfg, braking)
        short_result, short_trace = run_scenario(cfg.results_only(), braking)
        assert short_result == result
        assert trace[:len(short_trace)] == short_trace
        # A detected run that clears ends before the full run's tail does.
        if not result.collision and result.detected_time_s is not None:
            assert len(short_trace) < len(trace)
        else:
            assert len(short_trace) == len(trace)


# Not shrunk: shrinking walks toward dt_s 0.005 at 10 mph, the longest
# runs, and took minutes on a 2-core host to report one failure.
@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(keys=CALIBRATED)
def test_run_matches_the_reference_run(keys):
    full = ScenarioConfig(**keys)
    for cfg in (full, full.results_only()):
        for braking in (True, False):
            result, trace = run_scenario(cfg, braking)
            ref_result, ref_trace = run_reference(cfg, braking)
            assert result == ref_result
            # Row by row, so a failure prints one row, and by repr, which
            # tells -0.0 from 0.0 where == does not.
            assert len(trace) == len(ref_trace)
            for row, ref_row in zip(trace, ref_trace):
                assert repr(row) == repr(ref_row)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(keys=CALIBRATED)
def test_relay_never_makes_a_collision_that_the_run_without_it_avoids(keys):
    # The paper's headline as a metamorphic relation (Chen et al., ACM CSUR
    # 51(1), 2018), checked through sweep(), which runs both strategies of
    # the drawn config at its speed.
    spec = SweepSpec((keys["av_speed_mph"],), ScenarioConfig(**keys))
    relayed, unrelayed = sweep(spec)
    assert (relayed.strategy, unrelayed.strategy) == ("with_v2v", "without_v2v")
    assert unrelayed.collision or not relayed.collision


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(speed=st.sampled_from(DEFAULT_SWEEP_SPEEDS_MPH),
       late=st.fixed_dictionaries({"latency_s": st.floats(0.0, 1.0),
                                   "drop_prob": st.floats(0.0, 1.0),
                                   "seed": st.integers(0, 2**32)}))
def test_late_or_lossy_relay_never_detects_earlier(sweep_runs, speed, late):
    ideal = sweep_runs[(speed, True)][0]
    lossy = run_scenario(config_for(replace(ScenarioConfig(), **late), speed, True))[0]
    # The late channel sends in the same slots as the ideal one, drops some
    # and delivers the rest later, and the AV drives the same path until
    # its first estimate.
    assert ideal.detected_time_s is not None
    assert lossy.detected_time_s is None or lossy.detected_time_s >= ideal.detected_time_s


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(speed=st.sampled_from(DEFAULT_SWEEP_SPEEDS_MPH), seed=st.integers(0, 2**32),
       latency=st.floats(0.0, 1.0), more_latency=st.floats(0.0, 1.0),
       drop=st.floats(0.0, 1.0), more_drop=st.floats(0.0, 1.0))
def test_better_channel_on_the_same_seed_never_detects_later(speed, seed, latency, more_latency,
                                                             drop, more_drop):
    # Same-seed coupling (metamorphic testing; Chen et al., ACM CSUR 51(1),
    # 2018). Each send slot draws its number whatever the drop probability,
    # so on one seed the channel with the lower drop probability drops only
    # messages the other drops too, and the lower latency delivers each one
    # no later. Both runs drive the same path until the first estimate.
    def detected(latency_s, drop_prob):
        cfg = ScenarioConfig(av_speed_mph=speed, latency_s=latency_s, drop_prob=drop_prob,
                             seed=seed)
        return run_scenario(cfg)[0].detected_time_s

    better = detected(latency, drop)
    worse = detected(latency + more_latency, min(1.0, drop + more_drop))
    assert worse is None or (better is not None and better <= worse)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(base=st.sampled_from([ScenarioConfig(), SHORT]),
       extreme=st.dictionaries(st.sampled_from(FLOAT_KEYS), ANY_FINITE, max_size=3),
       v2v=st.booleans())
def test_finite_config_is_rejected_by_name_or_steps_finitely(base, extreme, v2v):
    try:
        cfg = replace(base, v2v=v2v, **extreme)
        w = build_world(cfg)
    except ConfigError as exc:
        assert KEY_PREFIX.match(str(exc)), str(exc)
        return
    for _ in range(200):
        ttc_s, pressure, _, _ = world_mod.step(w, cfg.dt_s, cfg, cfg, cfg.v2v)
        for value in (w.av_x, w.av_y, w.av_speed, w.ped_y):
            assert math.isfinite(value)
        assert ttc_s is None or (math.isfinite(ttc_s) and ttc_s >= 0.0)
        assert 0.0 <= pressure <= cfg.p_max_bar
