"""Hypothesis properties of whole runs.

Metamorphic relations between runs: the channel knobs cannot touch a run
without the relay, the relay can only bring detection forward, and a late
or lossy relay can only push it back. Trace invariants of every calibrated
run: time strictly increases, the AV never speeds up, the pressure stays
within [0, p_max], and there is one row per step. And a robustness
property: any finite config is either rejected at load time, by a config
error naming a key or by a calibration error, or steps with finite state
and bounded commands.
"""

import math
import re
from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from occlusim import ScenarioConfig, run_scenario, write_results_csv
from occlusim import world as world_mod
from occlusim.harness import DEFAULT_SWEEP_SPEEDS_MPH
from occlusim.scenario import CalibrationError, ConfigError, build_world, config_for

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

FLOAT_KEYS = [f.name for f in fields(ScenarioConfig) if isinstance(f.default, float)]
KEY_PREFIX = re.compile(rf"^({'|'.join(f.name for f in fields(ScenarioConfig))}): ")

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
    assert len(trace) == steps
    for earlier, later in zip(trace, trace[1:]):
        assert later.t_s > earlier.t_s
        assert later.av_speed_mps <= earlier.av_speed_mps
    assert all(0.0 <= row.pressure_bar <= cfg.p_max_bar for row in trace)


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
    except CalibrationError:
        return
    policy, channel = cfg.policy(), cfg.channel()
    for _ in range(200):
        world_mod.step(w, cfg.dt_s, policy, channel, cfg.v2v)
        for value in (w.av_x, w.av_y, w.av_speed, w.ped_x, w.ped_y):
            assert math.isfinite(value)
        assert w.last_ttc_s is None or (math.isfinite(w.last_ttc_s) and w.last_ttc_s >= 0.0)
        assert 0.0 <= w.last_pressure_bar <= cfg.p_max_bar
