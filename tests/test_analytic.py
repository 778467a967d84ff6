"""Runs checked against the closed forms of ``tests/_analytic.py``."""

import pytest
from hypothesis import Phase, given, settings

from _analytic import (first_delivery_time, first_grid_time, first_ttc, reveal_time,
                       unbraked_contact_time)
from conftest import CALIBRATED
from occlusim import ScenarioConfig, run_scenario
from occlusim.harness import DEFAULT_SWEEP_SPEEDS_MPH
from occlusim.scenario import config_for


@pytest.mark.parametrize("dt_s", [0.005, 0.02, 0.05, 0.1])
def test_detection_without_v2v_lies_within_one_step_after_the_reveal(dt_s):
    # Braking cannot start before the first estimate, so braked and
    # unbraked runs detect at the same step.
    base = ScenarioConfig(dt_s=dt_s)
    for speed in DEFAULT_SWEEP_SPEEDS_MPH:
        cfg = config_for(base, speed, False)
        reveal = reveal_time(cfg)
        for braking in (True, False):
            detected = run_scenario(cfg, braking)[0].detected_time_s
            assert 0.0 < detected - reveal <= dt_s, (speed, braking, detected, reveal)


@pytest.mark.parametrize("base", [
    {}, {"latency_s": 0.3}, {"bsm_period_s": 0.1}, {"v2v_range_m": 100.0}, {"dt_s": 0.005},
    {"dt_s": 0.05, "latency_s": 0.1},
], ids=["default", "latency_s=0.3", "bsm_period_s=0.1", "v2v_range_m=100", "dt_s=0.005",
        "dt_s=0.05,latency_s=0.1"])
def test_detection_with_v2v_is_the_step_that_sees_the_first_delivery(base):
    # With no drops the first message to reach the AV is the first
    # estimate, read on the step that sees its arrival: the first grid
    # time at or after it, within the run's T_EPS guard. 12 of these 78
    # runs read it up to 7.1e-15 s before the summed send time plus the
    # latency, so the check pins that grid time, not the window
    # [delivery, delivery + dt) it lies in up to rounding.
    base = ScenarioConfig(**base)
    for speed in DEFAULT_SWEEP_SPEEDS_MPH:
        cfg = config_for(base, speed, True)
        delivery = first_delivery_time(cfg)
        detected = run_scenario(cfg.results_only())[0].detected_time_s
        assert detected == first_grid_time(cfg, delivery), (speed, detected, delivery)


@pytest.mark.parametrize("dt_s", [0.005, 0.02, 0.05, 0.1])
def test_unbraked_collision_time_is_the_first_grid_time_the_discs_overlap(dt_s):
    base = ScenarioConfig(dt_s=dt_s)
    for speed in DEFAULT_SWEEP_SPEEDS_MPH:
        for v2v in (True, False):
            cfg = config_for(base, speed, v2v)
            result = run_scenario(cfg, braking=False)[0]
            assert result.collision_time_s == unbraked_contact_time(cfg), (speed, v2v)


@pytest.mark.parametrize("dt_s", [0.005, 0.02, 0.05, 0.1])
def test_first_ttc_is_the_closed_form_one_at_the_detection_time(dt_s):
    # Braking cannot start before the first estimate, so the braked run's
    # AV is on its unbraked path when it first computes a TTC. Its stepped
    # positions and the relay's extrapolation differ from the closed forms
    # only by rounding (2e-12 s at worst over these 104 runs).
    base = ScenarioConfig(dt_s=dt_s)
    for speed in DEFAULT_SWEEP_SPEEDS_MPH:
        for v2v in (True, False):
            cfg = config_for(base, speed, v2v)
            result = run_scenario(cfg.results_only())[0]
            expected = first_ttc(cfg, result.detected_time_s)
            assert expected is not None, (speed, v2v)
            assert abs(result.first_ttc_s - expected) <= 1e-9, (speed, v2v, result, expected)


# Not shrunk, like test_run_matches_the_reference_run in test_properties.py:
# shrinking walks toward the longest runs. No drops: a dropped message
# moves the first delivery off its closed form.
@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(keys=CALIBRATED.map(lambda keys: {**keys, "drop_prob": 0.0}))
def test_drawn_runs_meet_every_closed_form(keys):
    # The four checks above, with their bounds, on drawn configs. With the
    # relay the first estimate is the earlier of its first delivery's step
    # and the sensor's window after the reveal.
    cfg = ScenarioConfig(**keys)
    reveal = reveal_time(cfg)
    delivery = first_delivery_time(cfg) if cfg.v2v else None
    relayed = None if delivery is None else first_grid_time(cfg, delivery)
    for braking in (True, False):
        result = run_scenario(cfg.results_only(), braking)[0]
        detected = result.detected_time_s
        if relayed is not None and relayed <= reveal:
            assert detected == relayed, (braking, detected, relayed)
        else:
            assert 0.0 < detected - reveal <= cfg.dt_s, (braking, detected, reveal)
            assert relayed is None or detected <= relayed, (braking, detected, relayed)
        expected = first_ttc(cfg, detected)
        assert expected is not None, braking
        assert abs(result.first_ttc_s - expected) <= 1e-9, (braking, result, expected)
        if not braking:
            assert result.collision_time_s == unbraked_contact_time(cfg), result
