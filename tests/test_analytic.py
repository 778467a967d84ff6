"""Runs checked against the closed forms of ``tests/_analytic.py``."""

import pytest

from _analytic import reveal_time
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
