from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from occlusim import ScenarioConfig, SweepSpec, run_scenario
from occlusim.scenario import config_for

SWEEP_SPEEDS = tuple(float(s) for s in range(10, 75, 5))


@pytest.fixture(scope="session")
def default_spec() -> SweepSpec:
    return SweepSpec(speeds_mph=SWEEP_SPEEDS, base=ScenarioConfig())


@pytest.fixture(scope="session")
def sweep_runs(default_spec):
    """All 26 default runs with traces, keyed by (speed_mph, v2v)."""
    runs = [run_scenario(c) for c in default_spec.configs]
    keyed = {}
    for result, trace in runs:
        keyed[(result.av_speed_mph, result.strategy == "with_v2v")] = (result, trace)
    return keyed


@pytest.fixture(scope="session")
def unmitigated_runs():
    """Braking-disabled runs at every sweep speed (the collision premise)."""
    base = ScenarioConfig()
    return {
        speed: run_scenario(config_for(base, speed, True), braking=False)[0]
        for speed in SWEEP_SPEEDS
    }
