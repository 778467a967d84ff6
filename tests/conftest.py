from __future__ import annotations

import importlib.util
import os
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from occlusim import ScenarioConfig, SweepSpec, run_scenario
from occlusim.harness import DEFAULT_SWEEP_SPEEDS_MPH
from occlusim.scenario import config_for

# The package's default grid; tools/ab.py keeps its own, fixed across trees.
SWEEP_SPEEDS = DEFAULT_SWEEP_SPEEDS_MPH

# tools/ab.py, loaded once as a module for the tests that drive it or read
# its tables.
_spec = importlib.util.spec_from_file_location(
    "ab_tool", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# A named view of one trace row, for tests to read fields by name;
# run_scenario records each row as a plain tuple in this order.
StepRecord = namedtuple("StepRecord",
                        "t_s av_x_m av_speed_mps ped_y_m ttc_s pressure_bar source sight")

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


def named_rows(trace: list[tuple]) -> list[StepRecord]:
    return [StepRecord._make(row) for row in trace]


@pytest.fixture(scope="session")
def default_spec() -> SweepSpec:
    return SweepSpec(speeds_mph=SWEEP_SPEEDS, base=ScenarioConfig())


@pytest.fixture(scope="session")
def sweep_runs(default_spec):
    """All 26 default runs with traces, keyed by (speed_mph, v2v); each
    trace row is a StepRecord."""
    runs = [run_scenario(c) for c in default_spec.configs]
    keyed = {}
    for result, trace in runs:
        keyed[(result.av_speed_mph, result.strategy == "with_v2v")] = (result, named_rows(trace))
    return keyed


@pytest.fixture(scope="session")
def unmitigated_runs():
    """Braking-disabled runs at every sweep speed (the collision premise)."""
    base = ScenarioConfig()
    return {
        speed: run_scenario(ab.unbraked(config_for(base, speed, True)))[0]
        for speed in SWEEP_SPEEDS
    }
