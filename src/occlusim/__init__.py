"""Deterministic simulator of an automated vehicle meeting a pedestrian
hidden by a stopped vehicle, with and without V2V relay of the
pedestrian's state."""

from .harness import SweepSpec, run_scenario, sweep, write_results_csv
from .scenario import ScenarioConfig

__version__ = "0.1.0"
