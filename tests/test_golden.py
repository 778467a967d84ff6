"""The default sweep reproduces the stored reference output byte for byte.

The reference files under perfbench/reference are the benchmark's golden
outputs; these tests only read them. A change that moves any value, even
in the last printed digit, fails here.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

from conftest import SWEEP_SPEEDS
from occlusim import ScenarioConfig, SweepSpec, sweep_with_traces, write_results_csv
from occlusim.harness import write_trace_csv
from occlusim.scenario import ConfigError, calibrate_entry, config_for

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_results_csv_matches_reference(sweep_runs):
    results = [result for result, _ in sweep_runs.values()]
    golden = (REFERENCE / "results_default.csv").read_bytes()
    assert write_results_csv(results).encode() == golden


def test_trace_digests_match_reference(sweep_runs):
    golden = json.loads((REFERENCE / "trace_sha256.json").read_text(encoding="utf-8"))
    digests = {
        f"{result.av_speed_mph:g},{result.strategy}":
            hashlib.sha256(write_trace_csv(trace).encode()).hexdigest()
        for result, trace in sweep_runs.values()
    }
    assert digests == golden


def _smallest_accepted_t_end(cfg: ScenarioConfig) -> float:
    """Bisect the floats for the least t_end_s that calibrate_entry accepts."""
    rejected, accepted = cfg.dt_s, cfg.t_end_s
    while math.nextafter(rejected, accepted) < accepted:
        mid = (rejected + accepted) / 2.0
        try:
            calibrate_entry(replace(cfg, t_end_s=mid))
            accepted = mid
        except ConfigError:
            rejected = mid
    return accepted


def test_smallest_accepted_time_limit_truncates_no_run():
    base = ScenarioConfig()
    t_end = max(_smallest_accepted_t_end(config_for(base, s, True)) for s in SWEEP_SPEEDS)
    runs = sweep_with_traces(SweepSpec(speeds_mph=SWEEP_SPEEDS, base=replace(base, t_end_s=t_end)))
    golden = (REFERENCE / "results_default.csv").read_bytes()
    assert write_results_csv([result for result, _ in runs]).encode() == golden
    digests = json.loads((REFERENCE / "trace_sha256.json").read_text(encoding="utf-8"))
    for result, trace in runs:
        key = f"{result.av_speed_mph:g},{result.strategy}"
        assert hashlib.sha256(write_trace_csv(trace).encode()).hexdigest() == digests[key], key
