"""Default sweeps away from the default config reproduce stored digests.

The byte golden in test_golden.py covers only the default config. These
sha256 digests of results.csv pin the sweep at other step sizes, a full
circle sensor, a late channel, a lossy channel, and a shorter radio
range, broadcast period and tracker range, so a change that moves outputs
off the default path, or reads one channel key in place of another, still
fails here. One more digest pins every results and trace CSV of the
unbraked runs with the relay on, the runs that stage the collision
premise. Regenerate the JSON with
``PYTHONPATH=src python tests/test_golden_grid.py`` only when an output
change is intended and explained.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from occlusim import ScenarioConfig, SweepSpec, run_scenario, sweep, write_results_csv
from occlusim.harness import write_trace_csv
from occlusim.scenario import replace

GOLDEN = Path(__file__).resolve().with_name("golden_grid_sha256.json")
UNBRAKED = "unbraked,with_v2v"

GRID = {
    "dt_s=0.005": {"dt_s": 0.005},
    "dt_s=0.05": {"dt_s": 0.05},
    "dt_s=0.1": {"dt_s": 0.1},
    "av_sensor_fov_half_rad=pi": {"av_sensor_fov_half_rad": math.pi},
    "latency_s=0.3": {"latency_s": 0.3},
    "drop_prob=0.5,seed=0": {"drop_prob": 0.5, "seed": 0},
    "drop_prob=0.5,seed=1": {"drop_prob": 0.5, "seed": 1},
    "drop_prob=0.5,seed=2": {"drop_prob": 0.5, "seed": 2},
    "v2v_range_m=100": {"v2v_range_m": 100.0},
    "bsm_period_s=0.1": {"bsm_period_s": 0.1},
    "tx_sensor_range_m=10": {"tx_sensor_range_m": 10.0},
}


def results_digest(overrides: dict) -> str:
    spec = SweepSpec(base=replace(ScenarioConfig(), **overrides))
    return hashlib.sha256(write_results_csv(sweep(spec)).encode()).hexdigest()


def unbraked_digest() -> str:
    """One digest over the results CSV of the unbraked default speeds with
    the relay on, followed by each run's trace CSV in speed order."""
    runs = [run_scenario(cfg, braking=False) for cfg in SweepSpec().configs if cfg.v2v]
    h = hashlib.sha256(write_results_csv([result for result, _ in runs]).encode())
    for _, trace in runs:
        h.update(write_trace_csv(trace).encode())
    return h.hexdigest()


@pytest.mark.parametrize("label", GRID)
def test_sweep_results_match_stored_digest(label):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert results_digest(GRID[label]) == golden[label]


def test_unbraked_runs_match_stored_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert unbraked_digest() == golden[UNBRAKED]


if __name__ == "__main__":
    digests = {label: results_digest(overrides) for label, overrides in GRID.items()}
    digests[UNBRAKED] = unbraked_digest()
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
