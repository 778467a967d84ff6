"""Default sweeps away from the default config reproduce stored digests.

The byte golden in test_golden.py covers only the default config. These
sha256 digests of results.csv pin the sweep at other step sizes, a full
circle sensor, a late channel and a lossy channel, so a change that moves
outputs off the default path still fails here. Regenerate the JSON with
``PYTHONPATH=src python tests/test_golden_grid.py`` only when an output
change is intended and explained.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from occlusim import ScenarioConfig, SweepSpec, sweep, write_results_csv

GOLDEN = Path(__file__).resolve().with_name("golden_grid_sha256.json")

GRID = {
    "dt_s=0.005": {"dt_s": 0.005},
    "dt_s=0.05": {"dt_s": 0.05},
    "dt_s=0.1": {"dt_s": 0.1},
    "av_sensor_fov_half_rad=pi": {"av_sensor_fov_half_rad": math.pi},
    "latency_s=0.3": {"latency_s": 0.3},
    "drop_prob=0.5,seed=0": {"drop_prob": 0.5, "seed": 0},
    "drop_prob=0.5,seed=1": {"drop_prob": 0.5, "seed": 1},
    "drop_prob=0.5,seed=2": {"drop_prob": 0.5, "seed": 2},
}


def results_digest(overrides: dict) -> str:
    spec = SweepSpec(base=replace(ScenarioConfig(), **overrides))
    return hashlib.sha256(write_results_csv(sweep(spec)).encode()).hexdigest()


@pytest.mark.parametrize("label", GRID)
def test_sweep_results_match_stored_digest(label):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert results_digest(GRID[label]) == golden[label]


if __name__ == "__main__":
    digests = {label: results_digest(overrides) for label, overrides in GRID.items()}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
