"""Default sweeps away from the default config reproduce stored digests.

The byte golden in test_golden.py covers only the default config. These
sha256 digests of results.csv pin the sweep at other step sizes, a full
circle sensor, a late channel, a lossy channel, and a shorter radio
range, broadcast period and tracker range, so a change that moves outputs
off the default path, or reads one channel key in place of another, still
fails here. One more digest pins every results and trace CSV of the
unbraked runs with the relay on, the runs that stage the collision
premise. Each sweep is one of tools/ab.py's base configs, run through its
``sweep_output``; that tool's byte matrix, whose digests tests/test_ab.py
stores, pins those bases' traces too. Regenerate the JSON with
``PYTHONPATH=src python tests/test_golden_grid.py`` only when an output
change is intended and explained.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import occlusim
from occlusim import SweepSpec, run_scenario, write_results_csv
from occlusim.harness import write_trace_csv

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

GOLDEN = Path(__file__).resolve().with_name("golden_grid_sha256.json")
UNBRAKED = "unbraked,with_v2v"

# Base configs of tools/ab.py, by its labels, in the stored file's order.
LABELS = (
    "dt_s=0.005", "dt_s=0.05", "dt_s=0.1", "av_sensor_fov_half_rad=pi", "latency_s=0.3",
    "drop_prob=0.5,seed=0", "drop_prob=0.5,seed=1", "drop_prob=0.5,seed=2",
    "v2v_range_m=100", "bsm_period_s=0.1", "tx_sensor_range_m=10",
)


def sweep_digest(label: str) -> str:
    """sha256 of the results CSV of a sweep of tools/ab.py's base *label*."""
    return hashlib.sha256(ab.sweep_output(occlusim, ab.BASES[label])).hexdigest()


def unbraked_digest() -> str:
    """One digest over the results CSV of the unbraked default speeds with
    the relay on, followed by each run's trace CSV in speed order."""
    runs = [run_scenario(cfg, braking=False) for cfg in SweepSpec().configs if cfg.v2v]
    h = hashlib.sha256(write_results_csv([result for result, _ in runs]).encode())
    for _, trace in runs:
        h.update(write_trace_csv(trace).encode())
    return h.hexdigest()


@pytest.mark.parametrize("label", LABELS)
def test_sweep_results_match_stored_digest(label):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sweep_digest(label) == golden[label]


def test_unbraked_runs_match_stored_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert unbraked_digest() == golden[UNBRAKED]


if __name__ == "__main__":
    digests = {label: sweep_digest(label) for label in LABELS}
    digests[UNBRAKED] = unbraked_digest()
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
