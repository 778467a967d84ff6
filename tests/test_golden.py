"""The default sweep reproduces the stored reference output byte for byte.

The reference files under perfbench/reference are the benchmark's golden
outputs; these tests only read them. A change that moves any value, even
in the last printed digit, fails here; perfbench/make_reference.py
re-stores them. Every tools/ab.py base config, the default's traced runs
and the other configs' runs and sweeps, is pinned by tests/test_ab.py
against tests/outputs_sha256.json, which ``PYTHONPATH=src python
tests/test_ab.py`` re-stores.
"""

import hashlib
import json
from pathlib import Path

from occlusim import write_results_csv
from occlusim.harness import write_trace_csv

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
