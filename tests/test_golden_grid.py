"""The unbraked runs with the relay on, the runs that stage the collision
premise, write the bytes stored for them in tests/outputs_sha256.json.

They are 13 of the 52 runs whose outputs the default base's ``"runs"``
digest hashes. Here they are built as a user builds them, from the
default sweep's configs through the public ``run_scenario`` and CSV
writers, and take their places among the other runs of that base in
tools/ab.py's matrix order. The store is re-stored only by
``PYTHONPATH=src python tests/test_ab.py``.
"""

import hashlib
import json
from pathlib import Path

import occlusim
from conftest import ab
from occlusim import SweepSpec, run_scenario, write_results_csv
from occlusim.harness import write_trace_csv

DIGESTS = Path(__file__).resolve().parent / "outputs_sha256.json"


def test_unbraked_runs_match_stored_digest():
    unbraked = {cfg.av_speed_mph: cfg for cfg in SweepSpec().configs if cfg.v2v}
    runs = hashlib.sha256()
    for _, base, speed, v2v, braked in ab.matrix({"default": ab.BASES["default"]}):
        if v2v and not braked:
            result, trace = run_scenario(unbraked.pop(speed), braking=False)
            runs.update((write_results_csv([result]) + write_trace_csv(trace)).encode())
        else:
            runs.update(ab.run_output(occlusim, base, speed, v2v, braked))
    assert not unbraked
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert runs.hexdigest() == stored["default"]["runs"]
