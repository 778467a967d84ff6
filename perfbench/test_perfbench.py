"""Safeguards of the benchmark itself.

    python3 -m pytest perfbench

They run small inputs, not the timed workloads: the tracer puts back every
object it replaced, traced outputs are byte-identical to untraced ones,
traced counts repeat exactly, the stored reference agrees with the README
table, and the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from workloads import (  # noqa: E402
    Job,
    JobCheck,
    Workload,
    check_reference_against_paper,
    lossy_configs,
)

cli, world_mod = bench.import_occlusim()

from tracer import Tracer, patch_points  # noqa: E402


class SmallWorkload(Workload):
    """A few runs that reach every traced layer: a sweep, a traced run,
    and a sweep over a late, lossy channel."""

    name = "small"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        cfg = workdir / "lossy.cfg"
        cfg.write_text(lossy_configs(seed)[0], encoding="utf-8")
        paths = [str(workdir / name) for name in ("a.csv", "b.csv", "t.csv", "c.csv")]
        self.jobs = [
            Job(["sweep", "--speeds", "45,70", "--out", paths[0]], [paths[0]]),
            Job(["run", "--speed", "30", "--v2v", "off", "--out", paths[1], "--trace", paths[2]],
                [paths[1], paths[2]]),
            Job(["sweep", "--config", str(cfg), "--speeds", "45", "--out", paths[3]], [paths[3]]),
        ]

    def check_job(self, job: Job, outputs: dict[str, bytes | None]) -> JobCheck:
        return JobCheck()


def _traced_pass(tracer: Tracer, workload: Workload) -> tuple[bench.PassResult, dict]:
    tracer.reset_counts()
    tracer.install()
    try:
        result = bench.run_pass(cli, workload)
    finally:
        tracer.uninstall()
    return result, tracer.counts()


def test_stored_reference_matches_readme_table():
    assert check_reference_against_paper() == []


def test_tracer_puts_back_every_object():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in patch_points()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not orig for o, a, orig in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is orig for o, a, orig in originals)


def test_traced_run_is_byte_identical_and_counts_repeat(tmp_path):
    workload = SmallWorkload(seed=3, workdir=tmp_path)
    plain = bench.run_pass(cli, workload)
    assert plain.failed == 0, plain.errors

    tracer = Tracer(record_run=(45.0, True))
    first, counts = _traced_pass(tracer, workload)
    second, counts_again = _traced_pass(tracer, workload)

    assert first.digests == plain.digests
    assert second.digests == plain.digests
    assert counts == counts_again
    # Every layer the workloads depend on was reached.
    for name in ("world.channel.in_flight_max", "world.channel.delivered",
                 "harness.trace_rows.written", "scenario.load_config.calls",
                 "geometry.vec2_new.calls", "units.calls"):
        assert counts[name] > 0, name
    assert counts["harness.trace_rows.built"] == counts["world.step.calls"]
    assert 0.0 < counts["harness.trace_use_frac"] < 1.0
    # Spans were kept for the named run only, each inside its parent.
    spans = {span[0]: span for span in tracer.spans}
    roots = [s for s in spans.values() if s[1] == 0]
    assert [s[2] for s in roots] == ["harness.run_scenario"]
    for span_id, parent, _, start, end in spans.values():
        if parent:
            assert spans[parent][3] <= start <= end <= spans[parent][4]


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [*Tracer().counts(), *Tracer().self_times(), "trace.overhead_frac"]
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(names)
    for metric in declared["per_layer"]:
        assert metric["unit"] == bench.per_layer_unit(metric["name"]), metric
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END_UNITS


def test_lossy_configs_follow_the_seed():
    assert lossy_configs(5) == lossy_configs(5)
    assert lossy_configs(5) != lossy_configs(6)
    for seed in range(20):
        for text in lossy_configs(seed):
            values = dict(line.split(" = ") for line in text.splitlines())
            latency = float(values["latency_s"])
            assert 0.1 <= latency <= 1.0
            assert abs(latency / 0.02 - round(latency / 0.02)) < 1e-9
            assert 0.2 <= float(values["drop_prob"]) <= 0.9


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "sweep_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
