"""The benchmark's workloads: the CLI calls of one pass and their output checks.

A workload is built from the seed alone and handed to the program only as
command-line arguments and generated config files. Every check here holds
for any seed; the few digests stored per seed are extra.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The paper's speed grid, 10..70 mph in 5 mph steps, both strategies each.
SPEEDS = tuple(range(10, 75, 5))
STRATEGIES = ("with_v2v", "without_v2v")

# Seed whose lossy_channel outputs have a stored digest.
DEFAULT_SEED = 0
LOSSY_CONFIGS = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the files it must write."""

    argv: list[str]
    outputs: list[str]
    key: str = ""


@dataclass
class JobCheck:
    errors: list[str] = field(default_factory=list)
    trace_rows: int = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_results() -> bytes:
    return (REFERENCE_DIR / "results_default.csv").read_bytes()


def _load_json(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def parse_results(data: bytes) -> tuple[str, dict[tuple[str, str], str]]:
    """Header line and {(speed, strategy): row line} of a results.csv."""
    lines = data.decode("utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        speed, strategy, _ = line.split(",", 2)
        rows[(speed, strategy)] = line
    return lines[0], rows


def _detected(row: str) -> float:
    cell = row.split(",")[2]
    return float("inf") if cell == "" else float(cell)


def check_reference_against_paper() -> list[str]:
    """Compare the stored default results with the README reference table.

    The table prints detected time, first TTC and peak pressure to two or
    three significant decimals; a stored value matches when it lies within
    half a unit of the printed last digit plus the CSV's own rounding.
    """
    _, rows = parse_results(reference_results())
    errors = []
    for entry in _load_json("paper_table.json")["rows"]:
        row = rows.get((entry["mph"], entry["strategy"]))
        if row is None:
            errors.append(f"paper table row {entry['mph']} {entry['strategy']} missing")
            continue
        cells = row.split(",")
        stored = {"detected": cells[2], "first_ttc": cells[3], "peak_pressure": cells[7]}
        for name, printed in entry["values"].items():
            decimals = len(printed.split(".")[1]) if "." in printed else 0
            tolerance = 0.5 * 10.0 ** -decimals + 0.5e-4 + 1e-12
            if abs(float(stored[name]) - float(printed)) > tolerance:
                errors.append(
                    f"{entry['mph']} mph {entry['strategy']} {name}: stored "
                    f"{stored[name]} does not round to the paper's {printed}"
                )
        if cells[5] != ("true" if entry["collision"] else "false"):
            errors.append(f"{entry['mph']} mph {entry['strategy']} collision differs")
    return errors


class Workload:
    """Base: a list of jobs, per-job checks and per-pass checks."""

    name = ""
    # True when each job writes a trace whose rows must equal the steps run.
    writes_traces = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.config_files: list[str] = []

    def check_job(self, job: Job, outputs: dict[str, bytes | None]) -> JobCheck:
        raise NotImplementedError

    def check_pass(self, digests: list[str]) -> list[str]:
        return []


class SweepDefault(Workload):
    """`occlusim sweep` with the default config: the paper's 26-run grid."""

    name = "sweep_default"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        out = str(workdir / "results.csv")
        self.jobs = [Job(["sweep", "--out", out], [out])]
        self._reference = reference_results()

    def check_job(self, job: Job, outputs: dict[str, bytes | None]) -> JobCheck:
        check = JobCheck()
        if outputs[job.outputs[0]] != self._reference:
            check.errors.append("results.csv differs from the stored reference")
        return check


class TraceExport(Workload):
    """One `occlusim run ... --trace` per grid point, in a seeded order."""

    name = "trace_export"
    writes_traces = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        grid = [(speed, strategy) for speed in SPEEDS for strategy in STRATEGIES]
        random.Random(seed).shuffle(grid)
        for i, (speed, strategy) in enumerate(grid):
            out = str(workdir / f"results_{i}.csv")
            trace = str(workdir / f"trace_{i}.csv")
            v2v = "on" if strategy == "with_v2v" else "off"
            self.jobs.append(Job(
                ["run", "--speed", str(speed), "--v2v", v2v, "--out", out, "--trace", trace],
                [out, trace],
                key=f"{speed},{strategy}",
            ))
        header, rows = parse_results(reference_results())
        self._expected_results = {
            key: f"{header}\n{rows[tuple(key.split(','))]}\n".encode() for key in
            (job.key for job in self.jobs)
        }
        self._trace_sha: dict[str, str] | None = None

    def check_job(self, job: Job, outputs: dict[str, bytes | None]) -> JobCheck:
        check = JobCheck()
        results, trace = (outputs[p] for p in job.outputs)
        if results != self._expected_results[job.key]:
            check.errors.append(f"run {job.key}: results.csv differs from the sweep reference")
        if trace is None:
            check.errors.append(f"run {job.key}: no trace written")
            return check
        if self._trace_sha is None:
            self._trace_sha = _load_json("trace_sha256.json")
        if sha256(trace) != self._trace_sha[job.key]:
            check.errors.append(f"run {job.key}: trace sha256 differs from the stored one")
        check.trace_rows = trace.count(b"\n") - 1
        return check


class LossyChannel(Workload):
    """`occlusim sweep --config` over configs with a late, lossy V2V link."""

    name = "lossy_channel"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        for i, text in enumerate(lossy_configs(seed)):
            cfg = workdir / f"lossy_{i}.cfg"
            cfg.write_text(text, encoding="utf-8")
            out = str(workdir / f"lossy_{i}.csv")
            self.config_files.append(str(cfg))
            self.jobs.append(Job(["sweep", "--config", str(cfg), "--out", out], [out],
                                 key=text.replace("\n", "; ").strip("; ")))
        _, self._ideal = parse_results(reference_results())

    def check_job(self, job: Job, outputs: dict[str, bytes | None]) -> JobCheck:
        check = JobCheck()
        _, rows = parse_results(outputs[job.outputs[0]])
        if set(rows) != set(self._ideal):
            check.errors.append(f"[{job.key}]: results do not cover the speed grid")
            return check
        for (speed, strategy), row in rows.items():
            ideal = self._ideal[(speed, strategy)]
            # The channel cannot reach a run that does not use it.
            if strategy == "without_v2v" and row != ideal:
                check.errors.append(f"[{job.key}] {speed} mph without_v2v differs from ideal")
            # A late or lossy link can only delay the first estimate.
            if strategy == "with_v2v" and _detected(row) < _detected(ideal):
                check.errors.append(
                    f"[{job.key}] {speed} mph with_v2v detected earlier than the ideal channel"
                )
        return check

    def check_pass(self, digests: list[str]) -> list[str]:
        if self.seed != DEFAULT_SEED:
            return []
        expected = _load_json("lossy_sha256.json")[str(DEFAULT_SEED)]
        if digests != expected:
            return [f"lossy_channel outputs for seed {DEFAULT_SEED} differ from the stored digests"]
        return []


def lossy_configs(seed: int) -> list[str]:
    """Config texts: latency a multiple of 0.02 s in [0.1, 1.0], drop
    probability in [0.2, 0.9], and a channel seed, all drawn from *seed*."""
    rng = random.Random(seed)
    texts = []
    for _ in range(LOSSY_CONFIGS):
        latency = rng.randint(5, 50) * 2 / 100
        drop = round(rng.uniform(0.2, 0.9), 4)
        channel_seed = rng.randrange(2**31)
        texts.append(f"latency_s = {latency:.2f}\ndrop_prob = {drop}\nseed = {channel_seed}\n")
    return texts


WORKLOADS = {w.name: w for w in (SweepDefault, TraceExport, LossyChannel)}
