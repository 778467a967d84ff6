"""occlusim benchmark: one workload, closed loop, through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths resolve from this
file). One client in one process and one thread calls ``occlusim.cli.main``
in process, issuing each job after the previous one returns. A pass is the
workload's full job list. Every output of every pass is checked.

``--trace 0`` reports the end-to-end metrics: the median pass time, the
host cost per simulated step, the median set-up time of fresh interpreters
(all three calibrated for host speed, see ``calibration_loop_s``), and the
peak resident memory of this process. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see ``tracer.py`` and
README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata and distributions. Exit status is 0 when the benchmark
ran, whether or not the outputs were correct, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, check_reference_against_paper, sha256

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Fresh interpreters timed per run for setup_s; one more warms the caches.
SETUP_SAMPLES = 15
END_TO_END_UNITS = {"wall_s": "s", "step_us": "us", "setup_s": "s", "peak_rss_mib": "MiB"}
# Time of the calibration loop on the 2-core virtual machine the benchmark
# was written on, when that host was quiet (see calibration_loop_s).
CALIBRATION_REFERENCE_S = 0.0045
# The run whose every span is kept in the traced run: 45 mph with V2V.
RECORD_RUN = (45.0, True)


@dataclass
class PassResult:
    wall_s: float = 0.0
    digests: list[str] = field(default_factory=list)
    trace_rows: int = 0
    jobs: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail_all(self, error: str) -> None:
        """A pass-level check failed: every job of the pass counts as failed."""
        self.failed = self.jobs
        self.errors.append(error)


def _read(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def run_pass(cli, workload: Workload) -> PassResult:
    """Run every job once; only the ``cli.main`` calls are timed."""
    result = PassResult()
    for job in workload.jobs:
        for path in job.outputs:
            Path(path).unlink(missing_ok=True)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(captured):
                code = cli.main(job.argv)
        except Exception as exc:  # a crashing job is a failed job, not a failed benchmark
            code = f"raised {exc!r}"
        result.wall_s += time.perf_counter() - start
        result.jobs += 1

        outputs = {path: _read(path) for path in job.outputs}
        result.digests.extend(sha256(data) if data else "" for data in outputs.values())
        if code != 0 or None in outputs.values():
            errors = [f"{job.argv[0]} {job.key}: exit {code}, missing "
                      f"{[p for p, d in outputs.items() if d is None]}"]
        else:
            check = workload.check_job(job, outputs)
            errors = check.errors
            result.trace_rows += check.trace_rows
        if errors:
            result.failed += 1
            result.errors.extend(errors)

    for error in workload.check_pass(result.digests):
        result.fail_all(error)
    return result


def warm_up(world_mod, cli, workload: Workload, run: Run) -> tuple[int, PassResult]:
    """One untimed pass that also counts the simulated steps; later passes
    are compared with its outputs."""
    original = world_mod.step
    steps = 0

    def step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return original(*args, **kwargs)

    world_mod.step = step
    try:
        first = run_pass(cli, workload)
    finally:
        world_mod.step = original
    check_against_first(first, first, steps, workload, "warm-up pass")
    run.add(first)
    return steps, first


def check_against_first(result: PassResult, first: PassResult, steps: int,
                        workload: Workload, what: str) -> None:
    if result.digests != first.digests:
        result.fail_all(f"{what} outputs are not byte-identical to the first pass")
    if workload.writes_traces and result.trace_rows != steps:
        result.fail_all(f"{what}: {result.trace_rows} trace rows for {steps} simulated steps")


def calibration_loop_s() -> float:
    """Best of three timings of a fixed pure-Python float loop (about 5 ms).

    The host is a shared virtual machine whose speed drifts by up to 2x for
    minutes at a time. Each timed sample is bracketed by this loop, and its
    time is divided by the host's slowdown at that moment, (loop before +
    loop after) / (2 * CALIBRATION_REFERENCE_S). The loop shares no code with
    occlusim, so a change to the package moves the calibrated times as much
    as the raw ones; the raw times are reported beside them.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(50_000):
            acc += (i * 0.5) % 7.0
        best = min(best, time.perf_counter() - start)
    return best


class Samples:
    """Raw times and the host slowdown measured around each of them."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.slowdown: list[float] = []

    def add(self, raw_s: float, loop_before_s: float) -> None:
        self.raw.append(raw_s)
        self.slowdown.append((loop_before_s + calibration_loop_s()) / (2 * CALIBRATION_REFERENCE_S))

    def calibrated(self) -> list[float]:
        return [raw / slowdown for raw, slowdown in zip(self.raw, self.slowdown)]

    def detail(self, name: str) -> dict:
        if not self.raw:
            return {}
        return {name: summarize(self.calibrated()), f"raw_{name}": summarize(self.raw),
                f"{name}_host_slowdown": summarize(self.slowdown)}


def setup_samples(workload: Workload) -> tuple[Samples, list[str]]:
    """Wall time of fresh interpreters doing a CLI call's set-up, one at a time."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), *workload.config_files]
    # Bytecode is cached, as for an installed package, in a directory of this
    # run, so the figure does not depend on the caller's bytecode settings.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(workload.workdir / "pycache")
    samples, errors = Samples(), []
    for i in range(SETUP_SAMPLES + 1):
        loop_before = calibration_loop_s()
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            errors.append(f"setup probe exit {proc.returncode}: {proc.stderr[-300:]!r}")
        elif i:
            samples.add(elapsed, loop_before)
    return samples, errors


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples above it (when there are enough samples)."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else (ordered[0],) * 3
    out = {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = ordered[math.ceil(pct / 100.0 * n) - 1]
            break
    return out


def git_commit() -> str:
    """The checked-out commit, read without running git (a checkout may
    hold only the files git would commit)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args: argparse.Namespace, passes: int) -> dict:
    src_files = sorted((ROOT / "src" / "occlusim").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src_files),
        "commit": git_commit(),
    }


class Run:
    """Bookkeeping shared by both modes: jobs attempted, failures, errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result: PassResult) -> None:
        self.attempted += result.jobs
        self.failed += result.failed
        self.errors.extend(result.errors)


def measure_end_to_end(cli, world_mod, workload: Workload, seconds: int, run: Run) -> tuple[dict, dict]:
    steps, first = warm_up(world_mod, cli, workload, run)

    setup, setup_errors = setup_samples(workload)
    run.attempted += SETUP_SAMPLES + 1
    run.failed += len(setup_errors)
    run.errors.extend(setup_errors)

    walls = Samples()
    deadline = time.perf_counter() + seconds
    while len(walls.raw) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        loop_before = calibration_loop_s()
        result = run_pass(cli, workload)
        walls.add(result.wall_s, loop_before)
        check_against_first(result, first, steps, workload, f"pass {len(walls.raw)}")
        run.add(result)

    wall_s = statistics.median(walls.calibrated())
    values = {
        "wall_s": wall_s,
        "step_us": wall_s / steps * 1e6 if steps else float("nan"),
        "setup_s": statistics.median(setup.calibrated()) if setup.raw else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    detail = {**walls.detail("wall_s"), **setup.detail("setup_s"), "steps_per_pass": steps}
    return metrics, detail


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def measure_per_layer(cli, world_mod, workload: Workload, seconds: int, run: Run) -> tuple[dict, dict]:
    from tracer import Tracer, patch_points

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in patch_points()]
    steps, first = warm_up(world_mod, cli, workload, run)

    tracer = Tracer(record_run=RECORD_RUN)
    plain_walls, traced_walls, self_rows = Samples(), Samples(), []
    counts = None
    deadline = time.perf_counter() + seconds
    while len(traced_walls.raw) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        gc.collect()
        loop_before = calibration_loop_s()
        plain = run_pass(cli, workload)
        plain_walls.add(plain.wall_s, loop_before)
        check_against_first(plain, first, steps, workload, "untraced pass")
        run.add(plain)

        gc.collect()
        tracer.reset_counts()
        loop_before = calibration_loop_s()
        tracer.install()
        try:
            traced = run_pass(cli, workload)
        finally:
            tracer.uninstall()
        traced_walls.add(traced.wall_s, loop_before)
        check_against_first(traced, first, steps, workload, "traced pass")
        if any(getattr(owner, attr) is not original for owner, attr, original in originals):
            traced.fail_all("tracer left a wrapper installed")
        pass_counts = tracer.counts()
        if counts is None:
            counts = pass_counts
            if counts["world.step.calls"] != steps:
                traced.fail_all(f"traced world.step.calls {counts['world.step.calls']} "
                                f"!= counted steps {steps}")
        elif pass_counts != counts:
            changed = sorted(k for k in counts if pass_counts[k] != counts[k])
            traced.fail_all(f"traced counts differ between passes: {changed}")
        run.add(traced)
        slowdown = traced_walls.slowdown[-1]
        self_rows.append({name: value / slowdown for name, value in tracer.self_times().items()})

    metrics = {name: (value, per_layer_unit(name)) for name, value in counts.items()}
    for name in self_rows[0]:
        metrics[name] = (statistics.median(row[name] for row in self_rows), "s")
    overhead = (statistics.median(traced_walls.calibrated())
                / statistics.median(plain_walls.calibrated()) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    spans_file = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.json"
    OUT_DIR.mkdir(exist_ok=True)
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    spans_file.write_text(json.dumps({
        "run": f"{RECORD_RUN[0]:g} mph {'with' if RECORD_RUN[1] else 'without'}_v2v",
        "columns": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [[i, p, n, s - origin, e - origin] for i, p, n, s, e in tracer.spans],
    }), encoding="utf-8")
    detail = {**plain_walls.detail("untraced_wall_s"), **traced_walls.detail("traced_wall_s"),
              "steps_per_pass": steps, "spans_file": str(spans_file.relative_to(ROOT)),
              "spans": len(tracer.spans)}
    return metrics, detail


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_occlusim():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "occlusim" / "__init__.py").is_file():
        raise ImportError(f"no occlusim sources under {src}")
    sys.path.insert(0, str(src))
    import occlusim
    import occlusim.cli as cli
    import occlusim.world as world_mod

    if Path(occlusim.__file__).resolve().parent != src / "occlusim":
        raise ImportError(f"occlusim imported from {occlusim.__file__}, not {src}")
    return cli, world_mod


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cli, world_mod = import_occlusim()
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    run = Run()
    run.errors.extend(check_reference_against_paper())
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, detail = measure(cli, world_mod, workload, args.seconds, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    passes = detail.get("raw_wall_s", detail.get("raw_traced_wall_s"))["n"]
    detail.update({
        "meta": metadata(args, passes),
        "runs_failed_frac": run.failed / run.attempted,
        "errors": run.errors[:20],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
