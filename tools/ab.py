"""Compare two occlusim source trees side by side in one process.

    python tools/ab.py PARENT_TREE CHANGE_TREE                 # bytes
    python tools/ab.py PARENT_TREE CHANGE_TREE --timing 40     # timing

Each tree is a checkout holding ``src/occlusim``. Both packages are loaded
into this interpreter under distinct names (the package imports only
relatively), so neither shadows the other or an installed ``occlusim``.

bytes: runs a fixed matrix in both trees and compares every results and
trace CSV: the 13 default speeds, both strategies, braked and unbraked,
over the 17 base configs of ``BASES``. Then it compares the results CSV of
a sweep of each base, since a sweep's runs need not take the matrix's
path. It prints the first run or sweep whose output differs and exits 1,
or one sha256 over the runs' outputs and one over the sweeps', each
tree's steps over all the sweeps (their runs' ``world.step`` calls) and
how many runs took more steps in the change. Last, it compares each
tree's ``ConfigError`` text, or its acceptance, for a fixed corpus of
rejected config texts, one per rule that a file can break: it prints the
first config whose outcome differs and exits 1, or how many gave the same
errors. It stores no digest: ``tests/outputs_sha256.json`` holds each
base's, re-stored by ``PYTHONPATH=src python tests/test_ab.py`` after an
intended output change; ``perfbench/reference/`` and the README's table
hold the default sweep's bytes.

timing: alternates in-process passes of the two trees, the change first on
every other pair, over four workloads: a sweep of the default config, a
sweep of one lossy channel, every run of the default grid with its trace
CSV written to text, and the trace CSV writer alone over the default
grid's traces, which each tree runs once before timing. It prints per
workload each side's median and quartiles in ms, the median
change/parent time ratio, the interquartile range of the ratios and the
pairs the change won. The line ends with ``resolved`` when the change won
at least nine tenths of at least ten pairs and its median lies below the
parent's by more than the parent's interquartile range, the rule for
claiming a gain, and with ``unresolved`` otherwise. Both trees share one
process and the parent is loaded first, so their heap and cache state
differ and one run understates its own spread: quote a timing figure from
two runs, each in a fresh process, each beside a run of the parent against
itself in a fresh process (``python tools/ab.py P P --timing 20``), in
which every line is an A/A control. A gap no wider than that run's
distance from 1 is noise.

Both modes label each side with a sha256 of its ``src/occlusim/*.py`` and
those files' line count. Start-up, CLI and memory figures stay with
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

SPEEDS_MPH = tuple(range(10, 75, 5))


def _lossy_base(index: int) -> str:
    """Latency a multiple of 0.02 s in [0.1, 1.0] s, drop probability in
    [0.2, 0.9] and a channel seed, drawn from *index*."""
    rng = random.Random(index)
    latency = rng.randint(5, 50) * 2 / 100
    drop = round(rng.uniform(0.2, 0.9), 4)
    return f"latency_s = {latency:.2f}\ndrop_prob = {drop}\nseed = {rng.randrange(2**31)}\n"


# Config texts of the bytes matrix, by label. Away from the default they
# pin other step sizes, seeded lossy channels, a full-circle sensor, a late
# channel, one lossy channel over three seeds, and a shorter radio range,
# a sparser broadcast and a shorter tracker range, so a change that moves
# outputs off the default path, or reads one channel key in place of
# another, still differs somewhere. The default base's unbraked runs with
# the relay on stage the collision premise. New bases go last, so the
# digests over the earlier ones stay comparable.
BASES = {
    "default": "",
    "dt_s=0.005": "dt_s = 0.005\n",
    "dt_s=0.1": "dt_s = 0.1\n",
    "dt_s=1/64": "dt_s = 0.015625\n",
    **{f"lossy{i}": _lossy_base(i) for i in range(4)},
    "dt_s=0.05": "dt_s = 0.05\n",
    "av_sensor_fov_half_rad=pi": "av_sensor_fov_half_rad = 3.141592653589793\n",
    "latency_s=0.3": "latency_s = 0.3\n",
    **{f"drop_prob=0.5,seed={i}": f"drop_prob = 0.5\nseed = {i}\n" for i in range(3)},
    "v2v_range_m=100": "v2v_range_m = 100\n",
    "bsm_period_s=0.1": "bsm_period_s = 0.1\n",
    "tx_sensor_range_m=10": "tx_sensor_range_m = 10\n",
}


# Config texts that each break one rule a file can break, by one value
# where one does it: the file grammar, each key's own rules (finite, then
# its range), the rules that read two keys, and calibration. A file's
# values are read by their keys' types, so none is of a wrong type. The
# last six break two rules each, so a change in which one is named shows.
ERRORS = (
    "this is not a key value pair\n", "av_sped_mph = 45\n", "seed = 1\nseed = 2\n",
    "v2v = maybe\n", "num_lanes = 2.5\n", "dt_s = fast\n", "num_lanes = 1" + "0" * 5000 + "\n",
    "ped_start_offset_m = nan\n", "tx_stop_gap_m = inf\n", "reveal_knee_lo_mph = -inf\n",
    "av_lane_index = 1" + "0" * 400 + "\n",
    "av_speed_mph = 0\n", "lane_width_ft = -1\n", "num_lanes = 0\n", "ped_speed_ftps = 0\n",
    "approach_time_s = 0\n", "reveal_margin_s = 0\n", "reveal_margin_slow_s = 0\n",
    "tau_max_s = 0\n", "p_max_bar = -5\n", "d_max_mps2 = 0\n", "av_sensor_range_m = 0\n",
    "av_sensor_fov_half_rad = 0\n", "av_sensor_fov_half_rad = 3.5\n", "tx_sensor_range_m = 0\n",
    "v2v_range_m = 0\n", "bsm_period_s = 0\n", "latency_s = -0.1\n", "drop_prob = 1.5\n",
    "dt_s = -0.02\n",
    "av_speed_mph = 5e-324\n", "ped_speed_ftps = 5e-324\n", "av_speed_mph = 1e-320\n",
    "ped_speed_ftps = 1e-320\n", "av_speed_mph = 420\n",
    "av_lane_index = 4\n", "transmitter_lane_index = -1\n", "av_lane_index = 0\n",
    "transmitter_lane_index = 2\n", "reveal_knee_lo_mph = 15\n",
    "lane_width_ft = 2\n", "reveal_margin_s = 4.0\n",
    "av_speed_mph = 10\nreveal_margin_slow_s = 4.0\n",
    "ped_start_offset_m = 10\n", "ped_start_offset_m = -60\n", "approach_time_s = 5\n",
    "approach_time_s = 1e200\n", "dt_s = 4e-6\n",
    "ped_speed_ftps = 1e-3\nped_start_offset_m = -1.0\napproach_time_s = 13000.0\n",
    # The later key first in the file; the earlier key's own rule, the lane rules before
    # the knee rule, and a key's own rule before calibration are named.
    "av_sensor_fov_half_rad = 4\nav_speed_mph = -3\n", "drop_prob = 1.5\nlatency_s = -0.2\n",
    "dt_s = 1\nnum_lanes = -1\n", "ped_start_offset_m = inf\nlane_width_ft = -2\n",
    "reveal_knee_lo_mph = 16\nav_lane_index = 5\n", "approach_time_s = 5\ndt_s = -1\n",
)


def src_digest(tree: Path) -> str:
    """sha256 over the names and bytes of the tree's ``src/occlusim/*.py``."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "occlusim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(tree: Path) -> int:
    """Newlines in the tree's ``src/occlusim/*.py``, counted as
    ``perfbench/run.py`` counts its ``src_lines``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "occlusim").glob("*.py"))


def load_tree(tree: Path, name: str) -> ModuleType:
    """Import ``tree/src/occlusim`` as the top-level package *name*."""
    package = tree / "src" / "occlusim"
    if name in sys.modules:
        raise ValueError(f"module {name!r} is already loaded")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None or spec.loader is None:
        raise ImportError(f"no occlusim package under {tree}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        unload(name)
        raise
    return module


def unload(name: str) -> None:
    """Drop the package *name* and its submodules from ``sys.modules``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def run_output(pkg: ModuleType, base: str, speed: float, v2v: bool, braked: bool) -> bytes:
    """Results CSV then trace CSV of one run, its config built by *pkg*."""
    cfg = pkg.scenario.config_for(pkg.scenario.load_config(base), float(speed), v2v)
    result, trace = pkg.harness.run_scenario(cfg, braking=braked)
    text = pkg.harness.write_results_csv([result]) + pkg.harness.write_trace_csv(trace)
    return text.encode()


def matrix(bases: dict[str, str] = BASES, speeds=SPEEDS_MPH):
    """Every (label, base text, speed, v2v, braked) of the bytes matrix."""
    for label, base in bases.items():
        for speed in speeds:
            for v2v in (True, False):
                for braked in (True, False):
                    yield label, base, speed, v2v, braked


def sweep_output(pkg: ModuleType, base: str, steps: list[int] | None = None) -> bytes:
    """Results CSV of a sweep of the base config text *base*, run by *pkg*.
    Appends to the list *steps*, if given, the steps of each of the sweep's
    runs: its ``world.step`` calls, counted by wrapping ``world.step`` as
    ``perfbench/run.py``'s warm-up does and split per run by wrapping
    ``harness.run_scenario``, both during the sweep."""
    harness, world = pkg.harness, pkg.world
    spec = harness.SweepSpec(base=pkg.scenario.load_config(base))
    steps = [] if steps is None else steps
    run, step = harness.run_scenario, world.step

    def counted_run(*args, **kwargs):
        steps.append(0)
        return run(*args, **kwargs)

    def counted_step(*args, **kwargs):
        steps[-1] += 1
        return step(*args, **kwargs)

    harness.run_scenario, world.step = counted_run, counted_step
    try:
        return harness.write_results_csv(harness.sweep(spec)).encode()
    finally:
        harness.run_scenario, world.step = run, step


def _first_line_difference(a: bytes, b: bytes) -> str:
    lines = zip(a.decode().splitlines(), b.decode().splitlines())
    return next((f"line {i}: {x!r} != {y!r}" for i, (x, y) in enumerate(lines, 1) if x != y),
                "outputs differ in length")


def first_difference(parent: ModuleType, change: ModuleType, runs) -> tuple[str | None, str]:
    """The first run of *runs* whose output differs between the trees, with
    its first differing line, or None and a sha256 over every output."""
    h = hashlib.sha256()
    count = 0
    for label, base, speed, v2v, braked in runs:
        a = run_output(parent, base, speed, v2v, braked)
        b = run_output(change, base, speed, v2v, braked)
        if a != b:
            return (f"{label} {speed} mph {'with' if v2v else 'without'}_v2v "
                    f"{'braked' if braked else 'unbraked'}"), _first_line_difference(a, b)
        h.update(a)
        count += 1
    return None, f"{count} runs, sha256 {h.hexdigest()}"


def first_sweep_difference(parent: ModuleType, change: ModuleType,
                           bases: dict[str, str] = BASES) -> tuple[str | None, str]:
    """The first base of *bases* whose sweep output differs between the
    trees, with its first differing line, or None and a sha256 over every
    sweep's output, each tree's simulated steps over all the sweeps and
    the number of runs that took more steps in the change."""
    h = hashlib.sha256()
    a_steps, b_steps = [], []
    for label, base in bases.items():
        a = sweep_output(parent, base, a_steps)
        b = sweep_output(change, base, b_steps)
        if a != b:
            return f"sweep {label}", _first_line_difference(a, b)
        h.update(a)
    longer = sum(b > a for a, b in zip(a_steps, b_steps, strict=True))
    return None, (f"{len(bases)} sweeps, sha256 {h.hexdigest()}; steps: parent "
                  f"{sum(a_steps):,}, change {sum(b_steps):,}, {longer} runs longer in the change")


def config_outcome(pkg: ModuleType, text: str) -> str:
    """The ``ConfigError`` text that *pkg* raises loading *text*, or "accepted"."""
    try:
        pkg.scenario.load_config(text)
    except pkg.scenario.ConfigError as exc:
        return f"error {str(exc)!r}"
    return "accepted"


def first_error_difference(parent: ModuleType, change: ModuleType,
                           texts: tuple[str, ...] = ERRORS) -> tuple[str | None, str]:
    """The first config text of *texts* whose outcome differs between the
    trees, with both outcomes, or None and the number of texts."""
    for text in texts:
        a, b = config_outcome(parent, text), config_outcome(change, text)
        if a != b:
            shown = repr(text if len(text) <= 60 else text[:60] + "...")
            return f"config {shown}", f"parent {a}, change {b}"
    return None, f"{len(texts)} configs"


def _base_config(pkg: ModuleType, base: str):
    """The config that *pkg* loads from the text *base*."""
    return pkg.scenario.load_config(base)


def _grid_configs(pkg: ModuleType, base: str) -> tuple:
    """Every run's config of *base*'s sweep grid, built by *pkg*."""
    return pkg.harness.SweepSpec(base=_base_config(pkg, base)).configs


def _grid_traces(pkg: ModuleType, base: str) -> list[list[tuple]]:
    """The trace of every run of *base*'s sweep grid, run by *pkg*."""
    return [pkg.harness.run_scenario(cfg)[1] for cfg in _grid_configs(pkg, base)]


def _sweep_seconds(pkg: ModuleType, cfg) -> float:
    """Time one sweep of the base config *cfg*, building its runs' configs included."""
    gc.collect()
    start = time.perf_counter()
    pkg.harness.sweep(pkg.harness.SweepSpec(base=cfg))
    return time.perf_counter() - start


def _trace_seconds(pkg: ModuleType, configs: tuple) -> float:
    """Time every run of *configs* with its trace CSV written to text:
    run_scenario and write_trace_csv, the path a traced run takes."""
    harness = pkg.harness
    gc.collect()
    start = time.perf_counter()
    for cfg in configs:
        harness.write_trace_csv(harness.run_scenario(cfg)[1])
    return time.perf_counter() - start


def _text_seconds(pkg: ModuleType, traces: list[list[tuple]]) -> float:
    """Time write_trace_csv alone over *traces*, so that a writer change's
    ratio is not diluted by run_scenario."""
    write = pkg.harness.write_trace_csv
    gc.collect()
    start = time.perf_counter()
    for trace in traces:
        write(trace)
    return time.perf_counter() - start


# Timing workloads: printed label -> (config text, untimed preparation of
# a tree's input from the config text, timed pass over that input).
WORKLOADS = {
    "default sweep": (BASES["default"], _base_config, _sweep_seconds),
    "lossy0 sweep": (BASES["lossy0"], _base_config, _sweep_seconds),
    "default traces": (BASES["default"], _grid_configs, _trace_seconds),
    "trace text": (BASES["default"], _grid_traces, _text_seconds),
}

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of *values*."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def resolved(parent_s: list[float], change_s: list[float]) -> bool:
    """The rule for claiming a gain: at least ten pairs, the change faster
    in at least nine tenths of them (a tie counts for neither side), and
    its median below the parent's by more than the parent's IQR."""
    won = sum(b < a for a, b in zip(parent_s, change_s, strict=True))
    q1, median, q3 = quartiles(parent_s)
    return (len(parent_s) >= 10 and 10 * won >= 9 * len(parent_s)
            and median - statistics.median(change_s) > q3 - q1)


def timing(parent: ModuleType, change: ModuleType, base: str, pairs: int,
           prepare, measure) -> dict[str, object]:
    """Alternating in-process passes of *measure*, each tree over its own
    input that *prepare* made of *base* once before timing: change/parent
    time ratios, each side's quartiles in ms and the claim rule's verdict."""
    a_input = prepare(parent, base)
    b_input = prepare(change, base)
    measure(parent, a_input)
    measure(change, b_input)
    ratios, parent_s, change_s = [], [], []
    for i in range(pairs):
        if i % 2:
            b = measure(change, b_input)
            a = measure(parent, a_input)
        else:
            a = measure(parent, a_input)
            b = measure(change, b_input)
        parent_s.append(a)
        change_s.append(b)
        ratios.append(b / a)
    q1, ratio, q3 = quartiles(ratios)
    return {"ratio": ratio, "q1": q1, "q3": q3,
            "won": sum(r < 1.0 for r in ratios), "pairs": pairs,
            "parent_ms": [q * 1e3 for q in quartiles(parent_s)],
            "change_ms": [q * 1e3 for q in quartiles(change_s)],
            "resolved": resolved(parent_s, change_s)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--timing", type=int, metavar="PAIRS",
                        help="time PAIRS alternating pairs per workload instead of comparing bytes")
    args = parser.parse_args(argv)
    if args.timing is not None and args.timing < 2:
        parser.error("--timing needs at least 2 pairs")

    print("; ".join(f"{side} {tree} src {src_digest(tree)[:12]}, {src_lines(tree):,} lines"
                    for side, tree in (("parent", args.parent), ("change", args.change))))
    parent = load_tree(args.parent, "occlusim_ab_parent")
    change = load_tree(args.change, "occlusim_ab_change")

    if args.timing is None:
        compares = (("bytes", lambda: first_difference(parent, change, matrix())),
                    ("bytes", lambda: first_sweep_difference(parent, change)),
                    ("errors", lambda: first_error_difference(parent, change)))
        for same, compare in compares:
            differs, detail = compare()
            if differs is not None:
                print(f"differs: {differs}: {detail}")
                return 1
            print(f"same {same}: {detail}")
        return 0

    for label, (base, prepare, measure) in WORKLOADS.items():
        t = timing(parent, change, base, args.timing, prepare, measure)
        sides = ", ".join(f"{side} {q2:.2f} ms (quartiles {q1:.2f}-{q3:.2f})"
                          for side, (q1, q2, q3) in (("parent", t["parent_ms"]),
                                                     ("change", t["change_ms"])))
        print(f"{label}: {sides}, ratio median {t['ratio']:.4f} "
              f"(IQR {t['q1']:.4f}-{t['q3']:.4f}), change won {t['won']}/{t['pairs']}, "
              f"{'resolved' if t['resolved'] else 'unresolved'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
