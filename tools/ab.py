"""Compare two occlusim source trees side by side in one process.

    python tools/ab.py PARENT_TREE CHANGE_TREE                 # bytes
    python tools/ab.py PARENT_TREE CHANGE_TREE --timing 40     # timing

Each tree is a checkout holding ``src/occlusim``. Both packages are loaded
into this interpreter under distinct names (the package imports only
relatively), so neither shadows the other or an installed ``occlusim``.

bytes: runs a fixed matrix in both trees and compares every results and
trace CSV: the 13 default speeds, both strategies, braked and unbraked,
at the default config, at ``dt_s`` 0.005, 0.1 and 1/64, and over four
seeded lossy channels. It prints the first run whose output differs and
exits 1, or prints one sha256 over all outputs and exits 0.

timing: alternates in-process sweeps of the two trees, the change first on
every other pair, for the default config and one lossy channel. It prints
per workload the median change/parent time ratio, the interquartile range
of the ratios and the pairs the change won. Each side is labelled by a
sha256 of its ``src/occlusim/*.py``. Start-up, CLI and memory figures stay
with ``perfbench/run.py``.
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


# Config texts of the bytes matrix, by label.
BASES = {
    "default": "",
    "dt_s=0.005": "dt_s = 0.005\n",
    "dt_s=0.1": "dt_s = 0.1\n",
    "dt_s=1/64": "dt_s = 0.015625\n",
    **{f"lossy{i}": _lossy_base(i) for i in range(4)},
}


def src_digest(tree: Path) -> str:
    """sha256 over the names and bytes of the tree's ``src/occlusim/*.py``."""
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "occlusim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


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


def first_difference(parent: ModuleType, change: ModuleType, runs) -> tuple[str | None, str]:
    """The first run of *runs* whose output differs between the trees, with
    its first differing line, or None and a sha256 over every output."""
    h = hashlib.sha256()
    count = 0
    for label, base, speed, v2v, braked in runs:
        a = run_output(parent, base, speed, v2v, braked)
        b = run_output(change, base, speed, v2v, braked)
        name = (f"{label} {speed} mph {'with' if v2v else 'without'}_v2v "
                f"{'braked' if braked else 'unbraked'}")
        if a != b:
            lines = zip(a.decode().splitlines(), b.decode().splitlines())
            where = next((f"line {i}: {x!r} != {y!r}" for i, (x, y) in enumerate(lines, 1)
                          if x != y), "outputs differ in length")
            return name, where
        h.update(a)
        count += 1
    return None, f"{count} runs, sha256 {h.hexdigest()}"


def _sweep_seconds(pkg: ModuleType, base: str) -> float:
    cfg = pkg.scenario.load_config(base)
    gc.collect()
    start = time.perf_counter()
    pkg.harness.sweep(pkg.harness.SweepSpec(base=cfg))
    return time.perf_counter() - start


def timing(parent: ModuleType, change: ModuleType, base: str, pairs: int) -> dict[str, float]:
    """Alternating in-process sweeps of *base*: change/parent time ratios."""
    _sweep_seconds(parent, base)
    _sweep_seconds(change, base)
    ratios, parent_s, change_s = [], [], []
    for i in range(pairs):
        if i % 2:
            b = _sweep_seconds(change, base)
            a = _sweep_seconds(parent, base)
        else:
            a = _sweep_seconds(parent, base)
            b = _sweep_seconds(change, base)
        parent_s.append(a)
        change_s.append(b)
        ratios.append(b / a)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ratio": statistics.median(ratios), "q1": q1, "q3": q3,
            "won": sum(r < 1.0 for r in ratios), "pairs": pairs,
            "parent_ms": statistics.median(parent_s) * 1e3,
            "change_ms": statistics.median(change_s) * 1e3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--timing", type=int, metavar="PAIRS",
                        help="time PAIRS alternating sweep pairs instead of comparing bytes")
    args = parser.parse_args(argv)
    if args.timing is not None and args.timing < 2:
        parser.error("--timing needs at least 2 pairs")

    labels = {side: src_digest(tree)[:12] for side, tree in
              (("parent", args.parent), ("change", args.change))}
    print(f"parent {args.parent} src {labels['parent']}; change {args.change} "
          f"src {labels['change']}")
    parent = load_tree(args.parent, "occlusim_ab_parent")
    change = load_tree(args.change, "occlusim_ab_change")

    if args.timing is None:
        differs, detail = first_difference(parent, change, matrix())
        if differs is not None:
            print(f"differs: {differs}: {detail}")
            return 1
        print(f"same bytes: {detail}")
        return 0

    for label in ("default", "lossy0"):
        t = timing(parent, change, BASES[label], args.timing)
        print(f"{label} sweep: parent {t['parent_ms']:.2f} ms, change {t['change_ms']:.2f} ms, "
              f"ratio median {t['ratio']:.4f} (IQR {t['q1']:.4f}-{t['q3']:.4f}), "
              f"change won {t['won']}/{t['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
