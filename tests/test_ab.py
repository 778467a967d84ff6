"""tools/ab.py loads two source trees side by side and tells their
outputs apart, and this tree's outputs over its byte matrix and its sweeps
match stored digests."""

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.fixture
def trees():
    """Load trees under fresh names and unload them after the test."""
    names = []

    def load(tree: Path, name: str):
        names.append(name)
        return ab.load_tree(tree, name)

    yield load
    for name in names:
        ab.unload(name)


def _modules(name: str) -> dict[str, object]:
    """The loaded package *name* and its submodules, keyed by the name
    below the package."""
    return {key[len(name):]: module for key, module in sys.modules.items()
            if key == name or key.startswith(name + ".")}


def test_two_loaded_trees_share_no_module_object(trees):
    a = trees(ROOT, "occlusim_ab_test_a")
    b = trees(ROOT, "occlusim_ab_test_b")
    mods_a, mods_b = _modules("occlusim_ab_test_a"), _modules("occlusim_ab_test_b")
    assert mods_a.keys() == mods_b.keys() >= {"", ".scenario", ".harness", ".world"}
    assert not {id(m) for m in mods_a.values()} & {id(m) for m in mods_b.values()}
    assert a.scenario.ScenarioConfig is not b.scenario.ScenarioConfig
    assert a.harness.ScenarioConfig is a.scenario.ScenarioConfig
    # Neither tree is, or reaches into, a package imported as occlusim.
    plain = {id(m) for m in _modules("occlusim").values()}
    assert not plain & {id(m) for m in [*mods_a.values(), *mods_b.values()]}


def test_bytes_mode_names_the_first_run_that_differs(tmp_path, trees):
    mutated = tmp_path / "mutated"
    shutil.copytree(ROOT / "src" / "occlusim", mutated / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = mutated / "src" / "occlusim" / "scenario.py"
    text = scenario.read_text(encoding="utf-8")
    assert text.count("CLEARANCE_TAIL_S = 5.0\n") == 1
    scenario.write_text(text.replace("CLEARANCE_TAIL_S = 5.0\n", "CLEARANCE_TAIL_S = 5.5\n"),
                        encoding="utf-8")
    assert ab.src_digest(mutated) != ab.src_digest(ROOT)

    parent = trees(ROOT, "occlusim_ab_test_parent")
    same = trees(ROOT, "occlusim_ab_test_same")
    changed = trees(mutated, "occlusim_ab_test_changed")
    runs = list(ab.matrix({"default": ""}, speeds=(45,)))
    assert len(runs) == 4
    differs, detail = ab.first_difference(parent, same, runs)
    assert differs is None and detail.startswith("4 runs, sha256 ")
    # The braked 45 mph run with the relay clears, so its tail shows.
    differs, _ = ab.first_difference(parent, changed, runs)
    assert differs == "default 45 mph with_v2v braked"


def test_bytes_mode_reports_a_difference_only_a_sweep_shows(tmp_path, trees, monkeypatch,
                                                             capsys):
    mutated = tmp_path / "mutated"
    shutil.copytree(ROOT / "src" / "occlusim", mutated / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = mutated / "src" / "occlusim" / "harness.py"
    text = harness.read_text(encoding="utf-8")
    call = "run_scenario(cfg.results_only())[0]"
    assert text.count(call) == 1
    # The sweep runs unbraked; a run called by itself is untouched.
    harness.write_text(text.replace(call, "run_scenario(cfg.results_only(), False)[0]"),
                       encoding="utf-8")

    parent = trees(ROOT, "occlusim_ab_test_sweep_parent")
    changed = trees(mutated, "occlusim_ab_test_sweep_changed")
    runs = list(ab.matrix({"default": ""}, speeds=(45,)))
    differs, _ = ab.first_difference(parent, changed, runs)
    assert differs is None
    differs, detail = ab.first_sweep_difference(parent, changed, {"default": ""})
    assert differs == "sweep default" and detail.startswith("line 2: ")
    # The command prints the runs' digest, then the sweep that differs.
    monkeypatch.setattr(ab, "matrix", lambda: runs)
    try:
        assert ab.main([str(ROOT), str(mutated)]) == 1
    finally:
        ab.unload("occlusim_ab_parent")
        ab.unload("occlusim_ab_change")
    out = capsys.readouterr().out.splitlines()
    lines = f"{ab.src_lines(ROOT):,} lines"
    assert out[0] == (f"parent {ROOT} src {ab.src_digest(ROOT)[:12]}, {lines}; "
                      f"change {mutated} src {ab.src_digest(mutated)[:12]}, {lines}")
    assert out[1].startswith("same bytes: 4 runs, sha256 ")
    assert out[2].startswith("differs: sweep default: line 2: ")


def test_src_line_count_is_the_newlines_of_every_module(tmp_path):
    files = sorted((ROOT / "src" / "occlusim").glob("*.py"))
    assert ab.src_lines(ROOT) == sum(len(p.read_text(encoding="utf-8").splitlines())
                                     for p in files)
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "occlusim", copy / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "src" / "occlusim" / "units.py", "a", encoding="utf-8") as fh:
        fh.write("# one more line\n")
    assert ab.src_lines(copy) == ab.src_lines(ROOT) + 1


# The two sha256s tools/ab.py's bytes mode prints for this tree: one over
# every run of its matrix, one over the sweeps of its bases. Change them
# only with an output change that is intended and explained.
MATRIX_SHA256 = "a3fc1d2b2caa4afb756d8c62521530482a00a1f1f5a96795340179129dc3c163"
SWEEPS_SHA256 = "1a3e172c615476b91659ba0881b56cfe158843547a0b63df9b61e4c2d3d0f7b5"
MOVED = ("outputs moved: `python tools/ab.py <parent checkout> .` names the first "
         "run or sweep that differs; `python tools/ab.py . .` prints this tree's digests")


def test_byte_matrix_and_sweeps_match_their_stored_digests(trees):
    pkg = trees(ROOT, "occlusim_ab_test_matrix")
    runs = hashlib.sha256()
    for _, base, speed, v2v, braked in ab.matrix():
        runs.update(ab.run_output(pkg, base, speed, v2v, braked))
    assert runs.hexdigest() == MATRIX_SHA256, MOVED
    sweeps = hashlib.sha256()
    for base in ab.BASES.values():
        sweeps.update(ab.sweep_output(pkg, base))
    assert sweeps.hexdigest() == SWEEPS_SHA256, MOVED


def test_trace_workload_runs_and_writes_every_trace_of_the_grid(trees):
    parent = trees(ROOT, "occlusim_ab_test_trace_parent")
    change = trees(ROOT, "occlusim_ab_test_trace_change")
    base, prepare, measure = ab.WORKLOADS["default traces"]
    written = []
    write = change.harness.write_trace_csv

    def counting(trace):
        written.append(len(trace))
        return write(trace)

    change.harness.write_trace_csv = counting
    # One pair, as the timing mode runs it.
    assert measure(parent, prepare(parent, base)) > 0.0
    assert measure(change, prepare(change, base)) > 0.0
    assert len(written) == 26 and sum(written) == 32_800


def test_trace_text_workload_times_the_writer_alone_over_built_rows(trees):
    parent = trees(ROOT, "occlusim_ab_test_text_parent")
    change = trees(ROOT, "occlusim_ab_test_text_change")
    base, prepare, measure = ab.WORKLOADS["trace text"]
    traces = {pkg: prepare(pkg, base) for pkg in (parent, change)}
    for rows in traces.values():
        assert len(rows) == 26 and sum(map(len, rows)) == 32_800
    written = []
    write = change.harness.write_trace_csv

    def counting(trace):
        written.append(trace)
        return write(trace)

    def no_run(*args, **kwargs):
        raise AssertionError("the timed pass must not run a scenario")

    change.harness.write_trace_csv = counting
    for pkg in (parent, change):
        pkg.harness.run_scenario = no_run
    # One pair, as the timing mode runs it.
    assert measure(parent, traces[parent]) > 0.0
    assert measure(change, traces[change]) > 0.0
    assert len(written) == 26
    assert all(a is b for a, b in zip(written, traces[change]))
