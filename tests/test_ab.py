"""tools/ab.py loads two source trees side by side and tells their
outputs apart, and this tree's outputs over each base config's byte matrix
runs and sweep match the digests stored in tests/outputs_sha256.json.

After an intended and explained output change, re-store that file with

    PYTHONPATH=src python tests/test_ab.py
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

import occlusim
from conftest import ab

ROOT = Path(__file__).resolve().parents[1]


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


def test_bytes_mode_counts_each_trees_sweep_steps(tmp_path, trees):
    mutated = tmp_path / "mutated"
    shutil.copytree(ROOT / "src" / "occlusim", mutated / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = mutated / "src" / "occlusim" / "harness.py"
    text = harness.read_text(encoding="utf-8")
    margin = "_MISS_MARGIN = 2.0 ** -30\n"
    assert text.count(margin) == 1
    # No sweep run counts its path as clear: the same bytes, but every run
    # that clears walks on to the clearance tail.
    harness.write_text(text.replace(margin, '_MISS_MARGIN = float("inf")\n'), encoding="utf-8")

    parent = trees(ROOT, "occlusim_ab_test_steps_parent")
    changed = trees(mutated, "occlusim_ab_test_steps_changed")
    steps = []
    run = parent.harness.run_scenario
    ab.sweep_output(parent, "", steps)
    assert len(steps) == 26 and sum(steps) == 23_811 and parent.harness.run_scenario is run
    default = {"default": ""}
    differs, same = ab.first_sweep_difference(parent, parent, default)
    assert differs is None
    assert same.endswith("; steps: parent 23,811, change 23,811, 0 runs longer in the change")
    differs, longer = ab.first_sweep_difference(parent, changed, default)
    assert differs is None and longer.split(";")[0] == same.split(";")[0]
    assert longer.endswith("; steps: parent 23,811, change 32,800, 14 runs longer in the change")


def test_error_corpus_is_rejected_and_names_every_ranged_key(trees):
    pkg = trees(ROOT, "occlusim_ab_test_errors")
    outcomes = [ab.config_outcome(pkg, text) for text in ab.ERRORS]
    assert "accepted" not in outcomes
    assert len(set(outcomes)) == len(outcomes)
    named = {outcome.split(":")[0].removeprefix("error '") for outcome in outcomes}
    assert set(pkg.scenario._RANGES) <= named


def test_errors_mode_reports_a_tree_with_one_message_edited(tmp_path, trees, monkeypatch,
                                                             capsys):
    mutated = tmp_path / "mutated"
    shutil.copytree(ROOT / "src" / "occlusim", mutated / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    scenario = mutated / "src" / "occlusim" / "scenario.py"
    text = scenario.read_text(encoding="utf-8")
    assert text.count('"be nonnegative"') == 1
    scenario.write_text(text.replace('"be nonnegative"', '"be non-negative"'), encoding="utf-8")

    parent = trees(ROOT, "occlusim_ab_test_errors_parent")
    same = trees(ROOT, "occlusim_ab_test_errors_same")
    changed = trees(mutated, "occlusim_ab_test_errors_changed")
    assert ab.first_error_difference(parent, same) == (None, f"{len(ab.ERRORS)} configs")
    differs, detail = ab.first_error_difference(parent, changed)
    assert differs == "config 'latency_s = -0.1\\n'"
    assert detail == ("parent error 'latency_s: must be nonnegative, got -0.1', "
                      "change error 'latency_s: must be non-negative, got -0.1'")
    # The command prints both byte digests, then the config that differs.
    monkeypatch.setattr(ab, "matrix", lambda: [])
    monkeypatch.setattr(ab, "first_sweep_difference", lambda parent, change: (None, "0 sweeps"))
    for tree, last in ((ROOT, f"same errors: {len(ab.ERRORS)} configs"),
                       (mutated, f"differs: {differs}: {detail}")):
        try:
            assert ab.main([str(ROOT), str(tree)]) == (tree == mutated)
        finally:
            ab.unload("occlusim_ab_parent")
            ab.unload("occlusim_ab_change")
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["same bytes: 0 runs, sha256 " + hashlib.sha256().hexdigest(),
                           "same bytes: 0 sweeps", last]


def test_src_line_count_is_the_newlines_of_every_module(tmp_path):
    files = sorted((ROOT / "src" / "occlusim").glob("*.py"))
    assert ab.src_lines(ROOT) == sum(len(p.read_text(encoding="utf-8").splitlines())
                                     for p in files)
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "occlusim", copy / "src" / "occlusim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "src" / "occlusim" / "ttc.py", "a", encoding="utf-8") as fh:
        fh.write("# one more line\n")
    assert ab.src_lines(copy) == ab.src_lines(ROOT) + 1


# Each base config's sha256 over its matrix runs' outputs and over its
# sweep's, by label. Re-store them only with an output change that is
# intended and explained.
DIGESTS = ROOT / "tests" / "outputs_sha256.json"
MOVED = ("outputs moved: `python tools/ab.py <parent checkout> .` names the first "
         "run or sweep that differs; `PYTHONPATH=src python tests/test_ab.py` re-stores "
         "this tree's digests")


def base_digests(pkg, label: str) -> dict[str, str]:
    """The sha256 of the outputs of base *label*'s matrix runs, in matrix
    order, and of its sweep's output, each run by *pkg*."""
    base = ab.BASES[label]
    runs = hashlib.sha256()
    for _, _, speed, v2v, braked in ab.matrix({label: base}):
        runs.update(ab.run_output(pkg, base, speed, v2v, braked))
    sweep = hashlib.sha256(ab.sweep_output(pkg, base))
    return {"runs": runs.hexdigest(), "sweep": sweep.hexdigest()}


@pytest.mark.parametrize("label", ab.BASES)
def test_base_outputs_match_stored_digests(label):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert list(stored) == list(ab.BASES)
    assert base_digests(occlusim, label) == stored[label], f"{label}: {MOVED}"


def test_byte_matrix_and_sweeps_match_their_stored_digests(trees):
    # The whole matrix and every sweep, run by a tree loaded as tools/ab.py
    # loads one rather than by the imported package.
    pkg = trees(ROOT, "occlusim_ab_test_matrix")
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = [label for label in ab.BASES if base_digests(pkg, label) != stored[label]]
    assert not moved, f"{', '.join(moved)}: {MOVED}"


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


def test_timing_a_tree_against_itself_prints_every_workload_unresolved(capsys):
    try:
        assert ab.main([str(ROOT), str(ROOT), "--timing", "2"]) == 0
    finally:
        ab.unload("occlusim_ab_parent")
        ab.unload("occlusim_ab_change")
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + len(ab.WORKLOADS)
    # Two pairs can never resolve a claim, whatever they read.
    for line, label in zip(out[1:], ab.WORKLOADS, strict=True):
        assert line.startswith(f"{label}: ") and "/2, " in line, line
        assert line.endswith(", unresolved"), line


def test_a_claim_resolves_only_by_nine_tenths_of_ten_pairs_and_the_parents_iqr():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # IQR 0.45
    assert ab.quartiles(parent) == pytest.approx((10.225, 10.45, 10.675))
    assert ab.resolved(parent, [p - 0.5 for p in parent])
    # The medians 0.45 apart, no more than the parent's IQR.
    assert not ab.resolved(parent, [p - 0.45 for p in parent])
    # Won 8 of 10: the two losses are ties, which count for neither side.
    assert not ab.resolved(parent, [p - 1.0 for p in parent[:8]] + parent[8:])
    assert ab.resolved(parent, [p - 1.0 for p in parent[:9]] + parent[9:])
    # Nine pairs, all won by far, are too few.
    assert not ab.resolved(parent[:9], [p - 1.0 for p in parent[:9]])


if __name__ == "__main__":
    # One line per base, so that a base whose outputs move shows as one line.
    rows = (f"{json.dumps(label)}: {json.dumps(base_digests(occlusim, label))}"
            for label in ab.BASES)
    DIGESTS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
