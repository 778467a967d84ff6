"""tools/ab.py loads two source trees side by side and tells their
outputs apart."""

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
