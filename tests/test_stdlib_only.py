"""The simulator imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "occlusim"


def imported_roots(path: Path) -> set[str]:
    """Top-level module names a source file imports; relative imports
    count as the package itself."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("occlusim" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    outside = imported_roots(path) - set(sys.stdlib_module_names) - {"occlusim"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom . import world\nfrom math import pi\n")
    assert imported_roots(module) == {"numpy", "occlusim", "math"}
