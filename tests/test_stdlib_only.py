"""The simulator imports nothing outside the standard library, and its
CLI imports no module that only costs start-up time."""

import ast
import os
import subprocess
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every CLI call pays for its imports: dataclasses, and the inspect
    # module it pulls in, cost more start-up than a default sweep takes to
    # run. -S keeps site-packages' .pth files out of the check.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import sys, occlusim.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
