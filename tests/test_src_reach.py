"""Every top-level function and class in ``src/occlusim`` is reached from
the package itself. Code that only the tests run, such as the reference a
fast form is checked against, belongs in ``tests/_oracle.py``, not in the
shipped package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "occlusim"

# The console script, ``occlusim = "occlusim.cli:main"``: the one entry
# point that nothing in the package names.
ENTRY_POINTS = {"cli.main"}


def unreached(package: Path) -> list[str]:
    """``module.name`` of each top-level def or class in *package* whose
    name no module there uses as a loaded name, an attribute or an import,
    entry points aside."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in named and f"{module}.{node.name}" not in ENTRY_POINTS]


def test_every_def_and_class_is_named_in_the_package():
    assert unreached(PACKAGE) == []


def test_check_sees_a_def_only_the_tests_call(tmp_path):
    (tmp_path / "cli.py").write_text("from .world import step\n\ndef main():\n    step()\n")
    (tmp_path / "world.py").write_text(
        "import math\n\nclass State:\n    pass\n\ndef step(s=State):\n    return math.pi\n\n"
        "def reference():\n    pass\n")
    assert unreached(tmp_path) == ["world.reference"]
