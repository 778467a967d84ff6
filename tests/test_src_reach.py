"""Every top-level function and class in ``src/occlusim`` is reached from
the package itself, and the package reads every slot of its world and
every attribute of its config. Code that only the tests run, such as the
reference a fast form is checked against, belongs in ``tests/_oracle.py``,
not in the shipped package; a field that only the tests read belongs in no
shipped record."""

import ast
import importlib.util
import sys
from pathlib import Path

import occlusim
from occlusim import cli, harness
from occlusim.scenario import ScenarioConfig
from occlusim.world import WorldState

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "occlusim"

# The console script, ``occlusim = "occlusim.cli:main"``: the one entry
# point that nothing in the package names.
ENTRY_POINTS = {"cli.main"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def module_names(tree: ast.Module, stems: set[str]) -> set[str]:
    """The names *tree* binds to a module of its own package, whose stems
    are *stems*, as ``from . import world as world_mod`` binds one."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names if alias.name in stems}


def names_used(node: ast.AST, modules: set[str]):
    """Each name *node* loads, imports or reads as an attribute of one of
    the names *modules*, bound to package modules, as in ``world_mod.step``;
    ``"x".replace`` or ``cfg.step`` names no def. Annotations and the body
    of ``if TYPE_CHECKING:`` are skipped: neither runs when the package does."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id in modules):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns") or (
                field == "body" and isinstance(node, ast.If) and _is_type_checking(node.test)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from names_used(child, modules)


def unreached(package: Path) -> list[str]:
    """``module.name`` of each top-level def or class in *package* whose
    name no module there uses, as :func:`names_used` counts a use, outside
    the def's own body, entry points aside."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    defs = [(module, node) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    # What each top-level statement names; a def's own names it skips.
    bound = {module: module_names(tree, set(trees)) for module, tree in trees.items()}
    uses = {stmt: set(names_used(stmt, bound[module]))
            for module, tree in trees.items() for stmt in tree.body}
    return [f"{module}.{node.name}" for module, node in defs
            if f"{module}.{node.name}" not in ENTRY_POINTS
            and not any(node.name in names for stmt, names in uses.items() if stmt is not node)]


def test_every_def_and_class_is_named_in_the_package():
    assert unreached(PACKAGE) == []


def test_check_sees_a_def_only_the_tests_call(tmp_path):
    (tmp_path / "cli.py").write_text("from .world import step\n\ndef main():\n    step()\n")
    (tmp_path / "world.py").write_text(
        "import math\n\nclass State:\n    pass\n\ndef step(s=State):\n    return math.pi\n\n"
        "def reference():\n    pass\n")
    assert unreached(tmp_path) == ["world.reference"]


def test_check_counts_an_attribute_only_off_a_package_module(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import world as world_mod\n\ndef main():\n    return world_mod.step()\n")
    (tmp_path / "world.py").write_text(
        "def step():\n    return \"a_b\".replace(\"_\", \"\")\n\n"
        "def replace(cfg):\n    return cfg\n")
    assert unreached(tmp_path) == ["world.replace"]


def test_check_ignores_own_body_annotations_and_type_checking_imports(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from typing import TYPE_CHECKING\n\nfrom .world import step\n\n"
        "if TYPE_CHECKING:\n    from .world import State\n\n"
        "def main(s: State) -> None:\n    step(s)\n")
    (tmp_path / "world.py").write_text(
        "class State:\n    def __eq__(self, other):\n        return other.__class__ is State\n\n"
        "def step(s: State) -> State:\n    return s\n")
    assert unreached(tmp_path) == ["world.State"]


def unread_attributes(package: Path, attributes: dict[type, tuple[str, ...]], run) -> list[str]:
    """``Class.name`` of each name in *attributes* that no code in a
    ``*.py`` file of the directory *package* read from an instance of its
    class while ``run()`` ran. Reads are recorded by patching each class's
    ``__getattribute__``, which is restored afterwards."""
    files = {str(path) for path in package.glob("*.py")}
    reads: set[tuple[type, str]] = set()
    patched = {cls: vars(cls).get("__getattribute__") for cls in attributes}

    def recorder(cls: type):
        get = cls.__getattribute__

        def read(self, name):
            if sys._getframe(1).f_code.co_filename in files:
                reads.add((cls, name))
            return get(self, name)

        return read

    try:
        for cls in patched:
            cls.__getattribute__ = recorder(cls)
        run()
    finally:
        for cls, own in patched.items():
            if own is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = own
    return [f"{cls.__name__}.{name}" for cls, names in attributes.items() for name in names
            if (cls, name) not in reads]


def test_the_package_reads_every_world_slot_and_config_attribute(tmp_path):
    def runs():
        harness.sweep(harness.SweepSpec())
        harness.sweep(harness.SweepSpec(base=ScenarioConfig(latency_s=0.3, drop_prob=0.5)))
        assert cli.main(["run", "--out", str(tmp_path / "results.csv"),
                         "--trace", str(tmp_path / "trace.csv")]) == cli.EXIT_OK

    attributes = {WorldState: WorldState.__slots__, ScenarioConfig: tuple(vars(ScenarioConfig()))}
    assert unread_attributes(Path(occlusim.__file__).parent, attributes, runs) == []


def test_read_check_names_a_slot_planted_unread(tmp_path):
    (tmp_path / "throwaway.py").write_text(
        "class Record:\n    __slots__ = ('read', 'planted')\n\n"
        "    def __init__(self):\n        self.read = self.planted = 1.0\n\n"
        "def run():\n    return Record().read\n")
    spec = importlib.util.spec_from_file_location("throwaway", tmp_path / "throwaway.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    record = module.Record
    # A read from outside the directory does not count.
    check = unread_attributes(tmp_path, {record: record.__slots__},
                              lambda: (module.run(), record().planted))
    assert check == ["Record.planted"]
    assert "__getattribute__" not in vars(record)
