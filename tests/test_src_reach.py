"""Every executable line of ``src/occlusim`` runs when the command line
does, or is named in ``UNRUN`` with the reason that none of its runs
reaches it; and the package reads every slot of its world and every
attribute of its config. Code that only the tests run, such as the
reference a fast form is checked against, belongs in ``tests/_oracle.py``,
not in the shipped package; a field that only the tests read belongs in no
shipped record.

The line check runs ``CORPUS`` through ``cli.main`` in a fresh interpreter
under the stdlib ``trace`` module, started before the package is imported,
so that import-time lines count too. It takes each module's executable
lines from its code objects and names every one that did not run and that
no ``UNRUN`` entry holds. An entry that holds a line that runs, or no line
at all, fails the check as well. The check cannot see a module-level
placeholder such as ``world.replace``: import runs it.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import occlusim
from conftest import ab
from occlusim import cli, harness
from occlusim.scenario import ScenarioConfig
from occlusim.world import WorldState

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "occlusim"

# The config files CORPUS reads, by name, written to the working directory.
FILES = {
    "lossy.cfg": "latency_s = 0.3\ndrop_prob = 0.5\nseed = 1\n",
    "commented.cfg": "# a lossy link\n\nlatency_s = 0.3  # seconds\n",
    # Never detects, so the CSV prints the 10000 sentinel for its TTCs.
    "blind.cfg": "av_sensor_range_m = 0.5\n",
    # Brakes to a standstill at 10 mph.
    "strong_brake.cfg": "d_max_mps2 = 1000\n",
    **{f"error{i}.cfg": text for i, text in enumerate(ab.ERRORS)},
}

OK, BAD = cli.EXIT_OK, cli.EXIT_CONFIG
# Each command line of the corpus, with the exit code that it must return.
CORPUS = [
    (["sweep"], OK),
    (["sweep", "--config", "lossy.cfg"], OK),
    (["run", "--speed", "10", "--v2v", "off", "--trace", "trace.csv"], OK),
    (["run", "--config", "lossy.cfg", "--trace", "trace.csv"], OK),
    (["run", "--speed", "12.5", "--trace", "trace.csv"], OK),  # between the reveal knees
    (["calibrate"], OK),
    (["sweep", "--speeds", "10:20:5"], OK),
    *((["run", "--config", f"error{i}.cfg"], BAD) for i in range(len(ab.ERRORS))),
    (["run", "--config", "commented.cfg"], OK),
    (["run", "--config", "blind.cfg", "--v2v", "off"], OK),
    (["run", "--config", "strong_brake.cfg", "--speed", "10", "--v2v", "off"], OK),
    *((["sweep", "--speeds", speeds], BAD)
      for speeds in ("1:2", "1:x:2", "a,b", ",", "1:inf:1", "5:1:1", "1:2:1e-9", "10,10", "0")),
    (["run", "--config", "missing.cfg"], BAD),
    (["run", "--out", os.path.join("missing", "results.csv")], cli.EXIT_RUNTIME),
    (["run", "--config", "lossy.cfg", "--out", "lossy.cfg"], BAD),
    (["fly"], BAD),
]

# The package's lines that CORPUS does not run, keyed by module and
# function (the module alone at top level) and the line's stripped text:
# how many such lines, and why no CLI run reaches them.
_TYPING = "imported for annotations only, under TYPE_CHECKING"
_API = "an input guard that only a Python caller reaches: "
_LOS = ("a physics branch that no corpus run takes, reached by tests/test_world.py::TestLosOccluded"
        "::test_boundary_cases_match_loop_form: ")
UNRUN = {
    ("world", "from .geometry import Vec2"): (1, _TYPING),
    ("world", "from .scenario import ScenarioConfig"): (1, _TYPING),
    ("cli", "raise SystemExit(main())"): (
        1, "the __main__ line of python -m occlusim.cli; the occlusim script calls main"),
    ("harness.SweepSpec.__init__", 'raise ConfigError("speeds_mph must not be empty")'): (
        1, _API + "--speeds lists at least one speed"),
    ("harness.SweepSpec.__init__", "except (TypeError, ValueError, OverflowError):"): (
        1, _API + "--speeds gives floats, which speed_label prints"),
    ("harness.SweepSpec.__init__",
     'label = "an integer" if isinstance(s, int) else repr(s)'): (
        1, _API + "--speeds gives floats, which speed_label prints"),
    ("harness.write_results_csv", 'raise ValueError("no results to serialize")'): (
        1, _API + "every command writes at least one result"),
    ("harness.write_trace_csv", 'raise ValueError("no trace rows to serialize")'): (
        1, _API + "every run takes at least one step"),
    ("scenario._check_key", "raise TypeError"): (
        1, _API + "a config file's values are read by their keys' types"),
    ("scenario._check_key",
     'shown = "an integer" if kind is bool and isinstance(value, int) else repr(value)'): (
        1, _API + "a config file's values are read by their keys' types"),
    ("scenario._check_key",
     'raise ConfigError(f"{key}: must be {_EXPECTS[kind]}, got {shown}") from None'): (
        1, _API + "a config file's values are read by their keys' types"),
    ("scenario._check_key",
     'raise ConfigError(f"{key}: must be a number that a float holds exactly, "'): (
        1, _API + "a config file's number is read as a float"),
    ("scenario._check_key", 'f"got {value!r}")'): (
        1, _API + "a config file's number is read as a float"),
    ("scenario.ScenarioConfig.__init__",
     "raise TypeError(f\"ScenarioConfig: unknown keys {', '.join(map(repr, values))}\")"): (
        1, _API + "load_config names an unknown key first"),
    ("scenario.ScenarioConfig.__setattr__",
     'raise AttributeError(f"ScenarioConfig is read-only: cannot change {name!r}")'): (
        1, _API + "the package never assigns to a config"),
    ("scenario.ScenarioConfig.__repr__",
     "return f\"ScenarioConfig({', '.join(f'{k}={getattr(self, k)!r}' for k in self.KEYS)})\""): (
        1, "the public record's text form, for Python callers; no command prints a config"),
    ("ttc.ttc", "return None if c > 0.0 else 0.0"): (
        1, "a physics branch that no run takes: the pedestrian always walks, so the relative "
           "velocity is never zero; reached by tests/test_ttc.py::TestQuadraticCoeffs"
           "::test_zero_relative_velocity"),
    ("world.los_occluded", "if not (min_x <= sensor_x <= max_x):"): (
        1, _LOS + "no run puts the AV's sensor exactly on the walk line (dx == 0)"),
    ("world.los_occluded", "if not (min_y <= sensor_y <= max_y):"): (
        1, _LOS + "no run puts the pedestrian exactly on the sensor's y (dy == 0)"),
    ("world.los_occluded", "t1 = tb"): (
        1, _LOS + "the transmitter stops 0.02 m past the walk line (tx_stop_gap_m), so "
                  "the x slab never ends before the target"),
    ("world.los_occluded", "return False"): (3, _LOS + "the dx == 0, x slab and dy == 0 exits"),
}


def run_corpus() -> None:
    """Write FILES into the working directory, then run every command line
    of CORPUS through ``cli.main``, checking each exit code."""
    for name, text in FILES.items():
        Path(name).write_text(text, encoding="utf-8")
    for argv, code in CORPUS:
        assert cli.main(argv) == code, argv


# Run as ``python -c _DRIVER PACKAGE CODE`` in the corpus's working
# directory: counts the lines run while the source CODE runs, then prints,
# as its last line, each (file, line) under the directory PACKAGE that ran.
_DRIVER = """
import json, os, sys, trace
tracer = trace.Trace(count=1, trace=0)
tracer.runctx(sys.argv[2], {})
package = os.path.realpath(sys.argv[1]) + os.sep
print(json.dumps([(os.path.realpath(path), line) for path, line in tracer.results().counts
                  if os.path.realpath(path).startswith(package)]))
"""


def lines_run(package: Path, code: str, workdir: Path) -> set[tuple[str, int]]:
    """Each (file, line) of *package* that ran while a fresh interpreter,
    started in *workdir* with the package's parent and this directory on
    its path, ran the source *code*."""
    path = os.pathsep.join([str(package.parent), str(TESTS)])
    done = subprocess.run([sys.executable, "-c", _DRIVER, str(package), code], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return {(path, line) for path, line in json.loads(done.stdout.splitlines()[-1])}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of the module *path* that its code objects list, with the
    qualified name of the innermost def or class holding it, "" at module
    level; a lambda or a comprehension is its holder's. Line 0 and lines
    listed as None belong to no source line."""
    owners: dict[int, str] = {}

    def walk(code: types.CodeType, name: str) -> None:
        for _, _, line in code.co_lines():
            if line:
                owners[line] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                inner = const.co_name
                walk(const, name if inner.startswith("<") else f"{name}.{inner}".lstrip("."))

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return owners


def unreached(package: Path, code: str, workdir: Path,
              allowed: dict[tuple[str, str], tuple[int, str]]) -> list[str]:
    """Each executable line of the modules of *package* that did not run
    while a fresh interpreter ran *code* in *workdir*, and that *allowed*
    does not hold, as ``where line N: text``, *where* being the module and
    the function; then each entry of *allowed* that holds fewer lines than
    it says. *allowed* maps (where, the line's stripped text) to how many
    such lines may not run, and why."""
    ran = lines_run(package, code, workdir)
    unrun = []  # (where, text, line), in module and line order
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        real = os.path.realpath(path)
        unrun += [(f"{path.stem}.{owner}".rstrip("."), text[line - 1].strip(), line)
                  for line, owner in sorted(executable_lines(path).items())
                  if (real, line) not in ran]
    found = Counter((where, text) for where, text, _ in unrun)
    return ([f"{where} line {line}: {text}" for where, text, line in unrun
             if found[where, text] > allowed.get((where, text), (0,))[0]]
            + [f"{where}: {count} unrun lines allowed, {found[where, text]} found: {text}"
               for (where, text), (count, _) in allowed.items() if found[where, text] < count])


def test_every_def_and_class_is_named_in_the_package(tmp_path):
    code = "import test_src_reach; test_src_reach.run_corpus()"
    assert unreached(PACKAGE, code, tmp_path, UNRUN) == []


def _mini(tmp_path: Path, **modules: str) -> Path:
    """A package ``mini`` under *tmp_path* with the modules *modules*."""
    package = tmp_path / "mini"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)
    return package


MINI_MAIN = "from mini.cli import main; main()"


def test_check_sees_a_def_only_the_tests_call(tmp_path):
    package = _mini(
        tmp_path, cli="from .world import step\n\ndef main():\n    step()\n",
        world="import math\n\nclass State:\n    pass\n\ndef step(s=State):\n"
              "    return math.pi\n\ndef reference():\n    pass\n")
    assert unreached(package, MINI_MAIN, tmp_path, {}) == ["world.reference line 10: pass"]


def test_check_counts_an_attribute_only_off_a_package_module(tmp_path):
    package = _mini(
        tmp_path,
        cli="from . import world as world_mod\n\ndef main():\n    return world_mod.step()\n",
        world="def step():\n    return \"a_b\".replace(\"_\", \"\")\n\n"
              "def replace(cfg):\n    return cfg\n")
    assert unreached(package, MINI_MAIN, tmp_path, {}) == ["world.replace line 5: return cfg"]


def test_check_ignores_own_body_annotations_and_type_checking_imports(tmp_path):
    # The walker this check replaced saw no method: State.__eq__ is named
    # now. A TYPE_CHECKING import is skipped only through the allowlist.
    package = _mini(
        tmp_path,
        cli="from __future__ import annotations\n\nfrom typing import TYPE_CHECKING\n\n"
            "from .world import step\n\nif TYPE_CHECKING:\n    from .world import State\n\n"
            "def main(s: State = None) -> None:\n    step(s)\n",
        world="class State:\n    def __eq__(self, other):\n"
              "        return other.__class__ is State\n\n"
              "def step(s: State) -> State:\n    return s\n")
    eq = "world.State.__eq__ line 3: return other.__class__ is State"
    assert unreached(package, MINI_MAIN, tmp_path, {}) == [
        "cli line 8: from .world import State", eq]
    typing_only = {("cli", "from .world import State"): (1, "imported for annotations only")}
    assert unreached(package, MINI_MAIN, tmp_path, typing_only) == [eq]


def test_check_fails_an_entry_for_a_line_that_runs_or_is_gone(tmp_path):
    package = _mini(tmp_path, cli="def main():\n    return 1\n")
    allowed = {("cli.main", "return 1"): (1, "runs"), ("cli.main", "return 2"): (1, "gone")}
    assert unreached(package, MINI_MAIN, tmp_path, allowed) == [
        "cli.main: 1 unrun lines allowed, 0 found: return 1",
        "cli.main: 1 unrun lines allowed, 0 found: return 2"]


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
