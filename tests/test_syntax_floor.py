"""The package, tools/ab.py and the test code of both test paths parse
as Python 3.10, the oldest version that pyproject.toml's
``requires-python = ">=3.10"`` admits, whatever interpreter runs the
tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = [*sorted((ROOT / "src" / "occlusim").glob("*.py")), ROOT / "tools" / "ab.py",
           *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def test_floor_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert 'requires-python = ">=%d.%d"' % FLOOR in pyproject


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_check_rejects_syntax_newer_than_the_floor():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(snippet)
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=FLOOR)
