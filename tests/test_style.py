"""Style checks on ``src/trendcast``, in place of a linter the tests cannot
rely on being installed.

* No line is longer than 100 characters.
* Every name a module imports is referenced in it, so deleting a function
  cannot leave its import behind. ``__init__.py`` is exempt: its imports
  are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trendcast"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [f"{path.name}:{k}: {len(line)} characters"
            for k, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert long == []


def imported_names(tree):
    """The names each import of ``tree`` binds, with the import's line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                # "import a.b" binds "a"
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nimport numpy as np\nfrom .x import a, b\nprint(np, a)\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os", "b"]
