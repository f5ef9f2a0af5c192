"""Every name a module of the package imports is used by that module.

The package's `__init__.py` is exempt: its imports are its exports.  An
import on a line marked `# noqa: F401` is kept on purpose and exempt too.
"""

import ast
from pathlib import Path

import pytest

import barrierfem

MODULES = sorted(p for p in Path(barrierfem.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom a import (\n    b,\n    c,\n)\nc()\n"
    assert unused_imports(source) == [(1, "os"), (4, "b")]
