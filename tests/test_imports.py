"""Every name a module imports is read somewhere in that module.

Each ``src/rankinlab/*.py`` except ``__init__.py`` (whose imports are the
package's public names) is parsed with :mod:`ast`.  A name bound by
``import`` or ``from ... import`` must be read by a ``Name`` node somewhere in
the module; an import line marked ``# noqa: F401`` is a deliberate re-export
and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankinlab"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names that ``source`` never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[n - 1] for n in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name == "annotations" and isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


def test_the_scan_flags_an_unread_import_and_honours_noqa():
    source = ("from fractions import Fraction\nimport math\n"
              "from .scalars import _ring  # noqa: F401\n"
              "from .scalars import (Scalar,\n    _plain)\n"
              "x = math.pi * Scalar\n")
    assert unused_imports(source) == ["line 1: Fraction", "line 4: _plain"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []
