"""Source hygiene: every module of the package uses each name it imports.

A stdlib `ast` check, since no lint tool is part of the toolchain.
`__init__.py` is skipped because its imports are the public re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nls_transport"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nfrom .a import b, c\n"
              "x = np.zeros(b)\n")
    assert unused_imports(source) == ["c (line 4)", "json (line 2)"]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
