"""Every import in src/condflow is used: a stdlib-only stand-in for a
linter's unused-import rule."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "condflow"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names listed in `__all__`
    count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detects_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(1)\nsep\n"
    assert unused_imports(source) == ["math", "path"]
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []


# the package __init__ imports its public names in order to export them
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
