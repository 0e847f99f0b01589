"""Every name a package module imports is used in that module.

No linter runs in tier-1, and deleting code is where unused imports get
left behind.  `__init__.py` re-exports its imports, so it is exempt.
"""

import ast
import pathlib

import pytest

import sparsefactor

_PACKAGE = pathlib.Path(sparsefactor.__file__).parent
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert unused == []
