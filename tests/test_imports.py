"""Every name a package module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter runs in tier-1, and deleting code is where unused imports and
helpers get left behind.  `__init__.py` re-exports its imports, so it is
exempt from the import check.
"""

import ast
import collections
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


def _reads(node):
    """Every name loaded, and every attribute named, under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _private_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        targets = [ast.Name(stmt.name)]
    elif isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.startswith("_")
            and not node.id.startswith("__")]


def test_no_unread_private_names():
    reads = collections.Counter()
    defined = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = collections.Counter(_reads(stmt))
            reads.update(own)
            defined += [(f"{path.stem}.{name}", name, own[name])
                        for name in _private_names(stmt)]
    # a read inside the name's own definition, such as a recursive call,
    # does not count
    unread = sorted(label for label, name, own in defined
                    if reads[name] == own)
    assert unread == []
