"""No module of the package or of the tests imports a name it never uses."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join("src", "needlecheck"), "tests")
FILES = sorted(os.path.join(d, f) for d in DIRS
               for f in os.listdir(os.path.join(ROOT, d)) if f.endswith(".py"))


def _dotted(node: ast.AST):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def unused_imports(source: str):
    """(line, name) of each import in source that nothing uses.  `import
    a.b` is used where a chain of attributes starts with a.b; any other
    import by the name it binds, read anywhere or listed in __all__."""
    tree = ast.parse(source)
    used, chains = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain:
                chains.add(chain)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    ok = alias.asname in used
                elif "." in alias.name:
                    ok = any(c == alias.name or c.startswith(alias.name + ".")
                             for c in chains)
                else:
                    ok = alias.name in used
                if not ok:
                    out.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used:
                    out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", [(1, "math")]),
    ("import os.path\nos.sep\n", [(1, "os.path")]),
    ("import os.path\nos.path.join\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_the_check_sees_an_unused_import(source, unused):
    assert unused_imports(source) == unused
