"""Every imported name in the package and the tests is used.

An import that nothing reads is left over from an edit; this scan finds it
from the syntax tree alone, so it runs without importing anything. A name
counts as read when it appears as a loaded ast.Name or is listed in the
module's __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/knnsweep/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c\n__all__ = ['c']\nsys.exit()\n")
    assert unused_imports(tree) == [(1, "os"), (3, "b")]
