"""Every module imports only names it uses.

No linter is part of the toolchain, so this scans each module under
src/fsdim (except __init__.py, whose imports are the package's re-exports)
and under tests with the ast module: a name bound by an import statement
must be read somewhere else in the same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/fsdim/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport re\nfrom os import path, sep\nre.compile(sep)\n") \
        == [(1, "math"), (3, "path")]
