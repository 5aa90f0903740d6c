"""Every public name of the package has a caller outside the tests.

A name that only the tests use is code kept for the tests alone.  This lists
every name in fsdim.__all__ and every public method and property of each
class among them, and looks for a reference to each in the program's own
Python files: src/fsdim, demos/, scripts/ and perfbench/*.py.  The name's own
definition does not count, nor does src/fsdim/__init__.py, which only
re-exports.  A reference is a name or attribute read in code, or a word in a
string that is not a docstring (the benchmark's tracer wraps functions by
their names as strings); comments and docstrings are not callers.  A package
name counts where it is read as a name, a method or property where it is read
as an attribute `.name` on any object, so of two methods sharing a name, one
can stand behind the other's callers.  A name without a reference fails here
unless ALLOWED gives the reason it stays.
"""

import ast
import inspect
import re
from pathlib import Path

import fsdim

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted({*ROOT.glob("src/fsdim/*.py"), *ROOT.glob("demos/*.py"),
                  *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")}
                 - {ROOT / "src" / "fsdim" / "__init__.py"})

# public name -> why it stays without a caller
ALLOWED = {}


def read_words(source: str, skip=range(0)) -> set:
    """The names, `.attributes` and string words read in `source`, outside the
    lines in `skip`.  A string word keeps a leading dot, so "Class.method"
    reads as "Class" and ".method"."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    words = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add("." + node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"\.?\w+", node.value))
    return words


def public_names() -> dict:
    """{name: (its definition, the word that references it)}."""
    names = {name: (getattr(fsdim, name), name) for name in fsdim.__all__}
    for cls in [value for value, _ in names.values() if inspect.isclass(value)]:
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            value = getattr(value, "fget", None) or getattr(value, "__func__", None) or value
            if inspect.isfunction(value):
                names[f"{cls.__name__}.{attr}"] = (value, "." + attr)
    return names


def unreferenced(names: dict, sources: dict) -> list:
    """The names of `names` ({name: (definition, word)}) that no file of
    `sources` ({path: text}) reads outside the definition's own lines."""
    words = {path: read_words(text) for path, text in sources.items()}
    missing = []
    for name, (definition, word) in names.items():
        path = Path(inspect.getsourcefile(definition)).resolve()
        lines, start = inspect.getsourcelines(definition)
        own = range(start, start + len(lines))
        if not any(word in (read_words(text, own) if p == path else words[p])
                   for p, text in sources.items()):
            missing.append(name)
    return sorted(missing)


def test_every_public_name_has_a_caller():
    sources = {path: path.read_text() for path in SCANNED}
    assert unreferenced(public_names(), sources) == sorted(ALLOWED)
    assert all(ALLOWED.values())


def test_scan_finds_a_name_without_a_caller(tmp_path):
    # `unused` is read only in its own body, a docstring and a comment; `used`
    # is called once, outside its definition
    module = tmp_path / "module.py"
    module.write_text('"""Defines used and unused."""\n'
                      "def used():\n"
                      "    return 1\n"
                      "def unused():\n"
                      "    return unused()\n"
                      "# unused() in a comment\n"
                      "used()\n")
    namespace = {}
    exec(compile(module.read_text(), str(module), "exec"), namespace)
    names = {name: (namespace[name], name) for name in ("used", "unused")}
    assert unreferenced(names, {module: module.read_text()}) == ["unused"]
