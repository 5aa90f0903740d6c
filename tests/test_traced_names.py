"""Every function the benchmark's tracer wraps still exists under its name.

`perfbench/tracing.py` lists the fsdim functions it wraps as (module,
attribute) keys of `TRACED`, class methods written "Class.method".  A key
that no longer resolves breaks traced benchmark runs, so a deleted or
renamed function fails here first.  The file is loaded, not edited.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def resolve(modname, attr):
    target = importlib.import_module(modname)
    for part in attr.split("."):
        target = getattr(target, part, None)
    return target


def test_every_traced_key_resolves_to_a_function():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert any("." in attr for _, attr in traced)  # class methods are covered too
    unresolved = [key for key in traced if not callable(resolve(*key))]
    assert unresolved == []
