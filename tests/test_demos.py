"""Every demo script runs to its end, its output captured.

A demo that imports a removed or renamed name fails here as well as when
the demos are run by hand.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    # an empty glob would leave the parametrized test with nothing to run
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
