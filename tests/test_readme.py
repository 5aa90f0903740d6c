"""The README's library tour runs as written, so a renamed call fails here, and
its command-line block lists exactly the flags the parser takes."""

import argparse
import pathlib
import re

from fsdim.cli import _build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md (library tour)", "exec"), {})


def parser_flags(parser):
    """Every --flag of a parser and of all its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def test_command_line_block_lists_every_flag():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", block))
    assert documented == parser_flags(_build_parser()) - {"--help", "--version"}
