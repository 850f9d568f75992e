"""The README agrees with the program: its Python examples run as written
against the current API, and its usage block names the parser's options."""

import argparse
import re
from pathlib import Path

import pytest

from enkf_lab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_runs(block, tmp_path, monkeypatch):
    # Files the example writes land in a scratch working directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def _readme_usage() -> dict[str, str]:
    """Each subcommand of the README's ``enkf-lab`` usage block, with its
    continuation lines joined on."""
    (block,) = re.findall(r"^```\n(enkf-lab .*?)^```", README.read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    usage: dict[str, str] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("enkf-lab "):
            command = line.split()[1]
            usage[command] = line
        else:
            usage[command] += " " + line.strip()
    return usage


def test_usage_block_names_every_option():
    # Each subcommand names, in some spelling, every option and positional
    # argument the parser defines, and nothing else.
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    usage = _readme_usage()
    assert set(usage) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage[command]))
        options = [action.option_strings for action in parser._actions
                   if action.option_strings and action.dest != "help"]
        assert all(named & set(strings) for strings in options), command
        assert named <= {string for strings in options for string in strings}, command
        positionals = [action for action in parser._actions if not action.option_strings]
        assert len(re.findall(r"<[^>]+>", usage[command])) == len(positionals), command
