"""README's library example runs and its CLI lines parse as written.

Each ```python block of README.md is executed, each `wildquery` line
of its ```sh blocks is parsed into a config without running, and its CLI
table is compared with each subcommand's --help, so an API or flag change
that leaves the documented usage stale fails here.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from wildquery.cli import build_parser, config_from_args
from wildquery.experiments import EXPERIMENTS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("wildquery ")
]
# subcommand -> its parameter flags, from the `| subcommand | parameter
# flags |` table
FLAG_TABLE = {
    name: flags.split()
    for name, flags in re.findall(r"^\| `([\w-]+)` \| `([^`]*)` \|$", TEXT, re.M)
}
# the flags every subcommand takes beside its parameters
COMMON_FLAGS = ("--help", "--seed", "--format", "--out", "--config")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize(
    "code", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))]
)
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_cli_line_parses(argv):
    cfg = config_from_args(build_parser().parse_args(argv))
    assert cfg.experiment == argv[0]


def _help_flags(name):
    """The long flags of a subcommand's --help, in the order it lists them."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    return re.findall(r"^  (?:-\w, )?(--[\w-]+)", text.getvalue(), re.M)


def test_readme_flag_table_lists_every_subcommand():
    assert list(FLAG_TABLE) == list(EXPERIMENTS)


@pytest.mark.parametrize("name", FLAG_TABLE)
def test_readme_flag_table_row_is_the_parsers(name):
    offered = [flag for flag in _help_flags(name) if flag not in COMMON_FLAGS]
    assert FLAG_TABLE[name] == offered
