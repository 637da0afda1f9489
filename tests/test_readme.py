"""README's library example runs and its CLI lines parse as written.

Each ```python block of README.md is executed, and each `wildquery` line
of its ```sh blocks is parsed into a config without running, so an API
or flag change that leaves the documented usage stale fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from wildquery.cli import build_parser, config_from_args

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("wildquery ")
]


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
