import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ellquot import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    # a public name the tour uses that changes fails here, not for a reader
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", tour], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def _readme_commands():
    """argv of each `ellquot ...` line of the README "Command line" block but verify-paper."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "ellquot" and argv[1] != "verify-paper"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(argv, capsys):
    # the battery line is left out: it is the slowest command, and the
    # acceptance tests run the battery itself
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # sweep prints JSON lines, every other command one JSON document
    docs = [json.loads(line) for line in out.splitlines()] if argv[0] == "sweep" else [json.loads(out)]
    assert docs and all(isinstance(doc, dict) for doc in docs)


def _subcommand_options():
    """(subcommand, option) for each option of each `ellquot` subcommand.

    -h and the parameter flags generated from KUBERT_PARAMETERS,
    CONSTRUCTION_PARAMETERS and FAMILIES are left out: the README documents
    those through their tables.
    """
    generated = {f"--{k}" for k in cli.KUBERT_FLAGS + cli.CONSTRUCTION_FLAGS + cli.FAMILY_FLAGS}
    (subparsers,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help" and option not in generated:
                    yield name, option


def _names(word):
    return re.compile(rf"(?<![\w-]){re.escape(word)}(?![\w-])")


@pytest.mark.parametrize(
    "command, option", [pytest.param(*pair, id=" ".join(pair)) for pair in _subcommand_options()]
)
def test_every_cli_option_is_in_a_readme_line_naming_its_command(command, option):
    # an option added to a subcommand without a README line fails here
    lines = (ROOT / "README.md").read_text().splitlines()
    assert any(_names(command).search(line) and _names(option).search(line) for line in lines)
