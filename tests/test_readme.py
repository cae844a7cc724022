"""The README's examples run as written.

Every ```python block runs, in order, in one namespace, and every
``icbounds ...`` line of the "Command line" block runs through ``cli.main``
in a folder holding the files it names, and exits 0.  The "Flags:" paragraph
names exactly the options of ``bound``.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from icbounds import Disjointness, build_family, save_truth_table
from icbounds.cli import build_parser, main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def _commands() -> list:
    section = README.split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("icbounds ")]


def test_readme_has_the_examples_this_file_runs():
    assert len(_blocks("python")) >= 3
    assert len(_commands()) >= 10


def test_python_blocks_run_in_one_namespace():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in _blocks("python"):
            exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("command", _commands())
def test_command_line_examples_exit_0(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(save_truth_table(build_family(Disjointness(2))), encoding="utf-8")
    (tmp_path / "weights.json").write_text("[1, 3, 0, 2.5]", encoding="utf-8")
    (tmp_path / "perm.json").write_text("[2, 1, 0, 3]", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    assert code == 0, err.getvalue()


def test_flags_paragraph_names_the_options_of_bound():
    paragraph = re.search(r"^Flags: (.*?)\n\n", README, flags=re.MULTILINE | re.DOTALL).group(1)
    named = set(re.findall(r"--[a-z0-9][a-z0-9-]*", paragraph))
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subcommands.choices["bound"]._actions if a.option_strings and a.dest != "help"]
    assert named == {option for action in actions for option in action.option_strings}
