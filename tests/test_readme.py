"""The README's CLI examples and library example run as written."""

import re
import shlex
from pathlib import Path

import pytest

from frobex.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(section: str) -> str:
    """The first fenced block after the heading ``## <section>``."""
    match = re.search(rf"^## {re.escape(section)}\n.*?```\w*\n(.*?)```", README, re.S | re.M)
    assert match, section
    return match.group(1)


COMMANDS = code_block("CLI").splitlines()


def test_cli_block_lists_every_command():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "qas-verify", "nakayama", "qweyl-transfer", "rees-demo", "grassmannian-census"
    }


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.delenv("FROBEX_SEED", raising=False)
    prog, *argv = shlex.split(line)
    assert prog == "frobex"
    assert main([*argv, "--out", str(tmp_path / "report.txt")]) == 0


def test_library_example_runs():
    exec(compile(code_block("Library example"), "README.md", "exec"), {})
