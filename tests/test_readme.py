"""The README's examples run as written: the "Library use" Python block
and every uncommented `dsquant` command of the "CLI walkthrough"."""

import re
import shlex
from pathlib import Path

from dsquant.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(section, language):
    """The first fenced block of the given language under a `## ` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def walkthrough_commands():
    joined = code_block("CLI walkthrough", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("dsquant ")]


def test_walkthrough_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert [argv[0] for argv in commands] == [
        "ingest", "score", "allocate", "quantize", "stats", "compare"]
    for argv in commands:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
    assert (tmp_path / "loss.csv").exists()


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code_block("Library use", "python"), str(README), "exec"), {})
    assert (tmp_path / "data.qds").exists()
