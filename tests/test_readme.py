"""The README's library quick start and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from convexauction.cli import METHODS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("## Library quick start", "python"), "README.md", "exec"), {})
    capsys.readouterr()


def test_cli_examples_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("## CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("convexauction ")]
    assert [argv[1] for argv in commands] == [
        "experiment", "solve", "check", "discretize", "export"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_registry_paragraph_names_every_method():
    """The README's registry sentence names exactly the ``METHODS`` keys."""
    sentence = re.search(r"share one method registry:(.*?)\.\s", README, re.S).group(1)
    names = set()
    for name in re.findall(r"`([^`]+)`", sentence):
        stem, _, rest = name.partition("{")
        alternatives = rest.rstrip("}").split(",") if rest else [""]
        names.update(stem + alt for alt in alternatives if "*" not in stem)
    assert names == set(METHODS)
