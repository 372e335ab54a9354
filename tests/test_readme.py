"""The README's library example and command-line block run as written, from the repository root."""

import re
import shlex
from pathlib import Path

import pytest

from shale_adsorb.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # the Sichuan Basin reservoir, hand-evaluated in the acceptance criteria
    assert namespace["content"] == pytest.approx(1.3351, abs=5e-4)
    assert namespace["validation"].n == len(namespace["report"].inliers(namespace["kept"]))


def cli_lines(text: str) -> list[list[str]]:
    """The argv of each ``shale-adsorb`` line of the README's "Command line" block, continuations joined."""
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("shale-adsorb ")]


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    lines = cli_lines((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {argv[0] for argv in lines} == {"clean", "outliers", "fit", "validate", "compare", "estimate", "idw"}
    # one output directory, relative as written; the inputs are read from the repository's data/
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        argv = [str(ROOT / arg) if arg.startswith("data/") else arg for arg in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "out" / "estimates.csv").is_file() and (tmp_path / "out" / "idw.csv").is_file()
