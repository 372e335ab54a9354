"""The README's library example runs as written, from the repository root."""

import re
from pathlib import Path

import pytest

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
