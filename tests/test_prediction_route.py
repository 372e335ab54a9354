"""Every prediction of the package goes through ``regression.predict_rows``.

A model kind's ``inverse`` maps a linear response back to pl or vl, so a
function that reads it is a prediction path. ``FittedModel.predict``, the
LOO and compare errors and the estimate all reach the inverse through
``predict_rows``, which also raises for an overflowing value; this scan keeps
a second path, such as a one-row twin, from coming back unnoticed.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shale_adsorb").glob("*.py"))


def inverse_readers(text: str, name: str) -> list[str]:
    """``name:function`` for each read of an ``.inverse`` attribute in source text, by enclosing function."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "inverse":
            found.append(f"{name}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), "<module>")
    return found


def test_only_predict_rows_reads_a_kind_inverse():
    found = [reader for source in SOURCES for reader in inverse_readers(source.read_text(encoding="utf-8"),
                                                                          source.name)]
    assert found == ["regression.py:predict_rows"]


@pytest.mark.parametrize("text, found", [
    ("def predict_rows(spec, x, w):\n    return _FACTS[spec.kind].inverse(np.vecdot(x, w))\n",
     ["m.py:predict_rows"]),
    ("class ModelSpec:\n    def inverse_response(self, linear):\n        return _FACTS[self.kind].inverse(linear)\n",
     ["m.py:inverse_response"]),
    ("def predict(model, x):\n    undo = _FACTS[model.spec.kind].inverse\n    return undo(x @ model.w)\n",
     ["m.py:predict"]),
    ("INVERSES = {kind: facts.inverse for kind, facts in _FACTS.items()}\n", ["m.py:<module>"]),
    ("def inverse_responses(spec, values):\n    return predict_rows(spec, values[:, None], np.ones(1))\n", []),
], ids=["predict-rows", "one-row-twin", "bound-inverse", "module-table", "no-read"])
def test_scan_finds_each_read_of_an_inverse(text, found):
    assert inverse_readers(text, "m.py") == found
