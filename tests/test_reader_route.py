"""Every input file's earliest-fault re-read goes through ``dataset.read_whole``.

The samples CSV, the heat-flow CSV and the reservoir config share one
parse-error order: on failure, the items are read again into a list inside a
``try``/``finally``, so a bad item before one the reader cannot read fails
first. The per-row and per-block oracles agree with any copy of that rule,
so without this scan a parser could grow its own copy again unnoticed.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shale_adsorb").glob("*.py"))

PARSERS = ["dataset.py:parse_samples", "estimator.py:parse_reservoirs", "geotemp.py:parse_heatflow"]


def _functions(text: str, name: str):
    """(``name:function``, node) for each function defined in source text, nested ones included."""
    return [(f"{name}:{node.name}", node) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def reader_loops(text: str, name: str) -> list[str]:
    """``name:function`` for each function with a ``try``/``finally`` whose body loops over a reader."""
    return [label for label, function in _functions(text, name)
            if any(isinstance(node, ast.Try) and node.finalbody
                   and any(isinstance(inner, (ast.For, ast.While)) for stmt in node.body for inner in ast.walk(stmt))
                   for node in ast.walk(function))]


def read_whole_calls(text: str, name: str) -> dict[str, int]:
    """``name:function`` -> the number of ``read_whole`` calls in its body, for each function that makes one."""
    counts = {}
    for label, function in _functions(text, name):
        calls = sum(isinstance(node, ast.Call) and "read_whole" in (getattr(node.func, "id", None),
                                                                    getattr(node.func, "attr", None))
                    for node in ast.walk(function))
        if calls:
            counts[label] = calls
    return counts


def _texts():
    return [(source.read_text(encoding="utf-8"), source.name) for source in SOURCES]


def test_only_read_whole_reads_the_items_again():
    assert [loop for text, name in _texts() for loop in reader_loops(text, name)] == ["dataset.py:read_whole"]


def test_each_parser_calls_read_whole_once():
    found = {label: calls for text, name in _texts() for label, calls in read_whole_calls(text, name).items()}
    assert found == dict.fromkeys(PARSERS, 1)


PARSER_OF_OLD = '''\
def parse_heatflow(source):
    rows = []
    try:
        for row in read_csv_table(source, COLUMNS, "heat-flow"):
            rows.append(row)
    finally:
        points = first_failure(_rows_table, rows, _check_cells)
    return points
'''


@pytest.mark.parametrize("text, found", [
    (PARSER_OF_OLD, ["m.py:parse_heatflow"]),
    ("def read(items):\n    try:\n        while True:\n            items.append(next(it))\n    finally:\n"
     "        done()\n", ["m.py:read"]),
    ("def f(xs):\n    try:\n        return g(xs)\n    finally:\n        done()\n", []),
    ("def f(xs):\n    try:\n        for x in xs:\n            g(x)\n    except ValueError:\n        pass\n", []),
], ids=["for-loop", "while-loop", "no-loop", "no-finally"])
def test_scan_finds_each_reader_loop(text, found):
    assert reader_loops(text, "m.py") == found


@pytest.mark.parametrize("text, found", [
    ("def parse(text):\n    return read_whole(fast, read, localise)\n", {"m.py:parse": 1}),
    ("def parse(text):\n    return dataset.read_whole(fast, read, localise)\n", {"m.py:parse": 1}),
    (PARSER_OF_OLD, {}),
], ids=["name", "attribute", "none"])
def test_scan_finds_each_read_whole_call(text, found):
    assert read_whole_calls(text, "m.py") == found
