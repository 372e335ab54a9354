"""Every per-element ``math`` or ``pow`` call of the package goes through ``dataset.elementwise``.

A Python-level loop of ``math`` or builtin calls over an array rounds the
same but is 6 to 27 times slower than the kernel; this scan keeps that route
from coming back unnoticed. A conversion such as
``np.fromiter(map(float, cells), ...)`` is not a libm call and passes.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "shale_adsorb").glob("*.py"))

PER_ELEMENT_LIBM_LOOP = re.compile(r"map\((?:math\.|pow\b)|fromiter\(map\((?!(?:float|bool|int|str),)")


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_python_level_per_element_libm_loop(source):
    lines = source.read_text(encoding="utf-8").splitlines()
    assert [f"{source.name}:{number}: {line.strip()}" for number, line in enumerate(lines, 1)
            if PER_ELEMENT_LIBM_LOOP.search(line)] == []


@pytest.mark.parametrize("line, found", [
    ("row[:] = np.fromiter(map(pow, map(math.sin, half), repeat(2)), float, len(half))", True),
    ("np.fromiter(map(func, flat, *map(repeat, args)), float, len(flat))", True),
    ("list(map(math.exp, values))", True),
    ("values = np.fromiter(map(float, cells), float, len(cells))", False),
    ("np.fromiter(map(bool, table.names), bool, len(table))", False),
    ("row[:] = elementwise(np.power, elementwise(np.sin, half), 2.0)", False),
])
def test_scan_finds_the_map_route(line, found):
    assert bool(PER_ELEMENT_LIBM_LOOP.search(line)) is found
