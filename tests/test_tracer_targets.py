"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` table by
module and attribute path. A rename or deletion in the package would only
surface when a traced benchmark run fails, so this checks every entry here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer_module()


@pytest.mark.parametrize("span", sorted(_TRACER.TARGETS))
def test_target_resolves(span):
    module_name, path = _TRACER.TARGETS[span]
    owner = importlib.import_module(f"{_TRACER.PACKAGE}.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
