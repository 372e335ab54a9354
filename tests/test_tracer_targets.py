"""The benchmark tracer's targets still name functions of the package, and its counters read their results.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` table by
module and attribute path, and its ``_COUNTERS`` read the arguments and
result of some of them. A rename, a deletion or a changed return type in
the package would only surface when a traced benchmark run fails, so this
checks every entry here.
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


def _counter_calls(data_dir, out_dir):
    """Span name -> arguments of one real call of its target on the bundled ``data/`` files."""
    from shale_adsorb import dataset, estimator, geotemp
    from shale_adsorb.regression import ModelKind, ModelSpec

    records = dataset.parse_samples((data_dir / "samples.csv").read_text(encoding="utf-8"))
    kept = dataset.clean(records, dataset.DatasetKind.PL).kept
    reservoirs_text = (data_dir / "reservoirs.conf").read_text(encoding="utf-8")
    table = estimator.parse_reservoirs(reservoirs_text)
    i = table.names.index("Northern Jiangsu Basin")  # outside the fitted temperature range
    spec = estimator.ReservoirSpec(name=table.names[i], depth=table.depth[i].item(), toc=table.toc[i].item(),
                                   ro=table.ro[i].item(), temp_override=table.temp_override[i].item())
    points = geotemp.parse_heatflow((data_dir / "heatflow.csv").read_text(encoding="utf-8"))
    return {
        "dataset.parse_samples": ((data_dir / "samples.csv").read_text(encoding="utf-8"),),
        "dataset.clean": (records, dataset.DatasetKind.PL),
        "outliers.detect_outliers": (kept, dataset.DatasetKind.PL),
        "validation.loo_cv": (kept, ModelSpec(ModelKind.PL_GEO)),
        "estimator.parse_reservoirs": (reservoirs_text,),
        "estimator.estimate_reservoir": (spec, *estimator.reference_models()),
        "geotemp.filter_heatflow": (points,),
        "geotemp.interpolate_grid": (geotemp.filter_heatflow(points), 103.0, 110.0, 27.0, 32.0, 3, 2),
        "cli.main": (["estimate", "--input", str(data_dir / "reservoirs.conf"), "--paper-coefficients",
                      "--output-dir", str(out_dir)],),
    }


# Span name -> what its counter adds for the call above.
EXPECTED_COUNTS = {
    "dataset.parse_samples": {"rows": 48},
    "dataset.clean": {"in": 48, "kept": 48},
    "outliers.detect_outliers": {"rows": 48, "flagged": 0},
    "validation.loo_cv": {"folds": 48},
    "estimator.parse_reservoirs": {"blocks": 9},
    "estimator.estimate_reservoir": {"warned": True},
    "geotemp.filter_heatflow": {"in": 20, "kept": 17},
    "geotemp.interpolate_grid": {"nodes": 6},
    "cli.main": {"errors": False},
}


@pytest.mark.parametrize("span", sorted(_TRACER._COUNTERS))
def test_counter_reads_a_real_result(span, data_dir, tmp_path, capsys):
    # A counter reads its target's arguments and result; a change of their
    # types should fail here, not in a traced benchmark run.
    module_name, path = _TRACER.TARGETS[span]
    target = importlib.import_module(f"{_TRACER.PACKAGE}.{module_name}")
    for attr in path.split("."):
        target = getattr(target, attr)
    args = _counter_calls(data_dir, tmp_path)[span]
    assert _TRACER._COUNTERS[span](args, target(*args)) == EXPECTED_COUNTS[span]
