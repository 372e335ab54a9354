"""A failing stage localises its first failing item in one ``first_failure`` frame, never one nested in another.

``first_failure`` reruns its batch on each probe, so a batch that opens a
second frame of its own would bisect again inside every failing probe, with
a subset table built per inner probe. The per-row oracles agree with both
routes, so without this guard such a nesting would pass every other test.
"""

import math

import pytest

from shale_adsorb import dataset, validation
from shale_adsorb.dataset import SampleTable, parse_samples
from shale_adsorb.estimator import estimate_adsorbed_gas, estimate_reservoirs, parse_reservoirs, reference_models
from shale_adsorb.geotemp import parse_heatflow
from shale_adsorb.regression import FittedModel, ModelKind, ModelSpec, fit, fit_stack
from shale_adsorb.validation import Scenario, compare_models
from conftest import MODULES, make_record, reservoir_table, synthetic_records, table

SAMPLES = ("id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t\n"
           "s1,Barnett,4.0,1.5,48,,5.0,2.0\ns2,Barnett,x,1.5,48,,5.0,2.0\ns3,Barnett,4.0,1.5,48,,5.0,2.0\n")
HEATFLOW = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4\n103.1,x,1086,16.66\n"
CONFIG = "name=A\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n\n" \
         "name=B\ndepth_m=-1\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n"


def _reservoirs(n, bad):
    """``n`` good reservoirs ``R<i>``, reservoir ``bad`` with a temperature of -10 degC (a pl-geo log domain error)."""
    return reservoir_table((f"R{i}", 2000.0, 3.0, 1.5, 1.0, 20.0, 30.0, -10.0 if i == bad else None, None)
                           for i in range(n))


def _samples_missing_ro(n, bad):
    """``n`` pl samples, sample ``r<bad>`` without ro."""
    return table(make_record(i, toc=3.0 + 0.1 * i, temp=40.0 + i, ro=None if i == bad else 1.0 + 0.05 * i,
                             pl=4.0 + 0.1 * i) for i in range(n))


def _compare_with_inf_coefficient(monkeypatch):
    def fit_with_inf(rows, y):
        w = fit_stack(rows, y)
        w[2, 1] = math.inf  # repetition 3
        return w

    monkeypatch.setattr(validation, "fit_stack", fit_with_inf)
    compare_models(synthetic_records(n=30, seed=13), [ModelSpec(ModelKind.VL_GEO), ModelSpec(ModelKind.VL_TOCLIN)],
                   Scenario.OVERALL, 0.2, repetitions=5, seed=7)


# stage -> (failing call of the monkeypatch fixture, error it raises, deepest frame nesting)
STAGES = {
    "parse_samples": (lambda mp: parse_samples(SAMPLES), "row 3, column toc_pct", 1),
    "parse_heatflow": (lambda mp: parse_heatflow(HEATFLOW), "row 3, column lat_deg", 1),
    "parse_reservoirs": (lambda mp: parse_reservoirs(CONFIG), "reservoir B: depth_m must be >= 0", 1),
    "fit": (lambda mp: fit(_samples_missing_ro(40, 29), ModelSpec(ModelKind.PL_GEO)), "record r29 is missing", 1),
    "FittedModel.predict": (lambda mp: reference_models()[0].predict(_samples_missing_ro(40, 29)),
                            "record r29 is missing", 1),
    "estimate_reservoirs": (lambda mp: estimate_reservoirs(_reservoirs(40, 29), *reference_models()),
                            "reservoir R29: math domain error", 1),
    # one row has nothing to localise: no frame runs at all
    "estimate_adsorbed_gas": (lambda mp: estimate_adsorbed_gas(3.0, 1.5, -10.0, 20.0, *reference_models()),
                              "math domain error", 0),
    "compare_models": (_compare_with_inf_coefficient, "vl-geo coefficients must be finite", 1),
}


@pytest.fixture
def depths(monkeypatch):
    """The nesting depth at which each ``first_failure`` frame opens, through every module's binding of it."""
    real, opened, depth = dataset.first_failure, [], [0]

    def counted(*args, **kwargs):
        depth[0] += 1
        opened.append(depth[0])
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in MODULES:
        if getattr(module, "first_failure", None) is real:
            monkeypatch.setattr(module, "first_failure", counted)
    return opened


@pytest.mark.parametrize("stage", STAGES)
def test_a_failing_stage_opens_no_frame_inside_another(stage, depths, monkeypatch):
    call, message, deepest = STAGES[stage]
    with pytest.raises(ValueError, match=message):
        call(monkeypatch)
    assert max(depths, default=0) == deepest


def test_a_failing_estimate_predicts_and_takes_no_subset(monkeypatch):
    calls = []
    for cls, name in ((FittedModel, "predict"), (SampleTable, "take")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda self, *args, real=real, name=name: calls.append(name) or real(self, *args))
    with pytest.raises(ValueError, match="reservoir R999: math domain error"):
        estimate_reservoirs(_reservoirs(1000, 999), *reference_models())
    assert calls == []
