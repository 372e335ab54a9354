"""Plain input CSV text is read whole, not by ``csv.reader`` row by row.

A plain heat-flow text goes to NumPy's C text reader
(``dataset.plain_csv_numbers``), a plain samples text to the one-``split``
reader (``dataset.plain_csv_columns``). The per-row oracles in
``tests/helpers.py`` agree with every route, so without this guard an edit
that sent every text to ``csv.reader``, or heat-flow back to the split and
a ``float`` call per cell, would pass every other test, and each
``idw --query`` would pay for the slower read again.
"""

import csv

import pytest

from shale_adsorb import dataset, geotemp
from shale_adsorb.dataset import parse_samples
from shale_adsorb.geotemp import parse_heatflow
from conftest import MODULES

HEATFLOW = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4\n103.1,27.5,1086,16.66\n"
SAMPLES = ("id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t\n"
           "s1,Barnett,4.0,1.5,48,,5.0,2.0\ns2,Longmaxi,2.5,,60.5,3.1,,1.8\n")


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


@pytest.fixture
def no_csv_reader(monkeypatch):
    monkeypatch.setattr(csv, "reader", _refuse("csv.reader"))


@pytest.fixture
def split_calls(monkeypatch):
    """The sources ``plain_csv_columns`` is called on, through every module's binding of it."""
    calls, real = [], dataset.plain_csv_columns
    for module in MODULES:
        if hasattr(module, "plain_csv_columns"):
            monkeypatch.setattr(module, "plain_csv_columns", lambda source, *args: calls.append(source)
                                or real(source, *args))
    return calls


def test_plain_heatflow_text_is_read_by_the_c_reader(monkeypatch, no_csv_reader):
    for module in MODULES:
        if hasattr(module, "plain_csv_columns"):
            monkeypatch.setattr(module, "plain_csv_columns", _refuse("plain_csv_columns"))
    monkeypatch.setattr(geotemp, "_heatflow_table", _refuse("_heatflow_table"))
    points = parse_heatflow(HEATFLOW)
    assert points.lon.tolist() == [104.5, 103.1]
    assert points.grad_t.tolist() == [26.4, 16.66]


def test_plain_samples_text_is_split_whole(no_csv_reader, split_calls):
    assert len(parse_samples(SAMPLES)) == 2
    assert split_calls == [SAMPLES]


@pytest.mark.parametrize("parse, text", [(parse_heatflow, HEATFLOW.replace("104.5", '"104.5"')),
                                         (parse_samples, SAMPLES.replace("s2", '"s2"')),
                                         (parse_heatflow, HEATFLOW.splitlines(keepends=True))],
                         ids=["quoted-heatflow", "quoted-samples", "lines"])
def test_other_text_goes_through_csv_reader(parse, text, no_csv_reader):
    with pytest.raises(AssertionError, match="csv.reader was called"):
        parse(text)
