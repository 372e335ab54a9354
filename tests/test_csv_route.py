"""Plain input CSV text is split whole, not read by ``csv.reader`` row by row.

The per-row oracles in ``tests/helpers.py`` agree with both routes, so
without this guard an edit that sent every text to ``csv.reader`` would
pass every other test, and each ``idw --query`` would pay for the per-row
read again.
"""

import csv

import pytest

from shale_adsorb.dataset import parse_samples
from shale_adsorb.geotemp import parse_heatflow

HEATFLOW = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n104.5,29.1,1200,26.4\n103.1,27.5,1086,16.66\n"
SAMPLES = ("id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t\n"
           "s1,Barnett,4.0,1.5,48,,5.0,2.0\ns2,Longmaxi,2.5,,60.5,3.1,,1.8\n")


@pytest.fixture
def no_csv_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(csv, "reader", refuse)


@pytest.mark.parametrize("parse, text, rows", [(parse_heatflow, HEATFLOW, 2), (parse_samples, SAMPLES, 2)],
                         ids=["heatflow", "samples"])
def test_plain_text_parses_without_csv_reader(parse, text, rows, no_csv_reader):
    assert len(parse(text)) == rows


@pytest.mark.parametrize("parse, text", [(parse_heatflow, HEATFLOW.replace("104.5", '"104.5"')),
                                         (parse_samples, SAMPLES.replace("s2", '"s2"')),
                                         (parse_heatflow, HEATFLOW.splitlines(keepends=True))],
                         ids=["quoted-heatflow", "quoted-samples", "lines"])
def test_other_text_goes_through_csv_reader(parse, text, no_csv_reader):
    with pytest.raises(AssertionError, match="csv.reader was called"):
        parse(text)
