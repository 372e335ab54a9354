"""Byte-for-byte regression of the outlier stage on the bundled samples.

The files under ``golden/`` are the ``kept.csv`` and ``outliers.csv`` that
``shale-adsorb outliers --input data/samples.csv --kind KIND --k K`` wrote
before the neighbour search was vectorised; any change to them is a change
in the program's output, not only in its speed.
"""

from pathlib import Path

import pytest

from shale_adsorb.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("k", [5, 12])
@pytest.mark.parametrize("kind", ["pl", "vl"])
def test_outlier_stage_bytes(kind, k, tmp_path, data_dir):
    out = tmp_path / "out"
    assert main(["outliers", "--input", str(data_dir / "samples.csv"), "--kind", kind,
                 "--k", str(k), "--output-dir", str(out)]) == 0
    assert (out / "kept.csv").read_bytes() == (GOLDEN_DIR / f"kept_{kind}.csv").read_bytes()
    assert (out / "outliers.csv").read_bytes() == (GOLDEN_DIR / f"outliers_{kind}_k{k}.csv").read_bytes()
