"""Byte-for-byte regression of every subcommand's output files.

The files under ``golden/`` were written by the CLI before the neighbour
search was vectorised (``kept_*.csv``, ``outliers_*.csv``) and before the
per-kind rules became data tables (one directory per case below); any
change to them is a change in the program's output, not only in its code.
The ``paper_*`` cases run on ``data/samples_paper.csv``, the paper-sized
noisy fixture: they pin flagged records, leave-one-out errors well above
rounding and, for vl, the multi-cell neighbour grid; they were written
before the stage reports kept their NumPy arrays up to the writer. Their
outlier-stage files are stored once, under ``paper_outliers_<kind>_k5``
(``SHARED_FILES``), and every case that writes them compares against that copy.
``golden/samples_rejects.csv`` is an input: it hits every rejection reason
and holds a replicate, which the bundled ``data/samples.csv`` does not.
``golden/host_probe.json`` holds the arithmetic results of the host that
captured them (``host_probe.py``); every test here compares this host's
first, so that on another host it fails naming the assumption that differs.
"""

import importlib.util
import json
from functools import cache
from pathlib import Path

import pytest

import host_probe
from shale_adsorb import dataset
from shale_adsorb.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"

_SAMPLES = ["--input", "{data}/samples.csv"]
_COMPARE = ["compare", *_SAMPLES, "--reps", "3", "--seed", "11"]
_IDW = ["idw", "--input", "{data}/heatflow.csv"]
_PAPER = ["--input", "{data}/samples_paper.csv"]

# Case name (the golden directory) -> argv before ``--output-dir``.
CASES = {
    "clean_pl": ["clean", *_SAMPLES, "--kind", "pl"],
    "clean_vl": ["clean", *_SAMPLES, "--kind", "vl"],
    "clean_rejects_pl": ["clean", "--input", "{golden}/samples_rejects.csv", "--kind", "pl"],
    "clean_rejects_vl": ["clean", "--input", "{golden}/samples_rejects.csv", "--kind", "vl"],
    "outliers_pl": ["outliers", *_SAMPLES, "--kind", "pl"],
    "outliers_vl": ["outliers", *_SAMPLES, "--kind", "vl"],
    "fit_pl": ["fit", *_SAMPLES, "--kind", "pl"],
    "fit_vl": ["fit", *_SAMPLES, "--kind", "vl"],
    "validate_pl": ["validate", *_SAMPLES, "--kind", "pl"],
    "validate_vl": ["validate", *_SAMPLES, "--kind", "vl"],
    **{
        f"compare_{kind}_{scenario}": [*_COMPARE, "--kind", kind, "--scenario", scenario]
        for kind in ("pl", "vl")
        for scenario in ("overall", "high-t", "high-toc", "high-ro")
    },
    "compare_pl_kelvin": [*_COMPARE, "--kind", "pl", "--invtemp-kelvin"],
    "estimate_paper": ["estimate", "--input", "{data}/reservoirs.conf", "--paper-coefficients"],
    "estimate_fitted": ["estimate", "--input", "{data}/reservoirs.conf",
                        "--pl-model", "{golden}/fit_pl/model_pl.txt",
                        "--vl-model", "{golden}/fit_vl/model_vl.txt"],
    "idw_query": [*_IDW, "--query", "105", "30"],
    "idw_grid": [*_IDW, "--grid", "100", "110", "25", "35", "5", "4"],
    "idw_grid_nearest": [*_IDW, "--grid", "100", "110", "25", "35", "5", "4", "--max-neighbors", "3"],
    **{
        f"paper_outliers_{kind}_k{k}": ["outliers", *_PAPER, "--kind", kind, "--k", str(k)]
        for kind in ("pl", "vl")
        for k in (5, 12)
    },
    **{f"paper_validate_{kind}": ["validate", *_PAPER, "--kind", kind] for kind in ("pl", "vl")},
    **{
        f"paper_compare_{kind}_{scenario}": ["compare", *_PAPER, "--reps", "3", "--seed", "11",
                                             "--kind", kind, "--scenario", scenario]
        for kind in ("pl", "vl")
        for scenario in ("overall", "high-t")
    },
}

# Paper case -> (the case directory holding the copies, the file names it writes that equal them). Every
# paper case of a kind writes the same kept.csv and rejections.csv, and at the default k = 5 the same
# outliers.csv, so each of these files is stored once.
SHARED_FILES = {
    **{f"paper_outliers_{kind}_k12": (f"paper_outliers_{kind}_k5", ("kept.csv", "rejections.csv"))
       for kind in ("pl", "vl")},
    **{f"paper_{case}_{kind}{suffix}": (f"paper_outliers_{kind}_k5", ("kept.csv", "outliers.csv", "rejections.csv"))
       for kind in ("pl", "vl")
       for case, suffix in (("validate", ""), ("compare", "_overall"), ("compare", "_high-t"))},
}


def expected_files(name: str) -> dict[str, Path]:
    """Each file name the case writes -> the golden file its bytes must equal."""
    files = {path.name: path for path in (GOLDEN_DIR / name).iterdir()}
    owner, shared = SHARED_FILES.get(name, (name, ()))
    return {**files, **{file_name: GOLDEN_DIR / owner / file_name for file_name in shared}}


@cache
def host_difference() -> str | None:
    """The failure message naming the first probe whose result differs from the capture host's, or None."""
    captured = json.loads((GOLDEN_DIR / "host_probe.json").read_text(encoding="utf-8"))
    results = host_probe.probe()
    for name in sorted(captured["probes"].keys() | results.keys()):
        if results.get(name) != captured["probes"].get(name):
            return (f"host arithmetic differs from the capture host: {name} (captured on {captured['versions']}, "
                    f"running on {host_probe.versions()})")
    return None


@pytest.fixture(autouse=True)
def capture_host_arithmetic():
    """Fail before any byte comparison when this host's arithmetic differs from the capture host's."""
    if difference := host_difference():
        pytest.fail(difference)


def test_host_arithmetic_equals_the_capture_host():
    assert host_difference() is None


def test_a_changed_probe_result_names_its_probe(monkeypatch):
    results = host_probe.probe()
    results["math.sin"] = "0x1p+0"
    monkeypatch.setattr(host_probe, "probe", lambda: results)
    host_difference.cache_clear()
    try:
        assert host_difference().startswith("host arithmetic differs from the capture host: math.sin (")
    finally:
        host_difference.cache_clear()


def run_case(name: str, out: Path, data_dir: Path) -> None:
    argv = [arg.format(data=data_dir, golden=GOLDEN_DIR) for arg in CASES[name]]
    assert main([*argv, "--output-dir", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_bytes(name, tmp_path, data_dir):
    out = tmp_path / "out"
    run_case(name, out, data_dir)
    expected = expected_files(name)
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(expected)
    for file_name in written:
        assert (out / file_name).read_bytes() == expected[file_name].read_bytes(), file_name


def test_each_paper_golden_file_is_stored_once():
    stored = {}
    for path in sorted(GOLDEN_DIR.glob("paper_*/*")):
        stored.setdefault(path.read_bytes(), []).append(path.relative_to(GOLDEN_DIR).as_posix())
    assert [paths for paths in stored.values() if len(paths) > 1] == []
    for name, (_, shared) in SHARED_FILES.items():
        assert not any((GOLDEN_DIR / name / file_name).exists() for file_name in shared), name


@pytest.mark.parametrize("k", [5, 12])
@pytest.mark.parametrize("kind", ["pl", "vl"])
def test_outlier_stage_bytes(kind, k, tmp_path, data_dir):
    out = tmp_path / "out"
    assert main(["outliers", "--input", str(data_dir / "samples.csv"), "--kind", kind,
                 "--k", str(k), "--output-dir", str(out)]) == 0
    assert (out / "kept.csv").read_bytes() == (GOLDEN_DIR / f"kept_{kind}.csv").read_bytes()
    assert (out / "outliers.csv").read_bytes() == (GOLDEN_DIR / f"outliers_{kind}_k{k}.csv").read_bytes()


@pytest.mark.parametrize("name", ["outliers_pl", "estimate_paper", "idw_grid"])
def test_plain_cells_skip_the_quoting_helper(name, tmp_path, data_dir, monkeypatch):
    def refuse(cell):
        raise AssertionError(f"plain cell {cell!r} reached the quoting helper")

    monkeypatch.setattr(dataset, "_quote_cell", refuse)
    out = tmp_path / "out"
    run_case(name, out, data_dir)
    for path in out.iterdir():
        assert path.read_bytes() == (GOLDEN_DIR / name / path.name).read_bytes(), path.name


def test_fixture_script_reproduces_bundled_data(tmp_path, monkeypatch, data_dir):
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURE_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("samples.csv", "samples_paper.csv", "reservoirs.conf", "heatflow.csv"):
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
