import argparse
import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shale_adsorb import dataset, estimator, geotemp
from shale_adsorb.cli import build_parser, main
from shale_adsorb.dataset import DatasetKind, SampleTable, parse_samples, records_to_csv
from shale_adsorb.estimator import (
    REFERENCE_PL_COEFFICIENTS,
    REFERENCE_VL_COEFFICIENTS,
    reference_models,
)
from shale_adsorb.outliers import detect_outliers
from shale_adsorb.regression import ModelKind, ModelSpec, model_from_text, model_to_text
from shale_adsorb.validation import Scenario
from conftest import make_record, synthetic_records, table
from helpers import Row, naive_compare, sample_rows

EXPECTED_CONTENTS = {
    "Sichuan Basin": 1.34,
    "Yangtze Platform": 1.81,
    "Songliao Basin": 0.92,
    "Ordos Basin": 1.51,
    "Tarim Basin": 1.39,
    "Northern Jiangsu Basin": 0.79,
    "Marcellus Shale": 1.24,
    "Barnett Shale": 1.88,
    "Posidonia Shale": 0.52,
}


def _child_env():
    """This environment with the repository's ``src`` first on ``PYTHONPATH``.

    pytest's ``pythonpath`` setting does not reach a child ``python``, so an
    uninstalled checkout needs this for the child to import the package.
    """
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def write_samples(path, records):
    path.write_text(records_to_csv(records), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture()
def pl_fixture_10(tmp_path):
    """Ten pressure records, three of which violate the range rules."""
    good = synthetic_records(n=7, seed=40)
    bad = table([
        make_record("bad-temp", toc=4.0, temp=95.0, ro=1.5, pl=5.0, vl=2.0),
        make_record("bad-toc", toc=0.5, temp=48.0, ro=1.5, pl=5.0, vl=2.0),
        make_record("bad-missing", toc=4.0, temp=48.0, pl=5.0, vl=2.0),  # no ro
    ])
    return write_samples(tmp_path / "samples.csv", SampleTable.concat([good, bad]))


def planted_outlier_records():
    records = synthetic_records(n=24, seed=2)
    _, vl_model = reference_models()
    probe = table([Row("probe", "synthetic", 14.0, None, 85.0)])
    planted = Row("planted", "synthetic", 14.0, 2.0, 85.0, vl=10.0 * vl_model.predict(probe).item())
    return SampleTable.concat([records, table([planted])])


class TestClean:
    def test_counts_and_files(self, pl_fixture_10, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["clean", "--input", pl_fixture_10, "--kind", "pl",
                     "--output-dir", str(out)]) == 0
        assert "kept 7, rejected 3" in capsys.readouterr().err
        kept = read_csv(out / "kept.csv")
        rejected = read_csv(out / "rejections.csv")
        assert len(kept) == 7
        assert {row["id"]: row["reason"] for row in rejected} == {
            "rbad-temp": "temp-range", "rbad-toc": "toc-range", "rbad-missing": "missing-field",
        }

    def test_already_clean_has_no_rejections(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["clean", "--input", str(data_dir / "samples.csv"), "--kind", "pl",
                     "--output-dir", str(out)]) == 0
        assert read_csv(out / "rejections.csv") == []
        assert "rejected 0" in capsys.readouterr().err

    def test_duplicates_reported(self, tmp_path, capsys):
        records = synthetic_records(n=5, seed=41)
        twin = sample_rows(records)[0]._replace(id="copy")
        path = write_samples(tmp_path / "dup.csv", SampleTable.concat([records, table([twin])]))
        out = tmp_path / "out"
        assert main(["clean", "--input", path, "--kind", "pl", "--output-dir", str(out)]) == 0
        assert "(1 duplicate)" in capsys.readouterr().err
        rejected = read_csv(out / "rejections.csv")
        assert [row["reason"] for row in rejected] == ["duplicate"]

    def test_duplicate_id_exit_code_1(self, tmp_path, capsys):
        records = synthetic_records(n=5, seed=41)
        path = write_samples(tmp_path / "dup.csv", SampleTable.concat([records, records.take([2])]))
        assert main(["clean", "--input", path, "--kind", "pl",
                     "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "parse stage" in err and f"duplicate id '{records.ids[2]}', first used in row 4" in err

    def test_missing_file_exit_code_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["clean", "--input", missing, "--kind", "pl",
                     "--output-dir", str(tmp_path)]) == 2
        assert missing in capsys.readouterr().err

    def test_parse_error_exit_code_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t\n"
                       "s1,x,abc,1,48,,5,2\n", encoding="utf-8")
        assert main(["clean", "--input", str(bad), "--kind", "pl",
                     "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "parse stage" in err and "row 2" in err

    def test_oversized_cell_exit_code_1(self, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text("id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t\n"
                       "s1,x,4,1.5,48,,5,2\n" + "y" * 200_000 + ",x,4,1.5,48,,5,2\n", encoding="utf-8")
        argv = ["clean", "--input", str(bad), "--kind", "pl", "--output-dir", str(tmp_path / "o")]
        code, err = _run(argv, capsys)
        assert (code, err) == (1, "error: parse stage: row 3, column record: unreadable samples row: "
                                  "field larger than field limit (131072)\n")
        assert "Traceback" not in err


class TestValidatePipeline:
    def test_noiseless_fixture_recovers_coefficients(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["validate", "--input", str(data_dir / "samples.csv"), "--kind", "pl",
                     "--output-dir", str(out)]) == 0
        model = model_from_text((out / "model_pl.txt").read_text(encoding="utf-8"))
        assert model.coefficients == pytest.approx(REFERENCE_PL_COEFFICIENTS, abs=1e-9)

        summary = {row["stat"]: row["value"] for row in read_csv(out / "validation_summary.csv")}
        assert abs(float(summary["mean_error_pct"])) < 1e-9
        assert float(summary["abs_mean_error_pct"]) < 1e-9

        errors = read_csv(out / "loo_errors.csv")
        qq = read_csv(out / "qq.csv")
        assert len(errors) == len(qq) == 48

    def test_vl_kind(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(["validate", "--input", str(data_dir / "samples.csv"), "--kind", "vl",
                     "--output-dir", str(out)]) == 0
        model = model_from_text((out / "model_vl.txt").read_text(encoding="utf-8"))
        assert model.coefficients == pytest.approx(REFERENCE_VL_COEFFICIENTS, abs=1e-9)

    def test_stages_run_in_pipeline_order(self, tmp_path, data_dir, capsys):
        assert main(["validate", "--input", str(data_dir / "samples.csv"), "--kind", "pl",
                     "--output-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        positions = [err.index(tag) for tag in ("clean[", "outliers[", "fit[", "validate:")]
        assert positions == sorted(positions)


class TestOutlierStage:
    def test_planted_outlier_flagged_and_excluded_from_fit(self, tmp_path, capsys):
        path = write_samples(tmp_path / "planted.csv", planted_outlier_records())
        out = tmp_path / "out"
        assert main(["fit", "--input", path, "--kind", "vl", "--output-dir", str(out)]) == 0
        assert "flagged 1 of 25" in capsys.readouterr().err

        report = read_csv(out / "outliers.csv")
        flagged = [row["id"] for row in report if row["flagged"] == "true"]
        assert flagged == ["planted"]

        # with the planted record excluded, the noiseless remainder refits
        # the generating coefficients
        model = model_from_text((out / "model_vl.txt").read_text(encoding="utf-8"))
        assert model.n_fit == 24
        assert model.coefficients == pytest.approx(REFERENCE_VL_COEFFICIENTS, abs=1e-9)

    def test_infinite_threshold_flags_nothing(self, tmp_path, capsys):
        path = write_samples(tmp_path / "planted.csv", planted_outlier_records())
        out = tmp_path / "out"
        assert main(["outliers", "--input", path, "--kind", "vl",
                     "--threshold", "inf", "--output-dir", str(out)]) == 0
        assert "flagged 0 of 25" in capsys.readouterr().err

    def test_nan_threshold_exit_code_1(self, tmp_path, capsys):
        path = write_samples(tmp_path / "planted.csv", planted_outlier_records())
        assert main(["outliers", "--input", path, "--kind", "vl",
                     "--threshold", "nan", "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "outlier-detection stage: threshold must not be NaN" in err
        assert main(["outliers", "--input", path, "--kind", "vl",
                     "--threshold", "-1", "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "outlier-detection stage: threshold must be >= 0, got -1.0" in err
        assert main(["outliers", "--input", path, "--kind", "vl",
                     "--threshold", "0", "--output-dir", str(tmp_path / "out")]) == 0


class TestCompare:
    def test_byte_identical_reruns(self, tmp_path, data_dir):
        args = ["compare", "--input", str(data_dir / "samples.csv"), "--kind", "pl",
                "--scenario", "overall", "--reps", "3", "--seed", "11",
                "--test-fraction", "0.2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()

    def test_proposed_model_wins_on_generating_fixture(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(["compare", "--input", str(data_dir / "samples.csv"), "--kind", "vl",
                     "--scenario", "high-toc", "--reps", "3", "--seed", "4",
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        averages = {row["model"]: float(row["error_pct"])
                    for row in rows if row["test_label"] == "Average"}
        assert averages["vl-geo"] < averages["vl-tocpow"]
        assert averages["vl-geo"] < averages["vl-toclin"]

    def test_empty_scenario_pool_fails_cleanly(self, tmp_path, capsys):
        records = [make_record(i, toc=3.0 + 0.2 * i, temp=40.0 + i, ro=1.0 + 0.1 * i,
                               pl=4.0 + 0.1 * i, vl=2.0 + 0.1 * i) for i in range(12)]
        path = write_samples(tmp_path / "cool.csv", table(records))
        assert main(["compare", "--input", path, "--kind", "pl", "--scenario", "high-t",
                     "--output-dir", str(tmp_path / "o")]) == 1
        assert "high-t" in capsys.readouterr().err

    def test_invtemp_kelvin_with_kind_vl_is_a_usage_error(self, tmp_path, data_dir, capsys):
        # the vl forms have no reciprocal-temperature model, so the option would be ignored
        with pytest.raises(SystemExit) as info:
            main(["compare", "--input", str(data_dir / "samples.csv"), "--kind", "vl", "--reps", "2",
                  "--invtemp-kelvin", "--output-dir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: --invtemp-kelvin needs --kind pl: --kind vl compares no pl-invtemp model\n")
        assert not any(tmp_path.iterdir())

    def test_negative_seed_exit_code_1(self, tmp_path, data_dir, capsys):
        argv = ["compare", "--input", str(data_dir / "samples.csv"), "--kind", "pl", "--seed", "-1",
                "--output-dir", str(tmp_path / "o")]
        code, err = _run(argv, capsys)
        assert code == 1
        assert err.endswith("error: compare stage: expected non-negative integer\n")

    def test_seed_above_64_bits_equals_per_record_compare(self, tmp_path, data_dir):
        out = tmp_path / "out"
        argv = ["compare", "--input", str(data_dir / "samples.csv"), "--kind", "pl", "--reps", "6",
                "--seed", "18446744073709551616", "--output-dir", str(out)]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        kept = parse_samples((out / "kept.csv").read_text(encoding="utf-8"))
        inliers = detect_outliers(kept, DatasetKind.PL, k=args.k, threshold=args.threshold).inliers(kept)
        specs = [ModelSpec(kind) for kind in (ModelKind.PL_INVTEMP, ModelKind.PL_TOCPOW, ModelKind.PL_GEO)]
        expected = naive_compare(sample_rows(inliers), specs, Scenario.OVERALL, 0.2, 6, 2 ** 64)
        rows = read_csv(out / "comparison.csv")
        assert [(row["test_label"], row["model"], row["error_pct"]) for row in rows] == [
            (label, model, repr(error)) for label, model, error in expected]

    def test_row_count(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(["compare", "--input", str(data_dir / "samples.csv"), "--kind", "pl",
                     "--reps", "5", "--seed", "0", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        assert len(rows) == 5 * 3 + 3


class TestEstimate:
    def test_bundled_reservoirs_with_reference_coefficients(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                     "--paper-coefficients", "--output-dir", str(out)]) == 0
        rows = read_csv(out / "estimates.csv")
        assert len(rows) == 9
        for row in rows:
            assert float(row["adsorbed_m3t"]) == pytest.approx(
                EXPECTED_CONTENTS[row["reservoir"]], abs=0.02)
        err = capsys.readouterr().err
        assert "Northern Jiangsu Basin" in err  # extrapolation warning surfaced

    def test_fitted_model_files_route(self, tmp_path, data_dir):
        models = tmp_path / "models"
        for kind in ("pl", "vl"):
            assert main(["fit", "--input", str(data_dir / "samples.csv"), "--kind", kind,
                         "--output-dir", str(models)]) == 0
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                     "--pl-model", str(models / "model_pl.txt"),
                     "--vl-model", str(models / "model_vl.txt"),
                     "--output-dir", str(out)]) == 0
        rows = read_csv(out / "estimates.csv")
        for row in rows:
            assert float(row["adsorbed_m3t"]) == pytest.approx(
                EXPECTED_CONTENTS[row["reservoir"]], abs=0.02)

    @pytest.mark.parametrize("pl_text", [
        "kind=pl-geo\na=-0.136\nb=0.715\nc=1.666\nn_fit=91\na=5.0\n",
        "kind=pl-geo\na=-0.136\nb=nan\nc=1.666\nn_fit=91\n",
        "kind=pl-geo\na=-0.136\nb=0.715\nc=1.666\nn_fit=-4\n",
        "kind=pl-geo\na=-0.136\nb=0.715\nc=1.666\nn_fit=91.0\n",
        "kind=pl-invtemp\nkelvin=yes\na=-50.0\nc=-1.5\nn_fit=10\n",
        "kind=pl-geo\nkelvin=true\na=-0.136\nb=0.715\nc=1.666\nn_fit=91\n",
        "kind=pl-geo\na=abc\nb=0.715\nc=1.666\nn_fit=91\n",
    ], ids=["repeated-key", "nan-coefficient", "negative-n_fit", "fractional-n_fit", "kelvin-not-a-bool",
            "kelvin-on-pl-geo", "coefficient-not-a-number"])
    def test_bad_model_file_exit_code_1(self, pl_text, tmp_path, data_dir, capsys):
        (tmp_path / "pl.txt").write_text(pl_text, encoding="utf-8")
        (tmp_path / "vl.txt").write_text(model_to_text(reference_models()[1]), encoding="utf-8")
        assert main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                     "--pl-model", str(tmp_path / "pl.txt"), "--vl-model", str(tmp_path / "vl.txt"),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "error: model stage:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_overflowing_prediction_exit_code_1(self, tmp_path, data_dir, capsys):
        (tmp_path / "pl.txt").write_text("kind=pl-geo\na=1000.0\nb=0.715\nc=1.666\nn_fit=91\n",
                                         encoding="utf-8")
        (tmp_path / "vl.txt").write_text(model_to_text(reference_models()[1]), encoding="utf-8")
        assert main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                     "--pl-model", str(tmp_path / "pl.txt"), "--vl-model", str(tmp_path / "vl.txt"),
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: estimate stage: reservoir Yangtze Platform: pl-geo prediction overflows: linear response" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_config_without_blocks_exit_code_1(self, tmp_path, capsys):
        config = tmp_path / "r.conf"
        config.write_text("# no reservoirs yet\n", encoding="utf-8")
        assert main(["estimate", "--input", str(config), "--paper-coefficients",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert f"error: reservoir-config stage: no reservoir blocks found in {config}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_flag_and_files_are_mutually_exclusive(self, tmp_path, data_dir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                  "--paper-coefficients", "--pl-model", "x", "--vl-model", "y",
                  "--output-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("models", [[], ["--pl-model", "x"]], ids=["neither", "pl-only"])
    def test_estimate_needs_coefficients_or_both_model_files(self, models, tmp_path, data_dir, capsys):
        # a usage error, checked before any stage runs, so no output directory is made
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--input", str(data_dir / "reservoirs.conf"), *models,
                  "--output-dir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: estimate needs --paper-coefficients or both --pl-model and --vl-model\n")
        assert not any(tmp_path.iterdir())

    def test_a_usage_error_is_argparse_message_naming_no_stage(self, tmp_path, data_dir, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(data_dir / "reservoirs.conf"), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert err.startswith("usage: shale-adsorb ")
        assert err.splitlines()[-1] == (
            "shale-adsorb: error: estimate needs --paper-coefficients or both --pl-model and --vl-model")
        assert "stage" not in err

    def test_model_file_of_the_wrong_kind_fails_the_model_stage(self, tmp_path, data_dir, capsys):
        vl_model = tmp_path / "model_vl.txt"
        vl_model.write_text(model_to_text(reference_models()[1]), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["estimate", "--input", str(data_dir / "reservoirs.conf"), "--pl-model", str(vl_model),
                "--vl-model", str(vl_model), "--output-dir", str(out)]
        assert _run(argv, capsys) == (
            1, "error: model stage: --pl-model must predict pl and --vl-model must predict vl\n")
        assert not (out / "estimates.csv").exists()

    def test_missing_temperature_source_names_fields(self, tmp_path, capsys):
        config = tmp_path / "r.conf"
        config.write_text("name=A\ndepth_m=1000\ntoc_pct=3\nro_pct=1.5\n", encoding="utf-8")
        assert main(["estimate", "--input", str(config), "--paper-coefficients",
                     "--output-dir", str(tmp_path / "o")]) == 1
        assert "gradt_c_per_km or temp_c" in capsys.readouterr().err

    def test_overrides_bypass_derivation(self, tmp_path):
        config = tmp_path / "r.conf"
        config.write_text("name=A\ndepth_m=9999\ntoc_pct=3\nro_pct=1.5\n"
                          "temp_c=50\npressure_mpa=12.5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(config), "--paper-coefficients",
                     "--output-dir", str(out)]) == 0
        row = read_csv(out / "estimates.csv")[0]
        assert float(row["temp_c"]) == 50.0
        assert float(row["pressure_mpa"]) == 12.5


class TestIdw:
    def test_query_exact_hit(self, tmp_path, data_dir):
        heatflow = (data_dir / "heatflow.csv").read_text(encoding="utf-8").splitlines()
        first_deep = next(line for line in heatflow[1:]
                          if float(line.split(",")[2]) >= 500.0)
        lon, lat, _, grad = first_deep.split(",")
        out = tmp_path / "out"
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"),
                     "--query", lon, lat, "--output-dir", str(out)]) == 0
        row = read_csv(out / "idw.csv")[0]
        assert float(row["gradt_c_per_km"]) == float(grad)

    def test_grid_row_count(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"),
                     "--grid", "100", "110", "25", "33", "4", "3",
                     "--output-dir", str(out)]) == 0
        assert len(read_csv(out / "idw.csv")) == 12

    @pytest.mark.parametrize("argv", [
        ["--grid", "100", "110", "25", "35", "2.7", "2"],
        ["--grid", "100", "110", "25", "35", "nan", "2"],
        ["--grid", "100", "110", "25", "35", "3", "inf"],
        ["--grid", "nan", "110", "25", "35", "3", "2"],
        ["--grid", "100", "110", "25", "inf", "3", "2"],
        ["--query", "105", "30", "--idw-power", "nan"],
        ["--query", "105", "30", "--idw-power", "inf"],
        ["--query", "nan", "30"],
        ["--query", "105", "inf"],
        ["--query", "103.107", "27.498", "--max-neighbors", "0"],  # exact hit on a sample
        ["--query", "105", "30", "--idw-power", "300"],  # every weight underflows to 0.0
    ])
    def test_bad_numbers_exit_code_1(self, argv, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"), *argv,
                     "--output-dir", str(out)]) == 1
        assert "error: interpolate stage:" in capsys.readouterr().err
        assert not (out / "idw.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--query", "104.5", "95.0"], "query point must have longitude in [-180, 180] and latitude in [-90, 90], "
                                       "got (104.5, 95.0)"),
        (["--query", "400", "30"], "query point must have longitude in [-180, 180] and latitude in [-90, 90], "
                                   "got (400.0, 30.0)"),
        (["--grid", "100", "200", "25", "35", "3", "2"],
         "grid bounds must have longitude in [-180, 180] and latitude in [-90, 90], got (100.0, 200.0, 25.0, 35.0)"),
        (["--grid", "100", "110", "-95", "35", "3", "2"],
         "grid bounds must have longitude in [-180, 180] and latitude in [-90, 90], got (100.0, 110.0, -95.0, 35.0)"),
    ])
    def test_coordinates_off_the_globe_exit_code_1(self, argv, message, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"), *argv,
                     "--output-dir", str(out)]) == 1
        assert f"error: interpolate stage: {message}\n" in capsys.readouterr().err
        assert not (out / "idw.csv").exists()

    def test_oversized_cell_exit_code_1(self, tmp_path, capsys):
        heatflow = tmp_path / "h.csv"
        heatflow.write_text(HEATFLOW_HEADER + GOOD_HEATFLOW_ROW + "104.5,29.1,1200," + "9" * 200_000 + "\n",
                            encoding="utf-8")
        argv = ["idw", "--input", str(heatflow), "--query", "105", "30", "--output-dir", str(tmp_path)]
        code, err = _run(argv, capsys)
        assert (code, err) == (1, "error: parse stage: row 3, column record: unreadable heat-flow row: "
                                  "field larger than field limit (131072)\n")
        assert "Traceback" not in err
        assert not (tmp_path / "idw.csv").exists()

    def test_min_depth_filter_can_empty_the_set(self, tmp_path, data_dir, capsys):
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"),
                     "--min-depth", "99999", "--query", "105", "30",
                     "--output-dir", str(tmp_path)]) == 1
        assert "error: filter stage: no heat-flow points" in capsys.readouterr().err

    def test_nan_min_depth_exit_code_1(self, tmp_path, data_dir, capsys):
        assert main(["idw", "--input", str(data_dir / "heatflow.csv"),
                     "--min-depth", "nan", "--query", "105", "30",
                     "--output-dir", str(tmp_path)]) == 1
        assert "error: filter stage: min depth must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("samples.csv", ["clean", "--kind", "pl"]),
    ("heatflow.csv", ["idw", "--query", "105", "30"]),
])
def test_byte_order_mark_is_accepted(name, argv, tmp_path, data_dir):
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
    for source, out in ((data_dir / name, tmp_path / "plain"), (marked, tmp_path / "marked")):
        assert main([*argv, "--input", str(source), "--output-dir", str(out)]) == 0
    written = sorted(path.name for path in (tmp_path / "plain").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "marked").iterdir())
    for file_name in written:
        assert (tmp_path / "marked" / file_name).read_bytes() == (tmp_path / "plain" / file_name).read_bytes()


def test_crlf_input_gives_the_same_bytes_by_the_plain_path(monkeypatch, tmp_path, data_dir):
    # main reads each file with universal newlines, so a CR LF file reaches its parser as "\n" text and is
    # read whole; only a text handed to a parser directly still carries its "\r" to the per-line reader.
    calls = []
    for module, name in [(dataset, "read_csv_table"), (geotemp, "read_csv_table"),
                         (estimator, "read_key_value_blocks")]:
        monkeypatch.setattr(module, name, lambda *args, name=name, real=getattr(module, name), **kwargs:
                            calls.append(name) or real(*args, **kwargs))
    runs = [("samples.csv", ["validate", "--kind", "pl"], dataset.parse_samples),
            ("heatflow.csv", ["idw", "--grid", "100", "110", "25", "33", "5", "4"], geotemp.parse_heatflow),
            ("reservoirs.conf", ["estimate", "--paper-coefficients"], estimator.parse_reservoirs)]
    for name, argv, _ in runs:
        crlf = tmp_path / name
        crlf.write_bytes((data_dir / name).read_bytes().replace(b"\n", b"\r\n"))
        for source, out in ((data_dir / name, tmp_path / "lf" / name), (crlf, tmp_path / "crlf" / name)):
            assert main([*argv, "--input", str(source), "--output-dir", str(out)]) == 0
        written = sorted(path.name for path in (tmp_path / "lf" / name).iterdir())
        assert written == sorted(path.name for path in (tmp_path / "crlf" / name).iterdir())
        for file_name in written:
            assert (tmp_path / "crlf" / name / file_name).read_bytes() == \
                (tmp_path / "lf" / name / file_name).read_bytes(), file_name
    assert calls == []
    for name, _, parse in runs:
        parse((tmp_path / name).read_bytes().decode("utf-8"))
    assert calls == ["read_csv_table", "read_csv_table", "read_key_value_blocks"]


# Each command with one input file given as {bad} -> the stage that reads that file.
UNREADABLE_INPUTS = {
    "clean": (["clean", "--kind", "pl", "--input", "{bad}"], "parse"),
    "idw": (["idw", "--query", "105", "30", "--input", "{bad}"], "parse"),
    "estimate-pl-model": (["estimate", "--input", "{data}/reservoirs.conf", "--pl-model", "{bad}",
                           "--vl-model", "{vl_model}"], "model"),
    "estimate-config": (["estimate", "--input", "{bad}", "--paper-coefficients"], "reservoir-config"),
}


@pytest.mark.parametrize("content", ["not-utf-8", "directory", "missing"])
@pytest.mark.parametrize("command", UNREADABLE_INPUTS)
def test_unreadable_input_fails_the_stage_that_reads_it(command, content, tmp_path, data_dir, capsys):
    argv, stage = UNREADABLE_INPUTS[command]
    bad = tmp_path / "input"
    if content == "not-utf-8":
        bad.write_bytes(b"\xff" + (data_dir / "samples.csv").read_bytes())
    elif content == "directory":
        bad.mkdir()
    vl_model = tmp_path / "vl.txt"
    vl_model.write_text(model_to_text(reference_models()[1]), encoding="utf-8")
    argv = [arg.format(bad=bad, data=data_dir, vl_model=vl_model) for arg in argv]
    expected = {
        "not-utf-8": (1, f"error: {stage} stage: cannot read {bad}: "
                         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        "directory": (1, f"error: {stage} stage: cannot read {bad}: Is a directory\n"),
        "missing": (2, f"error: file not found: {bad}\n"),
    }[content]
    assert _run([*argv, "--output-dir", str(tmp_path / "out")], capsys) == expected
    assert not any((tmp_path / "out").glob("*.csv"))


def test_failing_property_leaves_the_rest_of_the_run_reported(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import; under the
    # repository's warnings-as-errors setting that must not abort the session.
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_passes():\n    pass\n", encoding="utf-8")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(ini), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "test_property.py"],
                          capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in "), proc.stdout[-2000:]


def test_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "shale_adsorb.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    for name in ("clean", "outliers", "fit", "validate", "compare", "estimate", "idw"):
        assert name in proc.stdout


# One parser action: (option strings, dest, default, type name, choices, nargs, metavar, required, help,
# mutually exclusive group: "required", "optional" or None).
_HELP_ACTION = (("-h", "--help"), "help", "==SUPPRESS==", None, None, 0, None, False,
                "show this help message and exit", None)
_IO_ACTIONS = [
    (("--input",), "input", None, None, None, None, None, True, "input file path", None),
    (("--output-dir",), "output_dir", ".", None, None, None, None, False, "directory for output files", None),
]
_KIND_ACTION = (("--kind",), "kind", None, None, ("pl", "vl"), None, None, True,
                "which dependent variable's dataset to process", None)
_OUTLIER_ACTIONS = [
    (("--k",), "k", 5, "int", None, None, None, False, "neighbour count for outlier screening (default 5)", None),
    (("--threshold",), "threshold", 0.85, "float", None, None, None, False,
     "weighted-relative-error outlier threshold (default 0.85)", None),
]
_SUBCOMMAND_HELP = {
    "clean": "apply the range filters and write kept/rejected records",
    "outliers": "clean, then flag K-NN outliers",
    "fit": "clean, drop outliers, and fit the geological-parameter model",
    "validate": "full pipeline through leave-one-out validation",
    "compare": "score the model against the reference forms on random splits",
    "estimate": "estimate adsorbed content for configured reservoirs",
    "idw": "interpolate temperature gradient from heat-flow data",
}
# Each parser of build_parser() ("" is the top level) -> its actions, in order.
CLI_SURFACE = {
    "": [
        _HELP_ACTION,
        ((), "command", None, None, tuple(_SUBCOMMAND_HELP), "A...", None, True, None, None),
        *(((), name, None, None, None, None, name, False, help, None) for name, help in _SUBCOMMAND_HELP.items()),
    ],
    "clean": [_HELP_ACTION, *_IO_ACTIONS, _KIND_ACTION],
    "outliers": [_HELP_ACTION, *_IO_ACTIONS, _KIND_ACTION, *_OUTLIER_ACTIONS],
    "fit": [_HELP_ACTION, *_IO_ACTIONS, _KIND_ACTION, *_OUTLIER_ACTIONS],
    "validate": [
        _HELP_ACTION, *_IO_ACTIONS, _KIND_ACTION, *_OUTLIER_ACTIONS,
        (("--ci-level",), "ci_level", 0.9, "float", None, None, None, False,
         "confidence level for error intervals (default 0.90)", None),
    ],
    "compare": [
        _HELP_ACTION, *_IO_ACTIONS, _KIND_ACTION, *_OUTLIER_ACTIONS,
        (("--scenario",), "scenario", "overall", None, ("overall", "high-t", "high-toc", "high-ro"), None, None,
         False, "test-pool restriction (default overall)", None),
        (("--test-fraction",), "test_fraction", 0.2, "float", None, None, None, False,
         "fraction of all records used as test data (default 0.2)", None),
        (("--reps",), "reps", 5, "int", None, None, None, False, "number of repetitions (default 5)", None),
        (("--seed",), "seed", 0, "int", None, None, None, False, "random seed (default 0)", None),
        (("--invtemp-kelvin",), "invtemp_kelvin", False, None, None, 0, None, False,
         "use absolute temperature in the reciprocal-temperature reference model", None),
    ],
    "estimate": [
        _HELP_ACTION, *_IO_ACTIONS,
        (("--paper-coefficients",), "paper_coefficients", False, None, None, 0, None, False,
         "use the built-in reference coefficients instead of model files", None),
        (("--pl-model",), "pl_model", None, None, None, None, None, False, "path to a fitted pressure-model file",
         None),
        (("--vl-model",), "vl_model", None, None, None, None, None, False, "path to a fitted volume-model file",
         None),
    ],
    "idw": [
        _HELP_ACTION, *_IO_ACTIONS,
        (("--min-depth",), "min_depth", 500.0, "float", None, None, None, False,
         "minimum measuring-section depth in meters (default 500)", None),
        (("--idw-power",), "idw_power", 2.0, "float", None, None, None, False,
         "inverse-distance exponent (default 2)", None),
        (("--max-neighbors",), "max_neighbors", None, "int", None, None, None, False,
         "optionally cap interpolation to the N nearest samples", None),
        (("--query",), "query", None, "float", None, 2, ("LON", "LAT"), False,
         "interpolate at a single lon/lat point", "required"),
        (("--grid",), "grid", None, "float", None, 6, ("LONMIN", "LONMAX", "LATMIN", "LATMAX", "NLON", "NLAT"),
         False, "interpolate on an inclusive regular grid", "required"),
    ],
}


def _action_row(parser, action):
    """``action`` of ``parser`` as a row of ``CLI_SURFACE``."""
    group = next(("required" if group.required else "optional" for group in parser._mutually_exclusive_groups
                  if action in group._group_actions), None)
    return (tuple(action.option_strings), action.dest, action.default, getattr(action.type, "__name__", None),
            None if action.choices is None else tuple(action.choices), action.nargs, action.metavar,
            action.required, action.help, group)


def test_every_parser_keeps_its_options_in_order():
    # The whole option surface, so that a rebuilt parser that drops, reorders or rewords an option fails here.
    top = build_parser()
    [sub] = [action for action in top._actions if isinstance(action, argparse._SubParsersAction)]
    parsers = {"": top, **sub.choices}
    assert list(parsers) == list(CLI_SURFACE)
    for name, parser in parsers.items():
        rows = [_action_row(parser, action) for action in parser._actions]
        if not name:
            rows += [_action_row(parser, action) for action in sub._choices_actions]
        assert rows == CLI_SURFACE[name], name


def _run(argv, capsys):
    """Exit code and stderr of one ``main`` call."""
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


GOOD_RESERVOIR = "depth_m=2000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n"

# name -> (pl model file or None for --paper-coefficients, vl model file,
# bad reservoir block, stderr). Each stderr is what the per-reservoir
# estimate loop printed, with the reservoir's name.
BAD_RESERVOIRS = {
    "zero-pressure": (None, None, "depth_m=0\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                      "error: estimate stage: reservoir B: pressure must be positive and finite, got 0.0\n"),
    "negative-pressure": (None, None, GOOD_RESERVOIR + "pressure_mpa=-2.5\n",
                          "error: estimate stage: reservoir B: pressure must be positive and finite, got -2.5\n"),
    "infinite-temperature": (None, None, "depth_m=2000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=1e308\n",
                             "error: estimate stage: reservoir B: field temp must be finite, got inf\n"),
    "below-absolute-zero": (None, None, GOOD_RESERVOIR + "temp_c=-300\n",
                            "error: estimate stage: reservoir B: field temp must be > -273.15 degC, got -300.0\n"),
    "log-domain": (None, None, GOOD_RESERVOIR + "temp_c=0\n",
                   "error: estimate stage: reservoir B: math domain error\n"),
    "zero-reciprocal-temperature": (
        "kind=pl-invtemp\na=-50.0\nc=-1.5\nn_fit=10\n", None, GOOD_RESERVOIR + "temp_c=0\n",
        "error: estimate stage: reservoir B: record query: temperature of exactly 0 breaks the reciprocal model\n"),
    "exp-overflow": (None, None, "depth_m=2000\ntoc_pct=10000\nro_pct=1.5\ngradt_c_per_km=30\n",
                     "error: estimate stage: reservoir B: vl-geo prediction overflows: linear response "
                     "1052.7528148148149 is out of range for vl\n"),
    "cube-overflow": (None, None, GOOD_RESERVOIR + "temp_c=1e200\n",
                      "error: estimate stage: reservoir B: vl-geo regressor overflows: (temp / 48.0) ** 3 "
                      "is out of range at temperature 1e+200 degC\n"),
    "infinite-pl": (None, None, "depth_m=2000\ntoc_pct=3\nro_pct=1e-308\ntemp_c=100\n",
                    "error: estimate stage: reservoir B: pl must be positive and finite, got inf\n"),
    "zero-pl": ("kind=pl-geo\na=-200.0\nb=0.715\nc=1.666\nn_fit=10\n", None,
                "depth_m=2000\ntoc_pct=4000\nro_pct=1.5\ngradt_c_per_km=30\n",
                "error: estimate stage: reservoir B: pl must be positive and finite, got 0.0\n"),
    "negative-vl": ("kind=pl-tocpow\nexponent=0.3\nln_scale=1.0\nn_fit=10\n",
                    "kind=vl-toclin\nslope=-1.0\nintercept=10.0\nn_fit=10\n",
                    "depth_m=2000\ntoc_pct=30\nro_pct=1.5\ngradt_c_per_km=30\n",
                    "error: estimate stage: reservoir B: vl must be positive and finite, got -20.0\n"),
    "overflowing-pressure": (None, None, "depth_m=1000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\nalpha=1e308\n",
                             "error: estimate stage: reservoir B: pressure must be positive and finite, got inf\n"),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("case", BAD_RESERVOIRS)
def test_first_bad_reservoir_fails_the_estimate(case, position, tmp_path, capsys):
    pl_text, vl_text, bad, stderr = BAD_RESERVOIRS[case]
    blocks = [f"name=G{i}\n{GOOD_RESERVOIR}" for i in range(4)]
    blocks.insert(position, f"name=B\n{bad}")
    config = tmp_path / "r.conf"
    config.write_text("\n".join(blocks), encoding="utf-8")
    models = ["--paper-coefficients"]
    if pl_text:
        pl_model, vl_model = tmp_path / "pl.txt", tmp_path / "vl.txt"
        pl_model.write_text(pl_text, encoding="utf-8")
        vl_model.write_text(vl_text or model_to_text(reference_models()[1]), encoding="utf-8")
        models = ["--pl-model", str(pl_model), "--vl-model", str(vl_model)]
    out = tmp_path / "out"
    assert _run(["estimate", "--input", str(config), *models, "--output-dir", str(out)], capsys) == (1, stderr)
    assert not (out / "estimates.csv").exists()


def _config_blocks(bad, position):
    """A reservoir config of four good blocks with ``bad`` inserted at ``position``, blank-line separated."""
    blocks = [f"name=G{i}\n{GOOD_RESERVOIR}" for i in range(4)]
    blocks.insert(position, bad)
    return "\n".join(blocks)


# name -> (bad block, its error as the per-block parser printed it). ``{line}``
# stands for the line number of the block's last line.
BAD_CONFIG_BLOCKS = {
    "not-a-number": ("name=B\ndepth_m=deep\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                     "reservoir B: depth_m is not a number: 'deep'"),
    "optional-not-a-number": ("name=B\n" + GOOD_RESERVOIR + "pressure_mpa=high\n",
                              "reservoir B: pressure_mpa is not a number: 'high'"),
    # an absent optional key reads as NaN, so a NaN value would pass for absent
    "nan-pressure": ("name=B\n" + GOOD_RESERVOIR + "pressure_mpa=nan\n",
                     "reservoir B: pressure_mpa is not a number: 'nan'"),
    "nan-temperature": ("name=B\n" + GOOD_RESERVOIR + "temp_c=nan\n", "reservoir B: temp_c is not a number: 'nan'"),
    "nan-gradient-beside-temperature": ("name=B\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\ntemp_c=50\n"
                                        "gradt_c_per_km=NaN\n", "reservoir B: gradt_c_per_km is not a number: 'NaN'"),
    "missing-name": (GOOD_RESERVOIR, "reservoir config block is missing the name key"),
    "missing-depth": ("name=B\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                      "reservoir B: missing required key depth_m"),
    "missing-toc": ("name=B\ndepth_m=2000\nro_pct=1.5\ngradt_c_per_km=30\n",
                    "reservoir B: missing required key toc_pct"),
    "missing-ro": ("name=B\ndepth_m=2000\ntoc_pct=3\ngradt_c_per_km=30\n",
                   "reservoir B: missing required key ro_pct"),
    "unknown-key": ("name=B\n" + GOOD_RESERVOIR + "porosity=4\n",
                    "reservoir config line {line}: unknown key 'porosity'"),
    "duplicate-key": ("name=B\n" + GOOD_RESERVOIR + "toc_pct=4\n",
                      "reservoir config line {line}: duplicate key 'toc_pct' in block"),
    "empty-name": ("name=\n" + GOOD_RESERVOIR, "reservoir name must not be empty"),
    "negative-depth": ("name=B\ndepth_m=-1\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                       "reservoir B: depth_m must be >= 0, got -1.0"),
    "nan-depth": ("name=B\ndepth_m=nan\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                  "reservoir B: depth_m must be >= 0, got nan"),
    "zero-alpha": ("name=B\n" + GOOD_RESERVOIR + "alpha=0\n", "reservoir B: alpha must be > 0, got 0.0"),
    "zero-toc": ("name=B\ndepth_m=2000\ntoc_pct=0\nro_pct=1.5\ngradt_c_per_km=30\n",
                 "reservoir B: toc_pct must be > 0, got 0.0"),
    "negative-ro": ("name=B\ndepth_m=2000\ntoc_pct=3\nro_pct=-1.5\ngradt_c_per_km=30\n",
                    "reservoir B: ro_pct must be > 0, got -1.5"),
    "no-temperature-source": ("name=B\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\n",
                              "reservoir B: needs gradt_c_per_km or temp_c to resolve temperature"),
    # a present value must be finite, even where the temperature override leaves it unused
    "nan-surface-temperature-beside-temperature": (
        "name=B\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\ntemp_c=50\nsurface_temp_c=nan\n",
        "reservoir B: surface_temp_c must be finite, got nan"),
    "infinite-surface-temperature": ("name=B\n" + GOOD_RESERVOIR + "surface_temp_c=-inf\n",
                                     "reservoir B: surface_temp_c must be finite, got -inf"),
    "infinite-gradient-beside-temperature": ("name=B\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\ntemp_c=50\n"
                                             "gradt_c_per_km=inf\n",
                                             "reservoir B: gradt_c_per_km must be finite, got inf"),
    "infinite-temperature": ("name=B\n" + GOOD_RESERVOIR + "temp_c=inf\n",
                             "reservoir B: temp_c must be finite, got inf"),
    "infinite-pressure": ("name=B\n" + GOOD_RESERVOIR + "pressure_mpa=-inf\n",
                          "reservoir B: pressure_mpa must be finite, got -inf"),
    # a value that is not a number wins over an invariant of the same block
    "parse-before-invariant": ("name=B\ndepth_m=-1\ntoc_pct=x\nro_pct=1.5\ngradt_c_per_km=30\n",
                               "reservoir B: toc_pct is not a number: 'x'"),
    # and a missing key over a value that is not a number
    "missing-before-number": ("name=B\ndepth_m=x\ntoc_pct=3\ngradt_c_per_km=30\n",
                              "reservoir B: missing required key ro_pct"),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("case", BAD_CONFIG_BLOCKS)
def test_first_bad_config_block_fails_the_parse(case, position, tmp_path, capsys):
    bad, message = BAD_CONFIG_BLOCKS[case]
    text = _config_blocks(bad, position)
    last_line = text[:text.index(bad) + len(bad)].count("\n")
    config = tmp_path / "r.conf"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["estimate", "--input", str(config), "--paper-coefficients", "--output-dir", str(out)]
    assert _run(argv, capsys) == (1, f"error: reservoir-config stage: {message.format(line=last_line)}\n")
    assert not (out / "estimates.csv").exists()


@pytest.mark.parametrize("first, second", [
    ("negative-depth", "not-a-number"),
    ("not-a-number", "negative-depth"),
    ("missing-toc", "unknown-key"),
    ("empty-name", "missing-name"),
])
def test_earlier_bad_config_block_wins(first, second, tmp_path, capsys):
    # The error is the first bad block's, whichever check each block fails,
    # and a block closed before a malformed line fails before that line.
    text = _config_blocks(BAD_CONFIG_BLOCKS[first][0], 1) + "\n" + BAD_CONFIG_BLOCKS[second][0]
    config = tmp_path / "r.conf"
    config.write_text(text, encoding="utf-8")
    argv = ["estimate", "--input", str(config), "--paper-coefficients", "--output-dir", str(tmp_path)]
    assert _run(argv, capsys) == (1, f"error: reservoir-config stage: {BAD_CONFIG_BLOCKS[first][1]}\n")


HEATFLOW_HEADER = "lon_deg,lat_deg,section_depth_m,gradt_c_per_km\n"
GOOD_HEATFLOW_ROW = "104.5,29.1,1200,26.4\n"

# name -> (bad row, its error as the per-row parser printed it, with {row}).
BAD_HEATFLOW_ROWS = {
    "empty-cell": ("104.5,,1200,26.4\n", "row {row}, column lat_deg: required numeric field is empty"),
    "not-a-number": ("104.5,north,1200,26.4\n", "row {row}, column lat_deg: not a number: 'north'"),
    "nan-longitude": ("nan,29.1,1200,26.4\n", "row {row}, column record: longitude out of range: nan"),
    "infinite-depth": ("104.5,29.1,inf,26.4\n",
                       "row {row}, column record: section depth must be finite, got inf"),
    "infinite-gradient": ("104.5,29.1,1200,-inf\n",
                          "row {row}, column record: gradient must be finite, got -inf"),
    "two-bad-cells": ("east,north,1200,26.4\n", "row {row}, column lon_deg: not a number: 'east'"),
    "two-bad-invariants": ("104.5,95,1200,nan\n", "row {row}, column record: latitude out of range: 95.0"),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("case", BAD_HEATFLOW_ROWS)
def test_first_bad_heatflow_row_fails_the_parse(case, position, tmp_path, capsys):
    bad, message = BAD_HEATFLOW_ROWS[case]
    rows = [GOOD_HEATFLOW_ROW] * 4
    rows.insert(position, bad)
    heatflow = tmp_path / "h.csv"
    heatflow.write_text(HEATFLOW_HEADER + "".join(rows), encoding="utf-8")
    argv = ["idw", "--input", str(heatflow), "--query", "105", "30", "--output-dir", str(tmp_path)]
    assert _run(argv, capsys) == (1, f"error: parse stage: {message.format(row=position + 2)}\n")


@pytest.mark.parametrize("rows, stderr", [
    # an invariant violation before a cell that is not a number
    (GOOD_HEATFLOW_ROW + "999,29.1,1200,26.4\n104.5,x,1,2\n",
     "error: parse stage: row 3, column record: longitude out of range: 999.0\n"),
    # a cell that is not a number before an invariant violation
    (GOOD_HEATFLOW_ROW + "104.5,x,1,2\n999,29.1,1200,26.4\n",
     "error: parse stage: row 3, column lat_deg: not a number: 'x'\n"),
    # blank rows count in the row number
    (GOOD_HEATFLOW_ROW + "\n \n104.5,x,1,2\n",
     "error: parse stage: row 5, column lat_deg: not a number: 'x'\n"),
    # float() syntax: spaces around a number
    (" 104.5 , 29.1,1200 ,26.4\n",
     "idw: 1 of 1 points usable (min depth 500.0 m)\nidw: gradient at (105.0000, 30.0000) is 26.40 degC/km\n"),
    # but not float()'s digit grouping
    (GOOD_HEATFLOW_ROW + "104.5,29.1,1_200,26.4\n",
     "error: parse stage: row 3, column section_depth_m: not a number: '1_200'\n"),
], ids=["invariant-first", "parse-first", "blank-rows", "float-syntax", "digit-grouping"])
def test_heatflow_errors_name_the_first_bad_row(rows, stderr, tmp_path, capsys):
    heatflow = tmp_path / "h.csv"
    heatflow.write_text(HEATFLOW_HEADER + rows, encoding="utf-8")
    argv = ["idw", "--input", str(heatflow), "--query", "105", "30", "--output-dir", str(tmp_path)]
    assert _run(argv, capsys) == ((0 if stderr.startswith("idw:") else 1), stderr)


def test_importing_the_cli_leaves_scipy_unloaded():
    # Only validate's confidence interval needs SciPy; it is imported there.
    code = "import shale_adsorb.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_validate_leaves_scipy_special_unloaded(tmp_path, data_dir):
    # Where the capsule route holds, validate's t quantile loads one extension module, not scipy.special.
    from shale_adsorb import validation

    if validation._capsule_t_ppf() is None:
        pytest.skip("the capsule route does not hold on this SciPy")
    argv = ["validate", "--input", str(data_dir / "samples.csv"), "--kind", "pl", "--output-dir", str(tmp_path)]
    code = "\n".join([
        "import sys",
        "from shale_adsorb import cli, validation",
        f"assert cli.main({argv!r}) == 0",
        "loaded = sorted({'scipy.special', 'numpy.f2py', 'numpy.testing'} & sys.modules.keys())",
        "assert not loaded, loaded",
        "from scipy.special import stdtrit",
        "assert validation._t_quantile(47, 0.95) == float(stdtrit(47, 0.95))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first, second", [
    (["idw", "--input", "data/heatflow.csv", "--query", "105", "30", "--max-neighbors", "8"],
     ["idw", "--input", "data/heatflow.csv", "--grid", "100", "110", "25", "33", "5", "4"]),
    (["compare", "--input", "data/samples.csv", "--kind", "pl", "--scenario", "high-t", "--reps", "3",
      "--seed", "4", "--invtemp-kelvin", "--k", "7"],
     ["validate", "--input", "data/samples.csv", "--kind", "pl"]),
], ids=["idw-query-then-grid", "compare-then-validate"])
def test_parser_built_once_keeps_no_state_between_calls(first, second, tmp_path, data_dir):
    root = data_dir.parent
    first = [str(root / arg) if arg.startswith("data/") else arg for arg in first]
    second = [str(root / arg) if arg.startswith("data/") else arg for arg in second]
    assert build_parser() is build_parser()
    assert main([*first, "--output-dir", str(tmp_path / "first")]) == 0
    assert vars(build_parser().parse_args(second)) == vars(build_parser.__wrapped__().parse_args(second))
    assert main([*second, "--output-dir", str(tmp_path / "cached")]) == 0
    fresh = subprocess.run([sys.executable, "-m", "shale_adsorb.cli", *second,
                            "--output-dir", str(tmp_path / "fresh")], capture_output=True, text=True,
                           env=_child_env())
    assert fresh.returncode == 0, fresh.stderr
    written = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "cached").iterdir())
    for name in written:
        assert (tmp_path / "cached" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def _with_input(argv, data_dir):
    """``argv`` reading the bundled heat-flow file for ``idw``, else the bundled pl samples."""
    if argv[0] == "idw":
        return [argv[0], "--input", str(data_dir / "heatflow.csv"), *argv[1:]]
    return [argv[0], "--input", str(data_dir / "samples.csv"), "--kind", "pl", *argv[1:]]


@pytest.mark.parametrize("argv, kind, value", [
    (["idw", "--min-depth", "5_00", "--query", "105", "30"], "float", "5_00"),
    (["idw", "--idw-power", "2_0", "--query", "105", "30"], "float", "2_0"),
    (["idw", "--query", "10_5", "30"], "float", "10_5"),
    (["idw", "--grid", "100", "110", "25", "35", "4", "1_0"], "float", "1_0"),
    (["idw", "--max-neighbors", "1_0", "--query", "105", "30"], "int", "1_0"),
    (["outliers", "--threshold", "0_85"], "float", "0_85"),
    (["outliers", "--k", "1_0"], "int", "1_0"),
    (["validate", "--ci-level", "0_9"], "float", "0_9"),
    (["compare", "--test-fraction", "0_2"], "float", "0_2"),
    (["compare", "--reps", "1_0"], "int", "1_0"),
    (["compare", "--seed", "1_1"], "int", "1_1"),
], ids=lambda case: case[1] if isinstance(case, list) else None)
def test_number_option_with_underscore_is_a_usage_error(argv, kind, value, tmp_path, data_dir, capsys):
    # float() and int() read "_" as digit grouping; the options read numbers as the input files do.
    with pytest.raises(SystemExit) as info:
        main([*_with_input(argv, data_dir), "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert f"error: argument {argv[1]}: invalid {kind} value: '{value}'\n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["validate", "--ci-level", "nan"], "error: leave-one-out stage: confidence level must be in (0, 1), got nan\n"),
    (["compare", "--test-fraction", "nan"], "error: compare stage: test fraction must be in (0, 1), got nan\n"),
], ids=["ci-level", "test-fraction"])
def test_nan_number_option_fails_its_stage(argv, message, tmp_path, data_dir, capsys):
    code, err = _run([*_with_input(argv, data_dir), "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.endswith(message)


@pytest.mark.parametrize("value", ["verbose", "warn", "0"])
def test_unknown_log_level_is_a_usage_error(value, monkeypatch, tmp_path, data_dir, capsys):
    monkeypatch.setenv("SHALE_ADSORB_LOG", value)
    with pytest.raises(SystemExit) as info:
        main(["clean", "--input", str(data_dir / "samples.csv"), "--kind", "pl", "--output-dir", str(tmp_path)])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: SHALE_ADSORB_LOG must be one of debug, info, warning, error; got '{value}'\n")
    assert not any(tmp_path.iterdir())


def test_each_main_applies_the_current_log_setting(monkeypatch, tmp_path, data_dir, capsys):
    root = logging.getLogger()
    host = logging.NullHandler()
    monkeypatch.setattr(root, "handlers", [*root.handlers, host])
    monkeypatch.setattr(root, "level", root.level)
    root_before = list(root.handlers), root.level
    argv = ["clean", "--input", str(data_dir / "samples.csv"), "--kind", "pl", "--output-dir", str(tmp_path)]
    wrote = f"shale_adsorb INFO: wrote {tmp_path / 'kept.csv'}\n"
    for value, logged in [(None, False), ("info", True), ("warning", False)]:
        if value is None:
            monkeypatch.delenv("SHALE_ADSORB_LOG", raising=False)
        else:
            monkeypatch.setenv("SHALE_ADSORB_LOG", value)
        capsys.readouterr()
        assert main(argv) == 0
        assert (wrote in capsys.readouterr().err) is logged, value
    assert (list(root.handlers), root.level) == root_before
