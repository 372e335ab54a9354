import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shale_adsorb import estimator, regression
from shale_adsorb.estimator import (
    REFERENCE_PL_COEFFICIENTS,
    REFERENCE_VL_COEFFICIENTS,
    LangmuirParams,
    ReservoirSpec,
    ReservoirTable,
    estimate_adsorbed_gas,
    estimate_reservoir,
    estimate_reservoirs,
    estimates_to_csv,
    langmuir_volume,
    parse_reservoirs,
    reference_models,
)
from shale_adsorb.dataset import FIT_RANGES, DatasetKind, clean
from shale_adsorb.regression import FittedModel, ModelKind, ModelSpec
from conftest import make_record, reservoir_table, table
from helpers import naive_estimate, naive_fit_range_warnings, naive_parse_reservoirs

# Nine reference reservoirs: depth, toc, ro, temperature, expected pressure
# and expected adsorbed content.
REFERENCE_RESERVOIRS = [
    ("Sichuan Basin", 3230, 2.58, 3.03, 86.98, 31.65, 1.34),
    ("Yangtze Platform", 1737, 3.53, 2.37, 57.48, 17.02, 1.81),
    ("Songliao Basin", 1731, 2.93, 1.03, 90.46, 16.96, 0.92),
    ("Ordos Basin", 2730, 4.69, 1.53, 86.93, 26.75, 1.51),
    ("Tarim Basin", 4023, 4.65, 1.57, 95.99, 39.43, 1.39),
    ("Northern Jiangsu Basin", 2872, 2.05, 1.54, 106.19, 28.15, 0.79),
    ("Marcellus Shale", 2057, 3.12, 2.10, 87.26, 20.16, 1.24),
    ("Barnett Shale", 2286, 6.90, 1.20, 83.23, 22.40, 1.88),
    ("Posidonia Shale", 53, 8.14, 0.96, 22.66, 0.52, 0.52),
]


def _spec(name, depth, toc, ro, temp, **kwargs):
    return ReservoirSpec(name=name, depth=depth, toc=toc, ro=ro, temp_override=temp, **kwargs)


def _temperatures(*specs):
    return ReservoirTable.from_specs(specs).temperatures().tolist()


def _pressures(*specs):
    return ReservoirTable.from_specs(specs).pressures().tolist()


def _warnings(*inputs):
    """The joined warning codes of the reference-model estimate of a reservoir at each (toc, ro, temp)."""
    specs = [_spec(f"R{i}", 2000.0, toc, ro, temp) for i, (toc, ro, temp) in enumerate(inputs)]
    return estimate_reservoirs(ReservoirTable.from_specs(specs), *reference_models()).warnings()


def test_reference_coefficients_are_pinned():
    assert REFERENCE_PL_COEFFICIENTS == (-0.136, 0.715, 1.666)
    assert REFERENCE_VL_COEFFICIENTS == (0.421, -0.067, 0.563)


class TestLangmuirVolume:
    def test_half_saturation_is_exact(self):
        for pl, vl in [(5.0, 2.0), (0.1, 0.3), (8.124, 2.56)]:
            assert langmuir_volume(pl, LangmuirParams(pl=pl, vl=vl)) == vl / 2

    def test_zero_pressure(self):
        assert langmuir_volume(0.0, LangmuirParams(pl=5.0, vl=2.0)) == 0.0

    def test_direct_evaluation(self):
        assert langmuir_volume(20.0, LangmuirParams(pl=5.0, vl=2.0)) == pytest.approx(1.6, rel=1e-15)

    def test_negative_pressure_rejected(self):
        with pytest.raises(ValueError, match="pressure"):
            langmuir_volume(-1.0, LangmuirParams(pl=5.0, vl=2.0))

    def test_strictly_increasing_and_bounded(self):
        params = LangmuirParams(pl=4.2, vl=3.1)
        pressures = np.linspace(0.1, 100.0, 200)
        values = [langmuir_volume(float(p), params) for p in pressures]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < params.vl for v in values)

    def test_saturates_to_vl(self):
        params = LangmuirParams(pl=4.2, vl=3.1)
        assert langmuir_volume(1e6 * params.pl, params) == pytest.approx(params.vl, rel=1e-4)

    def test_params_validated(self):
        with pytest.raises(ValueError, match="pl"):
            LangmuirParams(pl=0.0, vl=2.0)
        with pytest.raises(ValueError, match="vl"):
            LangmuirParams(pl=5.0, vl=-2.0)


class TestReservoirTemperature:
    def test_zero_depth_returns_surface(self):
        spec = ReservoirSpec(name="x", depth=0.0, toc=2.0, ro=1.0, grad_t=30.0)
        assert _temperatures(spec) == [20.0]

    def test_gradient_reproduces_back_solved_value(self):
        # the gradient implied by 86.98 degC at 3230 m under a 20 degC surface
        grad = (86.98 - 20.0) / 3.230
        spec = ReservoirSpec(name="x", depth=3230.0, toc=2.58, ro=3.03, grad_t=grad)
        assert _temperatures(spec) == pytest.approx([86.98], abs=1e-9)

    def test_override_wins_over_gradient(self):
        spec = ReservoirSpec(name="x", depth=4023.0, toc=4.65, ro=1.57,
                             grad_t=25.0, temp_override=95.99)
        assert _temperatures(spec) == [95.99]

    def test_missing_both_sources_rejected(self):
        with pytest.raises(ValueError, match="gradt_c_per_km or temp_c"):
            ReservoirSpec(name="x", depth=100.0, toc=2.0, ro=1.0)


class TestReservoirPressure:
    @pytest.mark.parametrize("name,depth,expected", [
        (name, depth, pressure) for name, depth, _, _, _, pressure, _ in REFERENCE_RESERVOIRS
    ])
    def test_depth_derived_pressures(self, name, depth, expected):
        spec = _spec(name, depth, 2.0, 1.0, 50.0)
        assert _pressures(spec) == pytest.approx([expected], abs=0.01)

    def test_zero_depth(self):
        assert _pressures(_spec("x", 0.0, 2.0, 1.0, 50.0)) == [0.0]

    def test_alpha_scales_pressure(self):
        base = _spec("x", 1000.0, 2.0, 1.0, 50.0)
        doubled = _spec("x", 1000.0, 2.0, 1.0, 50.0, alpha=2.0)
        assert _pressures(base, doubled) == pytest.approx([9.8, 19.6])

    def test_override_wins(self):
        spec = _spec("x", 1000.0, 2.0, 1.0, 50.0, pressure_override=31.65)
        assert _pressures(spec) == [31.65]


class TestEstimateAdsorbedGas:
    @pytest.mark.parametrize("toc,ro,temp,pressure,expected", [
        (2.58, 3.03, 86.98, 31.65, 1.34),
        (6.90, 1.20, 83.23, 22.40, 1.88),
        (8.14, 0.96, 22.66, 0.52, 0.52),
    ])
    def test_reference_rows(self, toc, ro, temp, pressure, expected):
        pl_model, vl_model = reference_models()
        content = estimate_adsorbed_gas(toc, ro, temp, pressure, pl_model, vl_model)
        assert content == pytest.approx(expected, abs=0.02)

    def test_nonpositive_pressure_rejected(self):
        pl_model, vl_model = reference_models()
        with pytest.raises(ValueError, match="pressure"):
            estimate_adsorbed_gas(2.0, 1.0, 50.0, 0.0, pl_model, vl_model)

    def test_composition_identity_against_closed_form(self):
        # the composed estimate must agree with the single algebraic formula
        # built from the same coefficients
        rng = np.random.default_rng(31)
        for _ in range(1000):
            ap, bp, cp = REFERENCE_PL_COEFFICIENTS * np.array([1, 1, 1]) * rng.uniform(0.5, 1.5, 3)
            av, bv, cv = REFERENCE_VL_COEFFICIENTS * np.array([1, 1, 1]) * rng.uniform(0.5, 1.5, 3)
            pl_model = FittedModel(ModelSpec(ModelKind.PL_GEO), (float(ap), float(bp), float(cp)), 1)
            vl_model = FittedModel(ModelSpec(ModelKind.VL_GEO), (float(av), float(bv), float(cv)), 1)
            toc = float(rng.uniform(1.0, 17.0))
            ro = float(rng.uniform(0.5, 4.0))
            temp = float(rng.uniform(20.0, 90.0))
            pressure = float(rng.uniform(0.5, 50.0))

            toc_star = toc / 4.0
            t_star = temp / 48.0
            ro_star = ro / 1.75
            numerator = math.exp(av * toc_star) * math.exp(bv * t_star ** 3) * math.exp(cv)
            bracket = math.exp(ap * toc_star) * (t_star / ro_star) ** bp * math.exp(cp)
            closed_form = numerator / (1.0 + bracket / pressure)

            composed = estimate_adsorbed_gas(toc, ro, temp, pressure, pl_model, vl_model)
            assert composed == pytest.approx(closed_form, rel=1e-12)

    def test_monotone_in_toc_and_temperature(self):
        pl_model, vl_model = reference_models()
        for _, _, toc, ro, temp, pressure, _ in REFERENCE_RESERVOIRS:
            base = estimate_adsorbed_gas(toc, ro, temp, pressure, pl_model, vl_model)
            more_toc = estimate_adsorbed_gas(toc + 0.1, ro, temp, pressure, pl_model, vl_model)
            hotter = estimate_adsorbed_gas(toc, ro, temp + 0.5, pressure, pl_model, vl_model)
            assert more_toc > base
            assert hotter < base


class TestEstimateReservoir:
    def test_all_nine_reference_rows(self):
        pl_model, vl_model = reference_models()
        for name, depth, toc, ro, temp, pressure, content in REFERENCE_RESERVOIRS:
            row = estimate_reservoir(_spec(name, depth, toc, ro, temp), pl_model, vl_model)
            assert row.pressure_mpa == pytest.approx(pressure, abs=0.01)
            assert row.adsorbed_m3t == pytest.approx(content, abs=0.02)

    def test_pressure_override_consistency(self):
        pl_model, vl_model = reference_models()
        derived = estimate_reservoir(_spec("s", 3230, 2.58, 3.03, 86.98), pl_model, vl_model)
        overridden = estimate_reservoir(
            _spec("s", 3230, 2.58, 3.03, 86.98, pressure_override=derived.pressure_mpa),
            pl_model, vl_model)
        assert overridden.adsorbed_m3t == derived.adsorbed_m3t

    def test_alpha_increases_content(self):
        pl_model, vl_model = reference_models()
        base = estimate_reservoir(_spec("s", 3230, 2.58, 3.03, 86.98), pl_model, vl_model)
        boosted = estimate_reservoir(_spec("s", 3230, 2.58, 3.03, 86.98, alpha=2.0),
                                     pl_model, vl_model)
        assert boosted.adsorbed_m3t > base.adsorbed_m3t

    def test_extrapolation_warnings(self):
        inputs = [(2.05, 1.54, 106.19), (2.0, 4.5, 50.0), (0.5, 1.0, 50.0), (18.0, 4.0, 95.0), (4.0, 1.5, 48.0)]
        assert _warnings(*inputs) == ["temp-extrapolation", "ro-extrapolation", "toc-extrapolation",
                                      "temp-extrapolation;ro-extrapolation;toc-extrapolation", ""]
        assert [naive_fit_range_warnings(*row) for row in inputs] == [
            ("temp-extrapolation",), ("ro-extrapolation",), ("toc-extrapolation",),
            ("temp-extrapolation", "ro-extrapolation", "toc-extrapolation"), ()]

    # (field, value, inside the fitted range): each bound, just inside and
    # just outside.
    FIT_RANGE_BOUNDS = [
        ("temp", math.nextafter(90.0, 0.0), True), ("temp", 90.0, False),
        ("ro", math.nextafter(4.0, 0.0), True), ("ro", 4.0, False),
        ("toc", 1.0, True), ("toc", math.nextafter(1.0, 0.0), False),
        ("toc", 17.0, True), ("toc", math.nextafter(17.0, math.inf), False),
    ]

    def test_bounds_cover_every_fitted_range(self):
        assert {field for field, _, _ in self.FIT_RANGE_BOUNDS} == {field for field, _ in FIT_RANGES}

    @pytest.mark.parametrize("field, value, inside", FIT_RANGE_BOUNDS)
    def test_cleaning_rejects_exactly_what_estimates_warn(self, field, value, inside):
        inputs = {"toc": 4.0, "ro": 1.5, "temp": 48.0, field: value}
        warned = f"{field}-extrapolation" in _warnings((inputs["toc"], inputs["ro"], inputs["temp"]))[0].split(";")
        record = make_record(1, pl=5.0, vl=2.0, **inputs)
        for kind in DatasetKind:
            if field not in kind.independent_vars:
                continue
            rejected = clean(table([record]), kind).reasons
            assert rejected == ([] if inside else [f"{field}-range"])
        assert warned is not inside

    def test_warning_attached_to_row(self):
        pl_model, vl_model = reference_models()
        row = estimate_reservoir(_spec("Northern Jiangsu Basin", 2872, 2.05, 1.54, 106.19),
                                 pl_model, vl_model)
        assert row.warnings == ("temp-extrapolation",)

    def test_csv_layout(self):
        pl_model, vl_model = reference_models()
        table = ReservoirTable.from_specs([_spec("Sichuan Basin", 3230, 2.58, 3.03, 86.98)])
        lines = estimates_to_csv(estimate_reservoirs(table, pl_model, vl_model)).splitlines()
        assert lines[0] == "reservoir,depth_m,toc_pct,ro_pct,temp_c,pressure_mpa,adsorbed_m3t,warnings"
        assert lines[1].startswith("Sichuan Basin,3230.0,2.58,3.03,86.98,")


class TestReservoirSpecInvariants:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            ReservoirSpec(name="x", depth=-1.0, toc=2.0, ro=1.0, grad_t=25.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            ReservoirSpec(name="x", depth=1.0, toc=2.0, ro=1.0, grad_t=25.0, alpha=0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ReservoirSpec(name="", depth=1.0, toc=2.0, ro=1.0, grad_t=25.0)


class TestParseReservoirs:
    CONFIG = """\
# two reservoirs
name=Alpha Basin
depth_m=1500
toc_pct=3.2
ro_pct=1.4
gradt_c_per_km=28.5

name=Beta Shale
depth_m=900
toc_pct=6.0
ro_pct=1.1
alpha=1.2
surface_temp_c=15
temp_c=44.0
pressure_mpa=9.1
"""

    def test_two_blocks(self):
        table = parse_reservoirs(self.CONFIG)
        assert table.names == ("Alpha Basin", "Beta Shale") and len(table) == 2
        assert np.isnan(table.grad_t).tolist() == [False, True] and table.grad_t[0] == 28.5
        assert table.alpha.tolist() == [1.0, 1.2]
        assert table.surface_temp.tolist() == [20.0, 15.0]
        assert np.isnan(table.temp_override).tolist() == [True, False] and table.temp_override[1] == 44.0
        assert np.isnan(table.pressure_override).tolist() == [True, False] and table.pressure_override[1] == 9.1

    def test_repeated_name_starts_new_block(self):
        text = "name=A\ndepth_m=1\ntoc_pct=2\nro_pct=1\ntemp_c=30\n" \
               "name=B\ndepth_m=2\ntoc_pct=3\nro_pct=1\ntemp_c=40\n"
        assert parse_reservoirs(text).names == ("A", "B")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_reservoirs("name=A\nbogus=1\n")

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match="toc_pct"):
            parse_reservoirs("name=A\ndepth_m=1\nro_pct=1\ntemp_c=30\n")

    def test_missing_temperature_sources_named(self):
        with pytest.raises(ValueError, match="gradt_c_per_km or temp_c"):
            parse_reservoirs("name=A\ndepth_m=1\ntoc_pct=2\nro_pct=1\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="depth_m"):
            parse_reservoirs("name=A\ndepth_m=deep\ntoc_pct=2\nro_pct=1\ntemp_c=30\n")

    @pytest.mark.parametrize("a_depth, b_depth, message", [
        ("-1", "2000", "reservoir A: depth_m must be >= 0, got -1.0"),
        ("2000", "2000", "reservoir config line 11: expected key=value, got 'bogus line'"),
        # block B is not closed at the malformed line, so the line fails first
        ("2000", "-1", "reservoir config line 11: expected key=value, got 'bogus line'"),
    ], ids=["closed-block-first", "only-the-line", "open-block"])
    def test_block_closed_before_a_malformed_line_fails_first(self, a_depth, b_depth, message):
        # block A is lines 1-5, and line 11 is malformed
        text = (f"name=A\ndepth_m={a_depth}\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n\n"
                f"name=B\ndepth_m={b_depth}\ntoc_pct=3\nro_pct=1.5\nbogus line\ngradt_c_per_km=30\n")
        assert _outcome(parse_reservoirs, text) == (ValueError, message)
        assert _outcome(naive_parse_reservoirs, text) == (ValueError, message)

    @pytest.mark.parametrize("name_line, message", [
        ("", "reservoir config block is missing the name key"),
        ("name=\n", "reservoir name must not be empty"),
    ], ids=["no-name-key", "empty-name"])
    @pytest.mark.parametrize("later", ["name=B\ndepth_m=-1\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                                       "name=B\ndepth_m=x\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
                                       "name=B\ndepth_m=2000\n"], ids=["invariant", "not-a-number", "missing-key"])
    def test_a_missing_name_and_an_empty_one_keep_their_messages(self, name_line, message, later):
        # both read as an empty name in the columns; the first block's own message wins over the later block's
        text = f"{name_line}depth_m=2000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n\n{later}"
        assert _outcome(parse_reservoirs, text) == (ValueError, message)
        assert _outcome(naive_parse_reservoirs, text) == (ValueError, message)

    @pytest.mark.parametrize("key, value", [("depth_m", "1_000"), ("alpha", "1_0"), ("temp_c", "3_0")])
    @pytest.mark.parametrize("position", [0, 299])
    def test_digit_grouping_is_not_a_number(self, key, value, position):
        # float("1_000") is 1000.0, but a config value is not Python syntax; names may hold "_"
        blocks = [dict(name=f"Big_Basin_{i}", depth_m="1000", toc_pct="2", ro_pct="1", temp_c="30") for i in range(300)]

        def config():
            return "\n".join("".join(f"{k}={v}\n" for k, v in block.items()) for block in blocks)

        assert parse_reservoirs(config()).names[-1] == "Big_Basin_299"
        blocks[position][key] = value
        with pytest.raises(ValueError, match=f"^reservoir Big_Basin_{position}: {key} is not a number: '{value}'$"):
            parse_reservoirs(config())

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_reservoirs("name=A\ndepth_m=1\ndepth_m=2\ntoc_pct=2\nro_pct=1\ntemp_c=30\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_reservoirs("name=A\nnot a key value pair\n")


def _seeded_reservoirs(n, seed):
    """Reservoirs mixing overrides and defaults, about a tenth outside each fitted range."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        u = rng.uniform(size=8)
        toc = float(rng.uniform(0.3, 1.0) if u[0] < 0.05 else rng.uniform(17.0, 30.0) if u[0] < 0.1
                    else rng.uniform(1.0, 17.0))
        ro = float(rng.uniform(4.0, 5.0) if u[1] < 0.1 else rng.uniform(0.5, 4.0))
        depth = float(rng.uniform(50.0, 5000.0))
        specs.append(ReservoirSpec(
            name=f"R{i}",
            depth=round(depth) if u[2] < 0.05 else depth,
            toc=toc,
            ro=ro,
            alpha=float(rng.uniform(0.8, 1.6)) if u[3] < 0.3 else 1.0,
            surface_temp=float(rng.uniform(5.0, 30.0)) if u[4] < 0.3 else 20.0,
            grad_t=float(rng.uniform(15.0, 40.0)),
            temp_override=(float(rng.uniform(90.0, 130.0) if u[6] < 0.25 else rng.uniform(10.0, 90.0))
                           if u[5] < 0.4 else None),
            pressure_override=float(rng.uniform(0.5, 60.0)) if u[7] < 0.3 else None,
        ))
    return specs


# (pl model, vl model) pairs: the reference models and one pair of each other kind.
MODEL_PAIRS = {
    "reference": reference_models(),
    "reference-forms": (FittedModel(ModelSpec(ModelKind.PL_TOCPOW), (0.3, 1.0), 10),
                        FittedModel(ModelSpec(ModelKind.VL_TOCLIN), (0.3, 0.5), 10)),
    "invtemp-tocpow": (FittedModel(ModelSpec(ModelKind.PL_INVTEMP), (-50.0, -1.5), 10),
                       FittedModel(ModelSpec(ModelKind.VL_TOCPOW), (0.5, 0.2), 10)),
    "invtemp-kelvin": (FittedModel(ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=True), (500.0, -3.0), 10),
                       FittedModel(ModelSpec(ModelKind.VL_GEO), (0.4, -0.05, 0.6), 10)),
}

# Pairs whose predictions leave the isotherm's domain for some inputs.
FAILING_MODEL_PAIRS = {
    "steep-pl": (FittedModel(ModelSpec(ModelKind.PL_GEO), (-200.0, 0.715, 1.666), 10),
                 reference_models()[1]),
    "falling-vl": (MODEL_PAIRS["reference-forms"][0],
                   FittedModel(ModelSpec(ModelKind.VL_TOCLIN), (-1.0, 10.0), 10)),
}


def _outcome(estimate, *args):
    """The rows, or the type and message of the error ``estimate`` raises."""
    try:
        return estimate(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestBatchExactness:
    """The estimate equals the per-reservoir loop (``helpers.naive_estimate``) with ``==``."""

    @pytest.mark.parametrize("models", MODEL_PAIRS.values(), ids=MODEL_PAIRS.keys())
    def test_rows_equal_per_reservoir_loop(self, models):
        specs = _seeded_reservoirs(2500, seed=71)
        expected = [naive_estimate(spec, *models) for spec in specs]
        estimates = estimate_reservoirs(ReservoirTable.from_specs(specs), *models)
        assert [estimates.row(i) for i in range(len(estimates))] == expected
        assert [estimate_reservoir(spec, *models) for spec in specs[:100]] == expected[:100]
        warned = sum(bool(row.warnings) for row in expected)
        assert 0.2 * len(specs) < warned < 0.6 * len(specs)

    def test_nan_input_estimates_as_none_does(self):
        # NaN marks an absent input in a ReservoirSpec, as in every column table
        specs = _seeded_reservoirs(500, seed=72)
        specs.append(ReservoirSpec(name="T", depth=2000.0, toc=3.0, ro=1.5, temp_override=50.0))
        optional = ("grad_t", "temp_override", "pressure_override")
        nan_specs = [replace(spec, **{key: math.nan for key in optional if getattr(spec, key) is None})
                     for spec in specs]
        assert sum(math.isnan(spec.temp_override) for spec in nan_specs) > 200
        models = reference_models()
        expected = estimate_reservoirs(ReservoirTable.from_specs(specs), *models)
        got = estimate_reservoirs(ReservoirTable.from_specs(nan_specs), *models)
        assert [got.row(i) for i in range(len(got))] == [expected.row(i) for i in range(len(expected))]
        assert [estimate_reservoir(spec, *models) for spec in nan_specs[-50:]] == \
               [expected.row(i) for i in range(len(specs) - 50, len(specs))]

    # name -> (models, bad reservoir fields); each breaks one step of the estimate.
    BAD_RESERVOIRS = {
        "zero-pressure": ("reference", {"depth": 0.0}),
        "negative-pressure": ("reference", {"pressure_override": -2.5}),
        "infinite-temperature": ("reference", {"grad_t": 1e308}),
        "below-absolute-zero": ("reference", {"temp_override": -300.0}),
        "log-domain": ("reference", {"temp_override": 0.0}),
        "zero-reciprocal-temperature": ("invtemp-tocpow", {"temp_override": 0.0}),
        "exp-overflow": ("reference", {"toc": 10000.0}),
        "cube-overflow": ("reference", {"temp_override": 1e200}),
        "infinite-pl": ("reference", {"ro": 1e-308, "temp_override": 100.0}),
        "zero-pl": ("steep-pl", {"toc": 4000.0}),
        "negative-vl": ("falling-vl", {"toc": 30.0}),
        "overflowing-pressure": ("reference", {"depth": 1000.0, "alpha": 1e308}),
    }

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("case", BAD_RESERVOIRS)
    def test_first_failing_reservoir_raises_as_in_the_loop(self, case, position):
        models_name, fields = self.BAD_RESERVOIRS[case]
        models = {**MODEL_PAIRS, **FAILING_MODEL_PAIRS}[models_name]
        good = [dict(name=f"G{i}", depth=2000.0, toc=3.0, ro=1.5, grad_t=30.0) for i in range(7)]
        good.insert(position, dict(good[0], name="B", **fields))
        specs = [ReservoirSpec(**spec) for spec in good]
        expected = _outcome(lambda: [naive_estimate(spec, *models) for spec in specs])
        assert isinstance(expected, tuple), "the bad reservoir must fail"
        assert _outcome(estimate_reservoirs, ReservoirTable.from_specs(specs), *models) == expected

    @pytest.mark.parametrize("first, second", [
        ("exp-overflow", "zero-pressure"),
        ("infinite-pl", "below-absolute-zero"),
        ("log-domain", "below-absolute-zero"),
    ])
    def test_later_step_of_an_earlier_reservoir_wins(self, first, second):
        # The second bad reservoir fails at an earlier step than the first;
        # the error is still the first one's, as in a per-reservoir loop.
        models = MODEL_PAIRS["reference"]
        base = dict(depth=2000.0, toc=3.0, ro=1.5, grad_t=30.0)
        specs = [ReservoirSpec(name="G", **base),
                 ReservoirSpec(name="B1", **dict(base, **self.BAD_RESERVOIRS[first][1])),
                 ReservoirSpec(name="G2", **base),
                 ReservoirSpec(name="B2", **dict(base, **self.BAD_RESERVOIRS[second][1]))]
        expected = _outcome(lambda: [naive_estimate(spec, *models) for spec in specs])
        assert expected == _outcome(lambda: [naive_estimate(specs[1], *models)])
        assert _outcome(estimate_reservoirs, ReservoirTable.from_specs(specs), *models) == expected


class TestFailingRowBisect:
    """On failure the batch is bisected, with the per-reservoir loop's error in few ``_contents`` calls."""

    N = 1000

    @staticmethod
    def _check(faults, monkeypatch):
        """Estimate N good reservoirs with the BAD_RESERVOIRS case of each (position, case) in ``faults``."""
        base = dict(depth=2000.0, toc=3.0, ro=1.5, grad_t=30.0)
        bad = {position: TestBatchExactness.BAD_RESERVOIRS[case][1] for position, case in faults}
        specs = [ReservoirSpec(name=f"R{i}", **dict(base, **bad.get(i, {})))
                 for i in range(TestFailingRowBisect.N)]
        models = MODEL_PAIRS["reference"]
        expected = _outcome(lambda: [naive_estimate(spec, *models) for spec in specs])
        assert isinstance(expected, tuple), "a bad reservoir must fail"
        rows, contents = [], estimator._contents
        monkeypatch.setattr(estimator, "_contents", lambda toc, *args: rows.append(len(toc)) or contents(toc, *args))
        predictions, predict_rows = [], regression.predict_rows
        for module in (regression, estimator):  # FittedModel.predict's binding too, should the estimate use it
            monkeypatch.setattr(module, "predict_rows", lambda *args: predictions.append(1) or predict_rows(*args))
        assert _outcome(estimate_reservoirs, ReservoirTable.from_specs(specs), *models) == expected
        assert len(rows) <= 2 * math.ceil(math.log2(len(specs))) + 2
        assert sum(rows) <= 2 * len(specs) + 1  # each probe runs only rows not yet known to pass
        assert len(predictions) <= 2 * len(rows)  # pl and vl, one batch each per run: no bisect inside a probe
        return expected

    @pytest.mark.parametrize("position", [0, N // 2, N - 1])
    @pytest.mark.parametrize("case", ["zero-pressure", "below-absolute-zero", "log-domain", "exp-overflow",
                                      "infinite-pl"])
    def test_one_bad_reservoir(self, case, position, monkeypatch):
        self._check([(position, case)], monkeypatch)

    @pytest.mark.parametrize("positions", [(0, 1), (0, N - 1), (N // 2 - 1, N // 2), (N - 2, N - 1), (17, 700)])
    @pytest.mark.parametrize("first, second", [
        ("exp-overflow", "zero-pressure"),
        ("infinite-pl", "below-absolute-zero"),
        ("log-domain", "below-absolute-zero"),
    ])
    def test_later_step_of_an_earlier_reservoir_wins(self, first, second, positions, monkeypatch):
        # The later reservoir fails an earlier step, so the batch itself
        # raises the later one's error; the earlier one's still wins.
        expected = self._check(list(zip(positions, (first, second))), monkeypatch)
        assert expected == self._check([(positions[0], first)], monkeypatch)


def _same_tables(a, b):
    """Whether two reservoir tables hold the same names and columns (NaN equal to NaN)."""
    return len(a) == len(b) and a.names == b.names and all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("depth", "toc", "ro", "alpha", "surface_temp", "grad_t", "temp_override", "pressure_override"))


class TestReservoirTable:
    # name, depth, toc, ro, alpha, surface_temp, grad_t, temp_override, pressure_override
    GOOD = ("G", 2000.0, 3.0, 1.5, 1.0, 20.0, 30.0, None, None)

    def test_columns_are_read_only_arrays(self):
        table = parse_reservoirs(TestParseReservoirs.CONFIG)
        for name in ("depth", "toc", "ro", "alpha", "surface_temp", "grad_t", "temp_override", "pressure_override"):
            column = getattr(table, name)
            assert column.dtype == np.float64 and column.shape == (2,) and not column.flags.writeable

    def test_from_specs_equals_the_parsed_config(self):
        specs = [ReservoirSpec(name="Alpha Basin", depth=1500.0, toc=3.2, ro=1.4, grad_t=28.5),
                 ReservoirSpec(name="Beta Shale", depth=900.0, toc=6.0, ro=1.1, alpha=1.2, surface_temp=15.0,
                               temp_override=44.0, pressure_override=9.1)]
        assert _same_tables(ReservoirTable.from_specs(specs), parse_reservoirs(TestParseReservoirs.CONFIG))

    def test_columns_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=r"depth has shape \(2,\), expected \(1,\)"):
            ReservoirTable(["a"], [1.0, 2.0], [1.0], [1.0], [1.0], [20.0], [30.0], [math.nan], [math.nan])

    # name -> (changed fields by position in GOOD, message)
    BAD = {
        "empty-name": ({0: ""}, "reservoir name must not be empty"),
        "nan-depth": ({1: math.nan}, "reservoir B: depth must be >= 0, got nan"),
        "zero-alpha": ({4: 0.0}, "reservoir B: alpha must be > 0, got 0.0"),
        "infinite-toc": ({2: math.inf}, "reservoir B: toc must be > 0, got inf"),
        "negative-ro": ({3: -1.0}, "reservoir B: ro must be > 0, got -1.0"),
        "no-temperature": ({6: None}, "reservoir B: needs gradt_c_per_km or temp_c to resolve temperature"),
        "depth-before-ro": ({1: -1.0, 3: 0.0}, "reservoir B: depth must be >= 0, got -1.0"),
        # an input the temperature override makes unused is checked all the same
        "nan-surface-temp": ({5: math.nan, 7: 50.0}, "reservoir B: surface_temp must be finite, got nan"),
        "infinite-surface-temp": ({5: math.inf, 7: 50.0}, "reservoir B: surface_temp must be finite, got inf"),
        "infinite-gradient": ({6: -math.inf, 7: 50.0}, "reservoir B: grad_t must be finite, got -inf"),
        "infinite-temperature": ({7: math.inf}, "reservoir B: temp_override must be finite, got inf"),
        "infinite-pressure": ({8: -math.inf}, "reservoir B: pressure_override must be finite, got -inf"),
        # NaN marks an absent input
        "nan-temperature-is-absent": ({6: math.nan, 7: math.nan},
                                      "reservoir B: needs gradt_c_per_km or temp_c to resolve temperature"),
        "ro-before-surface-temp": ({3: 0.0, 5: math.nan}, "reservoir B: ro must be > 0, got 0.0"),
        "surface-temp-before-gradient": ({5: math.nan, 6: math.inf},
                                         "reservoir B: surface_temp must be finite, got nan"),
        "finite-before-source": ({6: None, 8: math.inf}, "reservoir B: pressure_override must be finite, got inf"),
    }

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("case", BAD)
    def test_first_bad_reservoir_raises_its_message(self, case, position):
        changes, message = self.BAD[case]
        bad = [self.GOOD[k] if k else "B" for k in range(len(self.GOOD))]
        for k, value in changes.items():
            bad[k] = value
        rows = [self.GOOD] * 7
        rows.insert(position, tuple(bad))
        # a later reservoir that fails an earlier check does not win
        rows.append(("",) + self.GOOD[1:])
        with pytest.raises(ValueError) as info:
            reservoir_table(rows)
        assert str(info.value) == message
        if position == 0:
            with pytest.raises(ValueError) as single:
                ReservoirSpec(*bad)
            assert str(single.value) == message


_names = st.text(alphabet="ABCXYZabcxyz0123456789 _-.()'=#", min_size=1, max_size=12).map(str.strip).filter(bool)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_OPTIONAL_KEYS = ("alpha", "surface_temp_c", "gradt_c_per_km", "temp_c", "pressure_mpa")


@st.composite
def _reservoir_configs(draw):
    """(reservoir key -> value dicts, config text): random key order, optional keys omitted,
    comment lines, and blocks started by a blank line or by a repeated ``name=``."""
    reservoirs = []
    for _ in range(draw(st.integers(1, 6))):
        reservoir = {"depth_m": draw(st.floats(min_value=0.0, allow_infinity=False)),
                     "toc_pct": draw(_positive), "ro_pct": draw(_positive)}
        for key in _OPTIONAL_KEYS:
            if draw(st.booleans()):
                reservoir[key] = draw(_positive if key == "alpha" else _finite)
        if "gradt_c_per_km" not in reservoir and "temp_c" not in reservoir:
            reservoir[draw(st.sampled_from(["gradt_c_per_km", "temp_c"]))] = draw(_finite)
        reservoirs.append((draw(_names), reservoir))
    lines = []
    for i, (name, reservoir) in enumerate(reservoirs):
        if i and draw(st.booleans()):
            lines += [""] * draw(st.integers(1, 2))
        lines.append(f"name={name}")
        for key in draw(st.permutations(sorted(reservoir))):
            if draw(st.integers(0, 4)) == 0:
                lines.append("# " + draw(_names))
            space = draw(st.sampled_from(["", " "]))
            lines.append(f"{space}{key}{space}={space}{reservoir[key]!r}")
    return reservoirs, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _column(reservoirs, key, default=math.nan):
    return np.array([reservoir.get(key, default) for _, reservoir in reservoirs])


@settings(max_examples=150, deadline=None, database=None)
@given(config=_reservoir_configs(), data=st.data())
def test_parse_round_trips_generated_configs(config, data):
    reservoirs, text = config
    table = parse_reservoirs(text)
    assert len(table) == len(reservoirs)
    assert table.names == tuple(name for name, _ in reservoirs)
    for column, key, default in [
        (table.depth, "depth_m", math.nan), (table.toc, "toc_pct", math.nan), (table.ro, "ro_pct", math.nan),
        (table.alpha, "alpha", 1.0), (table.surface_temp, "surface_temp_c", 20.0),
        (table.grad_t, "gradt_c_per_km", math.nan), (table.temp_override, "temp_c", math.nan),
        (table.pressure_override, "pressure_mpa", math.nan),
    ]:
        assert np.array_equal(column, _column(reservoirs, key, default), equal_nan=True)

    # A present optional value that is not finite fails its block, whether or not the estimate would use it.
    i = data.draw(st.integers(0, len(reservoirs) - 1))
    bad = [dict(reservoir) for _, reservoir in reservoirs]
    bad[i][data.draw(st.sampled_from(_OPTIONAL_KEYS))] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    text = "\n".join(f"name={name}\n" + "".join(f"{key}={value!r}\n" for key, value in reservoir.items())
                     for (name, _), reservoir in zip(reservoirs, bad))
    with pytest.raises(ValueError, match=f"^reservoir {re.escape(reservoirs[i][0])}: "):
        parse_reservoirs(text)


def _seeded_config(rng, n):
    """Config text of n blocks, about one in eight with one fault a block can have."""
    faults = [
        lambda block: block.update(depth_m="deep"), lambda block: block.pop("toc_pct"),
        lambda block: block.update(name=""), lambda block: block.update(depth_m="-3"),
        lambda block: block.update(alpha="0"), lambda block: block.pop("temp_c"),
        lambda block: block.update(ro_pct="nan"), lambda block: block.update(pressure_mpa="1,5"),
        lambda block: block.pop("name"), lambda block: block.update(porosity="4"),
        lambda block: block.update(toc_pct="1_0"), lambda block: block.update(temp_c="nan"),
        lambda block: block.update(pressure_mpa="NaN"), lambda block: block.update(gradt_c_per_km="inf"),
        lambda block: block.update(surface_temp_c="-inf"),
    ]
    blocks = []
    for i in range(n):
        block = {"name": f"R{i}", "depth_m": repr(float(rng.uniform(0.0, 5000.0))),
                 "toc_pct": repr(float(rng.uniform(0.5, 20.0))), "ro_pct": repr(float(rng.uniform(0.5, 5.0))),
                 "temp_c": repr(float(rng.uniform(10.0, 120.0)))}
        if rng.random() < 0.5:
            block["pressure_mpa"] = repr(float(rng.uniform(1.0, 50.0)))
        if rng.random() < 0.125:
            faults[int(rng.integers(len(faults)))](block)
        blocks.append("".join(f"{key}={value}\n" for key, value in block.items()))
    return "\n".join(blocks)


@pytest.mark.parametrize("seed", range(40))
def test_parse_equals_the_per_block_parser(seed):
    text = _seeded_config(np.random.default_rng(seed), 12)
    expected = _outcome(lambda: ReservoirTable.from_specs(naive_parse_reservoirs(text)))
    got = _outcome(parse_reservoirs, text)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert _same_tables(got, expected)


GOOD_BLOCK = "name={name}\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n"

# Faults of a config, each as (text, message): ``{name}`` is the block's name
# and ``{line}`` the number of the text's last line.
BAD_BLOCKS = [
    ("name={name}\ndepth_m=-1\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
     "reservoir {name}: depth_m must be >= 0, got -1.0"),
    ("name={name}\ndepth_m=2000\nro_pct=1.5\ngradt_c_per_km=30\n", "reservoir {name}: missing required key toc_pct"),
    ("name={name}\ndepth_m=deep\ntoc_pct=3\nro_pct=1.5\ngradt_c_per_km=30\n",
     "reservoir {name}: depth_m is not a number: 'deep'"),
    ("name={name}\ndepth_m=2000\ntoc_pct=3\nro_pct=1.5\n",
     "reservoir {name}: needs gradt_c_per_km or temp_c to resolve temperature"),
]
MALFORMED_LINES = [
    ("bogus line\n", "reservoir config line {line}: expected key=value, got 'bogus line'"),
    ("porosity=4\n", "reservoir config line {line}: unknown key 'porosity'"),
    (GOOD_BLOCK + "toc_pct=4\n", "reservoir config line {line}: duplicate key 'toc_pct' in block"),
    # a malformed line inside a bad block: the block is not closed, so the line is its first fault
    (BAD_BLOCKS[0][0] + "bogus line\n", "reservoir config line {line}: expected key=value, got 'bogus line'"),
]


@settings(max_examples=150, deadline=None, database=None)
@given(items=st.lists(st.one_of(st.just((GOOD_BLOCK, None)), st.sampled_from(BAD_BLOCKS),
                                st.sampled_from(MALFORMED_LINES)), min_size=1, max_size=8))
def test_the_earliest_fault_by_line_fails_the_parse(items):
    texts, messages = [], []
    for k, (item, message) in enumerate(items):
        texts.append(item.format(name=f"R{k}"))
        end = "".join(texts).count("\n")
        messages.append(message and message.format(name=f"R{k}", line=end))
        texts.append("\n")
    text = "".join(texts)
    expected = next((message for message in messages if message), None)
    got = _outcome(parse_reservoirs, text)
    if expected is None:
        assert len(got) == len(items)
    else:
        assert got == (ValueError, expected)
        assert _outcome(naive_parse_reservoirs, text) == got


def test_parse_memory_is_a_few_times_the_text():
    # 20,000 blocks shaped like the benchmark's: the streamed parse holds the
    # columns and one chunk of text, not a list of every line and a dict per block.
    rng = np.random.default_rng(18)
    blocks = []
    for i in range(20000):
        lines = [f"name=R{i:05d}", f"depth_m={round(rng.uniform(500, 3000))}.0",
                 f"toc_pct={round(rng.uniform(1.2, 12), 2)}", f"ro_pct={round(rng.uniform(0.6, 3.8), 2)}"]
        temperature = ("temp_c", 30, 88) if i % 2 else ("gradt_c_per_km", 15, 22)
        lines.append(f"{temperature[0]}={round(rng.uniform(*temperature[1:]), 2)}")
        if i % 3 == 0:
            lines.append(f"pressure_mpa={round(rng.uniform(5, 45), 2)}")
        blocks.append("\n".join(lines) + "\n")
    text = "\n".join(blocks)
    tracemalloc.start()
    try:
        table = parse_reservoirs(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 20000
    assert peak < 4 * len(text), f"peak {peak} B is {peak / len(text):.1f} times the text"


@settings(max_examples=200, deadline=None, database=None)
@given(pl=st.floats(0.01, 100.0), vl=st.floats(0.01, 100.0),
       pressures=st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=20))
def test_langmuir_volume_rises_below_vl(pl, vl, pressures):
    params = LangmuirParams(pl=pl, vl=vl)
    volumes = [langmuir_volume(pressure, params) for pressure in sorted(pressures)]
    assert all(a <= b for a, b in zip(volumes, volumes[1:]))
    assert all(volume < vl for volume in volumes)
    assert langmuir_volume(pl, params) == vl / 2
    assert langmuir_volume(0.0, params) == 0.0
