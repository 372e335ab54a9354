import math

import numpy as np
import pytest

from shale_adsorb.estimator import (
    REFERENCE_PL_COEFFICIENTS,
    REFERENCE_VL_COEFFICIENTS,
    LangmuirParams,
    ReservoirSpec,
    estimate_adsorbed_gas,
    estimate_reservoir,
    estimates_to_csv,
    fit_range_warnings,
    langmuir_volume,
    parse_reservoirs,
    reference_models,
    reservoir_pressure,
    reservoir_temperature,
)
from shale_adsorb.dataset import FIT_RANGES, DatasetKind, clean
from shale_adsorb.regression import FittedModel, ModelKind, ModelSpec
from conftest import make_record

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
        assert reservoir_temperature(spec) == 20.0

    def test_gradient_reproduces_back_solved_value(self):
        # the gradient implied by 86.98 degC at 3230 m under a 20 degC surface
        grad = (86.98 - 20.0) / 3.230
        spec = ReservoirSpec(name="x", depth=3230.0, toc=2.58, ro=3.03, grad_t=grad)
        assert reservoir_temperature(spec) == pytest.approx(86.98, abs=1e-9)

    def test_override_wins_over_gradient(self):
        spec = ReservoirSpec(name="x", depth=4023.0, toc=4.65, ro=1.57,
                             grad_t=25.0, temp_override=95.99)
        assert reservoir_temperature(spec) == 95.99

    def test_missing_both_sources_rejected(self):
        with pytest.raises(ValueError, match="gradt_c_per_km or temp_c"):
            ReservoirSpec(name="x", depth=100.0, toc=2.0, ro=1.0)


class TestReservoirPressure:
    @pytest.mark.parametrize("name,depth,expected", [
        (name, depth, pressure) for name, depth, _, _, _, pressure, _ in REFERENCE_RESERVOIRS
    ])
    def test_depth_derived_pressures(self, name, depth, expected):
        spec = _spec(name, depth, 2.0, 1.0, 50.0)
        assert reservoir_pressure(spec) == pytest.approx(expected, abs=0.01)

    def test_zero_depth(self):
        assert reservoir_pressure(_spec("x", 0.0, 2.0, 1.0, 50.0)) == 0.0

    def test_alpha_scales_pressure(self):
        base = _spec("x", 1000.0, 2.0, 1.0, 50.0)
        doubled = _spec("x", 1000.0, 2.0, 1.0, 50.0, alpha=2.0)
        assert reservoir_pressure(base) == pytest.approx(9.8)
        assert reservoir_pressure(doubled) == pytest.approx(19.6)

    def test_override_wins(self):
        spec = _spec("x", 1000.0, 2.0, 1.0, 50.0, pressure_override=31.65)
        assert reservoir_pressure(spec) == 31.65


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
        assert fit_range_warnings(toc=2.05, ro=1.54, temp=106.19) == ("temp-extrapolation",)
        assert fit_range_warnings(toc=2.0, ro=4.5, temp=50.0) == ("ro-extrapolation",)
        assert fit_range_warnings(toc=0.5, ro=1.0, temp=50.0) == ("toc-extrapolation",)
        assert fit_range_warnings(toc=18.0, ro=4.0, temp=95.0) == (
            "temp-extrapolation", "ro-extrapolation", "toc-extrapolation")
        assert fit_range_warnings(toc=4.0, ro=1.5, temp=48.0) == ()

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
        warned = f"{field}-extrapolation" in fit_range_warnings(**inputs)
        record = make_record(1, pl=5.0, vl=2.0, **inputs)
        for kind in DatasetKind:
            if field not in kind.independent_vars:
                continue
            rejected = [reason for _, reason in clean([record], kind).rejected]
            assert rejected == ([] if inside else [f"{field}-range"])
        assert warned is not inside

    def test_warning_attached_to_row(self):
        pl_model, vl_model = reference_models()
        row = estimate_reservoir(_spec("Northern Jiangsu Basin", 2872, 2.05, 1.54, 106.19),
                                 pl_model, vl_model)
        assert row.warnings == ("temp-extrapolation",)

    def test_csv_layout(self):
        pl_model, vl_model = reference_models()
        row = estimate_reservoir(_spec("Sichuan Basin", 3230, 2.58, 3.03, 86.98),
                                 pl_model, vl_model)
        lines = estimates_to_csv([row]).splitlines()
        assert lines[0] == "reservoir,depth_m,toc_pct,ro_pct,temp_c,pressure_mpa,adsorbed_m3t,warnings"
        assert lines[1].startswith("Sichuan Basin,3230,2.58,3.03,86.98,")


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
        specs = parse_reservoirs(self.CONFIG)
        assert [s.name for s in specs] == ["Alpha Basin", "Beta Shale"]
        alpha, beta = specs
        assert alpha.grad_t == 28.5
        assert alpha.alpha == 1.0 and alpha.surface_temp == 20.0
        assert beta.alpha == 1.2
        assert beta.temp_override == 44.0
        assert beta.pressure_override == 9.1

    def test_repeated_name_starts_new_block(self):
        text = "name=A\ndepth_m=1\ntoc_pct=2\nro_pct=1\ntemp_c=30\n" \
               "name=B\ndepth_m=2\ntoc_pct=3\nro_pct=1\ntemp_c=40\n"
        specs = parse_reservoirs(text)
        assert [s.name for s in specs] == ["A", "B"]

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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_reservoirs("name=A\ndepth_m=1\ndepth_m=2\ntoc_pct=2\nro_pct=1\ntemp_c=30\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_reservoirs("name=A\nnot a key value pair\n")
