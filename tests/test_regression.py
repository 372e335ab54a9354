import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shale_adsorb.estimator import REFERENCE_PL_COEFFICIENTS, REFERENCE_VL_COEFFICIENTS
from shale_adsorb.regression import (
    DesignSystem,
    FittedModel,
    ModelKind,
    ModelSpec,
    SingularSystemError,
    build_design,
    fit,
    fit_systems,
    model_from_text,
    model_to_text,
    ols_fit,
    solve_normal_equations,
)
from shale_adsorb import regression
from shale_adsorb.validation import _leave_one_out_systems
from conftest import count_first_failure, make_record, synthetic_records, table
from helpers import lstsq_oracle, naive_feature_row, naive_pivot_solve, naive_response, sample_rows

PL_SPEC = ModelSpec(ModelKind.PL_GEO)
VL_SPEC = ModelSpec(ModelKind.VL_GEO)


class TestBuildDesign:
    def test_pl_geo_row(self):
        system = build_design(table([make_record(1, toc=4.0, temp=48.0, ro=1.75, pl=math.exp(2.0))]), PL_SPEC)
        assert system.x[0] == pytest.approx([1.0, 0.0, 1.0], abs=1e-15)
        assert system.y[0] == pytest.approx(2.0, rel=1e-15)

    def test_vl_geo_row(self):
        system = build_design(table([make_record(1, toc=4.0, temp=48.0, vl=math.e)]), VL_SPEC)
        assert system.x[0] == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)
        assert system.y[0] == pytest.approx(1.0, rel=1e-15)

    def test_toclin_row_is_untransformed(self):
        system = build_design(table([make_record(1, toc=3.0, temp=48.0, vl=2.5)]), ModelSpec(ModelKind.VL_TOCLIN))
        assert system.x[0] == pytest.approx([3.0, 1.0])
        assert system.y[0] == 2.5

    def test_invtemp_row(self):
        spec = ModelSpec(ModelKind.PL_INVTEMP)
        system = build_design(table([make_record(1, toc=3.0, temp=50.0, pl=4.0)]), spec)
        assert system.x[0] == pytest.approx([0.02, 1.0])
        assert system.y[0] == pytest.approx(-math.log(4.0), rel=1e-15)

    def test_invtemp_kelvin_switch(self):
        spec = ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=True)
        system = build_design(table([make_record(1, toc=3.0, temp=50.0, pl=4.0)]), spec)
        assert system.x[0][0] == pytest.approx(1.0 / 323.15)

    def test_missing_field_names_record_and_field(self):
        with pytest.raises(ValueError, match=r"r1.*ro"):
            build_design(table([make_record(1, toc=4.0, temp=48.0, pl=5.0)]), PL_SPEC)

    def test_missing_dependent_rejected(self):
        with pytest.raises(ValueError, match="pl"):
            build_design(table([make_record(1, toc=4.0, temp=48.0, ro=1.5)]), PL_SPEC)


# Every model kind, and the reciprocal-temperature model in kelvin too.
ALL_SPECS = [ModelSpec(kind) for kind in ModelKind] + [ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=True)]


def _wide_records(n, seed):
    """Records spread over and beyond the fitted ranges, every field present."""
    rng = np.random.default_rng(seed)
    return [make_record(i, toc=float(rng.uniform(0.05, 40.0)), temp=float(rng.uniform(0.5, 200.0)),
                        ro=float(rng.uniform(0.05, 6.0)), pl=float(rng.uniform(0.5, 20.0)),
                        vl=float(rng.uniform(0.2, 10.0))) for i in range(n)]


def _error(func, *args):
    try:
        func(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("expected a ValueError")


class TestDesignEqualsPerRecordRows:
    """``build_design`` and ``feature_row`` equal the per-record recipes (``helpers.naive_feature_row``
    and ``helpers.naive_response``) with ``==``."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: f"{spec.kind.value}-{spec.invtemp_kelvin}")
    def test_rows(self, spec):
        records = _wide_records(500, seed=17)
        expected = np.array([naive_feature_row(rec, spec) for rec in records])
        assert np.array_equal(build_design(table(records), spec).x, expected)
        assert [spec.feature_row(table([rec])) for rec in records[:50]] == expected[:50].tolist()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: f"{spec.kind.value}-{spec.invtemp_kelvin}")
    def test_responses(self, spec):
        records = _wide_records(4000, seed=19)
        expected = [naive_response(rec, spec) for rec in records]
        assert build_design(table(records), spec).y.tolist() == expected
        assert spec.dependent_values(table(records)).tolist() == [getattr(rec, spec.dependent_var) for rec in records]

    def test_first_missing_dependent_named_after_the_rows(self):
        records = [make_record(i, toc=3.0, temp=50.0, ro=1.5, pl=4.0) for i in range(6)]
        records[2] = make_record(2, toc=3.0, temp=50.0, ro=1.5)
        records[4] = make_record(4, toc=3.0, temp=50.0, ro=1.5)
        with pytest.raises(ValueError, match="^record r2 is missing dependent variable pl$"):
            build_design(table(records), PL_SPEC)
        with pytest.raises(ValueError, match="^record r2 is missing dependent variable pl$"):
            PL_SPEC.dependent_values(table(records))
        records[5] = make_record(5, toc=3.0, temp=50.0, pl=4.0)  # a later record's row fails first
        with pytest.raises(ValueError, match="^record r5 is missing field ro required by pl-geo$"):
            build_design(table(records), PL_SPEC)

    # name -> (spec, bad record fields); each breaks one row recipe.
    BAD_RECORDS = {
        "missing-field": (ModelSpec(ModelKind.PL_GEO), {"ro": None}),
        "zero-temperature": (ModelSpec(ModelKind.PL_INVTEMP), {"temp": 0.0}),
        "log-domain": (ModelSpec(ModelKind.PL_GEO), {"temp": -5.0}),
    }

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_first_failing_record_raises_its_own_error(self, case, position):
        spec, fields = self.BAD_RECORDS[case]
        records = [make_record(i, toc=3.0, temp=50.0, ro=1.5, pl=4.0) for i in range(8)]
        records[position] = make_record("bad", **{**dict(toc=3.0, temp=50.0, ro=1.5, pl=4.0), **fields})
        # a later record fails another way
        later = {"missing-field": {"temp": 0.0}, "zero-temperature": {"temp": 0.0}, "log-domain": {"ro": None}}[case]
        records.append(make_record("later", **{**dict(toc=3.0, temp=50.0, ro=1.5, pl=4.0), **later}))
        expected = _error(lambda: [naive_feature_row(rec, spec) for rec in records])
        assert "bad" in expected or case == "log-domain"
        assert _error(build_design, table(records), spec) == expected
        assert _error(spec.feature_row, table([records[position]])) == expected

    def test_cube_overflow_names_kind_and_temperature(self):
        record = make_record(1, toc=3.0, temp=1e200, vl=2.0)
        with pytest.raises(ValueError, match=r"^vl-geo regressor overflows: .* at temperature 1e\+200 degC$"):
            build_design(table([make_record(0, toc=3.0, temp=50.0, vl=2.0), record]), VL_SPEC)


class TestFailingRowBisect:
    """A bad sample fails ``feature_rows`` with the per-record recipe's error in few batch runs."""

    N = 1000

    def _check(self, faults, monkeypatch):
        """Rows of N good samples with the BAD_RECORDS case of each (position, case) in ``faults``; the first wins."""
        base = dict(toc=3.0, temp=50.0, ro=1.5, pl=4.0)
        bad = {position: TestDesignEqualsPerRecordRows.BAD_RECORDS[case][1] for position, case in faults}
        records = [make_record(i, **{**base, **bad.get(i, {})}) for i in range(self.N)]
        spec = TestDesignEqualsPerRecordRows.BAD_RECORDS[faults[0][1]][0]
        expected = _error(lambda: [naive_feature_row(rec, spec) for rec in records])
        samples = table(records)
        runs, alone_items = count_first_failure(monkeypatch, regression)
        assert _error(spec.feature_rows, samples) == expected
        assert alone_items == [faults[0][0]]  # the one one-sample regressors call
        assert len(runs) <= 2 * math.ceil(math.log2(self.N)) + 2
        assert sum(runs) <= 2 * self.N + 1  # each probe runs only rows not yet known to pass

    @pytest.mark.parametrize("position", [0, N // 2, N - 1])
    @pytest.mark.parametrize("case", ["missing-field", "log-domain"])
    def test_one_bad_sample(self, case, position, monkeypatch):
        self._check([(position, case)], monkeypatch)

    @pytest.mark.parametrize("positions", [(0, 1), (17, 700), (N - 2, N - 1)])
    def test_later_step_of_an_earlier_sample_wins(self, positions, monkeypatch):
        # the later sample lacks ro, which the batch checks before it takes any log
        self._check(list(zip(positions, ("log-domain", "missing-field"))), monkeypatch)


class TestOlsFit:
    def test_two_point_interpolation(self):
        w = ols_fit(DesignSystem(np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([3.0, 5.0])))
        assert w == pytest.approx([2.0, 1.0])

    def test_identity_system(self):
        y = np.array([4.0, -1.0, 2.5])
        w = ols_fit(DesignSystem(np.eye(3), y))
        assert w == pytest.approx(y)

    def test_three_point_hand_solution(self):
        # Normal equations: [[14, 6], [6, 3]] w = [11, 5], so w = (0.5, 2/3).
        system = DesignSystem(np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]), np.array([1.0, 2.0, 2.0]))
        assert ols_fit(system) == pytest.approx([0.5, 2.0 / 3.0])

    def test_duplicate_column_is_singular(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystemError):
            ols_fit(DesignSystem(x, np.array([1.0, 2.0, 3.0])))

    def test_fewer_rows_than_columns_is_conditioning_error(self):
        with pytest.raises(SingularSystemError, match="fewer records"):
            ols_fit(DesignSystem(np.array([[1.0, 2.0, 3.0]]), np.array([1.0])))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DesignSystem(np.array([[1.0], [math.nan]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 51))
        n = int(rng.integers(1, 4))
        x = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        w = ols_fit(DesignSystem(x, y))
        residual_projection = x.T @ (y - x @ w)
        assert np.linalg.norm(residual_projection) <= 1e-9 * max(1.0, np.linalg.norm(x.T @ y))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pseudo_inverse(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        ours = ols_fit(DesignSystem(x, y))
        reference = lstsq_oracle(x, y)
        assert ours == pytest.approx(reference, rel=1e-8)


def _random_design(rng, m, p):
    """Intercept first, then regressors with log-uniform column scales in [0.01, 20].

    Column 0 holds the row count on the Gram diagonal, so a large-scale
    regressor forces a pivot swap there and a small-scale one does not.
    """
    scales = np.exp(rng.uniform(math.log(0.01), math.log(20.0), size=p - 1))
    offsets = rng.uniform(-1.0, 3.0, size=p - 1)
    regressors = (rng.normal(size=(m, p - 1)) + offsets) * scales
    x = np.column_stack([np.ones(m), regressors])
    y = x @ rng.normal(size=p) + 0.1 * rng.normal(size=m)
    return x, y


class TestStackedSolve:
    def test_equals_per_system_loop(self):
        rng = np.random.default_rng(2024)
        systems = swapped = 0
        for _ in range(30):
            m = int(rng.integers(8, 801))
            p = int(rng.integers(2, 4))
            x, y = _random_design(rng, m, p)
            masks = [np.ones(m, dtype=bool)] + [rng.random(m) < rng.uniform(0.3, 0.95) for _ in range(40)]
            masks = [mask for mask in masks if mask.sum() >= p]
            subsets = [(x[mask], y[mask]) for mask in masks]
            grams = np.array([xs.T @ xs for xs, _ in subsets])
            moments = np.array([xs.T @ ys for xs, ys in subsets])
            stacked = solve_normal_equations(grams, moments)
            for a, b, w in zip(grams, moments, stacked):
                assert np.array_equal(w, naive_pivot_solve(a, b))
            assert np.array_equal(fit_systems((x.compress(mask, axis=0), y[mask]) for mask in masks), stacked)
            systems += len(masks)
            swapped += int((np.argmax(np.abs(grams[:, :, 0]), axis=1) != 0).sum())
        assert swapped > 0 and swapped < systems

    def test_single_system_equals_ols_fit(self):
        rng = np.random.default_rng(7)
        x, y = _random_design(rng, 50, 3)
        w = solve_normal_equations((x.T @ x)[None], (x.T @ y)[None])
        assert w.shape == (1, 3)
        assert np.array_equal(w[0], ols_fit(DesignSystem(x, y)))

    @pytest.mark.parametrize("stack, first", [
        ([[[4.0, 1.0], [1.0, 3.0]], [[4.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 5.0]],
          [[0.0, 0.0], [0.0, 0.0]]], 1),
        ([[[4.0, 1.0], [1.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]], [[4.0, 2.0], [2.0, 1.0]]], 1),
        ([[[4.0, 1.0], [1.0, 3.0]], [[2.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 5.0]],
          [[4.0, 2.0], [2.0, 1.0]]], 2),
        ([[[4.0, 1.0], [1.0, 3.0]], [[0.0, 0.0], [0.0, 5.0]], [[0.0, 0.0], [0.0, 7.0]]], 1),
    ], ids=["column-1-before-column-0", "zero-before-singular", "column-0-before-column-1",
            "two-at-one-column"])
    def test_first_singular_system_is_reported(self, stack, first):
        a = np.array(stack)
        b = np.ones((len(a), 2))
        with pytest.raises(SingularSystemError) as raised:
            solve_normal_equations(a, b)
        assert raised.value.system == first
        with pytest.raises(SingularSystemError) as oracle:
            naive_pivot_solve(a[first], b[first])
        assert str(raised.value) == str(oracle.value)

    def test_subset_failures_reported_in_order(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0], [1.0, 5.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        full, same_toc, one_row = (np.array(rows, dtype=bool) for rows in
                                   ([1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 0]))
        with pytest.raises(SingularSystemError, match="singular") as raised:
            fit_systems((x[mask], y[mask]) for mask in [full, same_toc, one_row])
        assert raised.value.system == 1
        with pytest.raises(SingularSystemError, match=r"fewer records \(1\)") as raised:
            fit_systems((x[mask], y[mask]) for mask in [full, one_row, same_toc])
        assert raised.value.system == 1


class TestLeaveOneOutBuffer:
    """The rolling fold buffer gives every fold the fit of its own copy of the training rows."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("m", [48, 700, 1500])  # a stacked matmul stops matching at m = 700
    def test_equals_ols_fit_of_each_fold(self, m, p):
        x, y = _random_design(np.random.default_rng(m + p), m, p)
        design = x.copy(), y.copy()
        w = fit_systems(_leave_one_out_systems(x, y))
        assert w.shape == (m, p)
        for i in range(m):
            assert np.array_equal(w[i], ols_fit(DesignSystem(np.delete(x, i, 0), np.delete(y, i))))
        assert np.array_equal(x, design[0]) and np.array_equal(y, design[1])


class TestFitRecovery:
    def test_pl_geo_recovers_generating_coefficients(self):
        records = synthetic_records(n=30, seed=1)
        model = fit(records, PL_SPEC)
        assert model.coefficients == pytest.approx(REFERENCE_PL_COEFFICIENTS, abs=1e-9)
        assert model.n_fit == 30

    def test_vl_geo_recovers_generating_coefficients(self):
        records = synthetic_records(n=30, seed=2)
        model = fit(records, VL_SPEC)
        assert model.coefficients == pytest.approx(REFERENCE_VL_COEFFICIENTS, abs=1e-9)

    def test_fitted_signs_match_qualitative_relations(self):
        records = synthetic_records(n=40, seed=3, pl_noise=0.05, vl_noise=0.05)
        pl_model = fit(records, PL_SPEC)
        vl_model = fit(records, VL_SPEC)
        a_p, b_p, _ = pl_model.coefficients
        a_v, b_v, _ = vl_model.coefficients
        assert a_p < 0 and b_p > 0
        assert a_v > 0 and b_v < 0

    def test_too_few_records_is_conditioning_error(self):
        records = synthetic_records(n=2, seed=4)
        with pytest.raises(SingularSystemError):
            fit(records, PL_SPEC)

    def test_invtemp_roundtrip(self):
        spec = ModelSpec(ModelKind.PL_INVTEMP)
        a, c = 40.0, -2.0
        records = [
            make_record(i, toc=3.0, temp=t, pl=math.exp(-(a / t + c)))
            for i, t in enumerate([30.0, 45.0, 60.0, 75.0, 90.0])
        ]
        model = fit(table(records), spec)
        assert model.coefficients == pytest.approx([a, c], rel=1e-9)

    def test_tocpow_roundtrip(self):
        spec = ModelSpec(ModelKind.VL_TOCPOW)
        exponent, scale = 0.6, 1.4
        records = [
            make_record(i, toc=t, temp=50.0, vl=scale * t ** exponent)
            for i, t in enumerate([1.0, 2.0, 4.0, 8.0])
        ]
        model = fit(table(records), spec)
        assert model.coefficients == pytest.approx([exponent, math.log(scale)], rel=1e-9)

    def test_toclin_roundtrip(self):
        spec = ModelSpec(ModelKind.VL_TOCLIN)
        records = [
            make_record(i, toc=t, temp=50.0, vl=0.45 * t + 1.2)
            for i, t in enumerate([1.0, 3.0, 5.0, 9.0])
        ]
        model = fit(table(records), spec)
        assert model.coefficients == pytest.approx([0.45, 1.2], rel=1e-9)


class TestPredict:
    def test_pl_geo_reference_point(self):
        model = FittedModel(PL_SPEC, REFERENCE_PL_COEFFICIENTS, 91)
        predicted = model.predict(table([make_record(1, toc=2.58, temp=86.98, ro=3.03)]))
        assert predicted == pytest.approx(5.007, abs=2e-3)
        assert round(predicted, 2) == 5.01

    def test_vl_geo_reference_point(self):
        model = FittedModel(VL_SPEC, REFERENCE_VL_COEFFICIENTS, 184)
        predicted = model.predict(table([make_record(1, toc=6.90, temp=83.23)]))
        assert predicted == pytest.approx(2.56, abs=5e-3)

    def test_toclin_identity_coefficients(self):
        model = FittedModel(ModelSpec(ModelKind.VL_TOCLIN), (1.0, 0.0), 5)
        assert model.predict(table([make_record(1, toc=3.0, temp=48.0)])) == pytest.approx(3.0)

    def test_invtemp_inverse_is_reciprocal_of_exp(self):
        model = FittedModel(ModelSpec(ModelKind.PL_INVTEMP), (40.0, -2.0), 5)
        t = 60.0
        expected = 1.0 / math.exp(40.0 / t - 2.0)
        assert model.predict(table([make_record(1, toc=3.0, temp=t)])) == pytest.approx(expected, rel=1e-12)

    def test_interpolation_case_reproduces_training_values(self):
        records = synthetic_records(n=3, seed=5)
        model = fit(records, PL_SPEC)
        for i, rec in enumerate(sample_rows(records)):
            assert model.predict(records.take([i])) == pytest.approx(rec.pl, rel=1e-9)

    def test_pl_geo_monotonicity(self):
        model = FittedModel(PL_SPEC, REFERENCE_PL_COEFFICIENTS, 91)
        base = dict(toc=2.58, temp=86.98, ro=3.03)
        p0 = model.predict(table([make_record(1, **base)]))
        assert model.predict(table([make_record(1, **{**base, "temp": base["temp"] + 1.0})])) > p0
        assert model.predict(table([make_record(1, **{**base, "toc": base["toc"] + 1.0})])) < p0
        assert model.predict(table([make_record(1, **{**base, "ro": base["ro"] + 0.5})])) < p0

    @pytest.mark.parametrize("spec, linear", [(PL_SPEC, 1000.0), (ModelSpec(ModelKind.PL_INVTEMP), -1000.0)],
                             ids=["pl-geo", "pl-invtemp"])
    def test_overflowing_inverse_names_kind_and_value(self, spec, linear):
        with pytest.raises(ValueError, match=rf"{spec.kind.value} prediction overflows: linear response {linear!r}"):
            spec.inverse_response(linear)
        with pytest.raises(ValueError, match=rf"linear response {linear!r}"):
            spec.inverse_responses([0.5, linear, 2 * linear])
        assert spec.inverse_responses([0.5, -0.25]) == [spec.inverse_response(0.5), spec.inverse_response(-0.25)]

    def test_missing_field_rejected(self):
        model = FittedModel(PL_SPEC, REFERENCE_PL_COEFFICIENTS, 91)
        with pytest.raises(ValueError, match="ro"):
            model.predict(table([make_record(1, toc=2.58, temp=86.98)]))

    def test_coefficient_arity_enforced(self):
        with pytest.raises(ValueError, match="coefficients"):
            FittedModel(PL_SPEC, (1.0, 2.0), 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FittedModel(PL_SPEC, (1.0, bad, 2.0), 10)

    def test_negative_n_fit_rejected(self):
        with pytest.raises(ValueError, match="n_fit"):
            FittedModel(PL_SPEC, (1.0, 2.0, 3.0), -4)


class TestModelSerialisation:
    def test_roundtrip_exact(self):
        records = synthetic_records(n=12, seed=6, pl_noise=0.03)
        model = fit(records, PL_SPEC)
        again = model_from_text(model_to_text(model))
        assert again == model

    def test_kelvin_flag_roundtrip(self):
        model = FittedModel(ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=True), (40.0, -2.0), 7)
        again = model_from_text(model_to_text(model))
        assert again.spec.invtemp_kelvin is True
        assert again == model

    def test_text_layout(self):
        model = FittedModel(VL_SPEC, (0.421, -0.067, 0.563), 184)
        text = model_to_text(model)
        assert text.splitlines()[0] == "kind=vl-geo"
        assert "n_fit=184" in text
        assert "a=0.421" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_text("kind=nope\na=1\nn_fit=3\n")

    def test_missing_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient b"):
            model_from_text("kind=vl-geo\na=1.0\nc=2.0\nn_fit=3\n")

    def test_unexpected_key_rejected(self):
        with pytest.raises(ValueError, match="unexpected"):
            model_from_text("kind=vl-toclin\nslope=1\nintercept=0\nn_fit=3\nbogus=1\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="model file line 3: duplicate key 'a'"):
            model_from_text("kind=vl-toclin\na=1.0\na=5.0\n")
        with pytest.raises(ValueError, match="duplicate key 'slope'"):
            model_from_text("kind=vl-toclin\nslope=1\n\nintercept=0\nslope=5\nn_fit=3\n")

    @pytest.mark.parametrize("value", ["true", "TRUE", "True", "false", "False"])
    def test_kelvin_entry_is_true_or_false_in_any_case(self, value):
        model = model_from_text(f"kind=pl-invtemp\nkelvin={value}\na=40.0\nc=-2.0\nn_fit=7\n")
        assert model.spec.invtemp_kelvin is (value.lower() == "true")

    @pytest.mark.parametrize("text", [
        "kind=pl-invtemp\nkelvin=yes\na=40.0\nc=-2.0\nn_fit=7\n",
        "kind=pl-invtemp\nkelvin=\na=40.0\nc=-2.0\nn_fit=7\n",
        "kind=pl-invtemp\nkelvin=1\na=40.0\nc=-2.0\nn_fit=7\n",
        "kind=pl-geo\nkelvin=true\na=1.0\nb=2.0\nc=3.0\nn_fit=7\n",
        "kind=vl-toclin\nkelvin=false\nslope=1.0\nintercept=0.0\nn_fit=7\n",
    ], ids=["yes", "empty", "one", "pl-geo", "vl-toclin"])
    def test_other_kelvin_entries_are_unexpected(self, text):
        with pytest.raises(ValueError, match=r"^model file has unexpected entries: \['kelvin'\]$"):
            model_from_text(text)

    @pytest.mark.parametrize("value", ["abc", "", "1.0.0", "0x10", "1_0.5"])
    def test_coefficient_must_be_a_number(self, value):
        with pytest.raises(ValueError, match=f"^model file coefficient a must be a number, got '{value}'$"):
            model_from_text(f"kind=pl-geo\na={value}\nb=0.715\nc=1.666\nn_fit=91\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_coefficient_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^pl-geo coefficients must be finite"):
            model_from_text(f"kind=pl-geo\na=-0.136\nb={value}\nc=1.666\nn_fit=91\n")

    @pytest.mark.parametrize("value", ["3.0", "3.5", "three", "", "1_0"])
    def test_n_fit_must_be_a_whole_number(self, value):
        with pytest.raises(ValueError, match=f"^model file entry n_fit must be a whole number, got '{value}'$"):
            model_from_text(f"kind=vl-toclin\nslope=1.0\nintercept=0.0\nn_fit={value}\n")

    def test_blank_lines_and_comments_ignored(self):
        model = FittedModel(VL_SPEC, (0.421, -0.067, 0.563), 184)
        text = "# fitted upstream\n\n" + model_to_text(model).replace("\n", "\n\n")
        assert model_from_text(text) == model


@st.composite
def _fitted_models(draw):
    """Models of every kind; ``invtemp_kelvin`` is an option of pl-invtemp only."""
    kind = draw(st.sampled_from(list(ModelKind)))
    spec = ModelSpec(kind, invtemp_kelvin=kind is ModelKind.PL_INVTEMP and draw(st.booleans()))
    coefficients = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=spec.n_coefficients, max_size=spec.n_coefficients))
    return FittedModel(spec, tuple(coefficients), draw(st.integers(0, 10 ** 6)))


@settings(max_examples=100, deadline=None, database=None)
@given(model=_fitted_models())
def test_model_text_round_trip(model):
    again = model_from_text(model_to_text(model))
    assert again.spec.kind is model.spec.kind
    assert again.spec.invtemp_kelvin is model.spec.invtemp_kelvin
    assert [repr(c) for c in again.coefficients] == [repr(c) for c in model.coefficients]
    assert again.n_fit == model.n_fit
    assert again == model
