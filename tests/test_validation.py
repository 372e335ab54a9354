import ctypes
import importlib.util
import math
import re
from statistics import NormalDist

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import stdtrit

from shale_adsorb import validation
from shale_adsorb.dataset import DatasetKind, clean, integrate_replicates, parse_samples
from shale_adsorb.outliers import detect_outliers
from shale_adsorb.regression import (FittedModel, ModelKind, ModelSpec, SingularSystemError, build_design, fit,
                                    fit_systems)
from shale_adsorb.validation import (
    Scenario,
    compare_models,
    error_ci,
    loo_cv,
    mean_abs_relative_error_pct,
    qq_data,
    scenario_split,
)
from conftest import form_records, make_record, synthetic_records, table
from helpers import naive_compare, naive_loo_errors, naive_split, sample_rows

PL_SPEC = ModelSpec(ModelKind.PL_GEO)
VL_SPEC = ModelSpec(ModelKind.VL_GEO)
TOCLIN = ModelSpec(ModelKind.VL_TOCLIN)


class TestLooCv:
    def test_noiseless_data_has_zero_errors(self):
        records = synthetic_records(n=15, seed=0)
        report = loo_cv(records, PL_SPEC)
        assert report.n == 15
        assert report.mean_error_pct == pytest.approx(0.0, abs=1e-9)
        assert report.ci_half_width_pct == pytest.approx(0.0, abs=1e-9)
        assert max(abs(e) for e in report.errors_pct) < 1e-9

    def test_mean_matches_error_average(self):
        records = synthetic_records(n=20, seed=1, pl_noise=0.1)
        report = loo_cv(records, PL_SPEC)
        assert report.mean_error_pct == pytest.approx(np.mean(report.errors_pct), abs=1e-12)
        assert report.abs_mean_error_pct == pytest.approx(np.mean(np.abs(report.errors_pct)), abs=1e-12)

    def test_interpolating_folds_match_naive_oracle(self):
        # m = n + 1: every fold interpolates its three training rows exactly.
        records = synthetic_records(n=4, seed=2, pl_noise=0.2)
        report = loo_cv(records, PL_SPEC)
        oracle = naive_loo_errors(sample_rows(records), PL_SPEC)
        assert report.errors_pct == pytest.approx(oracle, rel=1e-9)

    def test_linear_five_record_oracle(self):
        records = [
            make_record(i, toc=t, temp=50.0, vl=v)
            for i, (t, v) in enumerate([(1.0, 1.4), (2.0, 2.1), (3.0, 2.2), (4.0, 3.3), (5.0, 3.6)])
        ]
        report = loo_cv(table(records), TOCLIN)
        oracle = naive_loo_errors(records, TOCLIN)
        assert report.errors_pct == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_refit_on_noisy_data(self, seed):
        records = synthetic_records(n=18, seed=10 + seed, vl_noise=0.15)
        report = loo_cv(records, VL_SPEC)
        oracle = naive_loo_errors(sample_rows(records), VL_SPEC)
        for ours, theirs in zip(report.errors_pct, oracle):
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_folds_equal_from_scratch_fits(self):
        records = synthetic_records(n=10, seed=20, pl_noise=0.1)
        report = loo_cv(records, PL_SPEC)
        rows = sample_rows(records)
        for i, rec in enumerate(rows):
            model = fit(table(rows[:i] + rows[i + 1:]), PL_SPEC)
            expected = (rec.pl - model.predict(records.take([i])).item()) / rec.pl * 100.0
            assert report.errors_pct[i] == pytest.approx(expected, abs=1e-12)

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            loo_cv(synthetic_records(n=3, seed=3), PL_SPEC)

    def test_singular_fold_identified(self):
        # identical toc everywhere makes every training submatrix rank deficient
        records = [make_record(i, toc=2.0, temp=50.0, vl=1.5 + 0.1 * i) for i in range(5)]
        with pytest.raises(SingularSystemError, match=r"fold 0 \(record r0\) left a singular"):
            loo_cv(table(records), TOCLIN)

    def test_first_singular_fold_need_not_be_fold_0(self):
        # only record r3 has another toc, so only the fold holding it out is singular
        records = [make_record(i, toc=3.0 if i == 3 else 2.0, temp=50.0, vl=1.5 + 0.1 * i)
                   for i in range(6)]
        with pytest.raises(SingularSystemError, match=r"fold 3 \(record r3\) left a singular") as raised:
            loo_cv(table(records), TOCLIN)
        assert raised.value.system == 3

    def test_design_left_unchanged(self, monkeypatch):
        # the fold buffer is a copy: writing rows back into a view would overwrite the design
        designs = []

        def build_and_keep(records, spec):
            system = build_design(records, spec)
            designs.append((system, system.x.copy(), system.y.copy()))
            return system

        monkeypatch.setattr(validation, "build_design", build_and_keep)
        records = synthetic_records(n=40, seed=6, pl_noise=0.05)
        loo_cv(records, PL_SPEC)
        [(system, x, y)] = designs
        assert np.array_equal(system.x, x) and np.array_equal(system.y, y)

    def test_qq_pairs_have_record_count(self):
        records = synthetic_records(n=12, seed=4, pl_noise=0.05)
        report = loo_cv(records, PL_SPEC)
        assert len(report.qq_pairs) == 12

    def test_report_keeps_float64_arrays(self):
        records = synthetic_records(n=12, seed=4, pl_noise=0.05)
        report = loo_cv(records, PL_SPEC)
        assert report.errors_pct.dtype == np.float64 and report.errors_pct.shape == (12,)
        assert report.qq_pairs.dtype == np.float64 and report.qq_pairs.shape == (12, 2)
        assert np.array_equal(report.qq_pairs, qq_data(report.errors_pct.tolist()))


class TestErrorCi:
    def test_constant_errors_have_zero_width(self):
        mean, half_width = error_ci([5.0, 5.0, 5.0])
        assert mean == 5.0
        assert half_width == 0.0

    def test_two_point_hand_value(self):
        # t quantile at 95% with one degree of freedom is 6.3138, and the
        # standard error of [10, 20] is 5, so the half-width is 31.57.
        mean, half_width = error_ci([10.0, 20.0], level=0.90)
        assert mean == pytest.approx(15.0)
        assert half_width == pytest.approx(6.3138 * 5.0, abs=5e-3)

    def test_linearity_under_scaling(self):
        errors = [3.0, 7.0, 9.0, 12.0]
        mean1, hw1 = error_ci(errors)
        mean2, hw2 = error_ci([2 * e for e in errors])
        assert mean2 == pytest.approx(2 * mean1, rel=1e-12)
        assert hw2 == pytest.approx(2 * hw1, rel=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two errors"):
            error_ci([1.0])

    def test_width_shrinks_like_inverse_root_n(self):
        rng = np.random.default_rng(17)
        population = rng.normal(10.0, 3.0, size=4000)
        _, hw25 = error_ci(population[:25].tolist())
        _, hw100 = error_ci(population[:100].tolist())
        ratio = hw25 / hw100
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            error_ci([1.0, 2.0], level=1.5)

    def test_t_quantile_matches_scipy_stats(self):
        for n in (2, 3, 4, 5, 7, 10, 31, 100, 1000, 10000):
            values = [1.0, 3.0] + [2.0] * (n - 2)
            s = float(np.std(values, ddof=1))
            for level in (1e-9, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9):
                t = float(stats.t.ppf((1.0 + level) / 2.0, n - 1))
                assert error_ci(values, level)[1] == t * s / math.sqrt(n), (n, level)


def _t_cases():
    """Seeded (df, p) pairs with the edges: df = 1, df of a million and more, p at and near 0.5 and near 1."""
    rng = np.random.default_rng(27)
    dfs = [1, 2, 3, 29, 47, 1e6, 3.5e6, 1e7, *rng.integers(1, 3000, 30).tolist(), *rng.uniform(1.0, 1e7, 10).tolist()]
    ps = [0.5, 0.5 + 2 ** -40, 0.5 + 1e-9, 0.55, 0.9, 0.95, 0.975, 0.995, 1 - 1e-9, 1 - 2 ** -40,
          *rng.uniform(0.5, 1.0, 4).tolist()]
    return [(df, p) for df in dfs for p in ps]


def _refuse(*args):
    raise AssertionError(f"reached with {args!r}")


@pytest.fixture
def fresh_t_ppf():
    """``_t_ppf`` loads again in the test and is cleared after it, so no route outlives the test."""
    validation._t_ppf.cache_clear()
    yield
    validation._t_ppf.cache_clear()


@pytest.mark.usefixtures("fresh_t_ppf")
class TestTQuantile:
    def test_capsule_route_is_taken_on_a_checked_scipy(self):
        checked = ".".join(scipy.__version__.split(".")[:2]) in validation._T_PPF_CHECKED_SCIPY
        assert isinstance(validation._t_ppf(), ctypes._CFuncPtr) == checked

    def test_equals_public_stdtrit(self):
        cases = _t_cases()
        assert [validation._t_quantile(df, p) for df, p in cases] == [float(stdtrit(df, p)) for df, p in cases]

    @pytest.mark.parametrize("breakage", ["unchecked-version", "capsule-name", "load-raises"])
    def test_public_stdtrit_when_the_capsule_route_does_not_hold(self, breakage, monkeypatch):
        # The capsule's pointer is never taken on a failed guard: an untested signature would crash.
        monkeypatch.setattr(validation, "_capsule_pointer", _refuse)
        if breakage == "unchecked-version":
            monkeypatch.setattr(scipy, "__version__", "1.16.2")
            monkeypatch.setattr(importlib.util, "spec_from_file_location", _refuse)
        elif breakage == "capsule-name":
            monkeypatch.setattr(validation, "_capsule_name", lambda capsule: b"double (double, double)")
        else:
            def fail(*args):
                raise ImportError("cannot load")

            monkeypatch.setattr(importlib.util, "spec_from_file_location", fail)
        assert validation._t_ppf() is stdtrit
        cases = _t_cases()[::7]
        assert [validation._t_quantile(df, p) for df, p in cases] == [float(stdtrit(df, p)) for df, p in cases]


class TestQqData:
    def test_expected_quantiles_are_per_element_inv_cdf(self):
        errors = [3.5, -1.25, 0.5, 7.0, 2.0]
        mean, s = float(np.mean(errors)), float(np.std(errors, ddof=1))
        expected = [mean + s * NormalDist().inv_cdf((i - 0.5) / 5) for i in range(1, 6)]
        assert qq_data(errors).tolist() == [list(pair) for pair in zip(expected, sorted(errors))]

    def test_symmetric_middle_equals_mean(self):
        pairs = qq_data([-1.0, 0.0, 1.0])
        assert pairs[1][0] == pytest.approx(0.0, abs=1e-12)
        assert pairs[1][1] == 0.0

    def test_pair_count_and_ordering(self):
        rng = np.random.default_rng(5)
        errors = rng.normal(size=40).tolist()
        pairs = qq_data(errors)
        assert len(pairs) == 40
        expected = [e for e, _ in pairs]
        observed = [o for _, o in pairs]
        assert expected == sorted(expected)
        assert observed == sorted(observed)

    def test_close_to_diagonal_for_normal_sample(self):
        rng = np.random.default_rng(7)
        errors = rng.normal(12.0, 4.0, size=200)
        pairs = qq_data(errors.tolist())
        spread = errors.std(ddof=1)
        worst = max(abs(e - o) for e, o in pairs)
        assert worst < 0.4 * spread

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="three"):
            qq_data([1.0, 2.0])


class TestScenarioSplit:
    def test_overall_sizes_and_partition(self):
        records = synthetic_records(n=10, seed=6)
        train, test = scenario_split(records, Scenario.OVERALL, 0.2, seed=1)
        assert len(test) == 2 and len(train) == 8
        assert sorted(train.ids + test.ids) == sorted(records.ids)
        assert not set(train.ids) & set(test.ids)

    def test_same_seed_same_split(self):
        records = synthetic_records(n=20, seed=7)
        first = scenario_split(records, Scenario.OVERALL, 0.25, seed=123)
        second = scenario_split(records, Scenario.OVERALL, 0.25, seed=123)
        assert [sample_rows(part) for part in first] == [sample_rows(part) for part in second]

    def test_different_seed_usually_differs(self):
        records = synthetic_records(n=20, seed=7)
        _, test1 = scenario_split(records, Scenario.OVERALL, 0.25, seed=1)
        _, test2 = scenario_split(records, Scenario.OVERALL, 0.25, seed=2)
        assert set(test1.ids) != set(test2.ids)

    def test_scenario_pool_membership(self):
        records = synthetic_records(n=30, seed=8)
        for scenario, check in [
            (Scenario.HIGH_T, lambda r: r.temp > 65.0),
            (Scenario.HIGH_TOC, lambda r: r.toc > 5.0),
            (Scenario.HIGH_RO, lambda r: r.ro > 2.0),
        ]:
            _, test = scenario_split(records, scenario, 0.1, seed=3)
            assert all(check(r) for r in sample_rows(test))

    def test_empty_pool_rejected(self):
        records = [make_record(i, toc=2.0 + 0.1 * i, temp=40.0 + i, vl=2.0) for i in range(10)]
        with pytest.raises(ValueError, match="high-t"):
            scenario_split(table(records), Scenario.HIGH_T, 0.2, seed=0)

    def test_pool_smaller_than_test_size_rejected(self):
        records = [make_record(i, toc=2.0, temp=40.0 + i, vl=2.0) for i in range(9)]
        records.append(make_record(9, toc=2.0, temp=80.0, vl=2.0))
        with pytest.raises(ValueError, match="pool has 1"):
            scenario_split(table(records), Scenario.HIGH_T, 0.3, seed=0)

    def test_bad_fraction_rejected(self):
        records = synthetic_records(n=10, seed=9)
        with pytest.raises(ValueError, match="fraction"):
            scenario_split(records, Scenario.OVERALL, 1.0, seed=0)


def _rows(table):
    """The (test label, model kind, error %) rows of a comparison table, errors as Python floats."""
    return list(zip(table.labels, table.models, table.errors_pct.tolist()))


class TestCompareModels:
    def test_noiseless_generating_spec_scores_zero(self):
        records = synthetic_records(n=25, seed=11)
        table = compare_models(records, [VL_SPEC], Scenario.OVERALL, 0.2, repetitions=3, seed=5)
        for _, _, error in _rows(table):
            assert error == pytest.approx(0.0, abs=1e-9)

    def test_generating_spec_beats_alternative(self):
        records = synthetic_records(n=30, seed=12)
        table = compare_models(records, [VL_SPEC, TOCLIN], Scenario.OVERALL, 0.2,
                               repetitions=4, seed=6)
        averages = table.averages()
        assert averages["vl-geo"] < averages["vl-toclin"]

    def test_row_cardinality(self):
        records = synthetic_records(n=30, seed=13)
        specs = [VL_SPEC, TOCLIN, ModelSpec(ModelKind.VL_TOCPOW)]
        table = compare_models(records, specs, Scenario.OVERALL, 0.2, repetitions=5, seed=7)
        assert len(_rows(table)) == 5 * 3 + 3
        assert sum(1 for label, _, _ in _rows(table) if label == "Average") == 3

    def test_average_adds_left_to_right(self):
        # On these errors a correctly rounded sum (and so the compensated
        # builtin sum() of Python >= 3.12) differs from the left-to-right
        # one, which every Average row must use.
        records = synthetic_records(n=40, seed=10, vl_noise=0.2)
        specs = [VL_SPEC, TOCLIN, ModelSpec(ModelKind.VL_TOCPOW)]
        table = compare_models(records, specs, Scenario.OVERALL, 0.2, repetitions=12, seed=10)
        averages = table.averages()
        sensitive = 0
        for spec in specs:
            errors = [error for label, model, error in _rows(table)
                      if model == spec.kind.value and label != "Average"]
            total = 0.0
            for error in errors:
                total += error
            assert averages[spec.kind.value] == total / 12
            sensitive += math.fsum(errors) / 12 != total / 12
        assert sensitive

    def test_specs_of_one_kind_rejected(self):
        records = synthetic_records(n=30, seed=13)
        specs = [ModelSpec(ModelKind.PL_INVTEMP), PL_SPEC,
                 ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=True)]
        with pytest.raises(ValueError, match="model kind pl-invtemp appears in more than one spec"):
            compare_models(records, specs, Scenario.OVERALL, 0.2, repetitions=2, seed=1)

    def test_row_labels_follow_scenario(self):
        records = synthetic_records(n=30, seed=14)
        table = compare_models(records, [VL_SPEC], Scenario.HIGH_TOC, 0.1, repetitions=2, seed=8)
        labels = [label for label, _, _ in _rows(table)]
        assert labels == ["HighTOC1", "HighTOC2", "Average"]

    def test_reproducible_with_same_seed(self):
        records = synthetic_records(n=26, seed=15, vl_noise=0.1)
        kwargs = dict(scenario=Scenario.OVERALL, test_fraction=0.2, repetitions=3, seed=9)
        first = compare_models(records, [VL_SPEC, TOCLIN], **kwargs)
        second = compare_models(records, [VL_SPEC, TOCLIN], **kwargs)
        assert _rows(first) == _rows(second)
        assert first.to_csv() == second.to_csv()

    @pytest.mark.parametrize("name", ["repetitions", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
    def test_repetitions_and_seed_must_be_integers(self, name, value):
        records = synthetic_records(n=20, seed=16)
        kwargs = dict(scenario=Scenario.OVERALL, test_fraction=0.2, repetitions=2, seed=0) | {name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            compare_models(records, [VL_SPEC], **kwargs)

    def test_mixed_dependents_rejected(self):
        records = synthetic_records(n=20, seed=16)
        with pytest.raises(ValueError, match="dependent"):
            compare_models(records, [VL_SPEC, PL_SPEC], Scenario.OVERALL, 0.2, 2, 0)

    def test_rounding_keeps_winner(self):
        records = synthetic_records(n=30, seed=17, vl_noise=0.12)
        specs = [ModelSpec(ModelKind.VL_TOCPOW), TOCLIN, VL_SPEC]
        table = compare_models(records, specs, Scenario.OVERALL, 0.2, repetitions=5, seed=10)
        averages = table.averages()
        raw_winner = min(averages, key=averages.get)
        rounded_winner = min(averages, key=lambda k: round(averages[k], 2))
        assert raw_winner == rounded_winner

    def test_csv_layout(self):
        records = synthetic_records(n=20, seed=18)
        table = compare_models(records, [VL_SPEC], Scenario.OVERALL, 0.2, repetitions=1, seed=0)
        lines = table.to_csv().splitlines()
        assert lines[0] == "test_label,model,error_pct"
        assert lines[1].startswith("Test 1,vl-geo,")

    def test_mean_abs_relative_error_matches_per_record_sum(self):
        records = synthetic_records(n=17, seed=19, vl_noise=0.2)
        model = fit(records.take(slice(9)), VL_SPEC)
        total = 0.0
        for i, rec in enumerate(sample_rows(records)[9:], start=9):
            total += abs((rec.vl - model.predict(records.take([i])).item()) / rec.vl)
        assert mean_abs_relative_error_pct(model, records.take(slice(9, None))) == total / 8 * 100.0

    def test_mean_abs_relative_errors_are_float64_arrays(self):
        actual = np.array([[2.0, 4.0, 5.0], [1.0, 3.0, 8.0]])
        predicted = np.array([[2.5, 3.0, 5.0], [1.5, 3.5, 6.0]])
        rows = validation._mean_abs_relative_errors_pct(actual, predicted)
        one = validation._mean_abs_relative_errors_pct(actual[1], predicted[1])
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape == (2,)
        assert isinstance(one, np.ndarray) and one.dtype == np.float64 and one.shape == ()
        assert one == rows[1]
        records = synthetic_records(n=17, seed=19, vl_noise=0.2)
        assert type(mean_abs_relative_error_pct(fit(records, VL_SPEC), records)) is float

    def test_table_keeps_columns(self):
        records = synthetic_records(n=30, seed=13)
        table = compare_models(records, [VL_SPEC, TOCLIN], Scenario.OVERALL, 0.2, repetitions=4, seed=7)
        assert table.errors_pct.dtype == np.float64
        assert len(table.labels) == len(table.models) == len(table.errors_pct) == 5 * 2
        assert table.models == ["vl-geo", "vl-toclin"] * 5

    def test_singular_training_system_names_repetition_and_spec(self):
        # r0 is the only record with another toc; a split that tests it leaves a
        # constant toc column, which both toc forms need.
        records = [make_record(i, toc=3.0 if i == 0 else 2.0, temp=50.0 + i, vl=1.5 + 0.1 * i)
                   for i in range(10)]
        rep = next(r for r in range(1, 50)
                   if naive_split(records, Scenario.OVERALL, 0.1, [4, r])[1][0].id == "r0")
        specs = [ModelSpec(ModelKind.VL_TOCPOW), TOCLIN]
        with pytest.raises(SingularSystemError) as oracle:
            naive_compare(records, specs, Scenario.OVERALL, 0.1, rep + 2, 4)
        with pytest.raises(SingularSystemError, match=f"repetition {rep}: vl-tocpow training system") as raised:
            compare_models(table(records), specs, Scenario.OVERALL, 0.1, rep + 2, 4)
        assert str(oracle.value) in str(raised.value)

    def test_first_singular_repetition_wins_over_spec_order(self):
        # Holding out r1 leaves a constant temperature (vl-geo singular, vl-toclin
        # fine); holding out r0 a constant toc (both singular). With r1 held out
        # first, the error names that repetition's second spec.
        records = [make_record(i, toc=3.0 if i == 0 else 2.0, temp=60.0 if i == 1 else 50.0,
                               vl=1.5 + 0.1 * i) for i in range(10)]
        seed = next(s for s in range(200)
                    if [naive_split(records, Scenario.OVERALL, 0.1, [s, r])[1][0].id
                        for r in (1, 2)] == ["r1", "r0"])
        specs = [TOCLIN, VL_SPEC]
        with pytest.raises(SingularSystemError) as oracle:
            naive_compare(records, specs, Scenario.OVERALL, 0.1, 2, seed)
        with pytest.raises(SingularSystemError, match="repetition 1: vl-geo training system") as raised:
            compare_models(table(records), specs, Scenario.OVERALL, 0.1, 2, seed)
        assert str(oracle.value) in str(raised.value)

    def test_non_finite_coefficient_fails_as_its_repetition(self, monkeypatch):
        records = synthetic_records(n=30, seed=13)
        stacks = []

        def fit_with_inf(systems):
            w = fit_systems(systems)
            w[2, 1] = math.inf  # repetition 3
            w[4, 0] = math.nan
            stacks.append(w)
            return w

        monkeypatch.setattr(validation, "fit_systems", fit_with_inf)
        with pytest.raises(ValueError) as raised:
            compare_models(records, [VL_SPEC, TOCLIN], Scenario.OVERALL, 0.2, repetitions=5, seed=7)
        with pytest.raises(ValueError) as per_repetition:
            for coefficients in stacks[0].tolist():
                FittedModel(VL_SPEC, tuple(coefficients), 24)
        assert str(raised.value) == str(per_repetition.value)
        assert "inf" in str(raised.value) and "nan" not in str(raised.value)
        assert len(stacks) == 1


_SPEC_SETS = {
    "pl": lambda kelvin: [ModelSpec(ModelKind.PL_INVTEMP, invtemp_kelvin=kelvin),
                          ModelSpec(ModelKind.PL_TOCPOW), PL_SPEC],
    "vl": lambda kelvin: [ModelSpec(ModelKind.VL_TOCPOW), TOCLIN, VL_SPEC],
}

_records = st.lists(
    st.tuples(st.floats(1.5, 12.0), st.floats(30.0, 88.0), st.floats(0.8, 3.5),
              st.floats(1.7, 11.0), st.floats(1.1, 5.0)),
    min_size=6, max_size=40,
)


@settings(max_examples=80, deadline=None, database=None)
@given(rows=_records, scenario=st.sampled_from(list(Scenario)), dependent=st.sampled_from(["pl", "vl"]),
       kelvin=st.booleans(), test_fraction=st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5]),
       repetitions=st.integers(1, 6), seed=st.integers(0, 2 ** 80))
def test_compare_equals_per_record_path(rows, scenario, dependent, kelvin, test_fraction, repetitions, seed):
    records = [make_record(i, toc=toc, temp=temp, ro=ro, pl=pl, vl=vl)
               for i, (toc, temp, ro, pl, vl) in enumerate(rows)]
    samples = table(records)
    args = (_SPEC_SETS[dependent](kelvin), scenario, test_fraction, repetitions, seed)
    try:
        expected = naive_compare(records, *args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            compare_models(samples, *args)
        assert str(exc) in str(raised.value)
        return
    assert _rows(compare_models(samples, *args)) == expected
    for rep in range(1, repetitions + 1):
        split = scenario_split(samples, scenario, test_fraction, [seed, rep])
        assert [sample_rows(part) for part in split] == list(naive_split(records, scenario, test_fraction, [seed, rep]))


def _generator_draws(seed, repetitions, n_test, high):
    return np.array([np.random.default_rng([seed, rep]).integers(np.arange(n_test), high)
                     for rep in range(1, repetitions + 1)])


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 200), repetitions=st.integers(1, 8),
       shape=st.integers(1, 1000).flatmap(lambda high: st.tuples(st.integers(1, high), st.just(high))))
def test_split_draws_equal_default_rng(seed, repetitions, shape):
    # Seeds of up to seven 32-bit words; n_test == high ends with a range of one, for which NumPy takes no bits.
    n_test, high = shape
    assert np.array_equal(validation._split_draws(seed, repetitions, n_test, high),
                          _generator_draws(seed, repetitions, n_test, high))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 200), repetitions=st.integers(1, 8), n_test=st.integers(1, 4),
       high=st.integers(2 ** 31 + 1, 2 ** 32))
def test_split_draws_equal_default_rng_where_rejection_is_common(seed, repetitions, n_test, high):
    # A draw below high reaches the rejection branch with chance (2**32 - high) / 2**32, up to one half.
    assert np.array_equal(validation._split_draws(seed, repetitions, n_test, high),
                          _generator_draws(seed, repetitions, n_test, high))


def _count_default_rng(monkeypatch):
    """The seeds of every later ``np.random.default_rng`` call, as a list that grows."""
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: calls.append(seed) or default_rng(seed))
    return calls


def test_split_draws_redraw_rejected_lanes(monkeypatch):
    # At high = 2**31 + 1 about half of all draws reach Lemire's rejection branch, so with two
    # draws a lane most often falls back to default_rng, and some lanes keep the batch draws.
    expected = _generator_draws(2 ** 40 + 3, 12, 2, 2 ** 31 + 1)
    calls = _count_default_rng(monkeypatch)
    assert np.array_equal(validation._split_draws(2 ** 40 + 3, 12, 2, 2 ** 31 + 1), expected)
    assert 0 < len(calls) < 12


@pytest.mark.parametrize("seed", [0, 11, 2 ** 64])
@pytest.mark.parametrize("pool, n_test", [(range(145), 29), (range(3, 145, 2), 28), (range(140, 145), 5)])
def test_test_masks_equal_per_repetition_masks(seed, pool, n_test):
    pool = list(pool)
    expected = [validation._test_mask(145, pool, n_test, [seed, rep]) for rep in range(1, 201)]
    assert np.array_equal(validation._test_masks(145, pool, n_test, seed, 200), np.array(expected))


def test_compare_draws_without_default_rng(monkeypatch):
    # model-compare's shape: about 145 samples, three specs, 200 repetitions, a fifth held out.
    records = synthetic_records(n=145, seed=21, pl_noise=0.1)
    specs = _SPEC_SETS["pl"](False)
    calls = _count_default_rng(monkeypatch)
    for seed in (0, 11, 2 ** 64):
        compare_models(records, specs, Scenario.OVERALL, 0.2, 200, seed)
    assert calls == []


@pytest.mark.parametrize("row_error", [False, True], ids=["dependent", "row-first"])
def test_missing_dependent_raises_as_build_design(row_error):
    # Every stage reads the dependent column after the regressor rows, so
    # each raises what build_design raises: a missing pl (r4), unless a
    # record lacks a regressor (r9).
    records = synthetic_records(n=12, seed=3)
    model = fit(records, PL_SPEC)
    rows = [row._replace(id=f"r{i}") for i, row in enumerate(sample_rows(records))]
    rows[4] = rows[4]._replace(pl=None)
    if row_error:
        rows[9] = rows[9]._replace(ro=None)
    records = table(rows)
    message = "record r9 is missing field ro" if row_error else "record r4 is missing dependent variable pl"
    with pytest.raises(ValueError, match=f"^{message}"):
        build_design(records, PL_SPEC)
    with pytest.raises(ValueError, match=f"^{message}"):
        loo_cv(records, PL_SPEC)
    with pytest.raises(ValueError, match=f"^{message}"):
        compare_models(records, [PL_SPEC, ModelSpec(ModelKind.PL_TOCPOW)], Scenario.OVERALL, 0.25, 2, 0)
    with pytest.raises(ValueError, match=f"^{message}"):
        mean_abs_relative_error_pct(model, records)


@pytest.mark.parametrize("kind, references", [
    (DatasetKind.PL, (ModelKind.PL_INVTEMP, ModelKind.PL_TOCPOW)),
    (DatasetKind.VL, (ModelKind.VL_TOCPOW, ModelKind.VL_TOCLIN)),
], ids=["pl", "vl"])
def test_geo_model_beats_both_reference_forms_on_the_paper_fixture(kind, references, data_dir):
    # A consistency check, not the paper's claim: data/samples_paper.csv is
    # drawn from the geo forms themselves, so this shows only that compare,
    # on a noisy paper-sized set screened as the command screens it, ranks
    # the generating form first. test_compare_ranks_the_generating_form_first
    # holds that for every form.
    samples = parse_samples((data_dir / "samples_paper.csv").read_text(encoding="utf-8"))
    averages = _compare_averages(samples, kind, Scenario.OVERALL)
    geo = ModelKind.PL_GEO if kind is DatasetKind.PL else ModelKind.VL_GEO
    assert averages[geo.value] < min(averages[reference.value] for reference in references), averages


def _compare_averages(samples, kind, scenario):
    """Each form's average error in a 20-repetition compare (seed 11) of ``samples``, screened as compare screens."""
    unique, _ = integrate_replicates(samples)
    kept = clean(unique, kind).kept
    inliers = detect_outliers(kept, kind).inliers(kept)
    forms = ((ModelKind.PL_INVTEMP, ModelKind.PL_TOCPOW, ModelKind.PL_GEO) if kind is DatasetKind.PL
             else (ModelKind.VL_TOCPOW, ModelKind.VL_TOCLIN, ModelKind.VL_GEO))
    return compare_models(inliers, [ModelSpec(form) for form in forms], scenario, 0.2, 20, 11).averages()


# (form, scenario) cases whose averages lie close: both vl forms in TOC alone, on high-TOC test pools.
NARROW_CASES = {(ModelKind.VL_TOCPOW, Scenario.HIGH_TOC), (ModelKind.VL_TOCLIN, Scenario.HIGH_TOC)}


@pytest.mark.parametrize("scenario", Scenario, ids=lambda scenario: scenario.value)
@pytest.mark.parametrize("form", ModelKind, ids=lambda form: form.value)
def test_compare_ranks_the_generating_form_first(form, scenario):
    """The paper's claim against known truth: compare gives the form that generated the data the lowest average.

    301 rows of each form with log-noise 0.08 (``conftest.form_records``),
    20 repetitions, seed 11. Each case must win on data seeds 0-2; a narrow
    case, on at least 8 of seeds 0-9. On seeds 0-9 the generating form won
    237 of 240 (form, scenario, seed) draws. The misses: vl-tocpow on
    high-toc, seeds 5 and 6 (6.12 against vl-toclin's 6.06, 6.40 against
    6.32), and vl-toclin on high-t, seed 9 (6.58 against vl-geo's 6.45). The
    narrowest win on the gated seeds was vl-toclin against vl-tocpow on
    high-toc, seed 0: 6.07 against 6.10.
    """
    kind = DatasetKind(ModelSpec(form).dependent_var)
    seeds, needed = (range(10), 8) if (form, scenario) in NARROW_CASES else (range(3), 3)
    winners = [min(averages, key=averages.get)
               for averages in (_compare_averages(form_records(form, seed), kind, scenario) for seed in seeds)]
    assert winners.count(form.value) >= needed, winners
