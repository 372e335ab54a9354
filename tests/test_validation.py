import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from shale_adsorb.regression import ModelKind, ModelSpec, SingularSystemError, build_design, fit
from shale_adsorb.validation import (
    Scenario,
    compare_models,
    error_ci,
    loo_cv,
    mean_abs_relative_error_pct,
    qq_data,
    scenario_split,
)
from conftest import make_record, synthetic_records
from helpers import naive_compare, naive_loo_errors, naive_split

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
        oracle = naive_loo_errors(records, PL_SPEC)
        assert report.errors_pct == pytest.approx(oracle, rel=1e-9)

    def test_linear_five_record_oracle(self):
        records = [
            make_record(i, toc=t, temp=50.0, vl=v)
            for i, (t, v) in enumerate([(1.0, 1.4), (2.0, 2.1), (3.0, 2.2), (4.0, 3.3), (5.0, 3.6)])
        ]
        report = loo_cv(records, TOCLIN)
        oracle = naive_loo_errors(records, TOCLIN)
        assert report.errors_pct == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_refit_on_noisy_data(self, seed):
        records = synthetic_records(n=18, seed=10 + seed, vl_noise=0.15)
        report = loo_cv(records, VL_SPEC)
        oracle = naive_loo_errors(records, VL_SPEC)
        for ours, theirs in zip(report.errors_pct, oracle):
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_folds_equal_from_scratch_fits(self):
        records = synthetic_records(n=10, seed=20, pl_noise=0.1)
        report = loo_cv(records, PL_SPEC)
        for i, rec in enumerate(records):
            model = fit(records[:i] + records[i + 1:], PL_SPEC)
            expected = (rec.pl - model.predict(rec)) / rec.pl * 100.0
            assert report.errors_pct[i] == pytest.approx(expected, abs=1e-12)

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            loo_cv(synthetic_records(n=3, seed=3), PL_SPEC)

    def test_singular_fold_identified(self):
        # identical toc everywhere makes every training submatrix rank deficient
        records = [make_record(i, toc=2.0, temp=50.0, vl=1.5 + 0.1 * i) for i in range(5)]
        with pytest.raises(SingularSystemError, match=r"fold 0 \(record r0\) left a singular"):
            loo_cv(records, TOCLIN)

    def test_first_singular_fold_need_not_be_fold_0(self):
        # only record r3 has another toc, so only the fold holding it out is singular
        records = [make_record(i, toc=3.0 if i == 3 else 2.0, temp=50.0, vl=1.5 + 0.1 * i)
                   for i in range(6)]
        with pytest.raises(SingularSystemError, match=r"fold 3 \(record r3\) left a singular") as raised:
            loo_cv(records, TOCLIN)
        assert raised.value.system == 3

    def test_qq_pairs_have_record_count(self):
        records = synthetic_records(n=12, seed=4, pl_noise=0.05)
        report = loo_cv(records, PL_SPEC)
        assert len(report.qq_pairs) == 12


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


class TestQqData:
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
        assert sorted(r.id for r in train + test) == sorted(r.id for r in records)
        assert not set(r.id for r in train) & set(r.id for r in test)

    def test_same_seed_same_split(self):
        records = synthetic_records(n=20, seed=7)
        first = scenario_split(records, Scenario.OVERALL, 0.25, seed=123)
        second = scenario_split(records, Scenario.OVERALL, 0.25, seed=123)
        assert first == second

    def test_different_seed_usually_differs(self):
        records = synthetic_records(n=20, seed=7)
        _, test1 = scenario_split(records, Scenario.OVERALL, 0.25, seed=1)
        _, test2 = scenario_split(records, Scenario.OVERALL, 0.25, seed=2)
        assert {r.id for r in test1} != {r.id for r in test2}

    def test_scenario_pool_membership(self):
        records = synthetic_records(n=30, seed=8)
        for scenario, check in [
            (Scenario.HIGH_T, lambda r: r.temp > 65.0),
            (Scenario.HIGH_TOC, lambda r: r.toc > 5.0),
            (Scenario.HIGH_RO, lambda r: r.ro > 2.0),
        ]:
            _, test = scenario_split(records, scenario, 0.1, seed=3)
            assert all(check(r) for r in test)

    def test_empty_pool_rejected(self):
        records = [make_record(i, toc=2.0 + 0.1 * i, temp=40.0 + i, vl=2.0) for i in range(10)]
        with pytest.raises(ValueError, match="high-t"):
            scenario_split(records, Scenario.HIGH_T, 0.2, seed=0)

    def test_pool_smaller_than_test_size_rejected(self):
        records = [make_record(i, toc=2.0, temp=40.0 + i, vl=2.0) for i in range(9)]
        records.append(make_record(9, toc=2.0, temp=80.0, vl=2.0))
        with pytest.raises(ValueError, match="pool has 1"):
            scenario_split(records, Scenario.HIGH_T, 0.3, seed=0)

    def test_bad_fraction_rejected(self):
        records = synthetic_records(n=10, seed=9)
        with pytest.raises(ValueError, match="fraction"):
            scenario_split(records, Scenario.OVERALL, 1.0, seed=0)


class TestCompareModels:
    def test_noiseless_generating_spec_scores_zero(self):
        records = synthetic_records(n=25, seed=11)
        table = compare_models(records, [VL_SPEC], Scenario.OVERALL, 0.2, repetitions=3, seed=5)
        for _, _, error in table.rows:
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
        assert len(table.rows) == 5 * 3 + 3
        assert sum(1 for label, _, _ in table.rows if label == "Average") == 3

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
            errors = [error for label, model, error in table.rows
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
        labels = [label for label, _, _ in table.rows]
        assert labels == ["HighTOC1", "HighTOC2", "Average"]

    def test_reproducible_with_same_seed(self):
        records = synthetic_records(n=26, seed=15, vl_noise=0.1)
        kwargs = dict(scenario=Scenario.OVERALL, test_fraction=0.2, repetitions=3, seed=9)
        first = compare_models(records, [VL_SPEC, TOCLIN], **kwargs)
        second = compare_models(records, [VL_SPEC, TOCLIN], **kwargs)
        assert first.rows == second.rows
        assert first.to_csv() == second.to_csv()

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
        model = fit(records[:9], VL_SPEC)
        total = 0.0
        for rec in records[9:]:
            total += abs((rec.vl - model.predict(rec)) / rec.vl)
        assert mean_abs_relative_error_pct(model, records[9:]) == total / 8 * 100.0

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
            compare_models(records, specs, Scenario.OVERALL, 0.1, rep + 2, 4)
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
            compare_models(records, specs, Scenario.OVERALL, 0.1, 2, seed)
        assert str(oracle.value) in str(raised.value)


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
       repetitions=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_compare_equals_per_record_path(rows, scenario, dependent, kelvin, test_fraction, repetitions, seed):
    records = [make_record(i, toc=toc, temp=temp, ro=ro, pl=pl, vl=vl)
               for i, (toc, temp, ro, pl, vl) in enumerate(rows)]
    specs = _SPEC_SETS[dependent](kelvin)
    args = (records, specs, scenario, test_fraction, repetitions, seed)
    try:
        expected = naive_compare(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            compare_models(*args)
        assert str(exc) in str(raised.value)
        return
    assert compare_models(*args).rows == expected
    for rep in range(1, repetitions + 1):
        split = scenario_split(records, scenario, test_fraction, [seed, rep])
        assert split == naive_split(records, scenario, test_fraction, [seed, rep])


@pytest.mark.parametrize("row_error", [False, True], ids=["dependent", "row-first"])
def test_missing_dependent_raises_as_build_design(row_error):
    # Every stage reads the dependent column after the regressor rows, so
    # each raises what build_design raises: a missing pl (r4), unless a
    # record lacks a regressor (r9).
    records = synthetic_records(n=12, seed=3)
    model = fit(records, PL_SPEC)
    records[4] = make_record(4, toc=records[4].toc, temp=records[4].temp, ro=records[4].ro)
    if row_error:
        records[9] = make_record(9, toc=records[9].toc, temp=records[9].temp, pl=records[9].pl)
    message = "record r9 is missing field ro" if row_error else "record r4 is missing dependent variable pl"
    with pytest.raises(ValueError, match=f"^{message}"):
        build_design(records, PL_SPEC)
    with pytest.raises(ValueError, match=f"^{message}"):
        loo_cv(records, PL_SPEC)
    with pytest.raises(ValueError, match=f"^{message}"):
        compare_models(records, [PL_SPEC, ModelSpec(ModelKind.PL_TOCPOW)], Scenario.OVERALL, 0.25, 2, 0)
    with pytest.raises(ValueError, match=f"^{message}"):
        mean_abs_relative_error_pct(model, records)
