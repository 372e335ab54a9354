"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import csv
import math
import time

import numpy as np

from shale_adsorb.cli import main
from shale_adsorb.dataset import DatasetKind, parse_samples
from shale_adsorb.estimator import (
    REFERENCE_PL_COEFFICIENTS,
    REFERENCE_VL_COEFFICIENTS,
    LangmuirParams,
    ReservoirSpec,
    ReservoirTable,
    estimate_adsorbed_gas,
    langmuir_volume,
)
from shale_adsorb.geotemp import HeatFlowTable, idw_interpolate
from shale_adsorb.outliers import (
    DistanceWeights,
    compute_weights,
    detect_outliers,
    weighted_relative_error,
)
from shale_adsorb.regression import DesignSystem, FittedModel, ModelKind, ModelSpec, ols_fit
from shale_adsorb.validation import Scenario, compare_models, loo_cv
from conftest import make_record, synthetic_records, table
from helpers import lstsq_oracle, naive_loo_errors, sample_rows

TABLE_CONTENTS = [1.34, 1.81, 0.92, 1.51, 1.39, 0.79, 1.24, 1.88, 0.52]
TABLE_PRESSURES = [31.65, 17.02, 16.96, 26.75, 39.43, 28.15, 20.16, 22.40, 0.52]
TABLE_DEPTHS = [3230, 1737, 1731, 2730, 4023, 2872, 2057, 2286, 53]

# Independently hand-evaluated contents for three spot-check rows.
HAND_CHECKS = {"Sichuan Basin": 1.3351, "Barnett Shale": 1.8786, "Posidonia Shale": 0.5174}


def _report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_nine_reservoir_reproduction(tmp_path, data_dir):
    start = time.perf_counter()
    code = main(["estimate", "--input", str(data_dir / "reservoirs.conf"),
                 "--paper-coefficients", "--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    with open(tmp_path / "estimates.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))

    contents = [float(row["adsorbed_m3t"]) for row in rows]
    deviations = [abs(a - b) for a, b in zip(contents, TABLE_CONTENTS)]
    hand_ok = all(
        abs(float(row["adsorbed_m3t"]) - HAND_CHECKS[row["reservoir"]]) < 5e-4
        and abs(HAND_CHECKS[row["reservoir"]] - expected) < 0.005
        for row, expected in zip(rows, TABLE_CONTENTS)
        if row["reservoir"] in HAND_CHECKS
    )
    ok = (code == 0 and len(rows) == 9 and max(deviations) <= 0.02
          and hand_ok and elapsed < 1.0)
    _report(1, ok, f"max content deviation {max(deviations):.4f} m3/t in {elapsed:.3f} s")


def test_criterion_2_depth_derived_pressures():
    specs = [ReservoirSpec(name="row", depth=depth, toc=2.0, ro=1.0, temp_override=50.0) for depth in TABLE_DEPTHS]
    pressures = ReservoirTable.from_specs(specs).pressures().tolist()
    deviations = [abs(pressure - expected) for pressure, expected in zip(pressures, TABLE_PRESSURES)]
    _report(2, max(deviations) <= 0.01, f"max pressure deviation {max(deviations):.4f} MPa")


def test_criterion_3_ols_matches_independent_least_squares():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 51))
        x = rng.uniform(-5.0, 5.0, size=(m, n))
        w_true = rng.uniform(-3.0, 3.0, size=n)
        y = x @ w_true + rng.normal(0.0, 0.5, size=m)
        ours = ols_fit(DesignSystem(x, y))
        reference = lstsq_oracle(x, y)
        worst = max(worst, float(np.max(np.abs(ours - reference))
                                 / max(1.0, np.max(np.abs(reference)))))
    _report(3, worst <= 1e-8, f"worst relative coefficient deviation {worst:.2e} over 120 systems")


def test_criterion_4_loo_matches_naive_refit():
    worst = 0.0
    for seed in range(20):
        spec = ModelSpec(ModelKind.PL_GEO) if seed % 2 == 0 else ModelSpec(ModelKind.VL_GEO)
        noise = dict(pl_noise=0.15) if seed % 2 == 0 else dict(vl_noise=0.15)
        records = synthetic_records(n=12 + seed, seed=300 + seed, **noise)
        ours = loo_cv(records, spec).errors_pct
        naive = naive_loo_errors(sample_rows(records), spec)
        for a, b in zip(ours, naive):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _report(4, worst <= 1e-12, f"worst fold deviation {worst:.2e} over 20 datasets")


def test_criterion_5_knn_outlier_properties():
    # neighbour weights sum to one
    sums_ok = True
    rng = np.random.default_rng(77)
    records = table(
        make_record(i, toc=float(rng.uniform(1, 12)), temp=float(rng.uniform(25, 85)),
                    vl=float(rng.uniform(1.1, 5.0)))
        for i in range(30)
    )
    weights = compute_weights(records, ("temp", "toc"))
    for i in range(len(records)):
        _, _, w = weighted_relative_error(i, records, weights, 5, "vl")
        sums_ok &= abs(sum(w) - 1.0) <= 1e-12

    # uniform rescaling of the distance weights flips no flags
    scaled = DistanceWeights({k: 17.0 * v for k, v in weights.by_variable.items()})
    rescale_ok = True
    for i in range(len(records)):
        r1, _, _ = weighted_relative_error(i, records, weights, 5, "vl")
        r2, _, _ = weighted_relative_error(i, records, scaled, 5, "vl")
        rescale_ok &= (r1 > 0.85) == (r2 > 0.85)

    # a planted 10x dependent value among near-clones is the unique flag
    clone_rng = np.random.default_rng(42)
    clones = [
        make_record(i, toc=float(4.0 + clone_rng.normal(0, 0.05)),
                    temp=float(48.0 + clone_rng.normal(0, 0.5)), vl=2.0)
        for i in range(24)
    ]
    clones.append(make_record("planted", toc=8.0, temp=70.0, vl=20.0))
    report = detect_outliers(table(clones), DatasetKind.VL, k=5, threshold=0.85)
    planted_ok = report.flagged_ids() == ["rplanted"]

    _report(5, sums_ok and rescale_ok and planted_ok,
            f"weight sums {'ok' if sums_ok else 'bad'}, rescale {'ok' if rescale_ok else 'bad'}, "
            f"planted flags {report.flagged_ids()}")


def test_criterion_6_langmuir_invariants():
    rng = np.random.default_rng(6)
    half_ok = True
    monotone_ok = True
    for _ in range(50):
        params = LangmuirParams(pl=float(rng.uniform(0.1, 12.0)), vl=float(rng.uniform(0.5, 6.0)))
        half_ok &= langmuir_volume(params.pl, params) == params.vl / 2
        pressures = np.sort(rng.uniform(0.01, 60.0, size=12))
        values = [langmuir_volume(float(p), params) for p in pressures]
        monotone_ok &= all(b > a for a, b in zip(values, values[1:]))

    composition_worst = 0.0
    for _ in range(1000):
        ap, bp, cp = (c * float(rng.uniform(0.5, 1.5)) for c in REFERENCE_PL_COEFFICIENTS)
        av, bv, cv = (c * float(rng.uniform(0.5, 1.5)) for c in REFERENCE_VL_COEFFICIENTS)
        pl_model = FittedModel(ModelSpec(ModelKind.PL_GEO), (ap, bp, cp), 1)
        vl_model = FittedModel(ModelSpec(ModelKind.VL_GEO), (av, bv, cv), 1)
        toc = float(rng.uniform(1.0, 17.0))
        ro = float(rng.uniform(0.5, 4.0))
        temp = float(rng.uniform(20.0, 90.0))
        pressure = float(rng.uniform(0.5, 50.0))
        toc_star, t_star, ro_star = toc / 4.0, temp / 48.0, ro / 1.75
        closed_form = (
            math.exp(av * toc_star) * math.exp(bv * t_star ** 3) * math.exp(cv)
            / (1.0 + math.exp(ap * toc_star) * (t_star / ro_star) ** bp * math.exp(cp) / pressure)
        )
        composed = estimate_adsorbed_gas(toc, ro, temp, pressure, pl_model, vl_model)
        composition_worst = max(composition_worst, abs(composed - closed_form) / abs(closed_form))

    ok = half_ok and monotone_ok and composition_worst <= 1e-12
    _report(6, ok, f"half-saturation exact, monotone, composition deviation {composition_worst:.2e}")


def test_criterion_7_idw_properties():
    rng = np.random.default_rng(7)
    points = [(float(rng.uniform(100, 110)), float(rng.uniform(25, 35)), 1000.0, float(rng.uniform(15, 35)))
              for _ in range(15)]
    samples = HeatFlowTable(*zip(*points))
    exact_ok = all(idw_interpolate(samples, lon, lat) == grad for lon, lat, _, grad in points)

    values = [grad for _, _, _, grad in points]
    bounded_ok = True
    for _ in range(40):
        got = idw_interpolate(samples, float(rng.uniform(100, 110)), float(rng.uniform(25, 35)))
        bounded_ok &= min(values) <= got <= max(values)

    pair = HeatFlowTable([-0.5, 0.5], [0.0, 0.0], [1000.0, 1000.0], [10.0, 30.0])
    symmetry_ok = abs(idw_interpolate(pair, 0.0, 0.0) - 20.0) < 1e-9

    _report(7, exact_ok and bounded_ok and symmetry_ok,
            f"exactness {'ok' if exact_ok else 'bad'}, bounds {'ok' if bounded_ok else 'bad'}, "
            f"symmetry {'ok' if symmetry_ok else 'bad'}")


def test_criterion_8_pipeline_on_synthetic_fixtures(data_dir):
    records = parse_samples((data_dir / "samples.csv").read_text(encoding="utf-8"))

    loo_ok = True
    loo_detail = []
    for kind, spec in ((DatasetKind.PL, ModelSpec(ModelKind.PL_GEO)),
                       (DatasetKind.VL, ModelSpec(ModelKind.VL_GEO))):
        report = loo_cv(records, spec)
        loo_ok &= report.abs_mean_error_pct < 0.1
        loo_detail.append(f"{kind.value} mean |error| {report.abs_mean_error_pct:.2e}%")

    baselines = {
        DatasetKind.PL: [ModelSpec(ModelKind.PL_INVTEMP), ModelSpec(ModelKind.PL_TOCPOW)],
        DatasetKind.VL: [ModelSpec(ModelKind.VL_TOCPOW), ModelSpec(ModelKind.VL_TOCLIN)],
    }
    proposed = {
        DatasetKind.PL: ModelSpec(ModelKind.PL_GEO),
        DatasetKind.VL: ModelSpec(ModelKind.VL_GEO),
    }
    wins = 0
    trials = 0
    for kind in (DatasetKind.PL, DatasetKind.VL):
        specs = baselines[kind] + [proposed[kind]]
        for scenario in Scenario:
            for seed in range(5):
                table = compare_models(records, specs, scenario, test_fraction=0.2,
                                       repetitions=3, seed=seed)
                averages = table.averages()
                own = averages[proposed[kind].kind.value]
                trials += 1
                if all(own < averages[b.kind.value] for b in baselines[kind]):
                    wins += 1
    compare_ok = wins == trials

    _report(8, loo_ok and compare_ok,
            f"{'; '.join(loo_detail)}; proposed model wins {wins}/{trials} scenario runs")
