#!/usr/bin/env python3
"""Regenerate the bundled fixture files under data/.

The sample fixture is drawn with a fixed seed and generated noiselessly
from the reference coefficient sets, so the fitting pipeline recovers those
coefficients exactly and every scenario pool is populated. A second,
paper-sized sample file (301 entries, as the paper's data set) is drawn by
the benchmark's noisy generator, ``perfbench/inputs.samples_csv``, so that
it holds noise, gross outliers, replicates, twins and out-of-range rows.
Rerunning this script reproduces the committed files byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import samples_csv
from shale_adsorb.dataset import DatasetKind, SampleTable, clean, records_to_csv
from shale_adsorb.estimator import reference_models
from shale_adsorb.outliers import detect_outliers

SEED = 20240801
N_SAMPLES = 48

DATA_DIR = ROOT / "data"

# The paper-sized noisy sample file: seed, row count, log-noise and the
# fractions of gross outliers, replicates, twins and out-of-range rows.
PAPER_SEED = 2017
PAPER_SAMPLES = 301
PAPER_MIX = {"noise": 0.08, "outlier_frac": 0.03, "replicate_frac": 0.05, "twin_frac": 0.02,
             "out_of_range_frac": 0.05}

RESERVOIRS = [
    # name, depth_m, toc_pct, ro_pct, temp_c
    ("Sichuan Basin", 3230, 2.58, 3.03, 86.98),
    ("Yangtze Platform", 1737, 3.53, 2.37, 57.48),
    ("Songliao Basin", 1731, 2.93, 1.03, 90.46),
    ("Ordos Basin", 2730, 4.69, 1.53, 86.93),
    ("Tarim Basin", 4023, 4.65, 1.57, 95.99),
    ("Northern Jiangsu Basin", 2872, 2.05, 1.54, 106.19),
    ("Marcellus Shale", 2057, 3.12, 2.10, 87.26),
    ("Barnett Shale", 2286, 6.90, 1.20, 83.23),
    ("Posidonia Shale", 53, 8.14, 0.96, 22.66),
]


def make_samples() -> SampleTable:
    pl_model, vl_model = reference_models()
    rng = np.random.default_rng(SEED)
    rows = []
    while len(rows) < N_SAMPLES:
        toc = round(float(rng.uniform(1.5, 12.0)), 2)
        ro = round(float(rng.uniform(0.8, 3.5)), 2)
        temp = round(float(rng.uniform(30.0, 88.0)), 2)
        query = SampleTable([f"s{len(rows) + 1:02d}"], ["synthetic"], [toc], [ro], [temp], *[[np.nan]] * 3)
        pl = pl_model.predict(query).item()
        vl = vl_model.predict(query).item()
        if 1.6 < pl < 11.5 and vl > 1.05:
            rows.append((query.ids[0], "synthetic", toc, ro, temp, np.nan, pl, vl))
    return SampleTable(*zip(*rows))


def check_samples(samples: SampleTable) -> None:
    for kind in (DatasetKind.PL, DatasetKind.VL):
        assert len(clean(samples, kind).rejected) == 0
    pools = {
        "high-t": int((samples.temp > 65).sum()),
        "high-toc": int((samples.toc > 5).sum()),
        "high-ro": int((samples.ro > 2).sum()),
    }
    for name, count in pools.items():
        assert count >= 12, f"{name} pool too small: {count}"
    for kind in (DatasetKind.PL, DatasetKind.VL):
        report = detect_outliers(samples, kind)
        assert not any(report.flagged), f"{kind} fixture flags outliers"
        assert max(report.r_values) < 0.5, f"{kind} fixture R too close to threshold"


def write_reservoirs() -> None:
    lines = ["# Nine reference reservoirs: pressure derives from depth (alpha=1),",
             "# temperature is supplied directly.", ""]
    for name, depth, toc, ro, temp in RESERVOIRS:
        lines += [f"name={name}", f"depth_m={depth}", f"toc_pct={toc}",
                  f"ro_pct={ro}", f"temp_c={temp}", ""]
    (DATA_DIR / "reservoirs.conf").write_text("\n".join(lines), encoding="utf-8")


def write_heatflow() -> None:
    rng = np.random.default_rng(SEED + 1)
    rows = ["lon_deg,lat_deg,section_depth_m,gradt_c_per_km"]
    for _ in range(20):
        lon = round(float(rng.uniform(100.0, 112.0)), 3)
        lat = round(float(rng.uniform(24.0, 34.0)), 3)
        depth = round(float(rng.uniform(100.0, 3200.0)), 0)
        grad = round(float(rng.uniform(15.0, 35.0)), 2)
        rows.append(f"{lon},{lat},{depth},{grad}")
    (DATA_DIR / "heatflow.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    records = make_samples()
    check_samples(records)
    (DATA_DIR / "samples.csv").write_text(records_to_csv(records), encoding="utf-8")
    (DATA_DIR / "samples_paper.csv").write_text(
        samples_csv(np.random.default_rng(PAPER_SEED), PAPER_SAMPLES, **PAPER_MIX), encoding="utf-8")
    write_reservoirs()
    write_heatflow()
    print(f"wrote {len(records)} samples, {PAPER_SAMPLES} noisy samples, {len(RESERVOIRS)} reservoirs, "
          f"20 heat-flow points to {DATA_DIR}")


if __name__ == "__main__":
    main()
