"""Seeded synthetic inputs for the benchmark workloads.

Samples follow the recipe of ``scripts/make_fixtures.py`` and
``tests/conftest.py::synthetic_records``: TOC, R_o and temperature are drawn
uniformly inside the cleaning ranges and rounded to two decimals, the
Langmuir parameters come from the reference coefficient sets, and a draw is
kept only when those parameters sit inside the fitting ranges. On top of
that recipe the generator adds log-noise, gross outliers, exact replicates,
zero-distance twins and out-of-range rows, plus heat-flow points and
reservoir blocks. Everything is a pure function of the numpy generator it
is given, so one seed always yields byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Reference coefficient sets of the two geological-parameter models, as in
# shale_adsorb.estimator; kept here so the inputs do not move when the
# program changes.
PL_COEFFICIENTS = (-0.136, 0.715, 1.666)
VL_COEFFICIENTS = (0.421, -0.067, 0.563)
TOC_NORM, TEMP_NORM, RO_NORM = 4.0, 48.0, 1.75

SAMPLES_HEADER = ("id", "reservoir", "toc_pct", "ro_pct", "temp_c",
                  "porosity_pct", "pl_mpa", "vl_m3t")
HEATFLOW_HEADER = ("lon_deg", "lat_deg", "section_depth_m", "gradt_c_per_km")

# The heat-flow region of scripts/make_fixtures.py.
LON_RANGE = (100.0, 112.0)
LAT_RANGE = (24.0, 34.0)


def reference_pl(toc: float, ro: float, temp: float) -> float:
    a, b, c = PL_COEFFICIENTS
    return math.exp(a * toc / TOC_NORM + b * math.log((temp / TEMP_NORM) / (ro / RO_NORM)) + c)


def reference_vl(toc: float, temp: float) -> float:
    a, b, c = VL_COEFFICIENTS
    return math.exp(a * toc / TOC_NORM + b * (temp / TEMP_NORM) ** 3 + c)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _draw_in_range(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        toc = round(float(rng.uniform(1.5, 12.0)), 2)
        ro = round(float(rng.uniform(0.8, 3.5)), 2)
        temp = round(float(rng.uniform(30.0, 88.0)), 2)
        if 1.6 < reference_pl(toc, ro, temp) < 11.5 and reference_vl(toc, temp) > 1.05:
            return toc, ro, temp


def _out_of_range(rng: np.random.Generator, row: dict) -> dict:
    """Break exactly one cleaning rule of a row."""
    rule = int(rng.integers(6))
    if rule == 0:
        row["temp"] = round(float(rng.uniform(90.0, 130.0)), 2)
    elif rule == 1:
        row["ro"] = round(float(rng.uniform(4.0, 5.5)), 2)
    elif rule == 2:
        row["toc"] = round(float(rng.uniform(17.5, 25.0)), 2)
    elif rule == 3:
        row["ro"] = None
    elif rule == 4:
        row["vl"] = None
    else:
        row["pl"] = float(rng.uniform(12.5, 20.0))
    return row


def samples_csv(rng: np.random.Generator, n: int, noise: float, outlier_frac: float,
                replicate_frac: float, twin_frac: float, out_of_range_frac: float) -> str:
    """A samples CSV of ``n`` rows.

    Gross outliers scale both Langmuir parameters by a factor of 2.2-3 up or
    down; twins copy another row's TOC, R_o and temperature with fresh noise,
    so they sit at distance zero (a neighbour tie broken by index); exact
    replicates copy every field but the id.
    """
    n_replicates = int(round(replicate_frac * n))
    n_twins = int(round(twin_frac * n))
    n_bad = int(round(out_of_range_frac * n))
    n_base = n - n_replicates - n_twins - n_bad

    def noisy(toc, ro, temp):
        pl = reference_pl(toc, ro, temp) * math.exp(noise * float(rng.normal()))
        vl = reference_vl(toc, temp) * math.exp(noise * float(rng.normal()))
        return {"toc": toc, "ro": ro, "temp": temp, "pl": pl, "vl": vl,
                "porosity": round(float(rng.uniform(1.0, 9.0)), 2) if rng.random() < 0.3 else None}

    rows = [noisy(*_draw_in_range(rng)) for _ in range(n_base)]
    for row in rows[:int(round(outlier_frac * n))]:
        for key in ("pl", "vl"):
            factor = float(rng.uniform(2.2, 3.0))
            row[key] *= factor if rng.random() < 0.5 else 1.0 / factor
    rows += [noisy(src["toc"], src["ro"], src["temp"])
             for src in (rows[int(j)] for j in rng.integers(n_base, size=n_twins))]
    rows += [dict(rows[int(j)]) for j in rng.integers(len(rows), size=n_replicates)]
    rows += [_out_of_range(rng, noisy(*_draw_in_range(rng))) for _ in range(n_bad)]
    rows = [rows[int(j)] for j in rng.permutation(len(rows))]

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SAMPLES_HEADER)
    for i, row in enumerate(rows):
        writer.writerow([f"b{i:05d}", "synthetic", _fmt(row["toc"]), _fmt(row["ro"]),
                         _fmt(row["temp"]), _fmt(row["porosity"]), _fmt(row["pl"]),
                         _fmt(row["vl"])])
    return out.getvalue()


def heatflow_csv(rng: np.random.Generator, n: int) -> str:
    """Heat-flow points drawn as in scripts/make_fixtures.py.

    Section depths are uniform on 100-3200 m, so about an eighth of the
    points are shallower than the default 500 m cutoff.
    """
    rows = [",".join(HEATFLOW_HEADER)]
    for _ in range(n):
        lon = round(float(rng.uniform(*LON_RANGE)), 3)
        lat = round(float(rng.uniform(*LAT_RANGE)), 3)
        depth = round(float(rng.uniform(100.0, 3200.0)), 0)
        grad = round(float(rng.uniform(15.0, 35.0)), 2)
        rows.append(f"{lon!r},{lat!r},{depth!r},{grad!r}")
    return "\n".join(rows) + "\n"


def idw_queries(rng: np.random.Generator, usable: list[tuple[float, float]], n: int,
                on_sample: int) -> list[tuple[float, float]]:
    """``on_sample`` queries exactly at usable sample locations, the rest at random."""
    picks = rng.choice(len(usable), size=on_sample, replace=False)
    queries = [usable[int(j)] for j in picks]
    queries += [(round(float(rng.uniform(LON_RANGE[0] - 0.5, LON_RANGE[1] + 0.5)), 4),
                 round(float(rng.uniform(LAT_RANGE[0] - 0.5, LAT_RANGE[1] + 0.5)), 4))
                for _ in range(n - on_sample)]
    return [queries[int(j)] for j in rng.permutation(n)]


def reservoirs_conf(rng: np.random.Generator, n: int, extrapolate_frac: float) -> str:
    """Reservoir blocks that mix the temperature and pressure keys.

    Temperature comes from ``temp_c`` or from ``gradt_c_per_km`` (with an
    optional ``surface_temp_c``); pressure from ``pressure_mpa``, ``alpha``
    or the hydrostatic default. Gradient-derived temperatures stay below
    90 degC, so only the injected fraction leaves the fitted ranges.
    """
    lines = ["# Synthetic reservoirs for the gradient-map workload.", ""]
    for i in range(n):
        block = {
            "name": f"R{i:05d}",
            "depth_m": round(float(rng.uniform(500.0, 3000.0)), 0),
            "toc_pct": round(float(rng.uniform(1.2, 12.0)), 2),
            "ro_pct": round(float(rng.uniform(0.6, 3.8)), 2),
        }
        if rng.random() < 0.5:
            block["temp_c"] = round(float(rng.uniform(30.0, 88.0)), 2)
        else:
            block["gradt_c_per_km"] = round(float(rng.uniform(15.0, 22.0)), 2)
            if rng.random() < 0.3:
                block["surface_temp_c"] = round(float(rng.uniform(10.0, 20.0)), 2)
        choice = rng.random()
        if choice < 0.3:
            block["pressure_mpa"] = round(float(rng.uniform(5.0, 45.0)), 2)
        elif choice < 0.7:
            block["alpha"] = round(float(rng.uniform(0.9, 1.6)), 3)
        if rng.random() < extrapolate_frac:
            rule = int(rng.integers(3))
            if rule == 0:
                block.pop("gradt_c_per_km", None)
                block.pop("surface_temp_c", None)
                block["temp_c"] = round(float(rng.uniform(90.0, 130.0)), 2)
            elif rule == 1:
                block["ro_pct"] = round(float(rng.uniform(4.0, 5.0)), 2)
            else:
                block["toc_pct"] = round(float(rng.uniform(17.5, 25.0)), 2)
        lines += [f"{key}={value!r}" if not isinstance(value, str) else f"{key}={value}"
                  for key, value in block.items()]
        lines.append("")
    return "\n".join(lines)
