"""Independent output checks for the benchmark.

Every check re-derives the expected output from the generated input files
with plain NumPy and the formulas as documented, without calling the
package, and compares it with what the CLI wrote. Each check returns
``(name, ok, detail)``; failures are counted into ``checks_failed``.
"""

from __future__ import annotations

import csv
import filecmp
import math
from pathlib import Path

import numpy as np

import inputs

RTOL = 1e-9
OUTLIER_THRESHOLD = 0.85
EARTH_RADIUS_M = 6_371_000.0
EXACT_HIT_DISTANCE_M = 1.0

# Reference contents (m3/t) of the nine bundled reservoirs, as expected by
# the acceptance suite (tests/test_acceptance.py::TABLE_CONTENTS).
BUNDLED_CONTENTS = [1.34, 1.81, 0.92, 1.51, 1.39, 0.79, 1.24, 1.88, 0.52]
BUNDLED_TOLERANCE = 0.02

_INDEPENDENT = {"pl": ("temp", "toc", "ro"), "vl": ("temp", "toc")}
_FIELDS = ("toc", "ro", "temp", "porosity", "pl", "vl")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(got, expected, rtol: float = RTOL) -> bool:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return got.shape == expected.shape and bool(
        np.all(np.abs(got - expected) <= rtol * np.maximum(1.0, np.abs(expected))))


def _worst(got, expected) -> float:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        return math.inf
    return float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)), initial=0.0))


def _samples(path: Path) -> list[dict]:
    rows = []
    for raw in _read_csv(path):
        row = {"id": raw["id"], "reservoir": raw["reservoir"]}
        for name, column in zip(_FIELDS, inputs.SAMPLES_HEADER[2:]):
            row[name] = float(raw[column]) if raw[column].strip() else None
        rows.append(row)
    return rows


def _keeps(row: dict, kind: str) -> bool:
    """The documented cleaning rules of ``clean_pl`` and ``clean_vl``."""
    if kind == "pl":
        return (row["pl"] is not None and row["ro"] is not None and row["temp"] < 90.0
                and row["ro"] < 4.0 and 1.0 <= row["toc"] <= 17.0 and 1.5 < row["pl"] < 12.0)
    return (row["vl"] is not None and row["temp"] < 90.0
            and 1.0 <= row["toc"] <= 17.0 and row["vl"] > 1.0)


def expected_kept(path: Path, kind: str) -> list[dict]:
    seen, kept = set(), []
    for row in _samples(path):
        key = (row["reservoir"],) + tuple(row[name] for name in _FIELDS)
        if key in seen:
            continue
        seen.add(key)
        if _keeps(row, kind):
            kept.append(row)
    return kept


def knn_r_values(rows: list[dict], kind: str, k: int) -> tuple[np.ndarray, list[list[int]]]:
    """Brute-force weighted relative errors, ties broken by ascending index."""
    vals = np.array([[row[v] for v in _INDEPENDENT[kind]] for row in rows], dtype=float)
    q1, q3 = np.percentile(vals, [25.0, 75.0], axis=0)
    weights = 10.0 / (q3 - q1)
    dep = np.array([row[kind] for row in rows], dtype=float)
    r_values, neighbours = np.empty(len(rows)), []
    for i in range(len(rows)):
        d = np.sqrt((((vals - vals[i]) * weights) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")
        order = order[order != i][:k]
        dist = d[order]
        total = dist.sum()
        w = np.full(k, 1.0 / k) if k == 1 or total == 0.0 else (total - dist) / ((k - 1) * total)
        r_values[i] = float(w @ np.abs(dep[i] - dep[order])) / min(float(dep[order].mean()), dep[i])
        neighbours.append([int(j) for j in order])
    return r_values, neighbours


def _design(rows: list[dict], kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Regressors and log response of the geological-parameter models."""
    toc = np.array([row["toc"] for row in rows]) / inputs.TOC_NORM
    t = np.array([row["temp"] for row in rows]) / inputs.TEMP_NORM
    if kind == "pl":
        ro = np.array([row["ro"] for row in rows]) / inputs.RO_NORM
        middle = np.log(t / ro)
    else:
        middle = t ** 3
    x = np.column_stack([toc, middle, np.ones(len(rows))])
    return x, np.log(np.array([row[kind] for row in rows]))


def check_validate(out: Path, opts: dict) -> list[tuple[str, bool, str]]:
    kind, k = opts["kind"], opts["k"]
    tag = f"validate[{kind},k={k}]"
    kept = expected_kept(opts["input"], kind)
    got_kept = [row["id"] for row in _read_csv(out / "kept.csv")]
    results = [(f"{tag} kept ids", got_kept == [row["id"] for row in kept],
                f"{len(got_kept)} kept, oracle {len(kept)}")]

    r_values, neighbours = knn_r_values(kept, kind, k)
    report = _read_csv(out / "outliers.csv")
    ids = [row["id"] for row in kept]
    got_r = [float(row["R"]) for row in report]
    flags_ok = [row["flagged"] == str(bool(r > OUTLIER_THRESHOLD)).lower()
                for row, r in zip(report, r_values)]
    neigh_ok = [row["neighbor_ids"] == ";".join(ids[j] for j in nb)
                for row, nb in zip(report, neighbours)]
    results.append((f"{tag} K-NN R values, flags and neighbours",
                    _close(got_r, r_values) and all(flags_ok) and all(neigh_ok)
                    and len(report) == len(kept),
                    f"worst R deviation {_worst(got_r, r_values):.2e}"))

    inliers = [row for row, r in zip(kept, r_values) if not r > OUTLIER_THRESHOLD]
    x, y = _design(inliers, kind)
    coef = np.linalg.lstsq(x, y, rcond=None)[0]
    model = dict(line.split("=", 1) for line in (out / f"model_{kind}.txt").read_text().split())
    got_coef = [float(model[name]) for name in ("a", "b", "c")]
    results.append((f"{tag} coefficients vs lstsq", _close(got_coef, coef, 1e-8)
                    and int(model["n_fit"]) == len(inliers),
                    f"worst deviation {_worst(got_coef, coef):.2e}, n_fit {model['n_fit']}"))

    errors = []
    for i in range(len(inliers)):
        w = np.linalg.lstsq(np.delete(x, i, axis=0), np.delete(y, i), rcond=None)[0]
        actual = inliers[i][kind]
        errors.append((actual - math.exp(float(x[i] @ w))) / actual * 100.0)
    loo = _read_csv(out / "loo_errors.csv")
    got_errors = [float(row["error_pct"]) for row in loo]
    results.append((f"{tag} LOO vs delete-and-refit",
                    _close(got_errors, errors, 1e-8)
                    and [row["id"] for row in loo] == [row["id"] for row in inliers],
                    f"{len(loo)} folds, worst deviation {_worst(got_errors, errors):.2e}"))
    return results


# Test pools of the compare scenarios, as documented on ``validation.Scenario``.
_SCENARIO_POOLS = {
    "overall": lambda row: True,
    "high-t": lambda row: row["temp"] > 65.0,
    "high-toc": lambda row: row["toc"] > 5.0,
    "high-ro": lambda row: row["ro"] is not None and row["ro"] > 2.0,
}
_SCENARIO_LABELS = {"overall": "Test {}", "high-t": "HighT{}", "high-toc": "HighTOC{}",
                    "high-ro": "HighRo{}"}


def _compare_forms(rows: list[dict], kind: str) -> dict[str, tuple[np.ndarray, np.ndarray, object]]:
    """Model name -> (regressors, linear response, linear value -> natural units).

    The three forms ``compare`` scores for a kind, in the order it writes them.
    """
    toc = np.array([row["toc"] for row in rows])
    temp = np.array([row["temp"] for row in rows])
    dep = np.array([row[kind] for row in rows])
    ones = np.ones(len(rows))
    x_geo, y_geo = _design(rows, kind)
    if kind == "pl":
        return {
            "pl-invtemp": (np.column_stack([1.0 / temp, ones]), -np.log(dep), lambda v: np.exp(-v)),
            "pl-tocpow": (np.column_stack([np.log(toc), ones]), np.log(dep), np.exp),
            "pl-geo": (x_geo, y_geo, np.exp),
        }
    return {
        "vl-tocpow": (np.column_stack([np.log(toc), ones]), np.log(dep), np.exp),
        "vl-toclin": (np.column_stack([toc, ones]), dep, lambda v: v),
        "vl-geo": (x_geo, y_geo, np.exp),
    }


def split_test_rows(rows: list[dict], scenario: str, test_fraction: float, seed) -> list[int]:
    """Test-row indices of one repetition: a partial Fisher-Yates shuffle of the pool."""
    idx = [i for i, row in enumerate(rows) if _SCENARIO_POOLS[scenario](row)]
    n_test = max(1, int(round(test_fraction * len(rows))))
    rng = np.random.default_rng(seed)
    for i in range(n_test):
        j = int(rng.integers(i, len(idx)))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:n_test])


def check_compare(out: Path, opts: dict) -> list[tuple[str, bool, str]]:
    """Every repetition's split refit with lstsq per form, and the Average rows."""
    kind, reps, scenario = opts["kind"], opts["reps"], opts["scenario"]
    tag = f"compare[{kind},{scenario},seed={opts['seed']}]"
    kept = expected_kept(opts["input"], kind)
    r_values, _ = knn_r_values(kept, kind, opts["k"])
    inliers = [row for row, r in zip(kept, r_values) if not r > OUTLIER_THRESHOLD]
    forms = _compare_forms(inliers, kind)

    labels, expected = [], []
    for rep in range(1, reps + 1):
        test = split_test_rows(inliers, scenario, opts["test_fraction"], [opts["seed"], rep])
        train = np.ones(len(inliers), dtype=bool)
        train[test] = False
        for model, (x, y, natural) in forms.items():
            w = np.linalg.lstsq(x[train], y[train], rcond=None)[0]
            actual = np.array([inliers[i][kind] for i in test])
            error = float(np.mean(np.abs((actual - natural(x[test] @ w)) / actual))) * 100.0
            labels.append((_SCENARIO_LABELS[scenario].format(rep), model))
            expected.append(error)

    rows = _read_csv(out / "comparison.csv")
    body = [row for row in rows if row["test_label"] != "Average"]
    got = [float(row["error_pct"]) for row in body]
    results = [(f"{tag} repetition errors vs lstsq refit",
                [(row["test_label"], row["model"]) for row in body] == labels
                and _close(got, expected, 1e-8),
                f"{len(got)} rows, worst deviation {_worst(got, expected):.2e}")]

    averages = {row["model"]: float(row["error_pct"]) for row in rows
                if row["test_label"] == "Average"}
    ok = list(averages) == list(forms) and all(
        _close(averages[m], np.mean([e for (_, name), e in zip(labels, got) if name == m]), 1e-12)
        for m in averages)
    results.append((f"{tag} Average rows", ok, f"{len(averages)} models x {reps} reps"))
    return results


def _heatflow(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.array([[float(v) for v in row.values()] for row in _read_csv(path)])
    usable = rows[rows[:, 2] >= 500.0]
    return usable[:, 0], usable[:, 1], usable[:, 3]


def idw(samples, lon: float, lat: float, max_neighbors: int | None, power: float = 2.0) -> float:
    """Great-circle inverse-distance weighting; ties in distance go to the lower index."""
    s_lon, s_lat, grad = np.radians(samples[0]), np.radians(samples[1]), samples[2]
    q_lon, q_lat = math.radians(lon), math.radians(lat)
    a = (np.sin((s_lat - q_lat) / 2.0) ** 2
         + np.cos(q_lat) * np.cos(s_lat) * np.sin((s_lon - q_lon) / 2.0) ** 2)
    d = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))
    nearest = int(np.argmin(d))
    if d[nearest] < EXACT_HIT_DISTANCE_M:
        return float(grad[nearest])
    order = np.argsort(d, kind="stable")[:max_neighbors]
    w = d[order] ** -power
    return float(w @ grad[order] / w.sum())


def check_grid(out: Path, opts: dict, rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    samples = _heatflow(opts["input"])
    lon_min, lon_max, lat_min, lat_max, n_lon, n_lat = opts["grid"]
    rows = _read_csv(out / "idw.csv")
    picks = sorted(rng.choice(len(rows), size=min(200, len(rows)), replace=False))
    got, expected = [], []
    for index in picks:
        i, j = divmod(int(index), n_lon)
        lon = lon_min + (lon_max - lon_min) * j / (n_lon - 1)
        lat = lat_min + (lat_max - lat_min) * i / (n_lat - 1)
        row = rows[index]
        got += [float(row["lon_deg"]), float(row["lat_deg"]), float(row["gradt_c_per_km"])]
        expected += [lon, lat, idw(samples, lon, lat, opts["max_neighbors"])]
    cap = opts["max_neighbors"] or "all"
    return [(f"idw grid[{cap}] sampled nodes", len(rows) == n_lon * n_lat and _close(got, expected),
             f"{len(picks)} of {len(rows)} nodes, worst deviation {_worst(got, expected):.2e}")]


def check_queries(outs: list[tuple[Path, dict]]) -> list[tuple[str, bool, str]]:
    samples = _heatflow(outs[0][1]["input"])
    locations = {(float(lon), float(lat)): float(g) for lon, lat, g in zip(*samples)}
    got, expected, exact_ok, on_sample = [], [], True, 0
    for out, opts in outs:
        (row,) = _read_csv(out / "idw.csv")
        value = float(row["gradt_c_per_km"])
        got.append(value)
        expected.append(idw(samples, opts["lon"], opts["lat"], None))
        hit = locations.get((opts["lon"], opts["lat"]))
        if hit is not None:
            on_sample += 1
            exact_ok &= value == hit
    return [("idw queries vs oracle", _close(got, expected),
             f"{len(got)} queries, worst deviation {_worst(got, expected):.2e}"),
            ("idw on-sample queries exact", exact_ok and on_sample > 0, f"{on_sample} on-sample")]


def _reservoir_blocks(text: str) -> list[dict[str, float | str]]:
    blocks, current = [], {}
    for line in text.splitlines() + [""]:
        line = line.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
            current = {}
            continue
        key, value = line.split("=", 1)
        current[key] = value if key == "name" else float(value)
    return blocks


def expected_estimate(block: dict) -> tuple[float, str]:
    """Langmuir content and warning codes of one reservoir block."""
    depth, toc, ro = block["depth_m"], block["toc_pct"], block["ro_pct"]
    temp = block.get("temp_c")
    if temp is None:
        temp = block.get("surface_temp_c", 20.0) + depth / 1000.0 * block["gradt_c_per_km"]
    pressure = block.get("pressure_mpa", 9.8 * block.get("alpha", 1.0) * depth / 1000.0)
    pl, vl = inputs.reference_pl(toc, ro, temp), inputs.reference_vl(toc, temp)
    warnings = [code for code, bad in (("temp-extrapolation", not temp < 90.0),
                                       ("ro-extrapolation", not ro < 4.0),
                                       ("toc-extrapolation", not 1.0 <= toc <= 17.0)) if bad]
    return vl / (1.0 + pl / pressure), ";".join(warnings)


def check_estimate(out: Path, opts: dict) -> list[tuple[str, bool, str]]:
    blocks = _reservoir_blocks(opts["input"].read_text(encoding="utf-8"))
    rows = _read_csv(out / "estimates.csv")
    expected = [expected_estimate(block) for block in blocks]
    got = [float(row["adsorbed_m3t"]) for row in rows]
    warned = sum(1 for _, w in expected if w)
    ok = (len(rows) == len(blocks)
          and [row["reservoir"] for row in rows] == [block["name"] for block in blocks]
          and [row["warnings"] for row in rows] == [w for _, w in expected])
    return [("estimate contents and warnings", ok and _close(got, [c for c, _ in expected]),
             f"{len(rows)} reservoirs, {warned} warned, "
             f"worst deviation {_worst(got, [c for c, _ in expected]):.2e}")]


def check_bundled_reservoirs(out: Path) -> list[tuple[str, bool, str]]:
    got = [float(row["adsorbed_m3t"]) for row in _read_csv(out / "estimates.csv")]
    worst = max((abs(a - b) for a, b in zip(got, BUNDLED_CONTENTS)), default=math.inf)
    return [("bundled nine reservoirs", len(got) == 9 and worst <= BUNDLED_TOLERANCE,
             f"max deviation {worst:.4f} m3/t")]


def check_identical(first: Path, second: Path) -> list[tuple[str, bool, str]]:
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    other = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    match, mismatch, errors = filecmp.cmpfiles(first, second, [str(f) for f in files], shallow=False)
    return [(f"same seed, byte-identical outputs in {second.name}",
             files == other and not mismatch and not errors,
             f"{len(match)} files, {len(mismatch) + len(errors)} differ")]
