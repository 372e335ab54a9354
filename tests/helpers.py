"""Independent naive re-implementations used as oracles by the tests.

These deliberately avoid the package's solver and neighbour machinery so
that agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from shale_adsorb.dataset import (
    ABSOLUTE_ZERO_C,
    FIT_RANGES,
    RO_NORM_PCT,
    SAMPLES_CSV_COLUMNS,
    TEMP_NORM_C,
    TOC_NORM_PCT,
    SampleParseError,
    read_csv_table,
    read_key_value_blocks,
)
from shale_adsorb.estimator import (
    DEFAULT_SURFACE_TEMP_C,
    GRAVITY_N_PER_KG,
    WATER_DENSITY_T_PER_M3,
    EstimateRow,
    LangmuirParams,
    ReservoirSpec,
)
from shale_adsorb.geotemp import EARTH_RADIUS_M, EXACT_HIT_DISTANCE_M, HEATFLOW_CSV_COLUMNS
from shale_adsorb.outliers import BLOCK_ELEMENTS, DistanceWeights, nearest_first
from shale_adsorb.regression import CELSIUS_TO_KELVIN, PIVOT_RTOL, FittedModel, ModelKind, SingularSystemError
from shale_adsorb.validation import Scenario


class Row(NamedTuple):
    """One sample, in samples-CSV column order; ``None`` is an absent value."""

    id: str
    reservoir: str
    toc: float
    ro: float | None
    temp: float
    porosity: float | None = None
    pl: float | None = None
    vl: float | None = None


def sample_rows(samples) -> list[Row]:
    """Each sample of a ``SampleTable`` as a :class:`Row`, read from its zipped columns."""
    numbers = (getattr(samples, name).tolist() for name in Row._fields[2:])
    return [Row(*cells[:2], *(None if math.isnan(value) else value for value in cells[2:]))
            for cells in zip(samples.ids, samples.reservoirs, *numbers)]


def naive_check_sample(record: Row) -> None:
    """One sample's invariants, in the order and with the messages ``SampleTable`` gives them.

    An absent toc or temp is not finite (the table holds NaN there).
    """
    for name in ("toc", "temp", "ro", "porosity", "pl", "vl"):
        value = getattr(record, name)
        if value is None and name in ("toc", "temp"):
            value = math.nan
        if value is not None and not math.isfinite(value):
            raise ValueError(f"field {name} must be finite, got {value!r}")
    if record.toc <= 0:
        raise ValueError(f"field toc must be > 0, got {record.toc!r}")
    if record.temp <= ABSOLUTE_ZERO_C:
        raise ValueError(f"field temp must be > {ABSOLUTE_ZERO_C} degC, got {record.temp!r}")
    for name in ("ro", "pl", "vl"):
        value = getattr(record, name)
        if value is not None and value <= 0:
            raise ValueError(f"field {name} must be > 0 when present, got {value!r}")


def linear_first_failure(run, items, alone, errors=ValueError):
    """The batch rule by linear replay: ``run(items)``, failing as its first failing item fails alone.

    Only on failure, ``alone`` runs on each item in order. At the first that
    raises, ``run`` runs on the items before it, so a rule only ``run``
    checks, broken by an earlier item, wins over the item's own error. If no
    item fails alone, the batch's own error stands.
    """
    try:
        return run(items)
    except errors:
        for k, item in enumerate(items):
            try:
                alone(item)
            except errors:
                run(items[:k])
                raise
        raise


# Per-kind cleaning rules, one record at a time: (reason code, keep-test) in evaluation order.
NAIVE_CLEANING_RULES = {
    "pl": (
        ("missing-field", lambda rec: rec.pl is not None and rec.ro is not None),
        ("temp-range", lambda rec: rec.temp < 90.0),
        ("ro-range", lambda rec: rec.ro < 4.0),
        ("toc-range", lambda rec: 1.0 <= rec.toc <= 17.0),
        ("pl-range", lambda rec: 1.5 < rec.pl < 12.0),
    ),
    "vl": (
        ("missing-field", lambda rec: rec.vl is not None),
        ("temp-range", lambda rec: rec.temp < 90.0),
        ("toc-range", lambda rec: 1.0 <= rec.toc <= 17.0),
        ("vl-range", lambda rec: rec.vl > 1.0),
    ),
}


def naive_clean(records, kind) -> tuple[list[Row], list[tuple[Row, str]]]:
    """Kept records and (record, reason) rejections, each record rejected by the first rule it fails."""
    kept, rejected = [], []
    for rec in records:
        reason = next((reason for reason, keep in NAIVE_CLEANING_RULES[kind.value] if not keep(rec)), None)
        if reason is None:
            kept.append(rec)
        else:
            rejected.append((rec, reason))
    return kept, rejected


def naive_feature_row(record, spec) -> list[float]:
    """One record's regressor row in Python floats, the per-record recipes the column recipes replaced."""
    for name in spec.required_fields:
        if getattr(record, name) is None:
            raise ValueError(f"record {record.id} is missing field {name} required by {spec.kind.value}")
    kind = spec.kind
    if kind is ModelKind.PL_GEO:
        t_star, ro_star = record.temp / TEMP_NORM_C, record.ro / RO_NORM_PCT
        return [record.toc / TOC_NORM_PCT, math.log(t_star / ro_star), 1.0]
    if kind is ModelKind.VL_GEO:
        try:
            cube = (record.temp / TEMP_NORM_C) ** 3
        except OverflowError:
            raise ValueError(f"vl-geo regressor overflows: (temp / {TEMP_NORM_C}) ** 3 is out of range "
                             f"at temperature {record.temp!r} degC") from None
        return [record.toc / TOC_NORM_PCT, cube, 1.0]
    if kind is ModelKind.PL_INVTEMP:
        t = record.temp + CELSIUS_TO_KELVIN if spec.invtemp_kelvin else record.temp
        if t == 0.0:
            raise ValueError(f"record {record.id}: temperature of exactly 0 breaks the reciprocal model")
        return [1.0 / t, 1.0]
    if kind is ModelKind.VL_TOCLIN:
        return [record.toc, 1.0]
    return [math.log(record.toc), 1.0]


# Model kind -> (response, inverse): the dependent value's transform into the
# linear response the model regresses on, and back.
NAIVE_TRANSFORMS = {
    ModelKind.PL_GEO: (math.log, math.exp),
    ModelKind.VL_GEO: (math.log, math.exp),
    ModelKind.PL_INVTEMP: (lambda pl: -math.log(pl), lambda linear: math.exp(-linear)),
    ModelKind.PL_TOCPOW: (math.log, math.exp),
    ModelKind.VL_TOCPOW: (math.log, math.exp),
    ModelKind.VL_TOCLIN: (lambda vl: vl, lambda linear: linear),
}


def naive_response(record, spec) -> float:
    """One record's linear response: its dependent value through the kind's transform."""
    value = getattr(record, spec.dependent_var)
    if value is None:
        raise ValueError(f"record {record.id} is missing dependent variable {spec.dependent_var}")
    return NAIVE_TRANSFORMS[spec.kind][0](value)


def naive_inverse(spec, linear: float) -> float:
    """A linear response back in the dependent variable's units; an overflow names the kind and value."""
    try:
        return NAIVE_TRANSFORMS[spec.kind][1](linear)
    except OverflowError:
        raise ValueError(f"{spec.kind.value} prediction overflows: linear response {linear!r} "
                         f"is out of range for {spec.dependent_var}") from None


def naive_predict(model, record) -> float:
    """One record's prediction: ``np.dot`` of its naive regressor row and the coefficients, then the inverse."""
    linear = float(np.dot(naive_feature_row(record, model.spec), model.coefficients))
    return naive_inverse(model.spec, linear)


def naive_fit_range_warnings(toc, ro, temp) -> tuple[str, ...]:
    """``<field>-extrapolation`` for each range of ``dataset.FIT_RANGES`` the inputs lie outside, in its order."""
    values = {"toc": toc, "ro": ro, "temp": temp}
    return tuple(f"{field}-extrapolation" for field, in_range in FIT_RANGES if not in_range(values[field]))


def lstsq_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via the explicit Moore-Penrose pseudo-inverse."""
    return np.linalg.pinv(x) @ y


def naive_normal_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal equations solved by numpy's LAPACK wrapper."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def naive_pivot_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system Gaussian elimination with partial pivoting, the loop the stacked solver replaced."""
    a = a.copy()
    b = b.copy()
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        raise SingularSystemError("normal-equation matrix is zero")
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= PIVOT_RTOL * scale:
            raise SingularSystemError(
                f"normal equations are singular or ill-conditioned (pivot {pivot:.3e} "
                f"below {PIVOT_RTOL:.0e} of scale {scale:.3e})"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    w = np.zeros(n)
    for row in range(n - 1, -1, -1):
        w[row] = (b[row] - a[row, row + 1:] @ w[row + 1:]) / a[row, row]
    return w


# Scenario -> whether one record is in its test pool.
NAIVE_POOLS = {
    Scenario.OVERALL: lambda record: True,
    Scenario.HIGH_T: lambda record: record.temp > 65.0,
    Scenario.HIGH_TOC: lambda record: record.toc > 5.0,
    Scenario.HIGH_RO: lambda record: record.ro is not None and record.ro > 2.0,
}


def naive_split(records, scenario, test_fraction, seed):
    """Partial Fisher-Yates split with one scalar ``rng.integers(i, n)`` draw per swap."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    pool = [i for i, rec in enumerate(records) if NAIVE_POOLS[scenario](rec)]
    if not pool:
        raise ValueError(f"no records match scenario {scenario.value}")
    n_test = max(1, int(round(test_fraction * len(records))))
    if n_test > len(pool):
        raise ValueError(
            f"scenario {scenario.value} pool has {len(pool)} records, "
            f"fewer than the requested test size {n_test}"
        )
    rng = np.random.default_rng(seed)
    idx = list(pool)
    for i in range(n_test):
        j = int(rng.integers(i, len(idx)))
        idx[i], idx[j] = idx[j], idx[i]
    test_set = set(idx[:n_test])
    train = [rec for i, rec in enumerate(records) if i not in test_set]
    test = [rec for i, rec in enumerate(records) if i in test_set]
    return train, test


def naive_fit(records, spec) -> FittedModel:
    """Design rows built per record, normal equations solved by :func:`naive_pivot_solve`."""
    x = np.array([naive_feature_row(rec, spec) for rec in records], dtype=float).reshape(len(records), -1)
    y = np.array([naive_response(rec, spec) for rec in records], dtype=float)
    if len(records) < spec.n_coefficients:
        raise SingularSystemError(f"fewer records ({len(records)}) than coefficients ({spec.n_coefficients})")
    w = naive_pivot_solve(x.T @ x, x.T @ y)
    return FittedModel(spec=spec, coefficients=tuple(float(v) for v in w), n_fit=len(records))


def naive_compare(records, specs, scenario, test_fraction, repetitions, seed):
    """Per-record model comparison rows: split, fit, predict, and left-to-right ``+=`` sums.

    One sum per test record and one per ``Average`` row.
    """
    rows = []
    per_spec_errors = {spec.kind.value: [] for spec in specs}
    for rep in range(1, repetitions + 1):
        train, test = naive_split(records, scenario, test_fraction, seed=[seed, rep])
        label = scenario.row_label(rep)
        for spec in specs:
            model = naive_fit(train, spec)
            total = 0.0
            for rec in test:
                actual = getattr(rec, spec.dependent_var)
                total += abs((actual - naive_predict(model, rec)) / actual)
            error = total / len(test) * 100.0
            rows.append((label, spec.kind.value, error))
            per_spec_errors[spec.kind.value].append(error)
    for spec in specs:
        total = 0.0
        for error in per_spec_errors[spec.kind.value]:
            total += error
        rows.append(("Average", spec.kind.value, total / repetitions))
    return rows


def naive_loo_errors(records, spec) -> list[float]:
    """Literal delete-row-and-refit leave-one-out, percent signed errors."""
    x = np.array([naive_feature_row(rec, spec) for rec in records], dtype=float)
    y = np.array([naive_response(rec, spec) for rec in records], dtype=float)
    errors = []
    for i in range(len(records)):
        xi = np.delete(x, i, axis=0)
        yi = np.delete(y, i)
        w = naive_normal_solve(xi, yi)
        predicted = naive_inverse(spec, float(x[i] @ w))
        actual = getattr(records[i], spec.dependent_var)
        errors.append((actual - predicted) / actual * 100.0)
    return errors


def naive_neighbours(records, variables, k) -> list[tuple[list[int], np.ndarray]]:
    """Brute-force K-NN: each record's k neighbours and their distances.

    Neighbours come in stable ``argsort`` order of the distance, so ties
    go to the lower record index.
    """
    vals = np.array([[getattr(r, v) for v in variables] for r in records], dtype=float)
    q1 = np.percentile(vals, 25, axis=0)
    q3 = np.percentile(vals, 75, axis=0)
    w = 10.0 / (q3 - q1)
    out = []
    for i in range(len(records)):
        d = np.sqrt((((vals - vals[i]) * w) ** 2).sum(axis=1))
        order = [int(j) for j in np.argsort(d, kind="stable") if j != i][:k]
        out.append((order, d[order]))
    return out


def naive_r_values(records, variables, dependent, k) -> np.ndarray:
    """Brute-force weighted relative errors for the K-NN outlier screen."""
    dep = np.array([getattr(r, dependent) for r in records], dtype=float)
    out = []
    for i, (order, dist) in enumerate(naive_neighbours(records, variables, k)):
        total = dist.sum()
        if k == 1 or total == 0.0:
            wr = np.full(k, 1.0 / k)
        else:
            wr = (total - dist) / ((k - 1) * total)
        numerator = float(wr @ np.abs(dep[i] - dep[order]))
        denominator = min(float(dep[order].mean()), float(dep[i]))
        out.append(numerator / denominator)
    return np.array(out)


def naive_relative_error(index, neighbors, dists, deps, dependent) -> tuple[float, list[float]]:
    """R value and neighbour weights of one record, the per-record scorer the columnar one replaced.

    ``neighbors`` are the record's neighbour indices nearest first and
    ``dists`` their distances; ``deps`` holds every record's dependent value.
    """
    k = len(neighbors)
    dists = np.asarray(dists, dtype=float)
    total = float(dists.sum())
    if k == 1 or total == 0.0:
        w = np.full(k, 1.0 / k)
    else:
        w = (total - dists) / ((k - 1) * total)
    dep_i = deps[index]
    dep_list = [deps[j] for j in neighbors]
    if dep_i is None or any(v is None for v in dep_list):
        raise ValueError(f"dependent variable {dependent} missing from record or neighbours")
    dep_n = np.array(dep_list, dtype=float)
    numerator = float(w @ np.abs(dep_i - dep_n))
    denominator = min(float(dep_n.mean()), dep_i)
    return numerator / denominator, w.tolist()


def _blocked_nearest(rows: np.ndarray, columns: list[tuple[float, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest records to each record in ``rows``.

    Builds the (rows x n) distance block variable by variable, excludes each
    row's own record, and orders neighbours by (distance, index) with
    :func:`nearest_first`.
    """
    m = len(rows)
    acc = np.zeros((m, len(columns[0][1])))
    for w, col in columns:
        d = col[rows, None] - col
        d *= w
        d *= d
        acc += d
    dist = np.sqrt(acc, out=acc)
    dist[np.arange(m), rows] = np.inf
    return nearest_first(dist, k)


def blocked_neighbours(columns: list[tuple[float, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every record's k nearest by an all-pairs search, the blocked loop the grid search replaced.

    ``columns`` are (weight, values) per distance variable, as
    ``outliers._distance_columns`` gives them; blocks of rows hold about
    ``BLOCK_ELEMENTS`` distances. Neighbours are picked by the package's
    ``nearest_first``, which ``test_nearest_first_is_a_stable_argsort``
    checks against a stable ``argsort``.
    """
    n = len(columns[0][1])
    step = max(1, BLOCK_ELEMENTS // n)
    blocks = [_blocked_nearest(np.arange(start, min(start + step, n)), columns, k) for start in range(0, n, step)]
    return np.concatenate([block_idx for block_idx, _ in blocks]), np.concatenate([block_dist for _, block_dist in blocks])


def statistical_distance(a: Row, b: Row, weights: DistanceWeights) -> float:
    """Weighted Euclidean distance between two records over the active variables.

    The per-pair form of the outlier screen's distance kernel, ``outliers._nearest``.
    Squares are taken as ``d * d``, which is correctly rounded (``d ** 2``
    goes through libm ``pow``), so this agrees bit for bit with the kernel.
    """
    total = 0.0
    for var, w in weights.by_variable.items():
        va = getattr(a, var)
        vb = getattr(b, var)
        if va is None or vb is None:
            raise ValueError(f"distance variable {var} missing from record {a.id if va is None else b.id}")
        d = w * (va - vb)
        total += d * d
    return math.sqrt(total)


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat points, the per-pair form of the IDW kernel."""
    lon1, lat1, lon2, lat2 = map(math.radians, (lon1, lat1, lon2, lat2))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def naive_idw(samples, lon, lat, power, max_neighbors, distance=haversine_m) -> float:
    """Per-pair inverse-distance weighting, the loop the IDW kernel replaced.

    ``distance`` (``haversine_m``) per sample, a stable sort (ties by
    ascending index), the exact hit from the first sample in that order,
    then one weight ``d ** -power`` and one in-order sum term per neighbour.
    """
    grads = samples.grad_t.tolist()
    distances = [distance(lon, lat, s_lon, s_lat)
                 for s_lon, s_lat in zip(samples.lon.tolist(), samples.lat.tolist())]
    order = sorted(range(len(samples)), key=distances.__getitem__)
    if distances[order[0]] < EXACT_HIT_DISTANCE_M:
        return grads[order[0]]
    numerator = 0.0
    denominator = 0.0
    for i in order[:max_neighbors]:
        w = distances[i] ** -power
        numerator += w * grads[i]
        denominator += w
    return numerator / denominator


def naive_estimate(spec, pl_model, vl_model) -> EstimateRow:
    """One reservoir at a time, the loop the batched estimate replaced.

    Resolve temperature and pressure, check the pressure is positive and
    finite, validate a query record, predict each model with
    :func:`naive_predict`, validate the Langmuir parameters and evaluate the
    isotherm. A failure is a ``ValueError`` prefixed ``reservoir {name}: ``.
    """
    if spec.temp_override is not None:
        temp = spec.temp_override
    else:
        temp = spec.surface_temp + spec.depth / 1000.0 * spec.grad_t
    if spec.pressure_override is not None:
        pressure = spec.pressure_override
    else:
        pressure = GRAVITY_N_PER_KG * spec.alpha * WATER_DENSITY_T_PER_M3 * spec.depth / 1000.0
    try:
        if not (pressure > 0 and math.isfinite(pressure)):
            raise ValueError(f"pressure must be positive and finite, got {pressure}")
        query = Row("query", "", spec.toc, spec.ro, temp)
        naive_check_sample(query)
        params = LangmuirParams(pl=naive_predict(pl_model, query), vl=naive_predict(vl_model, query))
    except ValueError as exc:
        raise ValueError(f"reservoir {spec.name}: {exc}") from exc
    return EstimateRow(
        reservoir=spec.name, depth_m=spec.depth, toc_pct=spec.toc, ro_pct=spec.ro,
        temp_c=temp, pressure_mpa=pressure, adsorbed_m3t=params.vl / (1.0 + params.pl / pressure),
        warnings=naive_fit_range_warnings(spec.toc, spec.ro, temp),
    )


_RESERVOIR_KEYS = {"name", "depth_m", "toc_pct", "ro_pct", "alpha",
                   "surface_temp_c", "gradt_c_per_km", "temp_c", "pressure_mpa"}


def naive_parse_reservoirs(text) -> list[ReservoirSpec]:
    """One block at a time, the parser the columnar ``parse_reservoirs`` replaced.

    Each block is checked as the reader yields it, so a bad block closed
    before a malformed line fails first. Per block: the name, the required
    keys, each number in key order, then the invariants in the order
    ``ReservoirTable`` checks them, each failure raising that block's
    message, which names the config key. A gradient, temperature or
    pressure that reads as NaN is not a number, since NaN marks the key
    absent.
    """
    specs = []
    for block in read_key_value_blocks(text, "reservoir config", keys=_RESERVOIR_KEYS, block_key="name"):
        if "name" not in block:
            raise ValueError("reservoir config block is missing the name key")
        name = block["name"]

        def number(key, default=None):
            if key not in block:
                return default
            try:
                if "_" in block[key]:  # float's digit grouping
                    raise ValueError
                value = float(block[key])
                if math.isnan(value) and key in ("gradt_c_per_km", "temp_c", "pressure_mpa"):
                    raise ValueError
                return value
            except ValueError:
                raise ValueError(f"reservoir {name}: {key} is not a number: {block[key]!r}") from None

        for required in ("depth_m", "toc_pct", "ro_pct"):
            if required not in block:
                raise ValueError(f"reservoir {name}: missing required key {required}")
        fields = dict(name=name, depth=number("depth_m"), toc=number("toc_pct"), ro=number("ro_pct"),
                      alpha=number("alpha", 1.0), surface_temp=number("surface_temp_c", DEFAULT_SURFACE_TEMP_C),
                      grad_t=number("gradt_c_per_km"), temp_override=number("temp_c"),
                      pressure_override=number("pressure_mpa"))
        if not name:
            raise ValueError("reservoir name must not be empty")
        if not (math.isfinite(fields["depth"]) and fields["depth"] >= 0):
            raise ValueError(f"reservoir {name}: depth_m must be >= 0, got {fields['depth']!r}")
        for field, key in (("alpha", "alpha"), ("toc", "toc_pct"), ("ro", "ro_pct")):
            if not (math.isfinite(fields[field]) and fields[field] > 0):
                raise ValueError(f"reservoir {name}: {key} must be > 0, got {fields[field]!r}")
        if not math.isfinite(fields["surface_temp"]):
            raise ValueError(f"reservoir {name}: surface_temp_c must be finite, got {fields['surface_temp']!r}")
        for field, key in (("grad_t", "gradt_c_per_km"), ("temp_override", "temp_c"),
                           ("pressure_override", "pressure_mpa")):
            if fields[field] is not None and math.isinf(fields[field]):
                raise ValueError(f"reservoir {name}: {key} must be finite, got {fields[field]!r}")
        if fields["grad_t"] is None and fields["temp_override"] is None:
            raise ValueError(f"reservoir {name}: needs gradt_c_per_km or temp_c to resolve temperature")
        specs.append(ReservoirSpec(**fields))
    return specs


def naive_parse_heatflow(text) -> list[list[float]]:
    """One row at a time, the error order the columnar ``parse_heatflow`` must keep.

    The rows come from ``read_csv_table``, ``csv.reader`` row by row, never
    from the whole-text split of plain input. Per row: each cell in column
    order (empty, then not a number), then the invariants in the order
    ``HeatFlowTable`` checks them, each failure raising that row's
    ``SampleParseError``. Returns the four columns.
    """
    columns = [[], [], [], []]
    for row, cells in read_csv_table(text, HEATFLOW_CSV_COLUMNS, "heat-flow"):
        values = []
        for column, raw in zip(HEATFLOW_CSV_COLUMNS, cells):
            if raw.strip() == "":
                raise SampleParseError(row, column, "required numeric field is empty")
            try:
                if "_" in raw:  # float's digit grouping
                    raise ValueError
                values.append(float(raw.strip()))
            except ValueError:
                raise SampleParseError(row, column, f"not a number: {raw!r}") from None
        lon, lat, depth, grad = values
        if not -180.0 <= lon <= 180.0:
            raise SampleParseError(row, "record", f"longitude out of range: {lon!r}")
        if not -90.0 <= lat <= 90.0:
            raise SampleParseError(row, "record", f"latitude out of range: {lat!r}")
        if not math.isfinite(grad):
            raise SampleParseError(row, "record", f"gradient must be finite, got {grad!r}")
        if not math.isfinite(depth):
            raise SampleParseError(row, "record", f"section depth must be finite, got {depth!r}")
        for column, value in zip(columns, values):
            column.append(value)
    return columns


def naive_parse_samples(text) -> list[list]:
    """One row at a time, the error order the columnar ``parse_samples`` must keep.

    The rows come from ``read_csv_table``, ``csv.reader`` row by row, never
    from the whole-text split of plain input. Per row: the id (empty, then
    used by an earlier row), each number cell in column order (empty where
    required, then not a number), then the invariants of
    :func:`naive_check_sample`, each failure raising that row's
    ``SampleParseError``. Returns the eight columns: ids, reservoirs, and
    the numbers, NaN where absent.
    """
    columns = [[] for _ in SAMPLES_CSV_COLUMNS]
    first_row = {}
    for row, cells in read_csv_table(text, SAMPLES_CSV_COLUMNS, "samples"):
        rec_id = cells[0].strip()
        if rec_id == "":
            raise SampleParseError(row, "id", "id must not be empty")
        if rec_id in first_row:
            raise SampleParseError(row, "id", f"duplicate id {rec_id!r}, first used in row {first_row[rec_id]}")
        first_row[rec_id] = row
        values = []
        for column, raw in zip(SAMPLES_CSV_COLUMNS[2:], cells[2:]):
            if raw.strip() == "":
                if column in ("toc_pct", "temp_c"):
                    raise SampleParseError(row, column, "required numeric field is empty")
                values.append(None)
                continue
            try:
                if "_" in raw:  # float's digit grouping
                    raise ValueError
                values.append(float(raw.strip()))
            except ValueError:
                raise SampleParseError(row, column, f"not a number: {raw!r}") from None
        record = Row(rec_id, cells[1].strip(), *values)
        try:
            naive_check_sample(record)
        except ValueError as exc:
            raise SampleParseError(row, "record", str(exc)) from None
        for column, value in zip(columns, record):
            column.append(math.nan if value is None else value)
    return columns
