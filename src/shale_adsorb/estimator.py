"""Adsorbed-gas estimation: the Langmuir isotherm composed with the fitted models.

Reservoir temperature and pressure are either supplied directly or derived
from depth: a linear geotherm above a surface temperature, and hydrostatic
pressure scaled by a pressure coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ABSOLUTE_ZERO_C, FIT_RANGES, SampleRecord, read_key_value_blocks, write_csv
from .regression import FittedModel, ModelKind, ModelSpec, predict_rows

WATER_DENSITY_T_PER_M3 = 1.0
GRAVITY_N_PER_KG = 9.8
DEFAULT_SURFACE_TEMP_C = 20.0

# Reference coefficient sets for the two geological-parameter models, fitted
# upstream on 91 pressure records and 184 volume records. Used by the CLI's
# --paper-coefficients mode so estimates can run without local fitting data.
REFERENCE_PL_COEFFICIENTS = (-0.136, 0.715, 1.666)
REFERENCE_VL_COEFFICIENTS = (0.421, -0.067, 0.563)
REFERENCE_PL_N_FIT = 91
REFERENCE_VL_N_FIT = 184

ESTIMATES_CSV_COLUMNS = (
    "reservoir", "depth_m", "toc_pct", "ro_pct", "temp_c",
    "pressure_mpa", "adsorbed_m3t", "warnings",
)


def reference_models() -> tuple[FittedModel, FittedModel]:
    """The two geological-parameter models with the reference coefficients."""
    pl = FittedModel(ModelSpec(ModelKind.PL_GEO), REFERENCE_PL_COEFFICIENTS, REFERENCE_PL_N_FIT)
    vl = FittedModel(ModelSpec(ModelKind.VL_GEO), REFERENCE_VL_COEFFICIENTS, REFERENCE_VL_N_FIT)
    return pl, vl


@dataclass(frozen=True)
class LangmuirParams:
    """Langmuir pressure (MPa) and volume (m3/t) of an adsorption isotherm."""

    pl: float
    vl: float

    def __post_init__(self):
        if not (math.isfinite(self.pl) and self.pl > 0):
            raise ValueError(f"pl must be positive and finite, got {self.pl!r}")
        if not (math.isfinite(self.vl) and self.vl > 0):
            raise ValueError(f"vl must be positive and finite, got {self.vl!r}")


def langmuir_volume(pressure: float, params: LangmuirParams) -> float:
    """Adsorbed volume (m3/t) at a pressure (MPa) on a Langmuir isotherm.

    Evaluated as vl / (1 + pl/pressure) so the half-saturation point
    pressure == pl yields exactly vl / 2.
    """
    if pressure < 0:
        raise ValueError(f"pressure must be nonnegative, got {pressure}")
    if pressure == 0.0:
        return 0.0
    return params.vl / (1.0 + params.pl / pressure)


@dataclass(frozen=True)
class ReservoirSpec:
    """A named reservoir and the inputs needed to estimate its adsorbed gas.

    Temperature comes from ``temp_override`` when set, otherwise from the
    geothermal gradient; pressure comes from ``pressure_override`` when set,
    otherwise from depth and the pressure coefficient ``alpha``.
    """

    name: str
    depth: float                        # m, increasing downward
    toc: float                          # %
    ro: float                           # %
    alpha: float = 1.0                  # reservoir / hydrostatic pressure ratio
    surface_temp: float = DEFAULT_SURFACE_TEMP_C   # degC
    grad_t: float | None = None         # degC per km
    temp_override: float | None = None  # degC
    pressure_override: float | None = None  # MPa

    def __post_init__(self):
        if not self.name:
            raise ValueError("reservoir name must not be empty")
        if not (math.isfinite(self.depth) and self.depth >= 0):
            raise ValueError(f"reservoir {self.name}: depth must be >= 0, got {self.depth!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"reservoir {self.name}: alpha must be > 0, got {self.alpha!r}")
        if not (math.isfinite(self.toc) and self.toc > 0):
            raise ValueError(f"reservoir {self.name}: toc must be > 0, got {self.toc!r}")
        if not (math.isfinite(self.ro) and self.ro > 0):
            raise ValueError(f"reservoir {self.name}: ro must be > 0, got {self.ro!r}")
        if self.grad_t is None and self.temp_override is None:
            raise ValueError(
                f"reservoir {self.name}: needs gradt_c_per_km or temp_c to resolve temperature"
            )


def reservoir_temperature(spec: ReservoirSpec) -> float:
    """Reservoir temperature (degC): override, or surface + gradient * depth."""
    if spec.temp_override is not None:
        return spec.temp_override
    if spec.grad_t is None:
        raise ValueError(f"reservoir {spec.name}: no temperature source available")
    return spec.surface_temp + spec.depth / 1000.0 * spec.grad_t


def reservoir_pressure(spec: ReservoirSpec) -> float:
    """Reservoir pressure (MPa): override, or alpha * hydrostatic column."""
    if spec.pressure_override is not None:
        return spec.pressure_override
    return GRAVITY_N_PER_KG * spec.alpha * WATER_DENSITY_T_PER_M3 * spec.depth / 1000.0


class _Query(NamedTuple):
    """The sample-record fields a model's regressor row reads."""

    id: str
    toc: float
    temp: float
    ro: float


def _predictions(model: FittedModel, queries: list[_Query]) -> np.ndarray:
    """``model.predict`` of each query: its regressor rows, one ``vecdot`` and the inverse per element."""
    spec = model.spec
    x = np.array([spec.feature_row(query) for query in queries], dtype=float)
    return predict_rows(spec, x.reshape(len(queries), spec.n_coefficients), np.array(model.coefficients))


def _contents(
    toc: Sequence[float],
    ro: Sequence[float],
    temp: Sequence[float],
    pressure: Sequence[float],
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> list[float]:
    """Adsorbed content (m3/t) of each row of inputs, each step run on all rows at once.

    The steps are those of one row: check the pressure, check the query
    record (``SampleRecord``'s invariants, and its constructor's message),
    predict pl then vl, check them as :class:`LangmuirParams` does, and
    evaluate the isotherm. A failing step raises for the first row it
    rejects, which need not be the first row that fails: an earlier row may
    fail a later step.
    """
    p = np.array(pressure, dtype=float)
    bad = np.flatnonzero(~(p > 0))
    if bad.size:
        raise ValueError(f"pressure must be positive, got {pressure[bad[0]]}")
    t, c, r = (np.array(column, dtype=float) for column in (temp, toc, ro))
    bad = np.flatnonzero(~(np.isfinite(t) & (t > ABSOLUTE_ZERO_C) & np.isfinite(c) & (c > 0)
                           & np.isfinite(r) & (r > 0)))
    if bad.size:
        i = bad[0]
        SampleRecord(id="query", reservoir="", toc=toc[i], temp=temp[i], ro=ro[i])  # raises
    queries = list(map(_Query, repeat("query"), toc, temp, ro))
    # NumPy warns where the Python float arithmetic it replaces does not.
    with np.errstate(all="ignore"):
        pl = _predictions(pl_model, queries)
        vl = _predictions(vl_model, queries)
        bad = np.flatnonzero(~(np.isfinite(pl) & (pl > 0) & np.isfinite(vl) & (vl > 0)))
        if bad.size:
            LangmuirParams(pl=pl[bad[0]].item(), vl=vl[bad[0]].item())  # raises
        # langmuir_volume at a positive pressure
        return (vl / (1.0 + pl / p)).tolist()


def estimate_adsorbed_gas(
    toc: float,
    ro: float,
    temp: float,
    pressure: float,
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> float:
    """Adsorbed gas content (m3/t) from geological parameters alone.

    The two fitted models supply the Langmuir parameters, then the isotherm
    is evaluated at the reservoir pressure, which must be positive.
    """
    return _contents([toc], [ro], [temp], [pressure], pl_model, vl_model)[0]


@dataclass(frozen=True)
class EstimateRow:
    """One reservoir's resolved inputs and estimated adsorbed content."""

    reservoir: str
    depth_m: float
    toc_pct: float
    ro_pct: float
    temp_c: float
    pressure_mpa: float
    adsorbed_m3t: float
    warnings: tuple[str, ...]


def fit_range_warnings(toc: float, ro: float, temp: float) -> tuple[str, ...]:
    """``<field>-extrapolation`` codes for inputs outside ``dataset.FIT_RANGES``.

    Estimates outside those ranges still run; the codes tag them.
    """
    values = {"temp": temp, "ro": ro, "toc": toc}
    return tuple(f"{field}-extrapolation" for field, in_range in FIT_RANGES if not in_range(values[field]))


def estimate_reservoirs(
    specs: Sequence[ReservoirSpec],
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> list[EstimateRow]:
    """Resolve temperature and pressure for each reservoir and estimate its content, as one batch.

    Each row equals the estimate of that reservoir alone. If any reservoir
    fails, the error is the one the first failing reservoir raises alone.
    """
    temps = [reservoir_temperature(spec) for spec in specs]
    pressures = [reservoir_pressure(spec) for spec in specs]
    columns = ([spec.toc for spec in specs], [spec.ro for spec in specs], temps, pressures)
    try:
        contents = _contents(*columns, pl_model, vl_model)
    except (ValueError, OverflowError):
        contents = None
    if contents is None:
        # Only on failure: one reservoir at a time, up to the first that raises.
        for row in zip(*columns):
            _contents(*([value] for value in row), pl_model, vl_model)
    return [
        EstimateRow(
            reservoir=spec.name,
            depth_m=spec.depth,
            toc_pct=spec.toc,
            ro_pct=spec.ro,
            temp_c=temp,
            pressure_mpa=pressure,
            adsorbed_m3t=content,
            warnings=fit_range_warnings(spec.toc, spec.ro, temp),
        )
        for spec, temp, pressure, content in zip(specs, temps, pressures, contents)
    ]


def estimate_reservoir(
    spec: ReservoirSpec,
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> EstimateRow:
    """Resolve temperature and pressure for one reservoir and estimate content."""
    return estimate_reservoirs([spec], pl_model, vl_model)[0]


def estimates_to_csv(rows: Sequence[EstimateRow]) -> str:
    return write_csv(ESTIMATES_CSV_COLUMNS, ([
        row.reservoir, repr(row.depth_m), repr(row.toc_pct), repr(row.ro_pct),
        repr(row.temp_c), repr(row.pressure_mpa), repr(row.adsorbed_m3t),
        ";".join(row.warnings),
    ] for row in rows))


_RESERVOIR_KEYS = {
    "name", "depth_m", "toc_pct", "ro_pct", "alpha",
    "surface_temp_c", "gradt_c_per_km", "temp_c", "pressure_mpa",
}


def parse_reservoirs(text: str) -> list[ReservoirSpec]:
    """Parse a key-value reservoir config: one block per reservoir.

    Blocks are separated by blank lines (a repeated ``name=`` also starts a
    new block); ``#`` starts a comment line. Keys: name, depth_m, toc_pct,
    ro_pct, alpha, surface_temp_c, gradt_c_per_km, temp_c, pressure_mpa.
    """
    blocks = read_key_value_blocks(text, "reservoir config", keys=_RESERVOIR_KEYS, block_key="name")

    specs = []
    for block in blocks:
        if "name" not in block:
            raise ValueError("reservoir config block is missing the name key")
        name = block["name"]

        def number(key: str, default: float | None = None) -> float | None:
            if key not in block:
                return default
            try:
                return float(block[key])
            except ValueError:
                raise ValueError(f"reservoir {name}: {key} is not a number: {block[key]!r}") from None

        for required in ("depth_m", "toc_pct", "ro_pct"):
            if required not in block:
                raise ValueError(f"reservoir {name}: missing required key {required}")
        specs.append(ReservoirSpec(
            name=name,
            depth=number("depth_m"),
            toc=number("toc_pct"),
            ro=number("ro_pct"),
            alpha=number("alpha", 1.0),
            surface_temp=number("surface_temp_c", DEFAULT_SURFACE_TEMP_C),
            grad_t=number("gradt_c_per_km"),
            temp_override=number("temp_c"),
            pressure_override=number("pressure_mpa"),
        ))
    return specs
