"""Adsorbed-gas estimation: the Langmuir isotherm composed with the fitted models.

Reservoir temperature and pressure are either supplied directly or derived
from depth: a linear geotherm above a surface temperature, and hydrostatic
pressure scaled by a pressure coefficient.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from itertools import compress, islice
from typing import Iterable, Sequence

import numpy as np

from .dataset import (ABSENT_TEXT, FIT_RANGES, ColumnTable, SampleTable, first_failure, parse_number,
                      read_key_value_blocks, read_whole, write_csv)
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
    otherwise from depth and the pressure coefficient ``alpha``. An optional
    input is set when it is neither ``None`` nor NaN: NaN marks it absent, as
    in every column table. The invariants are those of :class:`ReservoirTable`.
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
        ReservoirTable.from_specs([self])  # raises for a broken invariant


def _reservoir_checks(names: dict[str, str]) -> tuple:
    """The row invariants of :class:`ReservoirTable` in order; a message names field ``f`` as ``names.get(f, f)``."""
    def name(field: str) -> str:
        return names.get(field, field)

    return (
        (None, lambda table: np.fromiter(map(bool, table.names), bool, len(table)), "reservoir name must not be empty"),
        ("depth", lambda depth: np.isfinite(depth) & (depth >= 0),
         f"reservoir {{name}}: {name('depth')} must be >= 0, got {{value!r}}"),
        *((field, lambda column: np.isfinite(column) & (column > 0),
           f"reservoir {{name}}: {name(field)} must be > 0, got {{value!r}}") for field in ("alpha", "toc", "ro")),
        *((field, np.isfinite if field == "surface_temp" else lambda column: ~np.isinf(column),
           f"reservoir {{name}}: {name(field)} must be finite, got {{value!r}}")
          for field in ("surface_temp", "grad_t", "temp_override", "pressure_override")),
        (None, lambda table: ~(np.isnan(table.grad_t) & np.isnan(table.temp_override)),
         "reservoir {name}: needs gradt_c_per_km or temp_c to resolve temperature"),
    )


@dataclass(frozen=True, eq=False)
class ReservoirTable(ColumnTable):
    """Reservoirs as a :class:`~shale_adsorb.dataset.ColumnTable`, in the units of :class:`ReservoirSpec`.

    NaN marks an absent optional input (gradient, temperature and pressure
    override), as it marks an absent sample value. Each reservoir is checked
    in order: name, depth, alpha, toc, ro, a finite surface temperature, each
    optional input finite when present, then a temperature source (gradient
    or temperature override); a failure raises a ``ValueError``.
    """

    names: tuple[str, ...]
    depth: np.ndarray
    toc: np.ndarray
    ro: np.ndarray
    alpha: np.ndarray
    surface_temp: np.ndarray
    grad_t: np.ndarray
    temp_override: np.ndarray
    pressure_override: np.ndarray

    label = "reservoir"
    checks = _reservoir_checks({})

    @classmethod
    def from_specs(cls, specs: Sequence[ReservoirSpec]) -> "ReservoirTable":
        """The table of the given reservoirs, in order; a ``None`` input is NaN in its column."""
        return cls(*([getattr(spec, field.name) for spec in specs] for field in fields(ReservoirSpec)))

    def temperatures(self) -> np.ndarray:
        """Reservoir temperatures (degC): the override where present, else surface + gradient * depth."""
        with np.errstate(all="ignore"):
            derived = self.surface_temp + self.depth / 1000.0 * self.grad_t
        return np.where(np.isnan(self.temp_override), derived, self.temp_override)

    def pressures(self) -> np.ndarray:
        """Reservoir pressures (MPa): the override where present, else alpha * hydrostatic column."""
        with np.errstate(all="ignore"):
            derived = GRAVITY_N_PER_KG * self.alpha * WATER_DENSITY_T_PER_M3 * self.depth / 1000.0
        return np.where(np.isnan(self.pressure_override), derived, self.pressure_override)


def _contents(
    toc: np.ndarray,
    ro: np.ndarray,
    temp: np.ndarray,
    pressure: np.ndarray,
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> np.ndarray:
    """Adsorbed content (m3/t) of each row of float64 inputs, each step run on all rows at once.

    The steps are those of one row: check the pressure is positive and
    finite, check the query samples (``SampleTable``'s invariants, with ro
    present), predict pl then vl by ``predict_rows``, check them as
    :class:`LangmuirParams` does, and evaluate the isotherm. It does not
    localise: a failing step raises for its first rejected row, not always
    the first failing row, since an earlier row may fail a later step.
    """
    bad = np.flatnonzero(~(np.isfinite(pressure) & (pressure > 0)))
    if bad.size:
        raise ValueError(f"pressure must be positive and finite, got {pressure[bad[0]].item()}")
    query = SampleTable(("query",) * len(toc), ("",) * len(toc), toc, ro, temp, *np.full((3, len(toc)), math.nan))
    if np.isnan(ro).any():
        raise ValueError("field ro must be finite, got nan")
    # NumPy warns where the Python float arithmetic it replaces does not.
    with np.errstate(all="ignore"):
        pl, vl = (predict_rows(model.spec, model.spec.regressors(query), np.array(model.coefficients))
                  for model in (pl_model, vl_model))
        bad = np.flatnonzero(~(np.isfinite(pl) & (pl > 0) & np.isfinite(vl) & (vl > 0)))
        if bad.size:
            LangmuirParams(pl=pl[bad[0]].item(), vl=vl[bad[0]].item())  # raises
        # langmuir_volume at a positive pressure
        return vl / (1.0 + pl / pressure)


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
    is evaluated at the reservoir pressure, which must be positive and finite.
    """
    columns = (np.array([value], dtype=float) for value in (toc, ro, temp, pressure))
    return _contents(*columns, pl_model, vl_model).item()


# Warning code of each fitted range, in FIT_RANGES order.
_WARNING_CODES = tuple(f"{field}-extrapolation" for field, _ in FIT_RANGES)

# The codes of each set of ranges joined by ";", indexed by one bit per range.
_WARNING_TEXTS = tuple(
    ";".join(code for k, code in enumerate(_WARNING_CODES) if bits >> k & 1)
    for bits in range(2 ** len(_WARNING_CODES))
)


def _extrapolated(toc, ro, temp) -> np.ndarray:
    """Whether the inputs lie outside each range of ``dataset.FIT_RANGES``, on a last axis in its order."""
    values = {"temp": temp, "ro": ro, "toc": toc}
    return np.stack([np.logical_not(in_range(values[field])) for field, in_range in FIT_RANGES], axis=-1)


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


@dataclass(frozen=True, eq=False)
class EstimateTable:
    """Each reservoir's resolved temperature and pressure and its estimated content, as columns.

    ``extrapolated[i, k]`` is True when reservoir i lies outside the k-th
    range of ``dataset.FIT_RANGES``.
    """

    reservoirs: ReservoirTable
    temp: np.ndarray          # degC
    pressure: np.ndarray      # MPa
    adsorbed: np.ndarray      # m3/t
    extrapolated: np.ndarray

    def __len__(self) -> int:
        return len(self.reservoirs)

    def warnings(self) -> list[str]:
        """Each reservoir's warning codes joined by ``;``, empty when it has none."""
        bits = self.extrapolated @ (1 << np.arange(len(_WARNING_CODES)))
        return list(map(_WARNING_TEXTS.__getitem__, bits.tolist()))

    def row(self, i: int) -> EstimateRow:
        """Reservoir i as one row."""
        r = self.reservoirs
        return EstimateRow(
            reservoir=r.names[i], depth_m=r.depth[i].item(), toc_pct=r.toc[i].item(), ro_pct=r.ro[i].item(),
            temp_c=self.temp[i].item(), pressure_mpa=self.pressure[i].item(),
            adsorbed_m3t=self.adsorbed[i].item(),
            warnings=tuple(compress(_WARNING_CODES, self.extrapolated[i].tolist())),
        )


def estimate_reservoirs(
    reservoirs: ReservoirTable,
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> EstimateTable:
    """Resolve temperature and pressure for each reservoir and estimate its content, as one batch.

    Each row equals the estimate of that reservoir alone, and a failure is
    the first failing reservoir's own error, prefixed ``reservoir {name}: ``,
    by :func:`~shale_adsorb.dataset.first_failure`: every step of the batch
    works row by row, so a run of rows fails exactly when one of its rows
    fails alone.
    """
    temp, pressure = reservoirs.temperatures(), reservoirs.pressures()
    columns = (reservoirs.toc, reservoirs.ro, temp, pressure)

    def contents(rows: range) -> np.ndarray:
        return _contents(*(column[rows.start:rows.stop] for column in columns), pl_model, vl_model)

    def alone(i: int) -> None:
        try:
            contents(range(i, i + 1))
        except ValueError as exc:
            raise ValueError(f"reservoir {reservoirs.names[i]}: {exc}") from exc

    adsorbed = first_failure(contents, range(len(reservoirs)), alone)
    return EstimateTable(reservoirs, temp, pressure, adsorbed, _extrapolated(reservoirs.toc, reservoirs.ro, temp))


def estimate_reservoir(
    spec: ReservoirSpec,
    pl_model: FittedModel,
    vl_model: FittedModel,
) -> EstimateRow:
    """Resolve temperature and pressure for one reservoir and estimate content."""
    return estimate_reservoirs(ReservoirTable.from_specs([spec]), pl_model, vl_model).row(0)


def estimates_to_csv(estimates: EstimateTable) -> str:
    r = estimates.reservoirs
    return write_csv(ESTIMATES_CSV_COLUMNS, [r.names, r.depth, r.toc, r.ro, estimates.temp, estimates.pressure,
                                             estimates.adsorbed, estimates.warnings()])


# The number fields of a ReservoirTable in column order, each with the config
# key it is read from, which the parse's messages name, and the text read for
# an absent key ("": required, since "" is no number; ABSENT_TEXT: NaN, marking it absent).
_NUMBER_KEYS = (
    ("depth", "depth_m", ""), ("toc", "toc_pct", ""), ("ro", "ro_pct", ""), ("alpha", "alpha", "1.0"),
    ("surface_temp", "surface_temp_c", repr(DEFAULT_SURFACE_TEMP_C)), ("grad_t", "gradt_c_per_km", ABSENT_TEXT),
    ("temp_override", "temp_c", ABSENT_TEXT), ("pressure_override", "pressure_mpa", ABSENT_TEXT),
)

_RESERVOIR_KEYS = {"name", *(key for _, key, _ in _NUMBER_KEYS)}

_REQUIRED_KEYS = tuple(key for _, key, default in _NUMBER_KEYS if not default)


class _ConfigReservoirs(ReservoirTable):
    """A :class:`ReservoirTable` whose invariant messages name each field by its config key, as a parse error does."""

    checks = _reservoir_checks({field: key for field, key, _ in _NUMBER_KEYS})


# Config blocks read into the columns at a time.
_CHUNK_BLOCKS = 256


def _columns(blocks: Iterable[dict[str, str]]) -> list:
    """The :class:`ReservoirTable` columns of config blocks, read in one pass of chunks of blocks.

    The numbers go into ``array("d")`` columns, NaN where a gradient,
    temperature or pressure key is absent, so no block outlives its chunk.
    A missing name reads as an empty one, which the table rejects. Raises
    ``ValueError`` when a block lacks a required key or holds a value that
    is not a number, such as one holding a ``_``, which ``float`` reads as
    digit grouping, or a NaN for one of those three keys, which would read
    as its absence.
    """
    names: list[str] = []
    numbers = [(key, default, array("d")) for _, key, default in _NUMBER_KEYS]
    blocks = iter(blocks)
    while chunk := list(islice(blocks, _CHUNK_BLOCKS)):
        names.extend(block.get("name", "") for block in chunk)
        for key, default, column in numbers:
            texts = [block.get(key, default) for block in chunk]
            if "_" in "".join(texts):
                raise ValueError(f"reservoir config {key}: a value holds a _")
            start = len(column)
            column.extend(map(float, texts))
            if default == ABSENT_TEXT and np.isnan(column[start:]).sum() > texts.count(ABSENT_TEXT):
                raise ValueError(f"reservoir config {key}: a value reads as NaN")
    return [names, *(column for _, _, column in numbers)]


def _check_block(block: dict[str, str]) -> None:
    """Raise the parse error of one config block, in the order the checks run."""
    if "name" not in block:
        raise ValueError("reservoir config block is missing the name key")
    name = block["name"]
    for key in _REQUIRED_KEYS:
        if key not in block:
            raise ValueError(f"reservoir {name}: missing required key {key}")
    for _, key, default in _NUMBER_KEYS:
        try:
            if math.isnan(parse_number(block.get(key, "0"))) and default == ABSENT_TEXT:
                raise ValueError  # would read as the key's absence
        except ValueError:
            raise ValueError(f"reservoir {name}: {key} is not a number: {block[key]!r}") from None


def parse_reservoirs(text: str) -> ReservoirTable:
    """Parse a key-value reservoir config: one block per reservoir.

    Blocks are separated by blank lines (a repeated ``name=`` also starts a
    new block); ``#`` starts a comment line. Keys: name, depth_m, toc_pct,
    ro_pct, alpha, surface_temp_c, gradt_c_per_km, temp_c, pressure_mpa.
    An absent gradt_c_per_km, temp_c or pressure_mpa is NaN in its column,
    so a value of one of them that reads as NaN is not a number.
    The error is the first fault by line: the first bad block closed before
    a malformed line, by :func:`~shale_adsorb.dataset.first_failure`, else
    that line. Within a block a missing key comes before a value that is
    not a number, and that before a broken invariant. Every message names
    the config key (``depth_m``), not the table's field (``depth``).

    The blocks stream from the reader into the columns, so the parse holds
    the columns and one chunk of text, not every line and block. Only a
    failed parse reads the blocks again into a list, up to a malformed
    line, to find that error, by :func:`~shale_adsorb.dataset.read_whole`.
    """
    def blocks():
        return read_key_value_blocks(text, "reservoir config", keys=_RESERVOIR_KEYS, block_key="name")

    return read_whole(lambda: ReservoirTable(*_columns(blocks())), blocks,
                      lambda read: first_failure(lambda part: _ConfigReservoirs(*_columns(part)), read, _check_block))
