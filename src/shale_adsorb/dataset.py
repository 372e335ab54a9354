"""Adsorption sample records: CSV ingestion, range-based cleaning, and correlation analysis.

All quantities carry fixed units throughout the package: TOC and vitrinite
reflectance in %, temperature in degrees Celsius, pressure in MPa, adsorbed
volume in m3/t, depth in m.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

# Normalising divisors for the dimensionless regressors: dataset-wide mean
# TOC (%), temperature (degC) and vitrinite reflectance (%).
TOC_NORM_PCT = 4.0
TEMP_NORM_C = 48.0
RO_NORM_PCT = 1.75

ABSOLUTE_ZERO_C = -273.15

SAMPLES_CSV_COLUMNS = (
    "id",
    "reservoir",
    "toc_pct",
    "ro_pct",
    "temp_c",
    "porosity_pct",
    "pl_mpa",
    "vl_m3t",
)

# Reason codes attached to rejected records, in evaluation order.
REASON_MISSING = "missing-field"
REASON_TEMP = "temp-range"
REASON_RO = "ro-range"
REASON_TOC = "toc-range"
REASON_PL = "pl-range"
REASON_VL = "vl-range"
REASON_DUPLICATE = "duplicate"


class SampleParseError(ValueError):
    """A row of an input CSV (samples or heat-flow) could not be parsed.

    Carries the 1-based row number (header is row 1) and the offending
    column name.
    """

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column}: {message}")
        self.row = row
        self.column = column


def _require_finite(name: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"field {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SampleRecord:
    """One adsorption-experiment data point."""

    id: str
    reservoir: str
    toc: float                    # total organic carbon, %
    temp: float                   # reservoir temperature, degC
    ro: float | None = None       # vitrinite reflectance, %
    porosity: float | None = None  # porosity, %
    pl: float | None = None       # Langmuir pressure, MPa
    vl: float | None = None       # Langmuir volume, m3/t

    def __post_init__(self):
        for name in ("toc", "temp", "ro", "porosity", "pl", "vl"):
            _require_finite(name, getattr(self, name))
        if self.toc is None or self.toc <= 0:
            raise ValueError(f"field toc must be > 0, got {self.toc!r}")
        if self.temp is None or self.temp <= ABSOLUTE_ZERO_C:
            raise ValueError(f"field temp must be > {ABSOLUTE_ZERO_C} degC, got {self.temp!r}")
        for name in ("ro", "pl", "vl"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"field {name} must be > 0 when present, got {value!r}")

    def value_key(self) -> tuple:
        """Key identifying replicate measurements: every field except the opaque id."""
        return (self.reservoir, self.toc, self.ro, self.temp, self.porosity, self.pl, self.vl)


@dataclass
class CleaningOutcome:
    """Partition of the input records into kept and (record, reason) rejections."""

    kept: list[SampleRecord]
    rejected: list[tuple[SampleRecord, str]]


class DatasetKind(Enum):
    """The two fitted datasets, named by their dependent variable."""

    PL = "pl"
    VL = "vl"

    @property
    def dependent_var(self) -> str:
        return self.value

    @property
    def independent_vars(self) -> tuple[str, ...]:
        # Variables used both as regressors and as statistical-distance axes.
        # The order is the distance accumulation order, so it fixes the
        # rounding of every R value.
        return _INDEPENDENT_VARS[self]


_INDEPENDENT_VARS = {DatasetKind.PL: ("temp", "toc", "ro"), DatasetKind.VL: ("temp", "toc")}


def elementwise(func, values: np.ndarray, *args) -> np.ndarray:
    """``func(x, *args)`` of each element, called on Python floats so that it rounds as ``math`` does."""
    flat = values.ravel().tolist()
    return np.fromiter(map(func, flat, *map(repeat, args)), float, len(flat)).reshape(values.shape)


def first_failure(run, items: Sequence, alone, errors=ValueError):
    """``run(items)``, failing as its first failing item fails alone: the one batch rule of every stage.

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


def require_int(name: str, value) -> int:
    """``value`` as an ``int`` by ``operator.index``; a bool or a non-integral number raises ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _parse_float(raw: str, row: int, column: str, required: bool) -> float | None:
    text = raw.strip()
    if text == "":
        if required:
            raise SampleParseError(row, column, "required numeric field is empty")
        return None
    try:
        return float(text)
    except ValueError:
        raise SampleParseError(row, column, f"not a number: {raw!r}") from None


def parse_samples(source: str | Iterable[str]) -> list[SampleRecord]:
    """Parse samples-CSV content into records, preserving row order.

    ``source`` may be the file content as a string or any iterable of lines
    (for example an open text file). Empty optional fields map to ``None``.

    Raises
    ------
    SampleParseError
        On a malformed header, a malformed row, a field that violates a
        record invariant, or an id already used by an earlier row; the error
        names the row number and column.
    """
    records: list[SampleRecord] = []
    first_row: dict[str, int] = {}
    for row, cells in read_csv_table(source, SAMPLES_CSV_COLUMNS, "samples"):
        rec_id = cells[0].strip()
        if rec_id == "":
            raise SampleParseError(row, "id", "id must not be empty")
        if rec_id in first_row:
            raise SampleParseError(row, "id", f"duplicate id {rec_id!r}, first used in row {first_row[rec_id]}")
        first_row[rec_id] = row
        try:
            record = SampleRecord(
                id=rec_id,
                reservoir=cells[1].strip(),
                toc=_parse_float(cells[2], row, "toc_pct", required=True),
                ro=_parse_float(cells[3], row, "ro_pct", required=False),
                temp=_parse_float(cells[4], row, "temp_c", required=True),
                porosity=_parse_float(cells[5], row, "porosity_pct", required=False),
                pl=_parse_float(cells[6], row, "pl_mpa", required=False),
                vl=_parse_float(cells[7], row, "vl_m3t", required=False),
            )
        except SampleParseError:
            raise
        except ValueError as exc:
            # Invariant violations (e.g. toc <= 0) become parse errors with location.
            raise SampleParseError(row, "record", str(exc)) from exc
        records.append(record)
    return records


def read_csv_table(
    source: str | Iterable[str],
    columns: Sequence[str],
    label: str,
) -> Iterator[tuple[int, list[str]]]:
    """Data rows of an input CSV as (row number, cells); the header is row 1.

    ``source`` may be the file content as a string or any iterable of lines.
    The header must equal ``columns`` after stripping, blank rows are
    skipped, and every other row must have one cell per column. Every input
    CSV the package reads goes through here, so all of them share one
    dialect; the errors are :class:`SampleParseError` naming ``label``. A
    row ``csv.reader`` cannot read (say, a cell over its field size limit)
    fails in column ``record``.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = enumerate(csv.reader(source), start=1)
    row = 0  # the last row read
    try:
        row, first = next(rows, (1, None))
        if first is None:
            raise SampleParseError(1, columns[0], f"empty {label} file, header row missing")
        header = tuple(name.strip() for name in first)
        if header != tuple(columns):
            raise SampleParseError(1, columns[0],
                                   f"{label} header must be {','.join(columns)}, got {','.join(header)}")
        for row, cells in rows:
            if not "".join(cells).strip():
                continue
            if len(cells) != len(columns):
                raise SampleParseError(row, columns[min(len(cells), len(columns) - 1)],
                                       f"expected {len(columns)} {label} fields, got {len(cells)}")
            yield row, cells
    except csv.Error as exc:
        raise SampleParseError(row + 1, "record", f"unreadable {label} row: {exc}") from None


#: Rows joined and checked as one text: enough to share the checks' cost,
#: few enough that only their cells are alive at once.
_CSV_CHUNK_ROWS = 256

_QUOTED_CHARS = frozenset(',"\n\r')


def write_csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV text of a header row and data rows of ``str`` cells, with ``\\n`` line ends.

    Every CSV file the package writes goes through here, so all of them
    share one dialect: cells joined by commas, and a cell quoted (in ``"``,
    with ``"`` doubled) only when it holds a comma, a quote, a CR or an LF.
    That is the csv module's minimal quoting, save that its writer, with
    ``\\n`` line ends, leaves a CR cell bare, which no reader reads back.
    """
    rows = chain((header,), rows)
    chunks = []
    while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
        chunks.append(_csv_lines(chunk))
    return "".join(chunks)


def _csv_lines(rows: list[Sequence[str]]) -> str:
    """The CSV lines of rows, each ending in ``\\n``; cells go through :func:`_quote_cell` only if one may need it.

    Joined, the rows need no quoting unless they hold a quote, a CR or an
    LF, more commas than their cell counts give, or an empty line (a row of
    no cells, or of one empty cell, which is written ``""``).
    """
    lines = list(map(",".join, rows))
    joined = "".join(lines)
    if ('"' in joined or "\r" in joined or "\n" in joined or "" in lines
            or joined.count(",") != sum(map(len, rows)) - len(lines)):
        lines = [",".join(map(_quote_cell, cells)) or ('""' if cells else "") for cells in rows]
    return "\n".join(lines) + "\n"


def _quote_cell(cell: str) -> str:
    """``cell`` as csv's minimal quoting writes it: in ``"`` with ``"`` doubled if it holds a comma, quote, CR or LF."""
    if _QUOTED_CHARS.isdisjoint(cell):
        return cell
    return '"' + cell.replace('"', '""') + '"'


def read_key_value_blocks(
    text: str,
    label: str,
    keys: set[str] | None = None,
    block_key: str | None = None,
) -> list[dict[str, str]]:
    """Parse ``key=value`` lines into blocks; ``#`` starts a comment line.

    Without ``block_key`` the whole text is one block and blank lines are
    ignored. With it, a blank line ends a block and a ``block_key`` entry
    starts a new one. A key outside ``keys`` (when given) or repeated within
    a block is an error naming ``label`` and the line number.
    """
    blocks: list[dict[str, str]] = []
    current: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if block_key is not None and current:
                blocks.append(current)
                current = {}
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{label} line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if keys is not None and key not in keys:
            raise ValueError(f"{label} line {lineno}: unknown key {key!r}")
        if key == block_key and current:
            blocks.append(current)
            current = {}
        if key in current:
            raise ValueError(f"{label} line {lineno}: duplicate key {key!r} in block")
        current[key] = value.strip()
    if current:
        blocks.append(current)
    return blocks


def records_to_csv(records: Sequence[SampleRecord]) -> str:
    """Serialise records back to the samples-CSV schema."""
    return write_csv(SAMPLES_CSV_COLUMNS, (_record_cells(rec) for rec in records))


def _record_cells(rec: SampleRecord) -> list[str]:
    def fmt(value: float | None) -> str:
        return "" if value is None else repr(value)

    return [rec.id, rec.reservoir, fmt(rec.toc), fmt(rec.ro), fmt(rec.temp),
            fmt(rec.porosity), fmt(rec.pl), fmt(rec.vl)]


def rejections_to_csv(rejected: Sequence[tuple[SampleRecord, str]]) -> str:
    """Serialise (record, reason) pairs as samples-CSV rows plus a reason column."""
    return write_csv(SAMPLES_CSV_COLUMNS + ("reason",),
                     (_record_cells(rec) + [reason] for rec, reason in rejected))


def integrate_replicates(records: Sequence[SampleRecord]) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Drop exact replicate measurements, keeping the first occurrence.

    Two records are replicates when every field except the opaque id matches
    exactly. Returns (unique, dropped) with input order preserved.
    """
    seen: set[tuple] = set()
    unique: list[SampleRecord] = []
    dropped: list[SampleRecord] = []
    for rec in records:
        key = rec.value_key()
        if key in seen:
            dropped.append(rec)
        else:
            seen.add(key)
            unique.append(rec)
    return unique, dropped


#: The geological ranges the models are fitted on: (field, in-range test), in
#: the order temp, ro, toc. Cleaning rejects a record outside them with
#: ``<field>-range``; an estimate outside them is tagged
#: ``<field>-extrapolation``. Each test takes a float or a float array.
FIT_RANGES = (
    ("temp", lambda value: value < 90.0),
    ("ro", lambda value: value < 4.0),
    ("toc", lambda value: (1.0 <= value) & (value <= 17.0)),
)


def _fit_range_rules(kind: DatasetKind) -> tuple:
    """One ``<field>-range`` rule per fitted range of the kind's variables."""
    return tuple(
        (f"{field}-range", lambda rec, field=field, in_range=in_range: in_range(getattr(rec, field)))
        for field, in_range in FIT_RANGES if field in kind.independent_vars
    )


# Per-kind cleaning rules: (reason code, keep-test) in evaluation order. A
# record is rejected with the reason of the first test it fails.
_CLEANING_RULES = {
    DatasetKind.PL: (
        (REASON_MISSING, lambda rec: rec.pl is not None and rec.ro is not None),
        *_fit_range_rules(DatasetKind.PL),
        (REASON_PL, lambda rec: 1.5 < rec.pl < 12.0),
    ),
    DatasetKind.VL: (
        (REASON_MISSING, lambda rec: rec.vl is not None),
        *_fit_range_rules(DatasetKind.VL),
        (REASON_VL, lambda rec: rec.vl > 1.0),
    ),
}


def clean(records: Sequence[SampleRecord], kind: DatasetKind) -> CleaningOutcome:
    """Keep the records usable for fitting the dataset kind.

    A pressure record is kept when pl, ro, toc and temp are all present and
    temp < 90, ro < 4, 1 <= toc <= 17 and 1.5 < pl < 12; a volume record when
    vl, toc and temp are present and temp < 90, 1 <= toc <= 17 and vl > 1.
    Rejections carry the first failing reason code in the fixed order:
    presence, temp, ro, toc, value range.
    """
    rules = _CLEANING_RULES[kind]
    kept: list[SampleRecord] = []
    rejected: list[tuple[SampleRecord, str]] = []
    for rec in records:
        for reason, keep in rules:
            if not keep(rec):
                rejected.append((rec, reason))
                break
        else:
            kept.append(rec)
    return CleaningOutcome(kept, rejected)


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences.

    Raises ``ValueError`` for unequal lengths, fewer than two points, or a
    zero-variance argument (coefficient undefined).
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two points")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    xm = xa - xa.mean()
    ym = ya - ya.mean()
    sxx = float(xm @ xm)
    syy = float(ym @ ym)
    if sxx == 0.0:
        raise ValueError("zero variance in x, correlation undefined")
    if syy == 0.0:
        raise ValueError("zero variance in y, correlation undefined")
    r = float(xm @ ym) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


#: Variable pairs examined when choosing regressors, in report order.
CORRELATION_PAIRS = (
    ("temp", "toc"),
    ("temp", "ro"),
    ("temp", "porosity"),
    ("toc", "ro"),
    ("toc", "porosity"),
    ("ro", "porosity"),
)


@dataclass(frozen=True)
class CorrelationRow:
    var_a: str
    var_b: str
    n: int                      # pairwise-complete data size
    abs_r: float | None         # None when undefined (n < 2 or zero variance)


def correlation_table(
    records: Sequence[SampleRecord],
    pairs: Sequence[tuple[str, str]] = CORRELATION_PAIRS,
) -> list[CorrelationRow]:
    """Pairwise-complete data sizes and |r| for each variable pair.

    For each pair only the records where both variables are present are
    used, so the reported ``n`` is the pairwise-complete data size.
    """
    rows = []
    for var_a, var_b in pairs:
        xs, ys = [], []
        for rec in records:
            a = getattr(rec, var_a)
            b = getattr(rec, var_b)
            if a is not None and b is not None:
                xs.append(a)
                ys.append(b)
        try:
            abs_r = abs(pearson_correlation(xs, ys))
        except ValueError:
            abs_r = None
        rows.append(CorrelationRow(var_a, var_b, len(xs), abs_r))
    return rows
