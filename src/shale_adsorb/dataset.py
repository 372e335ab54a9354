"""Adsorption samples as one column table: CSV ingestion, range-based cleaning, and correlation analysis.

A :class:`SampleTable` holds the samples from parse to ``kept.csv``, and every stage reads its columns.
All quantities carry fixed units throughout the package: TOC and vitrinite reflectance in %,
temperature in degrees Celsius, pressure in MPa, adsorbed volume in m3/t, depth in m.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache
from typing import ClassVar, Iterable, Iterator, Sequence

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
_RANGE_REASONS = {"temp": REASON_TEMP, "ro": REASON_RO, "toc": REASON_TOC}  # by FIT_RANGES field


class SampleParseError(ValueError):
    """A row of an input CSV (samples or heat-flow) could not be parsed.

    Carries the 1-based row number (header is row 1) and the offending
    column name.
    """

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column}: {message}")
        self.row = row
        self.column = column


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """Equal-length columns, position i of each being row i. Tables compare by identity.

    A subclass declares its fields: ``tuple[str, ...]`` labels and ``np.ndarray``
    columns, stored as read-only float64 arrays. In every table NaN is the
    one mark of an absent number (a ``None`` given for one reads as NaN), so
    the checks of a column of optional values let NaN pass. A field
    whose length differs from the first field's raises a ``ValueError`` naming
    ``label``. ``checks`` holds the row invariants in order, each (array field,
    test, message), where ``test`` maps that column (or the whole table, for
    field None) to the mask of rows that pass. The first failing row's first
    failing check raises :meth:`row_error`, its message formatted with the
    row's ``value`` of the field and its ``name``, the row's first field.
    """

    label: ClassVar[str]
    checks: ClassVar[tuple]

    def __post_init__(self):
        n = None
        for name, dtype in _column_types(type(self)):
            if dtype is tuple:
                column = tuple(getattr(self, name))
                n = len(column) if n is None else n
                if len(column) != n:
                    raise ValueError(f"{self.label} column {name} has length {len(column)}, expected {n}")
            else:
                column = np.array(getattr(self, name), dtype=dtype)
                n = column.size if n is None else n
                if column.shape != (n,):
                    raise ValueError(f"{self.label} column {name} has shape {column.shape}, expected ({n},)")
                column.flags.writeable = False
            object.__setattr__(self, name, column)
        masks = [test(self if field is None else getattr(self, field)) for field, test, _ in self.checks]
        if not np.logical_and.reduce(masks, axis=None):  # one bool: the error is built only for a failing table
            i = np.flatnonzero(~np.logical_and.reduce(masks))[0].item()
            field, _, message = next(check for check, mask in zip(self.checks, masks) if not mask[i])
            value = None if field is None else getattr(self, field)[i].item()
            raise self.row_error(i, message.format(value=value, name=getattr(self, _column_types(type(self))[0][0])[i]))

    def row_error(self, row: int, message: str) -> ValueError:
        """The error of row ``row`` failing a check."""
        return ValueError(message)

    def __len__(self) -> int:
        return len(getattr(self, _column_types(type(self))[0][0]))

    def columns(self) -> list:
        """Every field, in order."""
        return [getattr(self, name) for name, _ in _column_types(type(self))]

    def take(self, rows):
        """The rows at ``rows`` (indices, a slice or a boolean mask), in that order."""
        picked = np.arange(len(self))[rows]
        return type(self)(*(tuple(map(column.__getitem__, picked.tolist())) if isinstance(column, tuple)
                            else column[picked] for column in self.columns()))


@cache
def _column_types(table: type) -> tuple[tuple[str, type], ...]:
    """(name, ``tuple`` or the array dtype) of each field of a :class:`ColumnTable` subclass, in order."""
    return tuple((field.name, tuple if str(field.type).startswith("tuple") else float) for field in fields(table))


#: The number columns of a :class:`SampleTable` in samples-CSV order, the two
#: every sample holds a value in, and the order its values are checked finite.
SAMPLE_COLUMNS = ("toc", "ro", "temp", "porosity", "pl", "vl")
REQUIRED_COLUMNS = ("toc", "temp")
_FINITE_ORDER = ("toc", "temp", "ro", "porosity", "pl", "vl")
#: The text an absent input value is read as: NaN, yet no stripped text, so any other NaN is a value reading as NaN.
ABSENT_TEXT = " nan"


@dataclass(frozen=True, eq=False)
class SampleTable(ColumnTable):
    """Adsorption-experiment samples as a :class:`ColumnTable`.

    ``ids`` and ``reservoirs`` are labels; NaN marks an absent number.
    ``toc`` and ``temp`` are required. Each sample is checked in order: every
    value finite, then toc > 0, temp above absolute zero, and ro, pl and vl
    > 0 when present; a failure raises a ``ValueError``.
    """

    ids: tuple[str, ...]
    reservoirs: tuple[str, ...]
    toc: np.ndarray        # total organic carbon, %
    ro: np.ndarray         # vitrinite reflectance, %
    temp: np.ndarray       # reservoir temperature, degC
    porosity: np.ndarray   # porosity, %
    pl: np.ndarray         # Langmuir pressure, MPa
    vl: np.ndarray         # Langmuir volume, m3/t

    label = "sample"
    checks = (
        *((name, np.isfinite if name in REQUIRED_COLUMNS else lambda column: ~np.isinf(column),
           f"field {name} must be finite, got {{value!r}}") for name in _FINITE_ORDER),
        ("toc", lambda toc: toc > 0, "field toc must be > 0, got {value!r}"),
        ("temp", lambda temp: temp > ABSOLUTE_ZERO_C, f"field temp must be > {ABSOLUTE_ZERO_C} degC, got {{value!r}}"),
        *((name, lambda column: ~(column <= 0), f"field {name} must be > 0 when present, got {{value!r}}")
          for name in ("ro", "pl", "vl")),
    )

    @classmethod
    def concat(cls, tables: Sequence["SampleTable"]) -> "SampleTable":
        """The samples of each table in turn."""
        return cls(sum((table.ids for table in tables), ()), sum((table.reservoirs for table in tables), ()),
                   *(np.concatenate([getattr(table, name) for table in tables]) for name in SAMPLE_COLUMNS))

    def values(self, name: str, missing: str) -> np.ndarray:
        """Column ``name``; if a value is absent, ``ValueError(missing)``, ``{id}`` the first such sample's id."""
        absent = np.flatnonzero(np.isnan(getattr(self, name)))
        if absent.size:
            raise ValueError(missing.format(id=self.ids[absent[0]]))
        return getattr(self, name)


@dataclass
class CleaningOutcome:
    """Partition of the input samples into kept and rejected ones, with each rejected sample's reason."""

    kept: SampleTable
    rejected: SampleTable
    reasons: list[str]


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


def elementwise(ufunc: np.ufunc, *operands) -> np.ndarray:
    """``ufunc`` of the broadcast float64 operands, each element rounded as the ``math`` or builtin call rounds it.

    The fact this rests on: NumPy (verified on 2.4.6, x86-64) runs a ufunc
    on a float64 operand of negative stride with its plain loop, which
    calls the C library's ``asin``, ``sin``, ``cos``, ``log``, ``exp`` or
    ``pow`` per element, as ``math`` and ``float.__pow__`` do. Its forward
    loops on contiguous operands (SVML ``arcsin`` and ``power``, its own
    ``exp`` and ``log``) round differently on some arguments: of 1.1 M
    arguments each, on an AVX-512 host, 92,477 for ``arcsin``, 50,718 for
    ``exp`` and 308 for ``log``, against none reversed. So each
    operand is flattened to a contiguous 1-D array, a scalar one (an
    exponent) made a full array, since ``np.power`` with a scalar exponent
    of 2 or -1 squares or takes a reciprocal rather than calling ``pow``,
    and the ufunc runs on the reversed views. The result is copied back
    into order, C-contiguous in the broadcast shape: a later BLAS product
    rounds differently on a reversed view.
    ``test_host_elementwise_kernel_equals_math`` pins the fact.

    It never raises or warns: an argument on which ``math`` raises gives
    NaN or an infinity, and each caller checks its own domain.
    """
    shape = np.broadcast_shapes(*map(np.shape, operands))
    flat = [np.broadcast_to(np.asarray(operand, dtype=float), shape).ravel() for operand in operands]
    with np.errstate(all="ignore"):
        reversed_values = ufunc(*(values[::-1] for values in flat))
    return np.ascontiguousarray(reversed_values[::-1]).reshape(shape)


def first_failure(run, items: Sequence, alone):
    """``run(items)``, failing as its first failing item fails alone: the one batch rule of every stage.

    ``run`` must be row-local: a slice of ``items`` fails exactly when one
    of its items fails in it. Only on failure, the first failing item is
    found by bisecting the prefix length, each probe running ``run`` only on
    the items past those known to pass: at most ceil(log2(n)) + 1 runs over
    at most 2n items. Then ``alone`` runs once, on that item, and raises its
    own error. If it passes, the item breaks a rule only ``run`` checks, and
    the error stands that ``run`` raised on a slice whose only failure it is.
    """
    try:
        return run(items)
    except ValueError as exc:
        error = exc
    passed, failed = 0, len(items)  # the items before `passed` pass; those before `failed` do not
    while failed - passed > 1:
        middle = (passed + failed) // 2
        try:
            run(items[passed:middle])
        except ValueError as exc:
            failed, error = middle, exc
        else:
            passed = middle
    alone(items[passed])
    raise error


def read_whole(fast, read, localise):
    """``fast()``, the whole input read at once; on its ``ValueError``, ``localise`` of the items ``read()`` yields.

    The one parse-error order of every input file: the earliest fault wins.
    Only on failure, ``read()`` yields the input's items one by one, raising
    at the first it cannot read, and ``localise`` runs on the items read so
    far, raising the first bad one's own error (by :func:`first_failure`).
    So a bad item before an unreadable one fails first, and if no item read
    is bad, the reader's own error stands.
    """
    try:
        return fast()
    except ValueError:
        pass  # read again, to name the earliest fault
    items: list = []
    try:
        for item in read():
            items.append(item)
    finally:  # the items before one the reader cannot read fail first
        result = localise(items)
    return result


def require_int(name: str, value) -> int:
    """``value`` as an ``int`` by ``operator.index``; a bool or a non-integral number raises ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def parse_number(text: str, kind: type = float):
    """``kind(text)``, where a ``_``, which ``float`` and ``int`` read as digit grouping, raises ``ValueError`` too."""
    if "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def _parse_float(raw: str, row: int, column: str, required: bool) -> float | None:
    text = raw.strip()
    if text == "":
        if required:
            raise SampleParseError(row, column, "required numeric field is empty")
        return None
    try:
        return parse_number(text)
    except ValueError:
        raise SampleParseError(row, column, f"not a number: {raw!r}") from None


def parse_samples(source: str | Iterable[str]) -> SampleTable:
    """Parse samples-CSV content into a table, preserving row order.

    ``source`` may be the file content as a string or any iterable of lines
    (for example an open text file). An empty optional field is absent (NaN);
    any other cell is read by :func:`parse_number`.
    Raises :class:`SampleParseError` naming the row number and column for a
    malformed header or row, a field that violates a sample invariant, or an
    id already used by an earlier row. Within a row the id comes first, then
    each cell in column order, then the invariants; across rows the first
    failing row's error wins, by :func:`first_failure`. Every row is checked
    on its own against one map of each id to the first row that uses it, so
    the checks are row-local, as that bisect needs.

    A plain text (see :func:`plain_csv_columns`) is split whole and read as one
    table. Anything else, and a plain text with any fault, goes through
    :func:`read_csv_table`'s ``csv.reader``, which gives the same rows and
    is the one source of every error; :func:`read_whole` runs the two.
    """
    return read_whole(lambda: _sample_table(plain_csv_columns(source, SAMPLES_CSV_COLUMNS)),
                      lambda: read_csv_table(source, SAMPLES_CSV_COLUMNS, "samples"), _first_failing_row)


def _first_failing_row(rows: list[tuple[int, list[str]]]) -> SampleTable:
    """The table of samples-CSV rows, raising the first bad row's own error, by :func:`first_failure`."""
    first_row = {cells[0].strip(): row for row, cells in reversed(rows)}
    return first_failure(lambda part: _rows_table(part, first_row), rows, lambda row: _check_row(*row, first_row))


def _sample_table(columns: Sequence[Sequence[str]]) -> SampleTable:
    """The table of the samples-CSV columns of cells.

    An empty or repeated id, a cell holding a ``_`` or reading as NaN, or
    any other broken invariant of :class:`SampleTable` raises ``ValueError``.
    """
    ids, reservoirs = (list(map(str.strip, column)) for column in columns[:2])
    texts = [[cell.strip() or ABSENT_TEXT for cell in column] for column in columns[2:]]
    numbers = [np.fromiter(map(float, column), float, len(column)) for column in texts]
    if "" in ids or len(set(ids)) < len(ids) or any(
            "_" in "".join(column) or np.isnan(values).sum() > column.count(ABSENT_TEXT)
            for values, column in zip(numbers, texts)):
        raise ValueError("an id is empty or used twice, or a cell holds a _ or reads as NaN")
    return SampleTable(ids, reservoirs, *numbers)


def _rows_table(rows: Sequence[tuple[int, list[str]]], first_row: dict[str, int]) -> SampleTable:
    """The table of samples-CSV rows, given each id's first row; a bad row raises what :func:`_check_row` explains."""
    if [first_row[cells[0].strip()] for _, cells in rows] != [row for row, _ in rows]:
        raise ValueError("an id is used in an earlier row")
    return _sample_table(list(zip(*(cells for _, cells in rows))) or [()] * len(SAMPLES_CSV_COLUMNS))


def _check_row(row: int, cells: list[str], first_row: dict[str, int]) -> None:
    """Raise the parse error of one samples-CSV row alone, given each id's first row; any later row repeats it."""
    rec_id = cells[0].strip()
    if rec_id == "":
        raise SampleParseError(row, "id", "id must not be empty")
    if first_row[rec_id] != row:
        raise SampleParseError(row, "id", f"duplicate id {rec_id!r}, first used in row {first_row[rec_id]}")
    values = {name: _parse_float(cell, row, column, required=name in REQUIRED_COLUMNS)
              for name, column, cell in zip(SAMPLE_COLUMNS, SAMPLES_CSV_COLUMNS[2:], cells[2:])}
    try:
        for name in _FINITE_ORDER:
            if values[name] is not None and not math.isfinite(values[name]):
                raise ValueError(f"field {name} must be finite, got {values[name]!r}")
        _rows_table([(row, cells)], first_row)
    except ValueError as exc:
        raise SampleParseError(row, "record", str(exc)) from exc


def read_csv_table(
    source: str | Iterable[str],
    columns: Sequence[str],
    label: str,
) -> Iterator[tuple[int, list[str]]]:
    """Data rows of an input CSV as (row number, cells); the header is row 1.

    ``source`` may be the file content as a string or any iterable of lines.
    The header must equal ``columns`` after stripping, blank rows are
    skipped, and every other row must have one cell per column. This is the
    one exact reader, ``csv.reader`` row by row: every input CSV the package
    reads goes through here unless :func:`plain_csv_columns` splits it whole
    to the same cells, so all of them share one dialect; the errors are
    :class:`SampleParseError` naming ``label``, and only this reader raises
    them. A row ``csv.reader`` cannot read (say, a cell over its field size
    limit) fails in column ``record``.
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


def plain_csv_columns(source: str | Iterable[str], columns: Sequence[str]) -> list[list[str]]:
    """The data cells of a plain CSV text, one list per column, split whole; ``ValueError`` for any other source.

    Plain text is a ``str`` with no quote, CR or NUL and no line longer than
    ``csv.field_size_limit()``, whose header equals ``columns`` after
    stripping and whose every line holds one cell per column. ``csv.reader``
    reads each line of such a text as its split at the commas, so these are
    the cells :func:`read_csv_table` yields. One ``split`` makes them all,
    each line feed its own cell between two rows, with no list per row.
    A row it keeps may still be blank or bad, so a caller that finds any
    fault in the cells, as for this ``ValueError``, reads the text again
    with :func:`read_csv_table`, which names the error.
    """
    if not isinstance(source, str) or '"' in source or "\r" in source or "\0" in source:
        raise ValueError("not a plain CSV text")
    text = source[:-1] if source.endswith("\n") else source
    cells = text.replace("\n", ",\n,").split(",")
    width = len(columns) + 1  # a row's cells and the line feed after it
    lines = text.count("\n") + 1
    limit = csv.field_size_limit()
    if (len(cells) != lines * width - 1 or cells[width - 1::width].count("\n") != lines - 1
            or tuple(map(str.strip, cells[:width - 1])) != tuple(columns)
            or len(text) > limit and max(map(len, text.split("\n"))) > limit):
        raise ValueError("not a plain CSV text")
    return [cells[k::width] for k in range(width, 2 * width - 1)]


#: Rows joined and checked as one text: enough to share the checks' cost,
#: few enough that only their cells are alive at once.
_CSV_CHUNK_ROWS = 256

_QUOTED_CHARS = frozenset(',"\n\r')


def write_csv(header: Sequence[str], columns: Sequence[Sequence[str] | np.ndarray]) -> str:
    """CSV text of a header row and one column per header cell, with ``\\n`` line ends.

    A column is a sequence of ``str`` cells or a 1-D float64 array, whose
    cells are the ``repr`` of each float and ``""`` for NaN, the one mark of
    an absent number, made ``_CSV_CHUNK_ROWS`` rows at a time, so few floats
    are alive at once. Any other array (bool, int, 2-D), a column count
    other than the header's, or columns of unequal length, raise
    ``ValueError``.

    Every CSV file the package writes goes through here, so all of them
    share one dialect: cells joined by commas, and a cell quoted (in ``"``,
    with ``"`` doubled) only when it holds a comma, a quote, a CR or an LF.
    That is the csv module's minimal quoting, save that its writer, with
    ``\\n`` line ends, leaves a CR cell bare, which no reader reads back.
    """
    for column in columns:
        if isinstance(column, np.ndarray) and (column.dtype != np.float64 or column.ndim != 1):
            raise ValueError(f"an array column must be 1-D float64, got {column.ndim}-D {column.dtype}")
    lengths = list(map(len, columns))
    if len(lengths) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"expected {len(header)} columns of one length, got lengths {lengths}")
    chunks = [_csv_lines([header])]
    for start in range(0, max(lengths, default=0), _CSV_CHUNK_ROWS):
        cells = (_cells(column[start:start + _CSV_CHUNK_ROWS]) for column in columns)
        chunks.append(_csv_lines(list(zip(*cells))))
    return "".join(chunks)


def _cells(column: Sequence[str] | np.ndarray) -> Sequence[str]:
    """The cells of a column: a float array's ``repr`` texts, ``""`` for NaN; any other column as it is."""
    if not isinstance(column, np.ndarray):
        return column
    cells = list(map(repr, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = ""
    return cells


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


# The key=value reader splits its text this many characters at a time, each
# chunk running on to the first line feed at or past that length.
_CHUNK_CHARS = 2**16


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split one chunk of whole lines at a time.

    Each chunk but the last ends just after a ``\\n``. That ends the chunk's
    last line whatever break it belongs to (``\\r\\n`` included), so the
    lines are the whole text's.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)  # no \n left: to the end
        yield from text[start:end].splitlines()
        start = end


def read_key_value_blocks(
    text: str,
    label: str,
    keys: set[str] | None = None,
    block_key: str | None = None,
) -> Iterator[dict[str, str]]:
    """Yield the blocks of ``key=value`` lines, each as it closes; ``#`` starts a comment line.

    Without ``block_key`` the whole text is one block and blank lines are
    ignored. With it, a blank line ends a block and a ``block_key`` entry
    starts a new one. A key outside ``keys`` (when given) or repeated within
    a block is an error naming ``label`` and the line number, raised when the
    reader reaches that line. The text is split one chunk of lines at a time
    and each key is the one object in ``keys``, so the reader holds one chunk
    and one block, never every line.
    """
    shared = None if keys is None else {key: key for key in keys}
    current: dict[str, str] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line:
            if block_key is not None and current:
                yield current
                current = {}
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{label} line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if shared is not None:
            if key not in shared:
                raise ValueError(f"{label} line {lineno}: unknown key {key!r}")
            key = shared[key]
        if key == block_key and current:
            yield current
            current = {}
        if key in current:
            raise ValueError(f"{label} line {lineno}: duplicate key {key!r} in block")
        current[key] = value.strip()
    if current:
        yield current


def records_to_csv(samples: SampleTable) -> str:
    """Serialise samples back to the samples-CSV schema."""
    return write_csv(SAMPLES_CSV_COLUMNS, samples.columns())


def rejections_to_csv(rejected: SampleTable, reasons: Sequence[str]) -> str:
    """Serialise rejected samples as samples-CSV rows plus a reason column."""
    return write_csv(SAMPLES_CSV_COLUMNS + ("reason",), [*rejected.columns(), reasons])


def integrate_replicates(samples: SampleTable) -> tuple[SampleTable, SampleTable]:
    """Drop exact replicate measurements, keeping the first occurrence; returns (unique, dropped) in input order.

    Two samples are replicates when every field except the opaque id matches
    exactly, compared as Python values: ``-0.0`` equals ``0.0``, and an absent
    value (``None`` in the key) equals only an absent one.
    """
    keys = zip(samples.reservoirs, *(np.where(np.isnan(column), None, column).tolist()
                                     for column in (getattr(samples, name) for name in SAMPLE_COLUMNS)))
    first: dict[tuple, int] = {}
    unique = np.array([first.setdefault(key, i) == i for i, key in enumerate(keys)], dtype=bool)
    return samples.take(unique), samples.take(~unique)


#: The geological ranges the models are fitted on: (field, in-range test), in
#: the order temp, ro, toc. Cleaning rejects a sample outside them with
#: ``<field>-range``; an estimate outside them is tagged
#: ``<field>-extrapolation``. Each test takes a float or a float array.
FIT_RANGES = (
    ("temp", lambda value: value < 90.0),
    ("ro", lambda value: value < 4.0),
    ("toc", lambda value: (1.0 <= value) & (value <= 17.0)),
)


def _fit_range_rules(kind: DatasetKind) -> tuple:
    """One rule per fitted range of the kind's variables, rejecting with that range's ``REASON_*`` code."""
    return tuple((_RANGE_REASONS[field], field, test) for field, test in FIT_RANGES if field in kind.independent_vars)


# Per-kind cleaning rules: (reason code, field, keep-test of its column) in evaluation order. A sample is
# rejected with the reason of the first test it fails; a table value is finite exactly where it is present.
_CLEANING_RULES = {
    DatasetKind.PL: (
        (REASON_MISSING, "pl", np.isfinite),
        (REASON_MISSING, "ro", np.isfinite),
        *_fit_range_rules(DatasetKind.PL),
        (REASON_PL, "pl", lambda pl: (1.5 < pl) & (pl < 12.0)),
    ),
    DatasetKind.VL: (
        (REASON_MISSING, "vl", np.isfinite),
        *_fit_range_rules(DatasetKind.VL),
        (REASON_VL, "vl", lambda vl: vl > 1.0),
    ),
}


def clean(samples: SampleTable, kind: DatasetKind) -> CleaningOutcome:
    """Keep the samples usable for fitting the dataset kind, by one mask per rule.

    A pressure sample is kept when pl, ro, toc and temp are all present and
    temp < 90, ro < 4, 1 <= toc <= 17 and 1.5 < pl < 12; a volume sample when
    vl, toc and temp are present and temp < 90, 1 <= toc <= 17 and vl > 1.
    Rejections carry the first failing reason code in the fixed order:
    presence, temp, ro, toc, value range.
    """
    rules = _CLEANING_RULES[kind]
    first = np.full(len(samples), len(rules))
    for k in reversed(range(len(rules))):  # an earlier rule overwrites a later one
        _, field, keep = rules[k]
        first[~keep(getattr(samples, field))] = k
    kept = first == len(rules)
    return CleaningOutcome(samples.take(kept), samples.take(~kept), [rules[k][0] for k in first[~kept].tolist()])


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
    samples: SampleTable,
    pairs: Sequence[tuple[str, str]] = CORRELATION_PAIRS,
) -> list[CorrelationRow]:
    """Pairwise-complete data sizes and |r| for each variable pair.

    For each pair only the samples where both variables are present are
    used, so the reported ``n`` is the pairwise-complete data size.
    """
    rows = []
    for var_a, var_b in pairs:
        a, b = getattr(samples, var_a), getattr(samples, var_b)
        both = np.isfinite(a) & np.isfinite(b)
        try:
            abs_r = abs(pearson_correlation(a[both], b[both]))
        except ValueError:
            abs_r = None
        rows.append(CorrelationRow(var_a, var_b, int(both.sum()), abs_r))
    return rows
