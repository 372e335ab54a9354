import csv
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shale_adsorb import dataset
from shale_adsorb.dataset import (
    ABSOLUTE_ZERO_C,
    REASON_MISSING,
    REASON_PL,
    REASON_RO,
    REASON_TEMP,
    REASON_TOC,
    REASON_VL,
    DatasetKind,
    SAMPLE_COLUMNS,
    SAMPLES_CSV_COLUMNS,
    ColumnTable,
    SampleParseError,
    SampleTable,
    clean,
    correlation_table,
    first_failure,
    integrate_replicates,
    parse_samples,
    pearson_correlation,
    read_csv_table,
    read_key_value_blocks,
    records_to_csv,
    rejections_to_csv,
    write_csv,
)
from shale_adsorb.estimator import ReservoirTable
from shale_adsorb.geotemp import HeatFlowTable, InvalidHeatFlowPoint
from shale_adsorb.regression import ModelKind, ModelSpec
from conftest import count_first_failure, csv_texts, make_record, seeded_csv, table
from helpers import Row, linear_first_failure, naive_check_sample, naive_clean, naive_parse_samples, sample_rows

HEADER = "id,reservoir,toc_pct,ro_pct,temp_c,porosity_pct,pl_mpa,vl_m3t"


class TestParseSamples:
    def test_basic_row(self):
        records = parse_samples(HEADER + "\ns1,Barnett,4.0,1.5,48,,5.0,2.0\n")
        assert len(records) == 1
        [rec] = sample_rows(records)
        assert rec.id == "s1"
        assert rec.reservoir == "Barnett"
        assert rec.toc == 4.0
        assert rec.ro == 1.5
        assert rec.temp == 48.0
        assert rec.porosity is None
        assert rec.pl == 5.0
        assert rec.vl == 2.0

    @pytest.mark.parametrize("row, column, cell", [
        ("s2,B,4_0,1.5,48,,5.0,2.0", "toc_pct", "4_0"),
        ("s2,B,4.0,1.5,48, 1_0,5.0,2.0", "porosity_pct", " 1_0"),
    ])
    def test_digit_grouping_is_not_a_number(self, row, column, cell):
        # float("4_0") is 40.0, but a samples cell is not Python syntax; ids and names may hold "_"
        good = "s_1,Big_Basin,4.0,1.5,48,,5.0,2.0\n"
        assert sample_rows(parse_samples(HEADER + "\n" + good))[0].reservoir == "Big_Basin"
        with pytest.raises(SampleParseError, match=f"^row 3, column {column}: not a number: '{cell}'$") as info:
            parse_samples(HEADER + "\n" + good + row + "\n")
        assert (info.value.row, info.value.column) == (3, column)

    def test_header_only(self):
        assert sample_rows(parse_samples(HEADER + "\n")) == []

    def test_non_numeric_required_field(self):
        with pytest.raises(SampleParseError) as err:
            parse_samples(HEADER + "\ns1,Barnett,abc,1.5,48,,5.0,2.0\n")
        assert "row 2" in str(err.value)
        assert "toc" in str(err.value)
        assert err.value.row == 2

    def test_empty_required_field(self):
        with pytest.raises(SampleParseError, match="temp_c"):
            parse_samples(HEADER + "\ns1,Barnett,4.0,1.5,,,5.0,2.0\n")

    def test_row_with_wrong_field_count(self):
        with pytest.raises(SampleParseError, match="row 3"):
            parse_samples(HEADER + "\ns1,Barnett,4.0,1.5,48,,5.0,2.0\ns2,Barnett,4.0\n")

    def test_bad_header(self):
        with pytest.raises(SampleParseError, match="header"):
            parse_samples("id,toc\ns1,4.0\n")

    def test_empty_file(self):
        with pytest.raises(SampleParseError, match="row 1, column id: empty samples file") as info:
            parse_samples("")
        assert info.value.row == 1

    def test_invariant_violation_cites_row(self):
        with pytest.raises(SampleParseError, match="row 2"):
            parse_samples(HEADER + "\ns1,Barnett,-4.0,1.5,48,,5.0,2.0\n")

    def test_duplicate_id_names_first_row(self):
        text = (HEADER + "\ns1,Barnett,4.0,1.5,48,,5.0,2.0\ns2,Barnett,5.0,1.5,48,,5.0,2.0"
                "\ns1,Barnett,6.0,1.5,48,,5.0,2.0\n")
        with pytest.raises(SampleParseError, match="row 4, column id: duplicate id 's1', first used in row 2") as info:
            parse_samples(text)
        assert (info.value.row, info.value.column) == (4, "id")

    @pytest.mark.parametrize("rows,message", [
        (("s1,B,-4.0,1.5,48,,5.0,2.0", "s2,B,abc,1.5,48,,5.0,2.0"),
         "row 2, column record: field toc must be > 0, got -4.0"),
        (("s1,B,abc,1.5,48,,5.0,2.0", "s2,B,-4.0,1.5,48,,5.0,2.0"),
         "row 2, column toc_pct: not a number: 'abc'"),
        (("s1,B,4.0,1.5,48,,5.0,2.0", "s2,B,4.0,-1.5,48,,x,2.0"),
         "row 3, column pl_mpa: not a number: 'x'"),
        (("s1,B,4.0,nan,48,,5.0,2.0", "s2,B,4.0,1.5,48,,x,2.0"),
         "row 2, column record: field ro must be finite, got nan"),
        (("s1,B,4.0,1.5,48,,5.0,2.0", "s1,B,-4.0,1.5,48,,5.0,2.0"),
         "row 3, column id: duplicate id 's1', first used in row 2"),
        (("s1,B,4.0,-1.5,48,,5.0,2.0", "s1,B,4.0,1.5,48,,5.0,2.0"),
         "row 2, column record: field ro must be > 0 when present, got -1.5"),
        (("s1,B,4.0,1.5,48,,5.0,2.0", "s2,B,4.0,-1.5,48,,5.0,2.0", "s3,B,4.0"),
         "row 3, column record: field ro must be > 0 when present, got -1.5"),
        (("s1,B,inf,nan,48,,5.0,2.0",), "row 2, column record: field toc must be finite, got inf"),
        (("s1,B,4.0,nan,48,,5.0,-2.0",), "row 2, column record: field ro must be finite, got nan"),
        (("s1,B,4.0,1.5,-300,,5.0,-2.0",), "row 2, column record: field temp must be > -273.15 degC, got -300.0"),
    ], ids=["invariant-then-unparsable", "unparsable-then-invariant", "cell-before-invariant-in-row",
            "nan-then-unparsable", "duplicate-id-before-invariant", "invariant-before-duplicate-id",
            "invariant-before-short-row", "finite-checks-toc-first", "finite-before-sign", "temp-before-vl"])
    def test_first_bad_row_fails_the_parse(self, rows, message):
        with pytest.raises(SampleParseError, match=f"^{re.escape(message)}$"):
            parse_samples("\n".join((HEADER, *rows)) + "\n")

    def test_blank_lines_skipped(self):
        records = parse_samples(HEADER + "\n\ns1,Barnett,4.0,,48,,,\n\n")
        assert records.ids == ("s1",)

    def test_order_preserved_and_roundtrip(self):
        records = [
            make_record(1, toc=4.0, temp=48.0, ro=1.5, pl=5.0, vl=2.0),
            make_record(2, toc=2.0, temp=60.0),
            make_record(3, toc=8.0, temp=24.0, porosity=3.5, vl=1.6),
        ]
        again = parse_samples(records_to_csv(table(records)))
        assert sample_rows(again) == records

    def test_accepts_line_iterable(self):
        lines = [HEADER + "\n", "s1,Barnett,4.0,1.5,48,,5.0,2.0\n"]
        assert len(parse_samples(lines)) == 1


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_label = st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                               include_characters='\r\n,"'),
                 max_size=12).map(str.strip)


_signed_zeros = st.sampled_from([-0.0, 0.0])


@st.composite
def _sample_tables(draw):
    """Tables with optional values sometimes absent, signed zeros, and ids or names holding commas, quotes, CRs and LFs."""
    ids = draw(st.lists(_label.filter(bool), max_size=15, unique=True))

    def column(values, optional=True):
        return draw(st.lists(st.just(math.nan) | values if optional else values, min_size=len(ids), max_size=len(ids)))

    temps = st.floats(min_value=ABSOLUTE_ZERO_C, exclude_min=True, allow_infinity=False) | _signed_zeros
    return SampleTable(ids, draw(st.lists(_label, min_size=len(ids), max_size=len(ids))),
                       toc=column(_positive, optional=False), ro=column(_positive),
                       temp=column(temps, optional=False), porosity=column(_finite | _signed_zeros),
                       pl=column(_positive), vl=column(_positive))


@settings(max_examples=100, deadline=None, database=None)
@given(samples=_sample_tables())
def test_samples_csv_round_trip(samples):
    # repr tells -0.0 from 0.0 and an absent value (nan) from any number
    text = records_to_csv(samples)
    again = parse_samples(text)
    assert (again.ids, again.reservoirs) == (samples.ids, samples.reservoirs)
    for name in SAMPLE_COLUMNS:
        assert list(map(repr, getattr(again, name).tolist())) == list(map(repr, getattr(samples, name).tolist()))
    assert records_to_csv(again) == text


def _seeded_samples(rng, n):
    """Samples CSV text of n rows with :func:`conftest.seeded_csv`'s faults and those of a samples row."""
    def cell(position, text):
        return lambda cells: cells.__setitem__(position, text)

    def any_number(text):
        return lambda cells: cells.__setitem__(int(rng.integers(2, len(SAMPLES_CSV_COLUMNS))), text)

    faults = [cell(0, ""), cell(0, f"s{int(rng.integers(n))}"), any_number("north"), any_number("1_0"),
              any_number("inf"), cell(2, ""), cell(4, ""), cell(2, "-4"), cell(4, "-300"), cell(3, "nan"),
              cell(6, "0")]

    def optional(value):
        return "" if rng.random() < 0.3 else repr(value)

    rows = [[f"s{i}", str(rng.choice(["Barnett", "Longmaxi", ""])), repr(float(rng.uniform(0.5, 20.0))),
             optional(float(rng.uniform(0.5, 4.0))), repr(float(rng.uniform(10.0, 120.0))),
             optional(float(rng.uniform(0.0, 10.0))), optional(float(rng.uniform(1.0, 12.0))),
             optional(float(rng.uniform(0.5, 6.0)))] for i in range(n)]
    return seeded_csv(rng, SAMPLES_CSV_COLUMNS, rows, faults)


def _samples_outcome(parse, text):
    """The ids, the reservoirs and the number columns' bytes, or the type, message, row and column of the error."""
    try:
        columns = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    if isinstance(columns, SampleTable):
        columns = [columns.ids, columns.reservoirs, *(getattr(columns, name) for name in SAMPLE_COLUMNS)]
    return [tuple(columns[0]), tuple(columns[1]), *(np.asarray(column, dtype=float).tobytes()
                                                    for column in columns[2:])]


@pytest.mark.parametrize("seed", range(40))
def test_parse_samples_equals_the_per_row_parser(seed):
    text = _seeded_samples(np.random.default_rng(seed), 12)
    assert _samples_outcome(parse_samples, text) == _samples_outcome(naive_parse_samples, text)


def test_a_cell_moved_to_the_next_row_fails_the_short_row():
    # Split whole, the 7 and 9 cells of these lines line up with the line
    # feed as row 2's absent vl and x as the separator: two good rows.
    text = f"{HEADER}\ns1,B,4.0,1.5,48,,5.0\nx,s2,B,4.0,1.5,48,,5.0,2.0\n"
    assert _samples_outcome(parse_samples, text) == _samples_outcome(naive_parse_samples, text) == (
        SampleParseError, "row 2, column vl_m3t: expected 8 samples fields, got 7", 2, "vl_m3t")


@pytest.mark.parametrize("cell, ro", [
    (" ", math.nan), ("\t", math.nan), (" 2.5 ", 2.5),
    (" nan", "row 2, column record: field ro must be finite, got nan"),
    (" 1_0", "row 2, column ro_pct: not a number: ' 1_0'"),
], ids=["space", "tab", "spaces-around", "spaced-nan", "spaced-grouping"])
def test_a_number_cell_of_plain_text_reads_as_float_reads_it(cell, ro):
    # the whole-text split hands float each number cell unstripped; only an empty cell is absent,
    # so a whitespace-only one is read again by csv.reader, and " nan" is a value reading as NaN
    text = f"{HEADER}\ns1,Barnett,4.0,{cell},48,,5.0,2.0\ns2,Barnett,4.0,1.5,48,,5.0,2.0\n"
    got = _samples_outcome(parse_samples, text)
    assert got == _samples_outcome(naive_parse_samples, text)
    if isinstance(ro, str):
        assert got[:2] == (SampleParseError, ro)
    else:
        assert np.array_equal(parse_samples(text).ro, [ro, 1.5], equal_nan=True)


@settings(max_examples=300, deadline=None, database=None)
@given(text=csv_texts(SAMPLES_CSV_COLUMNS))
def test_parse_samples_of_any_text_equals_the_per_row_parser(text):
    assert _samples_outcome(parse_samples, text) == _samples_outcome(naive_parse_samples, text)


def _split_and_max_over(text, limit):
    """The line-length check by a list of lines, the oracle of ``dataset._has_line_longer_than``."""
    return max(map(len, text.split("\n"))) > limit


_LIMIT = 16


def _line_length_texts():
    """Texts of lines of ``_LIMIT`` - 1, ``_LIMIT`` and ``_LIMIT`` + 1 characters at the start, middle and end."""
    for length in (_LIMIT - 1, _LIMIT, _LIMIT + 1):
        for at in range(3):
            lines = ["ab,c"] * 3
            lines[at] = "x" * length
            for end in ("\n", ""):
                yield f"{length}-at-{at}{'-no-final-newline' * (not end)}", "\n".join(lines) + end
    yield "empty", ""
    yield "blank-lines", "\n" * (4 * _LIMIT)
    yield "many-short-lines", "abcde\n" * 40
    yield "limit-then-over", "x" * _LIMIT + "\n" + "y" * (_LIMIT + 1)
    yield "limit-lines-back-to-back", ("x" * _LIMIT + "\n") * 5


@pytest.mark.parametrize("text", [text for _, text in _line_length_texts()],
                         ids=[name for name, _ in _line_length_texts()])
def test_line_length_check_equals_split_and_max(text):
    assert dataset._has_line_longer_than(text, _LIMIT) == _split_and_max_over(text, _LIMIT)


@settings(max_examples=300, deadline=None, database=None)
@given(text=st.text(alphabet="ab\n", max_size=120), limit=st.integers(0, 24))
def test_line_length_check_of_any_text_equals_split_and_max(text, limit):
    assert dataset._has_line_longer_than(text, limit) == _split_and_max_over(text, limit)


@pytest.mark.parametrize("extra", [0, 1])
def test_plain_check_takes_a_line_of_the_field_size_limit_and_no_longer(extra):
    line = "x" * (csv.field_size_limit() + extra)
    for text in (f"{HEADER}\n{line}", f"{HEADER}\ns1\n{line}\ns2\n"):
        if extra:
            with pytest.raises(ValueError, match="not a plain CSV text"):
                dataset._plain_csv_body(text, SAMPLES_CSV_COLUMNS)
        else:
            assert dataset._plain_csv_body(text, SAMPLES_CSV_COLUMNS) == text.partition("\n")[2]


class TestReadCsvTable:
    def test_oversized_cell_names_row_and_kind(self):
        text = f"{HEADER}\ns1,Barnett,4.0,1.5,48,,5.0,2.0\n{'x' * 200_000},Barnett,4.0,1.5,48,,5.0,2.0\n"
        with pytest.raises(SampleParseError, match=r"^row 3, column record: unreadable samples row: "
                                                   r"field larger than field limit") as raised:
            parse_samples(text)
        assert raised.value.row == 3

    def test_oversized_header_cell_is_row_1(self):
        with pytest.raises(SampleParseError, match="^row 1, column record: unreadable heat-flow row"):
            list(read_csv_table("x" * 200_000 + "\n", ("a",), "heat-flow"))

    def test_unquoted_cr_is_a_parse_error(self):
        # csv.reader refuses a bare CR in an unquoted cell of a string source
        with pytest.raises(SampleParseError, match="^row 2, column record: unreadable samples row: new-line"):
            parse_samples(f"{HEADER}\na\rb,Barnett,4.0,1.5,48,,5.0,2.0\n")

    def test_quoted_cr_reads_back(self):
        record = parse_samples(f'{HEADER}\n"a\rb",Barnett,4.0,1.5,48,,5.0,2.0\n')
        assert record.ids == ("a\rb",)
        assert sample_rows(parse_samples(records_to_csv(record))) == sample_rows(record)


def _csv_writer_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


_cell = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "7", ".", "é", "漢", "\u2028", "\x85", "\x00"])
                | st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)


@st.composite
def _table(draw, width=st.integers(0, 5)):
    """(header, columns) of a rectangular table of text cells, given as columns; a cell is often empty."""
    cell = _cell | st.just("")
    w, n = draw(width), draw(st.integers(0, 20))
    header = draw(st.lists(cell, min_size=w, max_size=w))
    return header, [draw(st.lists(cell, min_size=n, max_size=n)) for _ in header]


@settings(max_examples=300, deadline=None, database=None)
@given(table=_table())
def test_write_csv_is_csv_writer_with_cr_quoted(table):
    # csv.writer(lineterminator="\n") leaves a CR cell unquoted; write_csv
    # quotes it as it quotes an LF cell, and differs in nothing else. With
    # no CR in any cell, this is plain equality. A one-column table holds
    # lone empty cells, which are written "".
    header, columns = table
    text = write_csv(header, columns)
    as_lf = [[cell.replace("\r", "\n") for cell in row] for row in [header, *zip(*columns)]]
    assert text.replace("\r", "\n") == _csv_writer_text(as_lf[0], as_lf[1:])


@settings(max_examples=200, deadline=None, database=None)
@given(table=_table(width=st.just(3)))
def test_written_cells_read_back(table):
    _, columns = table
    text = write_csv(("a", "b", "c"), columns)
    kept = [list(row) for row in zip(*columns) if "".join(row).strip()]  # blank rows are skipped on reading
    assert [cells for _, cells in read_csv_table(text, ("a", "b", "c"), "test")] == kept


@pytest.mark.parametrize("position", [0, 254, 255, 256, 599])
@pytest.mark.parametrize("cell", ['"', ",", "\n", ""])
def test_write_csv_quotes_across_chunks(position, cell):
    # 256 rows are turned into lines at a time; a lone empty cell is a one-column table's
    values = [repr(i / 7) for i in range(600)]
    values[position] = cell
    columns = [values] if cell == "" else [values, ["x"] * 600]
    header = ("v", "w")[:len(columns)]
    assert write_csv(header, columns) == _csv_writer_text(header, zip(*columns))


_floats = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310])


@settings(max_examples=100, deadline=None, database=None)
@given(values=st.lists(st.tuples(_floats, _floats), max_size=20), repeat=st.sampled_from([1, 15]))
def test_float_columns_read_back_bit_for_bit(values, repeat):
    # NaN, the absent number, is an empty cell; -0.0, the infinities and the
    # subnormals keep their bits. Repeated 15 times, a table spans two chunks.
    columns = list(np.tile(np.array(values, dtype=float).reshape(-1, 2), (repeat, 1)).T)
    ids = [f"r{i}" for i in range(len(values) * repeat)]
    text = write_csv(("id", "x", "y"), [ids, *columns])
    rows = [cells for _, cells in read_csv_table(text, ("id", "x", "y"), "test")]
    assert [cells[0] for cells in rows] == ids
    for k, column in enumerate(columns, start=1):
        cells = [cells[k] for cells in rows]
        assert cells == ["" if math.isnan(value) else repr(value) for value in column.tolist()]
        read = np.array([float(cell) if cell else math.nan for cell in cells], dtype=float)
        assert read.tobytes() == np.where(np.isnan(column), math.nan, column).tobytes()


@pytest.mark.parametrize("header, columns", [
    (("a", "b"), [["1"]]),
    (("a",), [["1"], ["2"]]),
    ((), [[]]),
    (("a", "b"), [["1", "2"], np.array([1.0])]),
    (("a", "b", "c"), [["1"], ["2"], []]),
])
def test_write_csv_rejects_a_table_not_of_header_width_and_one_length(header, columns):
    with pytest.raises(ValueError, match=rf"^expected {len(header)} columns of one length, got lengths \["):
        write_csv(header, columns)


@pytest.mark.parametrize("column, kind", [
    (np.array([True, False]), "1-D bool"),
    (np.array([1, 2]), "1-D int64"),
    (np.array([[1.0, 2.0], [3.0, 4.0]]), "2-D float64"),
    (np.array(1.0), "0-D float64"),
])
def test_write_csv_rejects_an_array_column_other_than_1d_float64(column, kind):
    # repr would write a bool as True/False and a 2-D row as quoted list text.
    with pytest.raises(ValueError, match=f"^an array column must be 1-D float64, got {kind}$"):
        write_csv(("id", "x"), [["a", "b"], column])


# Every line break str.splitlines knows, and the pieces of key=value lines.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_key_value_text = st.lists(st.sampled_from([*_LINE_BREAKS, "\n\n", "=", "#", " ", "name", "a", "b", "x", "1"]),
                           max_size=60).map("".join)


def _read_outcome(text, keys, block_key):
    """The blocks the reader yields, or the type and message of its error."""
    try:
        return list(read_key_value_blocks(text, "test", keys=keys, block_key=block_key))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(text=_key_value_text, chunk=st.integers(1, 8))
def test_chunked_reader_equals_the_whole_text(text, chunk):
    # With no chunking (the text is shorter than the default chunk), the
    # reader sees text.splitlines(); chunks of 1-8 characters change nothing,
    # the line numbers of its errors included.
    whole = [_read_outcome(text, {"name", "a", "b"}, "name"), _read_outcome(text, None, None)]
    with mock.patch.object(dataset, "_CHUNK_CHARS", chunk):
        assert list(dataset._lines(text)) == text.splitlines()
        assert [_read_outcome(text, {"name", "a", "b"}, "name"), _read_outcome(text, None, None)] == whole


class TestReadKeyValueBlocks:
    def test_blocks_come_before_a_later_error(self):
        blocks = read_key_value_blocks("name=A\nx=1\n\nname=B\nnot a pair\n", "test", block_key="name")
        assert next(blocks) == {"name": "A", "x": "1"}
        with pytest.raises(ValueError, match="^test line 5: expected key=value"):
            next(blocks)

    def test_keys_are_the_given_objects(self):
        keys = {"name", "depth_m"}
        blocks = list(read_key_value_blocks("name=A\ndepth_m=1\n\n name = B\n", "test", keys, "name"))
        assert blocks == [{"name": "A", "depth_m": "1"}, {"name": "B"}]
        shared = {key: key for key in keys}
        assert all(key is shared[key] for block in blocks for key in block)


def _staged_run(calls):
    """A batch run that checks every item for "x", then every item for "y", then the run-only rule "z"."""
    def run(items):
        calls.append(list(items))
        for bad in ("x", "y", "z"):
            if bad in items:
                raise ValueError(f"{bad} at {items.index(bad)}")
        return len(items)
    return run


def _alone(item):
    """One item's own checks: "x" and "y", not the run-only "z"."""
    if item in ("x", "y"):
        raise ValueError(f"{item} alone")


class TestFirstFailure:
    def test_success_runs_the_batch_once(self):
        calls, alone_calls = [], []
        assert first_failure(_staged_run(calls), ["a", "b", "c"], alone_calls.append) == 3
        assert calls == [["a", "b", "c"]]
        assert alone_calls == []

    def test_first_item_failing_alone_beats_a_later_item_failing_an_earlier_stage(self):
        calls = []
        with pytest.raises(ValueError, match="^y alone$"):
            first_failure(_staged_run(calls), ["a", "y", "x"], _alone)
        assert calls == [["a", "y", "x"], ["a"], ["y"]]

    def test_earlier_item_breaking_a_run_only_rule_wins(self):
        calls = []
        with pytest.raises(ValueError, match="^z at 0$"):
            first_failure(_staged_run(calls), ["z", "a", "x"], _alone)
        assert calls == [["z", "a", "x"], ["z"]]

    def test_batch_error_stands_when_no_item_fails_alone(self):
        calls, raised = [], []

        def run(items):
            try:
                return _staged_run(calls)(items)
            except ValueError as exc:
                raised.append(exc)
                raise

        # the error of the probe whose only failure is "z", not the whole batch's
        with pytest.raises(ValueError, match="^z at 0$") as info:
            first_failure(run, ["a", "z", "b"], _alone)
        assert info.value is raised[-1]
        assert calls == [["a", "z", "b"], ["a"], ["z"]]

    def test_other_errors_propagate_without_replay(self):
        calls, alone_calls = [], []

        def run(items):
            calls.append(items)
            raise KeyError("x")

        with pytest.raises(KeyError, match="^'x'$"):
            first_failure(run, ["a", "b", "c"], alone_calls.append)
        assert calls == [["a", "b", "c"]]
        assert alone_calls == []


# Checking steps of the property's run; its run-only rule is checked at one of them.
_STEPS = 3


@st.composite
def _fault_items(draw):
    """Items (position, fault, step): good, failing alone at a step, or breaking the run-only rule.

    The run-only rule is one step that checks the items in row order, as
    every caller's table invariants are, so all its faults share a step.
    """
    run_step = draw(st.integers(0, _STEPS - 1))
    faults = draw(st.lists(st.one_of(
        st.just(("good", 0)), st.just(("good", 0)),
        st.tuples(st.just("alone"), st.integers(0, _STEPS - 1)), st.just(("run", run_step))), max_size=40))
    return [(position, *fault) for position, fault in enumerate(faults)]


def _step_run(items):
    """Each step in turn checks every item in order; a message names the item's position, not its place in items."""
    for step in range(_STEPS):
        for position, fault, fault_step in items:
            if fault != "good" and fault_step == step:
                raise ValueError(f"step {step}: item {position} breaks a {fault} rule")
    return [position for position, _, _ in items]


def _step_alone(item):
    position, fault, step = item
    if fault == "alone":
        raise ValueError(f"item {position} fails alone at step {step}")


def _rule_outcome(rule, *args):
    """The result, or the type and message of the error ``rule`` raises."""
    try:
        return rule(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_fault_items())
def test_first_failure_equals_the_linear_replay(items):
    runs, alone_items = [], []
    outcome = _rule_outcome(first_failure, lambda part: runs.append(len(part)) or _step_run(part), items,
                            lambda item: alone_items.append(item) or _step_alone(item))
    assert outcome == _rule_outcome(linear_first_failure, _step_run, items, _step_alone)
    assert len(runs) <= (math.ceil(math.log2(len(items))) + 1 if items else 1)
    assert sum(runs) <= 2 * len(items) and len(alone_items) <= 1


class TestFailingRowBisect:
    """A bad samples-CSV row fails the parse with its own error in few ``_sample_table`` runs."""

    N = 1000
    GOOD = "s{},B,4.0,1.5,48,,5.0,2.0"
    # name -> (the bad row at a position, its error); the row number is the position + 2
    BAD_ROWS = {
        "bad-cell": ("s{},B,abc,1.5,48,,5.0,2.0", "row {}, column toc_pct: not a number: 'abc'"),
        "repeated-id": ("s0,B,4.0,1.5,48,,5.0,2.0", "row {}, column id: duplicate id 's0', first used in row 2"),
    }

    def _check(self, faults, monkeypatch):
        """Parse N rows with the BAD_ROWS case of each (position, case) in ``faults``; the first one's error wins."""
        bad = {position: self.BAD_ROWS[case][0] for position, case in faults}
        text = "\n".join([HEADER, *(bad.get(i, self.GOOD).format(i) for i in range(self.N))]) + "\n"
        checked, check_row = [], dataset._check_row
        monkeypatch.setattr(dataset, "_check_row", lambda *args: checked.append(args[0]) or check_row(*args))
        runs, _ = count_first_failure(monkeypatch, dataset)
        position, case = faults[0]
        with pytest.raises(SampleParseError, match=f"^{re.escape(self.BAD_ROWS[case][1].format(position + 2))}$"):
            parse_samples(text)
        assert checked == [position + 2]
        assert len(runs) <= 2 * math.ceil(math.log2(self.N)) + 2
        assert sum(runs) <= 2 * self.N + 1  # each probe runs only rows not yet known to pass

    @pytest.mark.parametrize("position", [1, N // 2, N - 1])
    @pytest.mark.parametrize("case", BAD_ROWS)
    def test_one_bad_row(self, case, position, monkeypatch):
        self._check([(position, case)], monkeypatch)

    def test_bad_first_row(self, monkeypatch):
        self._check([(0, "bad-cell")], monkeypatch)

    @pytest.mark.parametrize("first, second", [("bad-cell", "repeated-id"), ("repeated-id", "bad-cell")])
    def test_earlier_row_wins(self, first, second, monkeypatch):
        self._check([(17, first), (700, second)], monkeypatch)


class TestRecordInvariants:
    """Each sample's values are checked when a SampleTable is built."""

    def test_rejects_nonpositive_toc(self):
        with pytest.raises(ValueError, match="toc"):
            table([make_record(1, toc=0.0, temp=48.0)])

    def test_rejects_sub_absolute_zero_temp(self):
        with pytest.raises(ValueError, match="temp"):
            table([make_record(1, toc=4.0, temp=-300.0)])

    @pytest.mark.parametrize("field", ["ro", "pl", "vl"])
    def test_rejects_nonpositive_optionals(self, field):
        with pytest.raises(ValueError, match=field):
            table([make_record(1, toc=4.0, temp=48.0, **{field: -1.0})])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            table([make_record(1, toc=math.inf, temp=48.0)])


class TestSampleTable:
    @pytest.mark.parametrize("field", ["toc", "temp"])
    def test_required_value_absent(self, field):
        with pytest.raises(ValueError, match=f"^field {field} must be finite, got nan$"):
            table([make_record(1, **{"toc": 4.0, "temp": 48.0, field: None})])

    def test_columns_must_match_ids(self):
        with pytest.raises(ValueError, match=r"^sample column ro has shape \(1,\), expected \(2,\)$"):
            SampleTable(["a", "b"], ["r", "r"], [1.0, 2.0], [1.0], [40.0, 50.0], *[[math.nan] * 2] * 3)
        with pytest.raises(ValueError, match="^sample column reservoirs has length 1, expected 2$"):
            SampleTable(["a", "b"], ["r"], *[[1.0, 2.0]] * 6)

    def test_columns_are_read_only(self):
        samples = table([make_record(1, toc=4.0, temp=48.0)])
        with pytest.raises(ValueError, match="read-only"):
            samples.toc[0] = 5.0

    def test_take_and_concat(self):
        rows = [make_record(i, toc=1.0 + i, temp=40.0, vl=None if i % 2 else 2.0) for i in range(5)]
        samples = table(rows)
        assert sample_rows(samples.take([3, 0, -1])) == [rows[3], rows[0], rows[4]]
        assert sample_rows(samples.take(samples.toc > 3.0)) == rows[3:]
        assert sample_rows(samples.take(slice(1, 3))) == rows[1:3]
        assert len(samples.take([])) == 0
        assert sample_rows(SampleTable.concat([samples.take([4]), samples, samples.take([])])) == [rows[4], *rows]

    def test_values_names_the_first_absent_sample(self):
        samples = table([make_record(i, toc=4.0, temp=48.0, ro=None if i in (2, 3) else 1.0) for i in range(4)])
        with pytest.raises(ValueError, match="^no ro in r2$"):
            samples.values("ro", "no ro in {id}")
        assert samples.values("toc", "no toc in {id}") is samples.toc


NAN = math.nan

# table -> (three good rows as columns, the last field cut to two rows and its message,
#           two bad rows (field -> values at rows 1 and 2) and the error they raise)
COLUMN_TABLES = {
    "samples": (SampleTable, dict(ids=["a", "b", "c"], reservoirs=["r", "r", "s"], toc=[1.0, 2.0, 3.0],
                                  ro=[1.0, NAN, 2.0], temp=[40.0, 50.0, 60.0], porosity=[NAN, 5.0, NAN],
                                  pl=[2.0, 3.0, 4.0], vl=[NAN, 1.0, 2.0]),
                r"^sample column vl has shape \(2,\), expected \(3,\)$",
                # row 1 breaks the temp and vl checks, row 2 the first (finite toc)
                dict(temp=[-300.0, 60.0], vl=[-1.0, 2.0], toc=[2.0, math.inf]),
                (ValueError, "field temp must be > -273.15 degC, got -300.0")),
    "reservoirs": (ReservoirTable, dict(names=["A", "B", "C"], depth=[1000.0, 2000.0, 3000.0], toc=[2.0, 3.0, 4.0],
                                        ro=[1.0, 1.5, 2.0], alpha=[1.0, 1.2, 1.0], surface_temp=[20.0, 15.0, 20.0],
                                        grad_t=[30.0, NAN, 25.0], temp_override=[NAN, 80.0, NAN],
                                        pressure_override=[NAN, NAN, 30.0]),
                   r"^reservoir column pressure_override has shape \(2,\), expected \(3,\)$",
                   # row 1 breaks the ro check and has no temperature source, row 2 the first (a name)
                   dict(ro=[0.0, 2.0], temp_override=[NAN, NAN], names=["B", ""]),
                   (ValueError, "reservoir B: ro must be > 0, got 0.0")),
    "heat-flow": (HeatFlowTable, dict(lon=[100.0, 101.0, 102.0], lat=[20.0, 21.0, 22.0],
                                      section_depth=[600.0, 700.0, 800.0], grad_t=[25.0, 26.0, 27.0]),
                  r"^heat-flow column grad_t has shape \(2,\), expected \(3,\)$",
                  # row 1 breaks the gradient and depth checks, row 2 the first (longitude)
                  dict(grad_t=[NAN, 27.0], section_depth=[math.inf, 800.0], lon=[101.0, 200.0]),
                  (InvalidHeatFlowPoint, "point 1: gradient must be finite, got nan")),
}


def _table_fields(table, names):
    """The named fields of a column table as lists, NaN as None."""
    return {name: [None if value != value else value for value in list(getattr(table, name))] for name in names}


@pytest.mark.parametrize("case", COLUMN_TABLES)
def test_column_table_rule(case):
    cls, columns, short_message, bad_rows, (error, message) = COLUMN_TABLES[case]
    assert issubclass(cls, ColumnTable)
    table = cls(**columns)
    assert len(table) == 3
    for name, values in columns.items():
        column = getattr(table, name)
        if isinstance(values[0], str):
            assert column == tuple(values)
        else:
            assert column.dtype == np.float64
            assert column.shape == (3,) and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
    last = list(columns)[-1]
    with pytest.raises(ValueError, match=short_message):
        cls(**{**columns, last: columns[last][:2]})

    rows = _table_fields(table, columns)
    for picked, order in [([2, 0], [2, 0]), (slice(1, None), [1, 2]), (np.array([True, False, True]), [0, 2]),
                          ([], [])]:
        expected = {name: [values[i] for i in order] for name, values in rows.items()}
        assert _table_fields(table.take(picked), columns) == expected

    again = cls(**columns)
    assert table == table and table != again and hash(table) == hash(table)
    assert len({table, again}) == 2

    broken = {name: values[:1] + bad_rows.get(name, values[1:]) for name, values in columns.items()}
    with pytest.raises(error) as info:
        cls(**broken)
    assert type(info.value) is error and str(info.value) == message


_maybe_bad = st.none() | st.sampled_from([-1.0, -0.0, 0.0, 1.5, -300.0, math.inf, -math.inf])


@settings(max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.tuples(*[_maybe_bad] * 6), max_size=6))
def test_table_invariants_are_the_first_bad_rows(values):
    # the table raises as the per-row checks of its first failing row do
    rows = [Row(f"s{i}", "r", *row) for i, row in enumerate(values)]
    expected = None
    for row in rows:
        try:
            naive_check_sample(row)
        except ValueError as exc:
            expected = str(exc)
            break
    if expected is None:
        assert sample_rows(table(rows)) == rows
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            table(rows)


class TestCleanPl:
    def test_in_bounds_kept(self):
        outcome = clean(table([make_record(1, toc=4, ro=1.5, temp=48, pl=5.0)]), DatasetKind.PL)
        assert len(outcome.kept) == 1 and not outcome.rejected

    @pytest.mark.parametrize("kwargs,reason", [
        (dict(toc=4, ro=1.5, temp=95, pl=5.0), REASON_TEMP),
        (dict(toc=0.5, ro=1.5, temp=48, pl=5.0), REASON_TOC),
        (dict(toc=4, temp=48, pl=5.0), REASON_MISSING),          # ro absent
        (dict(toc=4, ro=1.5, temp=48), REASON_MISSING),          # pl absent
        (dict(toc=4, ro=4.0, temp=48, pl=5.0), REASON_RO),       # strict bound
        (dict(toc=4, ro=1.5, temp=90.0, pl=5.0), REASON_TEMP),   # strict bound
        (dict(toc=4, ro=1.5, temp=48, pl=1.5), REASON_PL),       # strict bound
        (dict(toc=4, ro=1.5, temp=48, pl=12.0), REASON_PL),      # strict bound
        (dict(toc=17.5, ro=1.5, temp=48, pl=5.0), REASON_TOC),
    ])
    def test_rejections(self, kwargs, reason):
        outcome = clean(table([make_record(1, **kwargs)]), DatasetKind.PL)
        assert not outcome.kept
        assert outcome.reasons[0] == reason

    @pytest.mark.parametrize("toc", [1.0, 17.0])
    def test_toc_interval_inclusive(self, toc):
        outcome = clean(table([make_record(1, toc=toc, ro=1.5, temp=48, pl=5.0)]), DatasetKind.PL)
        assert len(outcome.kept) == 1

    def test_first_failing_reason_wins(self):
        # violates temp, ro and toc; evaluation order reports temp first
        outcome = clean(table([make_record(1, toc=0.5, ro=5.0, temp=95, pl=5.0)]), DatasetKind.PL)
        assert outcome.reasons[0] == REASON_TEMP


class TestCleanVl:
    def test_in_bounds_kept(self):
        outcome = clean(table([make_record(1, toc=4, temp=48, vl=2.0)]), DatasetKind.VL)
        assert len(outcome.kept) == 1

    @pytest.mark.parametrize("kwargs,reason", [
        (dict(toc=4, temp=48, vl=0.8), REASON_VL),
        (dict(toc=18, temp=48, vl=2.0), REASON_TOC),
        (dict(toc=4, temp=48), REASON_MISSING),
        (dict(toc=4, temp=92, vl=2.0), REASON_TEMP),
        (dict(toc=4, temp=48, vl=1.0), REASON_VL),   # strict bound
    ])
    def test_rejections(self, kwargs, reason):
        outcome = clean(table([make_record(1, **kwargs)]), DatasetKind.VL)
        assert outcome.reasons[0] == reason

    def test_ro_not_required(self):
        outcome = clean(table([make_record(1, toc=4, temp=48, vl=2.0)]), DatasetKind.VL)
        assert len(outcome.kept) == 1


def _random_records(seed, n=60):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(make_record(
            i,
            toc=float(rng.uniform(0.2, 20.0)),
            temp=float(rng.uniform(20.0, 110.0)),
            ro=float(rng.uniform(0.3, 5.0)) if rng.random() < 0.8 else None,
            pl=float(rng.uniform(0.5, 15.0)) if rng.random() < 0.8 else None,
            vl=float(rng.uniform(0.5, 6.0)) if rng.random() < 0.8 else None,
        ))
    return records


@pytest.mark.parametrize("kind", [DatasetKind.PL, DatasetKind.VL])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cleaning_partitions_input(kind, seed):
    records = _random_records(seed)
    outcome = clean(table(records), kind)
    assert sorted(outcome.kept.ids + outcome.rejected.ids) == sorted(r.id for r in records)
    assert not set(outcome.kept.ids) & set(outcome.rejected.ids)
    assert len(outcome.reasons) == len(outcome.rejected)


@pytest.mark.parametrize("kind", [DatasetKind.PL, DatasetKind.VL])
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_cleaning_masks_equal_per_record_rules(kind, seed):
    records = _random_records(seed, n=200)
    outcome = clean(table(records), kind)
    kept, rejected = naive_clean(records, kind)
    assert sample_rows(outcome.kept) == kept
    assert list(zip(sample_rows(outcome.rejected), outcome.reasons)) == rejected
    assert len({reason for _, reason in rejected}) >= 4


@pytest.mark.parametrize("kind", [DatasetKind.PL, DatasetKind.VL])
def test_cleaning_idempotent(kind):
    records = _random_records(seed=7)
    first = clean(table(records), kind)
    second = clean(first.kept, kind)
    assert sample_rows(second.kept) == sample_rows(first.kept)
    assert not second.rejected and second.reasons == []


def test_rejections_csv_adds_the_reason():
    rejected = table([make_record(1, toc=4.0, temp=95.0, porosity=-0.0),
                      make_record("x,y", toc=0.5, temp=48.0, vl=2.5)])
    assert rejections_to_csv(rejected, ["temp-range", "toc-range"]) == (
        HEADER + ",reason\nr1,r,4.0,,95.0,-0.0,,,temp-range\n\"rx,y\",r,0.5,,48.0,,,2.5,toc-range\n")


class TestIntegrateReplicates:
    def test_exact_duplicate_dropped(self):
        a = make_record(1, toc=4, temp=48, pl=5.0)
        b = a._replace(id="other-id")
        unique, dropped = integrate_replicates(table([a, b]))
        assert sample_rows(unique) == [a]
        assert sample_rows(dropped) == [b]

    def test_signed_zero_porosity_is_a_replicate(self):
        text = HEADER + "\ns1,B,4.0,1.5,48,-0.0,5.0,2.0\ns2,B,4.0,1.5,48,0.0,5.0,2.0\ns3,B,4.0,1.5,48,,5.0,2.0\n"
        unique, dropped = integrate_replicates(parse_samples(text))
        assert (len(unique), len(dropped)) == (2, 1)

    def test_different_reservoir_not_a_duplicate(self):
        a = make_record(1, toc=4, temp=48, reservoir="A")
        b = make_record(2, toc=4, temp=48, reservoir="B")
        unique, dropped = integrate_replicates(table([a, b]))
        assert sample_rows(unique) == [a, b] and not dropped


class TestToDimensionless:
    """The normalisation by dataset-wide means inside ``ModelSpec.feature_rows``."""

    PL_GEO = ModelSpec(ModelKind.PL_GEO)
    VL_GEO = ModelSpec(ModelKind.VL_GEO)

    @staticmethod
    def row(spec, rec):
        return spec.feature_rows(table([rec]))[0].tolist()

    def test_normalising_constants(self):
        rec = make_record(1, toc=4.0, temp=48.0, ro=1.75)
        assert self.row(self.PL_GEO, rec) == [1.0, 0.0, 1.0]   # ln(t_star / ro_star) = ln 1
        assert self.row(self.VL_GEO, rec) == [1.0, 1.0, 1.0]

    def test_reference_reservoir_inputs(self):
        rec = make_record(1, toc=2.58, temp=86.98, ro=3.03)
        toc_star, log_ratio, _ = self.row(self.PL_GEO, rec)
        _, t_star_cubed, _ = self.row(self.VL_GEO, rec)
        assert toc_star == pytest.approx(2.58 / 4.0, rel=1e-15)
        assert t_star_cubed == pytest.approx((86.98 / 48.0) ** 3, rel=1e-15)
        assert log_ratio == pytest.approx(math.log((86.98 / 48.0) / (3.03 / 1.75)), rel=1e-15)

    def test_absent_ro_stays_absent(self):
        rec = make_record(1, toc=8.0, temp=24.0)
        assert self.row(self.VL_GEO, rec) == [2.0, 0.125, 1.0]
        with pytest.raises(ValueError, match="missing field ro"):
            self.row(self.PL_GEO, rec)

    def test_linear_in_toc(self):
        base = self.row(self.VL_GEO, make_record(1, toc=3.1, temp=50.0))
        doubled = self.row(self.VL_GEO, make_record(1, toc=6.2, temp=50.0))
        assert doubled[0] == pytest.approx(2 * base[0], rel=1e-15)

    def test_missing_inputs_rejected(self):
        # toc and temp are required by every table, so only ro can be missing
        samples = table([make_record(1, toc=4.0, temp=48.0, ro=1.5), make_record(2, toc=4.0, temp=48.0)])
        with pytest.raises(ValueError, match="^record r2 is missing field ro required by pl-geo$"):
            self.PL_GEO.feature_rows(samples)
        assert self.VL_GEO.feature_rows(samples).shape == (2, 3)


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_four_point_oracle(self):
        # Hand evaluation: centred cross products sum to 4.0 and both
        # centred sums of squares are 5.0, so r = 4 / sqrt(25) = 0.8.
        assert pearson_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        assert pearson_correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson_correlation(x, y) == pytest.approx(pearson_correlation(y, x), abs=1e-15)

    def test_affine_invariance_positive_slope(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r = pearson_correlation(x, y)
        assert pearson_correlation(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            pearson_correlation([1.0], [2.0])


class TestCorrelationTable:
    def test_pairwise_complete_sizes(self):
        records = [
            make_record(1, toc=2, temp=40, ro=1.0, porosity=2.0),
            make_record(2, toc=3, temp=50, ro=1.5),
            make_record(3, toc=4, temp=60, porosity=4.0),
            make_record(4, toc=5, temp=70),
        ]
        rows = {(r.var_a, r.var_b): r for r in correlation_table(table(records))}
        assert rows[("temp", "toc")].n == 4
        assert rows[("temp", "ro")].n == 2
        assert rows[("toc", "porosity")].n == 2
        assert rows[("ro", "porosity")].n == 1
        assert rows[("ro", "porosity")].abs_r is None

    def test_abs_r_is_absolute(self):
        records = [make_record(i, toc=float(i + 1), temp=80.0 - 10 * i) for i in range(4)]
        rows = {(r.var_a, r.var_b): r for r in correlation_table(table(records))}
        assert rows[("temp", "toc")].abs_r == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_record_pairs(self, seed):
        rng = np.random.default_rng(seed)
        records = [make_record(i, toc=float(rng.uniform(1, 10)), temp=float(rng.uniform(20, 90)),
                               ro=float(rng.uniform(0.5, 3)) if rng.random() < 0.7 else None,
                               porosity=float(rng.uniform(1, 9)) if rng.random() < 0.4 else None)
                   for i in range(40)]
        for row in correlation_table(table(records)):
            pairs = [(getattr(rec, row.var_a), getattr(rec, row.var_b)) for rec in records]
            xs, ys = zip(*[(a, b) for a, b in pairs if a is not None and b is not None])
            assert (row.n, row.abs_r) == (len(xs), abs(pearson_correlation(xs, ys)))
