import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import shale_adsorb
from shale_adsorb.dataset import RO_NORM_PCT, TEMP_NORM_C, TOC_NORM_PCT, SampleTable, parse_samples
from shale_adsorb.estimator import (REFERENCE_PL_COEFFICIENTS, REFERENCE_VL_COEFFICIENTS, ReservoirTable,
                                    reference_models)
from shale_adsorb.regression import ModelKind, ModelSpec
from helpers import Row

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

#: Every module of the package, so a test can patch each module's binding of a name.
MODULES = [importlib.import_module(f"shale_adsorb.{module.name}")
           for module in pkgutil.iter_modules(shale_adsorb.__path__)]


def make_record(i, toc, temp, ro=None, pl=None, vl=None, porosity=None, reservoir="r"):
    """One sample as a :class:`helpers.Row` with id ``r<i>``; ``None`` is an absent value."""
    return Row(f"r{i}", reservoir, toc, ro, temp, porosity, pl, vl)


def table(rows):
    """The SampleTable of the given rows, in order: NaN where a row holds None."""
    rows = list(rows)
    ids, reservoirs, *numbers = zip(*rows) if rows else [()] * len(Row._fields)
    return SampleTable(ids, reservoirs, *([math.nan if value is None else value for value in column]
                                          for column in numbers))


def reservoir_table(rows):
    """The ReservoirTable of (name, depth, toc, ro, alpha, surface_temp, grad_t, temp, pressure) rows, in order.

    The constructor is called directly, NaN where a row holds None.
    """
    rows = list(rows)
    names, *numbers = zip(*rows) if rows else [()] * 9
    return ReservoirTable(names, *([math.nan if value is None else value for value in column] for column in numbers))


def synthetic_records(n=30, seed=0, pl_noise=0.0, vl_noise=0.0):
    """A table of samples lying on the reference model surfaces, optionally log-jittered.

    Inputs are drawn inside the cleaning ranges and resampled until the
    generated Langmuir parameters also sit comfortably inside them.
    """
    pl_model, vl_model = reference_models()
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        toc = float(rng.uniform(1.5, 12.0))
        ro = float(rng.uniform(0.8, 3.5))
        temp = float(rng.uniform(30.0, 88.0))
        base = Row(f"g{len(rows):03d}", "synthetic", toc, ro, temp)
        pl = pl_model.predict(table([base])).item()
        vl = vl_model.predict(table([base])).item()
        if not (1.6 < pl < 11.5 and vl > 1.05):
            continue
        if pl_noise:
            pl *= float(np.exp(pl_noise * rng.normal()))
        if vl_noise:
            vl *= float(np.exp(vl_noise * rng.normal()))
        rows.append(base._replace(pl=pl, vl=vl))
    return table(rows)


_PL_A, _PL_B, _PL_C = REFERENCE_PL_COEFFICIENTS
_VL_A, _VL_B, _VL_C = REFERENCE_VL_COEFFICIENTS

# Each model form -> the log of its dependent variable at (toc, ro, temp), noiseless. The geo forms use the
# reference coefficients; the reference forms' coefficients are made up to keep pl and vl in the cleaning ranges.
_LOG_TRUTH = {
    ModelKind.PL_GEO: lambda toc, ro, temp: (_PL_A * toc / TOC_NORM_PCT
                                             + _PL_B * math.log((temp / TEMP_NORM_C) / (ro / RO_NORM_PCT)) + _PL_C),
    ModelKind.VL_GEO: lambda toc, ro, temp: _VL_A * toc / TOC_NORM_PCT + _VL_B * (temp / TEMP_NORM_C) ** 3 + _VL_C,
    ModelKind.PL_INVTEMP: lambda toc, ro, temp: 40.0 / temp + 0.4,
    ModelKind.PL_TOCPOW: lambda toc, ro, temp: 0.6 * math.log(toc) + 0.3,
    ModelKind.VL_TOCPOW: lambda toc, ro, temp: 0.5 * math.log(toc) + 0.2,
    ModelKind.VL_TOCLIN: lambda toc, ro, temp: math.log(0.3 * toc + 1.2),
}


def form_records(form, seed, n=301, noise=0.08, planted=0, factors=(2.2, 3.0)):
    """``n`` samples whose ``form``'s dependent variable follows that form, times ``exp(noise * N(0, 1))``.

    TOC, R_o and temperature are drawn as ``perfbench/inputs.py`` draws them
    (uniform inside the cleaning ranges, two decimals), keeping a draw whose
    noiseless value is inside its fitting range (1.6 < pl < 11.5, vl > 1.05);
    the other dependent variable is absent. The first ``planted`` rows, ids
    ``planted<i>``, are then gross outliers, as ``inputs.samples_csv``
    plants them: scaled by a factor uniform on ``factors``, up or down with
    even odds. The planting draws come after all others, so a seed gives the
    same other rows whatever ``planted`` is.
    """
    rng = np.random.default_rng(seed)
    dependent = ModelSpec(form).dependent_var
    low, high = (1.6, 11.5) if dependent == "pl" else (1.05, math.inf)
    rows = []
    while len(rows) < n:
        toc, ro, temp = (round(float(rng.uniform(*bounds)), 2) for bounds in ((1.5, 12.0), (0.8, 3.5), (30.0, 88.0)))
        value = math.exp(_LOG_TRUTH[form](toc, ro, temp))
        if low < value < high:
            value *= math.exp(noise * float(rng.normal()))
            rows.append(Row(f"{'planted' if len(rows) < planted else 'g'}{len(rows):03d}", "synthetic",
                            toc, ro, temp, **{dependent: value}))
    for i in range(planted):
        factor = float(rng.uniform(*factors))
        rows[i] = rows[i]._replace(**{dependent: getattr(rows[i], dependent) * (factor if rng.random() < 0.5
                                                                                 else 1.0 / factor)})
    return table(rows)


def count_first_failure(monkeypatch, module):
    """Count the calls ``module``'s stages make through ``first_failure``.

    Returns two lists: the number of items of each ``run`` call, and the item
    of each ``alone`` call.
    """
    runs, alone_items = [], []
    real = module.first_failure

    def counted(run, items, alone):
        return real(lambda part: runs.append(len(part)) or run(part), items,
                    lambda item: alone_items.append(item) or alone(item))

    monkeypatch.setattr(module, "first_failure", counted)
    return runs, alone_items


def seeded_csv(rng, header, rows, faults):
    """CSV text of ``header`` and ``rows`` of cells, about one row in eight with one fault.

    A fault edits a row's list of cells in place: one of ``faults``, or one
    that any input CSV can have and that the whole-text read of plain
    input must either hand to ``csv.reader`` or read as it does: a row of
    only commas and spaces, a quoted cell, a CR (a CRLF line end after the
    last cell, a bare CR after any other), a cell too few or too many, or
    a first cell moved to the end of the line before.
    About one text in four also has trailing blank lines, no final newline
    or spaces around its header names.
    """
    def any_cell(edit):
        def apply(cells):
            k = int(rng.integers(len(cells)))
            cells[k] = edit(cells[k])
        return apply

    def blank(cells):
        cells[:] = [" "] * len(cells)

    def to_line_before(cells):  # the two lines together keep their cell count
        lines[-1] += "," + cells.pop(0)

    lines = [",".join(header)]
    faults = [*faults, blank, any_cell(lambda text: f'"{text}"'), any_cell(lambda text: text + "\r"),
              lambda cells: cells.pop(), lambda cells: cells.append(cells[-1]), to_line_before]
    for cells in map(list, rows):
        if rng.random() < 0.125:
            faults[int(rng.integers(len(faults)))](cells)
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    fault = int(rng.integers(12))
    if fault == 0:
        text += "\n \n\n"
    elif fault == 1:
        text = text[:-1]
    elif fault == 2:
        text = text.replace(",", " , ", len(header) - 1)
    return text


# What the CSV-text property draws cells from: mostly numbers, else pieces
# of every character csv.reader treats apart, of whitespace that str.strip
# and float take off, and of the makings of numbers.
_CSV_PIECES = st.sampled_from([",", "\n", "\r", '"', "\t", "\x0c", " ", "\xa0", "\x85", "\u2028", "\x00", "_", "-", ".",
                               "e", *"0123456789", "inf", "nan"])
_CSV_CELLS = st.integers(0, 9).flatmap(lambda k: st.lists(_CSV_PIECES, max_size=4).map("".join) if k == 0
                                       else st.floats(0.5, 99.0).map(repr) | st.integers(1, 99).map(str))


@st.composite
def csv_texts(draw, header):
    """CSV texts of up to six rows, usually after ``header``'s line, most rows of one cell per column.

    A row has one cell fewer or more about one time in eight, a cell is
    pieces rather than a number about one time in ten.
    """
    width = len(header)
    row = st.integers(0, 7).flatmap(lambda k: st.lists(_CSV_CELLS, min_size=width - (k == 0),
                                                       max_size=width + (k == 0)))
    lines = [",".join(cells) for cells in draw(st.lists(row, max_size=6))]
    if draw(st.integers(0, 7)):
        lines.insert(0, ",".join(header))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_records(data_dir):
    return parse_samples((data_dir / "samples.csv").read_text(encoding="utf-8"))
