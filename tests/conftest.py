import math
from pathlib import Path

import numpy as np
import pytest

from shale_adsorb.dataset import SampleTable, parse_samples
from shale_adsorb.estimator import reference_models
from helpers import Row

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def make_record(i, toc, temp, ro=None, pl=None, vl=None, porosity=None, reservoir="r"):
    """One sample as a :class:`helpers.Row` with id ``r<i>``; ``None`` is an absent value."""
    return Row(f"r{i}", reservoir, toc, ro, temp, porosity, pl, vl)


def table(rows):
    """The SampleTable of the given rows, in order: NaN where a row holds None."""
    rows = list(rows)
    ids, reservoirs, *numbers = zip(*rows) if rows else [()] * len(Row._fields)
    return SampleTable(ids, reservoirs, *([math.nan if value is None else value for value in column]
                                          for column in numbers))


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
        pl = pl_model.predict(table([base]))
        vl = vl_model.predict(table([base]))
        if not (1.6 < pl < 11.5 and vl > 1.05):
            continue
        if pl_noise:
            pl *= float(np.exp(pl_noise * rng.normal()))
        if vl_noise:
            vl *= float(np.exp(vl_noise * rng.normal()))
        rows.append(base._replace(pl=pl, vl=vl))
    return table(rows)


def count_first_failure(monkeypatch, module):
    """Count the calls ``module``'s stages make through ``first_failure``.

    Returns two lists: the number of items of each ``run`` call, and the item
    of each ``alone`` call.
    """
    runs, alone_items = [], []
    real = module.first_failure

    def counted(run, items, alone, errors=ValueError):
        return real(lambda part: runs.append(len(part)) or run(part), items,
                    lambda item: alone_items.append(item) or alone(item), errors)

    monkeypatch.setattr(module, "first_failure", counted)
    return runs, alone_items


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_records(data_dir):
    return parse_samples((data_dir / "samples.csv").read_text(encoding="utf-8"))
