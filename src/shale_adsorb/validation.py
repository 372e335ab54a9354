"""Leave-one-out validation, error statistics, and the model comparison harness.

Per-record relative errors keep their sign; aggregated comparison rows use
the mean absolute relative error, since a signed mean can cancel to near
zero and hide a large spread.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .dataset import SampleRecord, write_csv
from .regression import (
    FittedModel,
    ModelSpec,
    SingularSystemError,
    build_design,
    fit_row_subsets,
    predict_rows,
)

DEFAULT_CI_LEVEL = 0.90


@dataclass
class ValidationReport:
    """Leave-one-out relative errors with summary statistics and Q-Q pairs.

    ``errors_pct`` are signed per-record errors, 100 * (actual - predicted)
    / actual, in the dependent variable's natural units. ``mean_error_pct``
    and ``ci_half_width_pct`` summarise the signed list; the ``abs_*``
    fields summarise the magnitudes, which is what comparison tables report.
    """

    errors_pct: list[float]
    mean_error_pct: float
    ci_half_width_pct: float
    abs_mean_error_pct: float
    abs_ci_half_width_pct: float
    ci_level: float
    n: int
    qq_pairs: list[tuple[float, float]]


class Scenario(Enum):
    """Test-pool restrictions used when comparing models."""

    OVERALL = "overall"
    HIGH_T = "high-t"
    HIGH_TOC = "high-toc"
    HIGH_RO = "high-ro"

    def in_pool(self, record: SampleRecord) -> bool:
        return _SCENARIO_POOLS[self][0](record)

    def row_label(self, repetition: int) -> str:
        return f"{_SCENARIO_POOLS[self][1]}{repetition}"


# Scenario -> (test-pool predicate, comparison row-label prefix).
_SCENARIO_POOLS = {
    Scenario.OVERALL: (lambda record: True, "Test "),
    Scenario.HIGH_T: (lambda record: record.temp > 65.0, "HighT"),
    Scenario.HIGH_TOC: (lambda record: record.toc > 5.0, "HighTOC"),
    Scenario.HIGH_RO: (lambda record: record.ro is not None and record.ro > 2.0, "HighRo"),
}


@dataclass
class ComparisonTable:
    """Long-format comparison rows: (test label, model kind, error %)."""

    rows: list[tuple[str, str, float]]

    def to_csv(self) -> str:
        return write_csv(("test_label", "model", "error_pct"),
                         ([label, model, repr(error)] for label, model, error in self.rows))

    def averages(self) -> dict[str, float]:
        return {model: error for label, model, error in self.rows if label == "Average"}


def error_ci(errors: Sequence[float], level: float = DEFAULT_CI_LEVEL) -> tuple[float, float]:
    """Mean and Student-t half-width of a fixed-sample-size confidence interval."""
    n = len(errors)
    if n < 2:
        raise ValueError("need at least two errors for a confidence interval")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    # SciPy is imported here, its only use, so that importing the package
    # (and every other subcommand) does not pay for it.
    from scipy.special import stdtrit

    arr = np.asarray(errors, dtype=float)
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    t = float(stdtrit(n - 1, (1.0 + level) / 2.0))
    return mean, t * s / math.sqrt(n)


def qq_data(errors: Sequence[float]) -> list[tuple[float, float]]:
    """Normal Q-Q pairs: (expected quantile, observed error), ascending.

    Expected quantiles are standard-normal quantiles at plotting positions
    (i - 0.5) / n, rescaled by the sample mean and standard deviation.
    """
    n = len(errors)
    if n < 3:
        raise ValueError("need at least three errors for Q-Q data")
    arr = np.sort(np.asarray(errors, dtype=float))
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    normal = NormalDist()
    return [
        (mean + s * normal.inv_cdf((i - 0.5) / n), float(observed))
        for i, observed in enumerate(arr, start=1)
    ]


def _leave_one_out_masks(m: int):
    """Training-row masks of the m folds; one array, updated in place per fold."""
    mask = np.ones(m, dtype=bool)
    for i in range(m):
        mask[i] = False
        yield mask
        mask[i] = True


def loo_cv(records: Sequence[SampleRecord], spec: ModelSpec,
           ci_level: float = DEFAULT_CI_LEVEL) -> ValidationReport:
    """Leave-one-out cross-validation of one model spec.

    Each record is held out once, the model is refit from scratch on the
    remaining rows, and the held-out record is predicted in natural units.
    The design is built once; each fold's normal equations come from its
    own training rows, all folds are solved in one stacked call, and the
    held-out rows are predicted with one ``vecdot``. Every fold equals a
    separate :func:`~shale_adsorb.regression.fit` on its training records.
    A singular fold raises :class:`SingularSystemError` naming the first
    such fold and its record id.
    """
    m = len(records)
    if m < spec.n_coefficients + 1:
        raise ValueError(
            f"need at least {spec.n_coefficients + 1} records for leave-one-out, got {m}"
        )
    system = build_design(records, spec)
    try:
        w = fit_row_subsets(system.x, system.y, _leave_one_out_masks(m))
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"fold {exc.system} (record {records[exc.system].id}) left a singular training system: {exc}",
            system=exc.system,
        ) from exc
    actual = spec.dependent_values(records)
    errors = ((actual - predict_rows(spec, system.x, w)) / actual * 100.0).tolist()

    mean, half_width = error_ci(errors, ci_level)
    abs_errors = [abs(e) for e in errors]
    abs_mean, abs_half_width = error_ci(abs_errors, ci_level)
    return ValidationReport(
        errors_pct=errors,
        mean_error_pct=mean,
        ci_half_width_pct=half_width,
        abs_mean_error_pct=abs_mean,
        abs_ci_half_width_pct=abs_half_width,
        ci_level=ci_level,
        n=m,
        qq_pairs=qq_data(errors),
    )


def _split_pool(records: Sequence[SampleRecord], scenario: Scenario,
                test_fraction: float) -> tuple[list[int], int]:
    """The scenario's test pool (record indices) and the test-set size."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    pool = [i for i, rec in enumerate(records) if scenario.in_pool(rec)]
    if not pool:
        raise ValueError(f"no records match scenario {scenario.value}")
    n_test = max(1, int(round(test_fraction * len(records))))
    if n_test > len(pool):
        raise ValueError(
            f"scenario {scenario.value} pool has {len(pool)} records, "
            f"fewer than the requested test size {n_test}"
        )
    return pool, n_test


def _test_mask(n_records: int, pool: list[int], n_test: int, seed) -> np.ndarray:
    """Boolean mask of the test rows: a partial Fisher-Yates shuffle of the pool.

    Swap i exchanges positions i and j, with j drawn from [i, len(pool)).
    All n_test draws come from one ``rng.integers(np.arange(n_test),
    len(pool))`` call, which yields the same values as n_test sequential
    ``rng.integers(i, len(pool))`` calls.
    """
    draws = np.random.default_rng(seed).integers(np.arange(n_test), len(pool))
    idx = list(pool)
    for i, j in enumerate(draws.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    mask = np.zeros(n_records, dtype=bool)
    mask[idx[:n_test]] = True
    return mask


def scenario_split(
    records: Sequence[SampleRecord],
    scenario: Scenario,
    test_fraction: float,
    seed,
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Deterministic train/test split with the test set drawn from a scenario pool.

    The test-set size is round(test_fraction * len(records)), at least one;
    test rows are sampled without replacement from the scenario pool by a
    partial Fisher-Yates shuffle driven by a seeded PCG64 generator (swap i
    exchanges pool positions i and j, j drawn from [i, len(pool)); the draws
    come from one array call, equal to the sequential scalar draws), and the
    training set is everything else. Both keep the records' order.
    :func:`compare_models` draws its splits through the same helper.
    """
    pool, n_test = _split_pool(records, scenario, test_fraction)
    held_out = _test_mask(len(records), pool, n_test, seed).tolist()
    return ([rec for rec, held in zip(records, held_out) if not held],
            [rec for rec, held in zip(records, held_out) if held])


def _mean_abs_relative_errors_pct(actual: np.ndarray, predicted: np.ndarray):
    """Mean absolute relative error (%) along the last axis, summed left to right.

    A float for 1-D inputs, a list of floats for 2-D ones.
    """
    relative = np.abs((actual - predicted) / actual)
    return (np.cumsum(relative, axis=-1)[..., -1] / actual.shape[-1] * 100.0).tolist()


def mean_abs_relative_error_pct(model: FittedModel, records: Sequence[SampleRecord]) -> float:
    """Mean absolute relative error (%) of a fitted model on a record list."""
    if not records:
        raise ValueError("empty evaluation set")
    spec = model.spec
    x = spec.feature_rows(records)
    actual = spec.dependent_values(records)
    return _mean_abs_relative_errors_pct(actual, predict_rows(spec, x, np.array(model.coefficients)))


def compare_models(
    records: Sequence[SampleRecord],
    specs: Sequence[ModelSpec],
    scenario: Scenario,
    test_fraction: float,
    repetitions: int,
    seed: int,
) -> ComparisonTable:
    """Repeated split-fit-score comparison of several specs on one dataset.

    Each repetition draws one split (all specs share it; see
    :func:`scenario_split`), fits every spec on the training rows, and
    scores the mean absolute relative error on the test rows. A final
    ``Average`` row per spec carries the mean over repetitions, each
    repetition weighted equally and summed left to right. Each spec must be
    of its own kind, since the rows name specs by kind.

    Each spec's design is built once. Its fits over all repetitions are one
    stacked solve, and its test predictions one ``vecdot``; every number
    equals a separate ``fit`` and per-record scoring of that split. A
    singular training system raises :class:`SingularSystemError` naming
    the first repetition and spec that hit one.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    dependents = {spec.dependent_var for spec in specs}
    if len(dependents) != 1:
        raise ValueError(f"all specs must share one dependent variable, got {sorted(dependents)}")
    kinds = [spec.kind for spec in specs]
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise ValueError(f"model kind {kind.value} appears in more than one spec; "
                             "rows are labelled by kind")

    pool, n_test = _split_pool(records, scenario, test_fraction)
    test = np.array([_test_mask(len(records), pool, n_test, [seed, rep])
                     for rep in range(1, repetitions + 1)])
    test_rows = np.nonzero(test)[1].reshape(repetitions, n_test)

    errors_by_spec: list[list[float]] = []
    failures = []
    for position, spec in enumerate(specs):
        system = build_design(records, spec)
        # read after the design, so that a record missing a regressor is reported first
        actual = spec.dependent_values(records)[test_rows]
        try:
            w = fit_row_subsets(system.x, system.y, ~test)
        except SingularSystemError as exc:
            failures.append((exc.system, position, exc))
            continue
        for coefficients in w.tolist():  # a fitted model's coefficient checks
            FittedModel(spec, tuple(coefficients), len(records) - n_test)
        errors_by_spec.append(_mean_abs_relative_errors_pct(
            actual, predict_rows(spec, system.x[test_rows], w[:, None, :])))
    if failures:
        rep, position, exc = min(failures, key=lambda failure: failure[:2])
        raise SingularSystemError(
            f"repetition {rep + 1}: {specs[position].kind.value} training system is singular: {exc}",
            system=rep,
        ) from exc

    rows = [(scenario.row_label(rep + 1), spec.kind.value, errors[rep])
            for rep in range(repetitions) for spec, errors in zip(specs, errors_by_spec)]
    # reduce adds left to right; the builtin sum() compensates on Python >= 3.12.
    rows += [("Average", spec.kind.value, reduce(operator.add, errors) / len(errors))
             for spec, errors in zip(specs, errors_by_spec)]
    return ComparisonTable(rows)
