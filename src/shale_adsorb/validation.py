"""Leave-one-out validation, error statistics, and the model comparison harness.

Per-record relative errors keep their sign; aggregated comparison rows use
the mean absolute relative error, since a signed mean can cancel to near
zero and hide a large spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist
from typing import Sequence

import numpy as np
from scipy.special import stdtrit

from .dataset import SampleRecord, write_csv
from .regression import (
    DesignSystem,
    FittedModel,
    ModelSpec,
    SingularSystemError,
    build_design,
    fit,
    ols_fit,
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


def loo_cv(records: Sequence[SampleRecord], spec: ModelSpec,
           ci_level: float = DEFAULT_CI_LEVEL) -> ValidationReport:
    """Leave-one-out cross-validation of one model spec.

    Each record is held out once, the model is refit from scratch on the
    remaining rows, and the held-out record is predicted in natural units.
    """
    m = len(records)
    if m < spec.n_coefficients + 1:
        raise ValueError(
            f"need at least {spec.n_coefficients + 1} records for leave-one-out, got {m}"
        )
    system = build_design(records, spec)
    errors: list[float] = []
    for i in range(m):
        x_i = np.delete(system.x, i, axis=0)
        y_i = np.delete(system.y, i)
        try:
            w = ols_fit(DesignSystem(x_i, y_i))
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"fold {i} (record {records[i].id}) left a singular training system: {exc}"
            ) from exc
        predicted = spec.inverse_response(float(system.x[i] @ w))
        actual = getattr(records[i], spec.dependent_var)
        errors.append((actual - predicted) / actual * 100.0)

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


def scenario_split(
    records: Sequence[SampleRecord],
    scenario: Scenario,
    test_fraction: float,
    seed,
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Deterministic train/test split with the test set drawn from a scenario pool.

    The test-set size is round(test_fraction * len(records)), at least one;
    test rows are sampled without replacement from the scenario pool by a
    partial Fisher-Yates shuffle driven by a seeded PCG64 generator, and the
    training set is everything else.
    """
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
    rng = np.random.default_rng(seed)
    idx = list(pool)
    for i in range(n_test):
        j = int(rng.integers(i, len(idx)))
        idx[i], idx[j] = idx[j], idx[i]
    test_set = set(idx[:n_test])
    train = [rec for i, rec in enumerate(records) if i not in test_set]
    test = [rec for i, rec in enumerate(records) if i in test_set]
    return train, test


def mean_abs_relative_error_pct(model: FittedModel, records: Sequence[SampleRecord]) -> float:
    """Mean absolute relative error (%) of a fitted model on a record list."""
    if not records:
        raise ValueError("empty evaluation set")
    total = 0.0
    for rec in records:
        actual = getattr(rec, model.spec.dependent_var)
        total += abs((actual - model.predict(rec)) / actual)
    return total / len(records) * 100.0


def compare_models(
    records: Sequence[SampleRecord],
    specs: Sequence[ModelSpec],
    scenario: Scenario,
    test_fraction: float,
    repetitions: int,
    seed: int,
) -> ComparisonTable:
    """Repeated split-fit-score comparison of several specs on one dataset.

    Each repetition draws one split (all specs share it), fits every spec on
    the training rows, and scores the mean absolute relative error on the
    test rows. A final ``Average`` row per spec carries the mean over
    repetitions, each repetition weighted equally.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    dependents = {spec.dependent_var for spec in specs}
    if len(dependents) != 1:
        raise ValueError(f"all specs must share one dependent variable, got {sorted(dependents)}")

    rows: list[tuple[str, str, float]] = []
    per_spec_errors: dict[str, list[float]] = {spec.kind.value: [] for spec in specs}
    for rep in range(1, repetitions + 1):
        train, test = scenario_split(records, scenario, test_fraction, seed=[seed, rep])
        label = scenario.row_label(rep)
        for spec in specs:
            model = fit(train, spec)
            error = mean_abs_relative_error_pct(model, test)
            rows.append((label, spec.kind.value, error))
            per_spec_errors[spec.kind.value].append(error)
    for spec in specs:
        errors = per_spec_errors[spec.kind.value]
        rows.append(("Average", spec.kind.value, sum(errors) / len(errors)))
    return ComparisonTable(rows)
