"""Leave-one-out validation, error statistics, and the model comparison harness.

Per-record relative errors keep their sign; aggregated comparison rows use
the mean absolute relative error, since a signed mean can cancel to near
zero and hide a large spread.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import SampleTable, require_int, write_csv
from .regression import (
    FittedModel,
    ModelSpec,
    SingularSystemError,
    build_design,
    fit_stack,
    fit_systems,
    predict_rows,
)

DEFAULT_CI_LEVEL = 0.90

#: Regressor floats of the training rows that one block of comparison
#: repetitions gathers at once: 2**17 float64, 1 MiB, plus one response per
#: row. A block is at least one repetition; 200 repetitions of 120
#: three-column rows fit in one.
BLOCK_FLOATS = 2 ** 17

# SciPy major.minor versions on which the capsule's ``t_ppf`` was checked ``==`` the public ``stdtrit``.
_T_PPF_CHECKED_SCIPY = ("1.17",)

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


@dataclass(eq=False)
class ValidationReport:
    """Leave-one-out relative errors with summary statistics and Q-Q pairs.

    ``errors_pct`` is a float64 array of signed per-record errors, 100 *
    (actual - predicted) / actual, in the dependent variable's natural
    units. ``mean_error_pct`` and ``ci_half_width_pct`` summarise the signed
    errors; the ``abs_*`` fields summarise the magnitudes, which is what
    comparison tables report. ``qq_pairs`` is the (n, 2) array of
    :func:`qq_data`.
    """

    errors_pct: np.ndarray
    mean_error_pct: float
    ci_half_width_pct: float
    abs_mean_error_pct: float
    abs_ci_half_width_pct: float
    ci_level: float
    n: int
    qq_pairs: np.ndarray


class Scenario(Enum):
    """Test-pool restrictions used when comparing models."""

    OVERALL = "overall"
    HIGH_T = "high-t"
    HIGH_TOC = "high-toc"
    HIGH_RO = "high-ro"

    def row_label(self, repetition: int) -> str:
        return f"{_SCENARIO_POOLS[self][2]}{repetition}"


# Scenario -> (field, bound, row-label prefix): the test pool is the samples whose field exceeds the bound.
_SCENARIO_POOLS = {
    Scenario.OVERALL: ("toc", -math.inf, "Test "),
    Scenario.HIGH_T: ("temp", 65.0, "HighT"),
    Scenario.HIGH_TOC: ("toc", 5.0, "HighTOC"),
    Scenario.HIGH_RO: ("ro", 2.0, "HighRo"),
}


@dataclass(eq=False)
class ComparisonTable:
    """Long-format comparison columns, one entry per row: test label, model kind and a float64 error %."""

    labels: list[str]
    models: list[str]
    errors_pct: np.ndarray

    def to_csv(self) -> str:
        return write_csv(("test_label", "model", "error_pct"), [self.labels, self.models, self.errors_pct])

    def averages(self) -> dict[str, float]:
        return {model: error for label, model, error in zip(self.labels, self.models, self.errors_pct.tolist())
                if label == "Average"}


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
    # SciPy is imported on the first call (``_t_ppf``), its only use, so that importing the package (and every
    # other subcommand) does not pay for it; ``validate`` loads one extension module of it, not ``scipy.special``.
    t = _t_quantile(n - 1, (1.0 + level) / 2.0)
    return mean, t * s / math.sqrt(n)


def _t_quantile(df: float, p: float) -> float:
    """SciPy's ``stdtrit(df, p)``, the Student-t quantile, bit for bit."""
    return float(_t_ppf()(df, p))


@cache
def _t_ppf():
    """The function behind SciPy's ``stdtrit``, loaded once per process.

    The C function of :func:`_capsule_t_ppf` where it can be taken, else the
    public ``scipy.special.stdtrit``.
    """
    t_ppf = _capsule_t_ppf()
    if t_ppf is None:
        from scipy.special import stdtrit as t_ppf
    return t_ppf


def _capsule_t_ppf():
    """``double t_ppf(double df, double p)`` of ``scipy.special._ufuncs_cxx`` through ``ctypes``, or None.

    It is the C++ function that the ``stdtrit`` ufunc calls, so its results
    are ``stdtrit``'s. Loading that one extension module alone skips
    ``scipy.special``'s package import, with ``numpy.f2py`` and
    ``numpy.testing``: about 0.2 s and 16 MiB of a fresh ``validate``. The
    module is not put in ``sys.modules``; a later ``import scipy.special``
    loads it as usual.

    None unless SciPy's version is in ``_T_PPF_CHECKED_SCIPY`` and the
    capsule's name is ``void *``: another signature behind the same name
    would crash, not raise. None too when any load step raises.
    """
    import scipy

    if ".".join(scipy.__version__.split(".")[:2]) not in _T_PPF_CHECKED_SCIPY:
        return None
    path = Path(scipy.__file__).parent / "special" / f"_ufuncs_cxx{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    try:
        # The spec name must end in ``_ufuncs_cxx``: it names the module's ``PyInit`` function.
        spec = importlib.util.spec_from_file_location("scipy.special._ufuncs_cxx", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        capsule = module.__pyx_capi__["_export_t_ppf_double"]
        if _capsule_name(capsule) != b"void *":
            return None
        # The capsule holds the address of a pointer to the function; calling the capsule's own pointer crashes.
        address = ctypes.c_void_p.from_address(_capsule_pointer(capsule, b"void *")).value
    except (ImportError, OSError, AttributeError, KeyError, TypeError, ValueError):
        return None
    # CPython never unloads an extension module, so the address outlives ``module``.
    return ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)(address)


def qq_data(errors: Sequence[float]) -> np.ndarray:
    """Normal Q-Q pairs: an (n, 2) float64 array of (expected quantile, observed error) rows, ascending.

    Expected quantiles are standard-normal quantiles at plotting positions
    (i - 0.5) / n, rescaled by the sample mean and standard deviation.
    """
    from statistics import NormalDist  # imported here, by its one user: about 4 ms of a fresh process

    n = len(errors)
    if n < 3:
        raise ValueError("need at least three errors for Q-Q data")
    arr = np.sort(np.asarray(errors, dtype=float))
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    normal = NormalDist()
    return np.column_stack([[mean + s * normal.inv_cdf((i - 0.5) / n) for i in range(1, n + 1)], arr])


def _leave_one_out_systems(x: np.ndarray, y: np.ndarray):
    """Leave-one-out training systems in one rolling buffer: fold i holds every row but row i, in order.

    The buffer is a copy (``x[1:]`` is a view of the design), and each fold
    moves one row back into place. A design of an odd column count above
    one gets a second rolling buffer, the same rows followed by one zero
    column, that moves the same way. It is each fold's third item, so
    :func:`~shale_adsorb.regression.fit_systems` takes the fold's Gram from
    the leading block of its syrk, which OpenBLAS computes bit-identically
    to the narrow syrk for 3 columns, and faster. The moments still use the
    narrow rows. One column is not padded: its Gram is a dot product, which
    the padded syrk does not reproduce. Even widths are not padded either:
    at 1,449 rows, 2 columns padded to 4 were slower.
    """
    rows, ys = x[1:].copy(), y[1:].copy()
    p = x.shape[1]
    padded = (np.pad(rows, ((0, 0), (0, 1))),) if p % 2 and p > 1 else ()
    yield rows, ys, *padded
    for i in range(1, len(y)):
        rows[i - 1], ys[i - 1] = x[i - 1], y[i - 1]
        for wide in padded:
            wide[i - 1, :p] = x[i - 1]
        yield rows, ys, *padded


def loo_cv(samples: SampleTable, spec: ModelSpec,
           ci_level: float = DEFAULT_CI_LEVEL) -> ValidationReport:
    """Leave-one-out cross-validation of one model spec.

    Each record is held out once, the model is refit from scratch on the
    remaining rows, and the held-out record is predicted in natural units.
    The design is built once. The folds share one training buffer that
    moves one row per fold, one :func:`~shale_adsorb.regression.fit_systems`
    call solves them all, and the held-out rows are predicted with one
    ``vecdot``. A three-column design's fold Grams come from a second,
    zero-padded 4-wide buffer (:func:`_leave_one_out_systems`), which is
    bit-identical and faster; the moments stay three-wide. Every fold
    equals a separate :func:`~shale_adsorb.regression.fit` on its training
    records.
    A singular fold raises :class:`SingularSystemError` naming the first
    such fold and its record id.
    """
    m = len(samples)
    if m < spec.n_coefficients + 1:
        raise ValueError(
            f"need at least {spec.n_coefficients + 1} records for leave-one-out, got {m}"
        )
    system = build_design(samples, spec)
    try:
        w = fit_systems(_leave_one_out_systems(system.x, system.y))
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"fold {exc.system} (record {samples.ids[exc.system]}) left a singular training system: {exc}",
            system=exc.system,
        ) from exc
    actual = spec.dependent_values(samples)
    errors = (actual - predict_rows(spec, system.x, w)) / actual * 100.0

    mean, half_width = error_ci(errors, ci_level)
    abs_mean, abs_half_width = error_ci(np.abs(errors), ci_level)
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


def _split_pool(samples: SampleTable, scenario: Scenario,
                test_fraction: float) -> tuple[list[int], int]:
    """The scenario's test pool (sample indices) and the test-set size."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must be in (0, 1), got {test_fraction}")
    field, bound, _ = _SCENARIO_POOLS[scenario]
    pool = np.flatnonzero(getattr(samples, field) > bound).tolist()
    if not pool:
        raise ValueError(f"no records match scenario {scenario.value}")
    n_test = max(1, int(round(test_fraction * len(samples))))
    if n_test > len(pool):
        raise ValueError(
            f"scenario {scenario.value} pool has {len(pool)} records, "
            f"fewer than the requested test size {n_test}"
        )
    return pool, n_test


def _test_mask(n_records: int, pool: list[int], n_test: int, seed) -> np.ndarray:
    """Boolean mask of the test rows: a partial Fisher-Yates shuffle of the pool, by :func:`_shuffled_masks`.

    All n_test draws come from one ``rng.integers(np.arange(n_test),
    len(pool))`` call, which yields the same values as n_test sequential
    ``rng.integers(i, len(pool))`` calls.
    """
    return _shuffled_masks(n_records, pool, np.random.default_rng(seed).integers(np.arange(n_test), len(pool))[None])[0]


def _shuffled_masks(n_records: int, pool: list[int], draws: np.ndarray) -> np.ndarray:
    """Row r: the first n_test pool positions after swaps i <-> draws[r, i], on every row's pool copy at once."""
    repetitions, n_test = draws.shape
    idx = np.tile(np.array(pool, dtype=np.int64), (repetitions, 1))
    lanes = np.arange(repetitions)
    for i, j in enumerate(draws.T):
        idx[:, i], idx[lanes, j] = idx[lanes, j], idx[:, i].copy()
    mask = np.zeros((repetitions, n_records), dtype=bool)
    mask[lanes[:, None], idx[:, :n_test]] = True
    return mask


_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341  # PCG64's 128-bit multiplier


def _hash32(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on uint32 lanes: the hashed value and the next hash constant."""
    next_const = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(next_const)
    return value ^ (value >> 16), next_const


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, state * multiplier + increment mod 2**128, on (high, low) uint64 limbs.

    The high limb of ``lo * multiplier`` is built from 32-bit halves.
    """
    lo0, lo1, m0, m1 = lo & _MASK32, lo >> 32, _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    carry = ((p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    product = lo * _PCG_MULT_LO
    new_lo = product + inc_lo
    new_hi = (lo1 * m1 + (p01 >> 32) + (p10 >> 32) + carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
              + inc_hi + (new_lo < product))
    return new_hi, new_lo


def _split_draws(seed: int, repetitions: int, n_test: int, high: int) -> np.ndarray:
    """Row ``rep - 1`` is ``np.random.default_rng([seed, rep]).integers(np.arange(n_test), high)``.

    All repetitions are drawn at once, one lane each, by NumPy's own steps
    on uint32/uint64 arrays: ``SeedSequence`` pool hashing of ``[seed,
    rep]``, ``generate_state(4, uint64)``, ``pcg_setseq_128_srandom_r``,
    PCG64 steps with the XSL-RR output split into 32-bit draws low half
    first, and Lemire's bounded draw for each ``[i, high)``. (NumPy takes no
    bits for a range of one, but only the last draw can have one, so taking
    them changes nothing.) A lane that reaches Lemire's rejection branch is
    redrawn by ``default_rng`` alone. ``high`` must be at most 2**32.
    NEP 19 keeps ``SeedSequence`` and PCG64 streams stable across NumPy
    versions, but not ``Generator.integers``; the tests compare this kernel
    ``==`` with ``default_rng`` and report such a change.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence raises it
    reps = np.arange(1, repetitions + 1, dtype=np.uint32)
    words = [np.full(repetitions, seed >> 32 * k & _MASK32, np.uint32)
             for k in range(max(1, -(-seed.bit_length() // 32)))] + [reps]
    pool, const = [], 0x43B0D7E5
    for k in range(4):  # SeedSequence.mix_entropy
        value, const = _hash32(words[k] if k < len(words) else np.zeros_like(reps), const, 0x931E8875)
        pool.append(value)
    mixes = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for src, dst in mixes + [(src, dst) for src in range(4, len(words)) for dst in range(4)]:
        value, const = _hash32((pool if src < 4 else words)[src], const, 0x931E8875)
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * value
        pool[dst] = mixed ^ (mixed >> 16)
    state, const = [], 0x8B51F9DD
    for k in range(8):  # SeedSequence.generate_state(4, np.uint64)
        value, const = _hash32(pool[k % 4], const, 0x58F38DED)
        state.append(value.astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    inc = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc[1] + s_lo  # from state 0, the first step leaves the increment
    hi, lo = _pcg_step(inc[0] + s_hi + (lo < s_lo), lo, *inc)
    outputs = np.empty((repetitions, -(-n_test // 2)), np.uint64)
    for k in range(outputs.shape[1]):
        hi, lo = _pcg_step(hi, lo, *inc)
        x, rot = hi ^ lo, hi >> 58
        outputs[:, k] = x >> rot | x << (64 - rot & 63)
    bits = np.stack([outputs & _MASK32, outputs >> 32], axis=2).reshape(repetitions, -1)[:, :n_test]
    bound = np.arange(high, high - n_test, -1, dtype=np.uint64)
    scaled = bits * bound
    draws = np.arange(n_test) + (scaled >> 32).astype(np.int64)
    rejected = ((scaled & _MASK32) < (2 ** 32 - bound) % bound).any(axis=1)
    for lane in np.flatnonzero(rejected).tolist():
        draws[lane] = np.random.default_rng([seed, lane + 1]).integers(np.arange(n_test), high)
    return draws


def _test_masks(n_records: int, pool: list[int], n_test: int, seed: int, repetitions: int) -> np.ndarray:
    """``_test_mask(n_records, pool, n_test, [seed, rep])`` for rep = 1..repetitions, as rows.

    Every repetition's swaps run at once, from the draws of :func:`_split_draws`.
    """
    return _shuffled_masks(n_records, pool, _split_draws(seed, repetitions, n_test, len(pool)))


def scenario_split(
    samples: SampleTable,
    scenario: Scenario,
    test_fraction: float,
    seed,
) -> tuple[SampleTable, SampleTable]:
    """Deterministic train/test split with the test set drawn from a scenario pool.

    The test-set size is round(test_fraction * len(records)), at least one;
    test rows are sampled without replacement from the scenario pool by a
    partial Fisher-Yates shuffle driven by a seeded PCG64 generator (swap i
    exchanges pool positions i and j, j drawn from [i, len(pool)); the draws
    come from one array call, equal to the sequential scalar draws), and the
    training set is everything else. Both keep the samples' order.
    """
    pool, n_test = _split_pool(samples, scenario, test_fraction)
    held_out = _test_mask(len(samples), pool, n_test, seed)
    return samples.take(~held_out), samples.take(held_out)


def _mean_abs_relative_errors_pct(actual: np.ndarray, predicted: np.ndarray):
    """Mean absolute relative error (%) along the last axis, summed left to right.

    A float64 array of the inputs' leading shape: 0-d for 1-D inputs, one
    value per row for 2-D ones.
    """
    relative = np.abs((actual - predicted) / actual)
    return np.asarray(np.cumsum(relative, axis=-1)[..., -1] / actual.shape[-1] * 100.0)


def mean_abs_relative_error_pct(model: FittedModel, samples: SampleTable) -> float:
    """Mean absolute relative error (%) of a fitted model on a sample table."""
    if not len(samples):
        raise ValueError("empty evaluation set")
    spec = model.spec
    x = spec.feature_rows(samples)
    actual = spec.dependent_values(samples)
    return _mean_abs_relative_errors_pct(actual, predict_rows(spec, x, np.array(model.coefficients))).item()


def _true_columns(mask: np.ndarray, per_row: int) -> np.ndarray:
    """The column of each True entry of a 2-D mask with ``per_row`` of them in every row, shape (rows, per_row)."""
    columns = np.flatnonzero(mask)
    columns %= mask.shape[1]
    return columns.reshape(len(mask), per_row)


def compare_models(
    samples: SampleTable,
    specs: Sequence[ModelSpec],
    scenario: Scenario,
    test_fraction: float,
    repetitions: int,
    seed: int,
) -> ComparisonTable:
    """Repeated split-fit-score comparison of several specs on one dataset.

    Repetition ``rep`` draws one split, the one :func:`scenario_split`
    draws with seed ``[seed, rep]``; all specs share it, and the splits of
    all repetitions are drawn at once (:func:`_split_draws`). Each
    repetition fits every spec on the training rows, and
    scores the mean absolute relative error on the test rows. A final
    ``Average`` row per spec carries the mean over repetitions, each
    repetition weighted equally and summed left to right. Each spec must be
    of its own kind, since the rows name specs by kind.

    Each spec's design is built once. Its fits over all repetitions are one
    :func:`~shale_adsorb.regression.fit_stack` call on the gathered
    training rows of each block of repetitions (at most ``BLOCK_FLOATS``
    floats), and its test predictions one ``vecdot``; every number
    equals a separate ``fit`` and per-record scoring of that split. A
    singular training system raises :class:`SingularSystemError` naming
    the first repetition and spec that hit one. ``repetitions`` and ``seed``
    must be integers, not bools.
    """
    repetitions, seed = require_int("repetitions", repetitions), require_int("seed", seed)
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

    pool, n_test = _split_pool(samples, scenario, test_fraction)
    test = _test_masks(len(samples), pool, n_test, seed, repetitions)
    test_rows = _true_columns(test, n_test)
    n_train = len(samples) - n_test
    train_rows = _true_columns(~test, n_train)

    errors_by_spec: list[np.ndarray] = []
    failures = []
    for position, spec in enumerate(specs):
        system = build_design(samples, spec)
        # read after the design, so that a sample missing a regressor is reported first
        actual = spec.dependent_values(samples)[test_rows]
        step = max(1, BLOCK_FLOATS // max(1, n_train * spec.n_coefficients))
        w = np.empty((repetitions, spec.n_coefficients))
        try:
            for start in range(0, repetitions, step):
                block = train_rows[start:start + step]
                w[start:start + step] = fit_stack(system.x.take(block, axis=0), system.y.take(block))
        except SingularSystemError as exc:
            failures.append((start + exc.system, position, exc))
            continue
        # the first repetition with a non-finite coefficient fails as its fitted model does
        for coefficients in w[~np.isfinite(w).all(axis=1)][:1]:
            FittedModel(spec, tuple(coefficients.tolist()), n_train)
        errors_by_spec.append(_mean_abs_relative_errors_pct(
            actual, predict_rows(spec, system.x[test_rows], w[:, None, :])))
    if failures:
        rep, position, exc = min(failures, key=lambda failure: failure[:2])
        raise SingularSystemError(
            f"repetition {rep + 1}: {specs[position].kind.value} training system is singular: {exc}",
            system=rep,
        ) from exc

    models = [spec.kind.value for spec in specs]
    prefix = _SCENARIO_POOLS[scenario][2]  # Scenario.row_label's, looked up once
    labels = [f"{prefix}{rep}" for rep in range(1, repetitions + 1) for _ in specs] + ["Average"] * len(specs)
    # reduce adds left to right; the builtin sum() compensates on Python >= 3.12.
    averages = [reduce(operator.add, errors) / len(errors) for errors in errors_by_spec]
    return ComparisonTable(labels, models * (repetitions + 1), np.append(np.stack(errors_by_spec, axis=1), averages))
