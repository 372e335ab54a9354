"""Design matrices and ordinary least squares for the Langmuir-parameter models.

Six model forms share one solver: the two geological-parameter models (the
package's own, driven by dimensionless TOC, temperature and maturity) and
four simpler reference forms refit on the same data for comparison. Every
form is linear after its documented transform, so fitting is always a
normal-equation solve on a dense m x n system with n <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .dataset import (RO_NORM_PCT, TEMP_NORM_C, TOC_NORM_PCT, SampleTable, elementwise, first_failure, parse_number,
                      read_key_value_blocks)

#: Relative pivot threshold below which the normal equations are treated as
#: singular rather than solved into garbage coefficients.
PIVOT_RTOL = 1e-12

CELSIUS_TO_KELVIN = 273.15


class SingularSystemError(ValueError):
    """The normal equations are singular or too ill-conditioned to solve.

    ``system`` is the position of the offending system in a stacked solve
    (0 for a single system).
    """

    def __init__(self, message: str, system: int = 0):
        super().__init__(message)
        self.system = system


class ModelKind(Enum):
    """Model forms, keyed by dependent variable and regressor recipe."""

    PL_GEO = "pl-geo"          # ln pl = a*toc_star + b*ln(t_star/ro_star) + c
    VL_GEO = "vl-geo"          # ln vl = a*toc_star + b*t_star^3 + c
    PL_INVTEMP = "pl-invtemp"  # ln(1/pl) = a/T + c
    PL_TOCPOW = "pl-tocpow"    # pl = scale * toc^exponent, fit log-log
    VL_TOCPOW = "vl-tocpow"    # vl = scale * toc^exponent, fit log-log
    VL_TOCLIN = "vl-toclin"    # vl = slope*toc + intercept


_KIND_BY_VALUE = {kind.value: kind for kind in ModelKind}


def _rows(*columns: np.ndarray) -> np.ndarray:
    """Regressor rows of the given columns plus a trailing column of ones for the intercept."""
    return np.column_stack((*columns, np.ones(len(columns[0]))))


def _log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each value: a value of 0 or below raises its ``ValueError``, and NaN stays NaN."""
    if (values <= 0.0).any():
        raise ValueError("math domain error")
    return elementwise(np.log, values)


def _exp(values: np.ndarray) -> np.ndarray:
    """``math.exp`` of each value, but an overflow is ``inf``: the caller raises for it."""
    return elementwise(np.exp, values)


def _first_overflow(results: np.ndarray, arguments: np.ndarray) -> int | None:
    """Flat index of the first infinite result of a finite argument, where ``math`` raises ``OverflowError``."""
    overflow = np.flatnonzero(np.isinf(results) & np.isfinite(arguments))
    return int(overflow[0]) if overflow.size else None


def _pl_geo_rows(samples: SampleTable, kelvin: bool) -> np.ndarray:
    toc_star = samples.toc / TOC_NORM_PCT
    t_star = samples.temp / TEMP_NORM_C
    ro_star = samples.ro / RO_NORM_PCT
    return _rows(toc_star, _log(t_star / ro_star))


def _vl_geo_rows(samples: SampleTable, kelvin: bool) -> np.ndarray:
    t_star = samples.temp / TEMP_NORM_C
    cubes = elementwise(np.power, t_star, 3.0)
    if (i := _first_overflow(cubes, t_star)) is not None:
        raise ValueError(
            f"vl-geo regressor overflows: (temp / {TEMP_NORM_C}) ** 3 is out of range "
            f"at temperature {samples.temp[i].item()!r} degC"
        )
    return _rows(samples.toc / TOC_NORM_PCT, cubes)


def _invtemp_rows(samples: SampleTable, kelvin: bool) -> np.ndarray:
    t = samples.temp + CELSIUS_TO_KELVIN if kelvin else samples.temp
    zero = np.flatnonzero(t == 0.0)
    if zero.size:
        raise ValueError(f"record {samples.ids[zero[0]]}: temperature of exactly 0 breaks the reciprocal model")
    return _rows(1.0 / t)


def _log_toc_rows(samples: SampleTable, kelvin: bool) -> np.ndarray:
    return _rows(_log(samples.toc))


@dataclass(frozen=True)
class _KindFacts:
    """What a model kind regresses: fields, coefficients, row and transforms."""

    dependent_var: str
    required_fields: tuple[str, ...]
    coefficient_names: tuple[str, ...]
    # (samples holding every required field, invtemp_kelvin) -> (m, p) regressor rows
    rows: Callable[[SampleTable, bool], np.ndarray]
    response: Callable[[np.ndarray], np.ndarray]        # dependent values -> linear responses
    inverse: Callable[[np.ndarray], np.ndarray]         # linear responses -> dependent values


_FACTS = {
    ModelKind.PL_GEO: _KindFacts("pl", ("toc", "temp", "ro"), ("a", "b", "c"),
                                 _pl_geo_rows, _log, _exp),
    ModelKind.VL_GEO: _KindFacts("vl", ("toc", "temp"), ("a", "b", "c"),
                                 _vl_geo_rows, _log, _exp),
    ModelKind.PL_INVTEMP: _KindFacts("pl", ("temp",), ("a", "c"), _invtemp_rows,
                                     lambda values: -_log(values),     # ln(1/pl)
                                     lambda linear: _exp(-linear)),
    ModelKind.PL_TOCPOW: _KindFacts("pl", ("toc",), ("exponent", "ln_scale"),
                                    _log_toc_rows, _log, _exp),
    ModelKind.VL_TOCPOW: _KindFacts("vl", ("toc",), ("exponent", "ln_scale"),
                                    _log_toc_rows, _log, _exp),
    ModelKind.VL_TOCLIN: _KindFacts("vl", ("toc",), ("slope", "intercept"),
                                    lambda samples, kelvin: _rows(samples.toc),
                                    lambda values: values, lambda linear: linear),
}


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus its fitting options.

    ``invtemp_kelvin`` switches the reciprocal-temperature model to absolute
    temperature; by default it uses degrees Celsius as stored.
    """

    kind: ModelKind
    invtemp_kelvin: bool = False

    @property
    def dependent_var(self) -> str:
        return _FACTS[self.kind].dependent_var

    @property
    def required_fields(self) -> tuple[str, ...]:
        return _FACTS[self.kind].required_fields

    @property
    def coefficient_names(self) -> tuple[str, ...]:
        return _FACTS[self.kind].coefficient_names

    @property
    def n_coefficients(self) -> int:
        return len(self.coefficient_names)

    def regressors(self, samples: SampleTable) -> np.ndarray:
        """Regressor rows, shape (m, p), of a sample table, each step run on all samples at once.

        A trailing column of ones carries the intercept. Each value is
        computed as for its sample alone: every ``log`` and cube is one
        :func:`~shale_adsorb.dataset.elementwise` call, which rounds each
        element as the ``math`` or builtin call does. A step raises for the first
        sample it rejects, which need not be the first sample that fails: a
        missing field first, then a value outside a transform's domain.
        """
        for name in self.required_fields:
            samples.values(name, f"record {{id}} is missing field {name} required by {self.kind.value}")
        # NumPy warns where the Python float arithmetic it replaces does not.
        with np.errstate(all="ignore"):
            return _FACTS[self.kind].rows(samples, self.invtemp_kelvin)

    def feature_rows(self, samples: SampleTable) -> np.ndarray:
        """The regressor rows of samples, shape (m, p); fails as :func:`~shale_adsorb.dataset.first_failure` says."""
        return first_failure(lambda rows: self.regressors(samples.take(rows) if len(rows) < len(samples) else samples),
                             range(len(samples)), lambda i: self.regressors(samples.take([i])))

    def dependent_values(self, samples: SampleTable) -> np.ndarray:
        """The samples' values of the dependent variable (pl or vl); the first missing one raises."""
        return samples.values(self.dependent_var, f"record {{id}} is missing dependent variable {self.dependent_var}")


@dataclass
class DesignSystem:
    """Dense regression system: m x n matrix of regressors and length-m response."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"inconsistent system shapes {self.x.shape} and {self.y.shape}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("design system contains non-finite entries")


@dataclass(frozen=True)
class FittedModel:
    """A model spec together with its fitted coefficient vector."""

    spec: ModelSpec
    coefficients: tuple[float, ...]
    n_fit: int

    def __post_init__(self):
        if len(self.coefficients) != self.spec.n_coefficients:
            raise ValueError(
                f"{self.spec.kind.value} needs {self.spec.n_coefficients} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if not all(math.isfinite(value) for value in self.coefficients):
            raise ValueError(f"{self.spec.kind.value} coefficients must be finite, got {self.coefficients!r}")
        if self.n_fit < 0:
            raise ValueError(f"n_fit must be >= 0, got {self.n_fit}")

    def predict(self, samples: SampleTable) -> np.ndarray:
        """Predicted dependent values (pl in MPa or vl in m3/t), a float64 array with one per sample.

        Each value is :func:`predict_rows` of the sample's regressor row. A
        failure is the first failing sample's own error, by
        :func:`~shale_adsorb.dataset.first_failure`.
        """
        def run(rows: range) -> np.ndarray:
            part = samples.take(rows) if len(rows) < len(samples) else samples
            return predict_rows(self.spec, self.spec.regressors(part), np.array(self.coefficients))

        return first_failure(run, range(len(samples)), lambda i: run(range(i, i + 1)))


def predict_rows(spec: ModelSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Predictions in natural units: one ``vecdot`` of regressor rows and coefficients, then the inverse.

    ``x`` and ``w`` broadcast as ``np.vecdot`` does. The inverse is one
    :func:`~shale_adsorb.dataset.elementwise` call, which rounds as
    ``math.exp`` does (NumPy's forward ``exp`` loop does not), so each
    value equals the prediction of its row alone. The first value that
    overflows raises.
    """
    linear = np.vecdot(x, w)
    values = _FACTS[spec.kind].inverse(linear)
    if (i := _first_overflow(values, linear)) is not None:
        raise ValueError(
            f"{spec.kind.value} prediction overflows: linear response {linear.flat[i].item()!r} "
            f"is out of range for {spec.dependent_var}"
        )
    return values


def build_design(samples: SampleTable, spec: ModelSpec) -> DesignSystem:
    """Assemble the regression system for a cleaned sample table; the rows are checked before the responses."""
    x = spec.feature_rows(samples)
    return DesignSystem(x, _FACTS[spec.kind].response(spec.dependent_values(samples)))


def solve_normal_equations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a stack of small dense systems ``a[f] @ w[f] = b[f]``; shapes (F, n, n), (F, n).

    Gaussian elimination with partial pivoting, run on all F systems at
    once: each keeps its own pivot choice, row swap and row updates, in the
    elementwise order of a per-system loop, so every system rounds exactly
    as it would alone. Back substitution takes each row's dot product with
    ``np.vecdot`` (the ddot kernel a 1-D ``@`` uses). A singular system
    raises :class:`SingularSystemError` for the first such system in the
    stack; its ``system`` attribute is that position.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = b.shape[1]
    scale = np.abs(a).max(axis=(1, 2))
    error = None
    # A failure at position k makes every later system irrelevant, so the
    # stack is cut to its first k systems and only they are carried on.
    zero = np.flatnonzero(scale == 0.0)
    if zero.size:
        error = SingularSystemError("normal-equation matrix is zero", system=int(zero[0]))
        a, b, scale = a[:zero[0]], b[:zero[0]], scale[:zero[0]]
    for col in range(n):
        systems = np.arange(len(b))
        pivot_row = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        pivot = a[systems, pivot_row, col]
        bad = np.flatnonzero(np.abs(pivot) <= PIVOT_RTOL * scale)
        if bad.size:
            k = int(bad[0])
            error = SingularSystemError(
                f"normal equations are singular or ill-conditioned (pivot {pivot[k]:.3e} "
                f"below {PIVOT_RTOL:.0e} of scale {scale[k]:.3e})",
                system=k,
            )
            a, b, scale, systems, pivot_row = a[:k], b[:k], scale[:k], systems[:k], pivot_row[:k]
        if (pivot_row != col).any():
            top_a, top_b = a[systems, col], b[systems, col]
            a[systems, col], b[systems, col] = a[systems, pivot_row], b[systems, pivot_row]
            a[systems, pivot_row], b[systems, pivot_row] = top_a, top_b
        for row in range(col + 1, n):
            factor = a[:, row, col] / a[:, col, col]
            a[:, row, col:] -= factor[:, None] * a[:, col, col:]
            b[:, row] -= factor * b[:, col]
    if error is not None:
        raise error
    w = np.zeros(b.shape)
    for row in range(n - 1, -1, -1):
        w[:, row] = (b[:, row] - np.vecdot(a[:, row, row + 1:], w[:, row + 1:])) / a[:, row, row]
    return w


def ols_fit(system: DesignSystem) -> np.ndarray:
    """Least-squares coefficients of one system: X'X w = X'y by :func:`fit_systems`, X'X never inverted."""
    return fit_systems([(system.x, system.y)])[0]


def fit_systems(systems: Iterable[tuple[np.ndarray, ...]]) -> np.ndarray:
    """Least-squares coefficients of each of one or more ``(rows, y)`` systems, shape (F, n).

    The one place the normal equations are built: ``rows.T @ rows`` (one
    syrk, which a stacked matmul or a transposed copy would not reproduce)
    and ``rows.T @ y``, as each system is taken, so a producer may update
    one buffer between systems. A system may be ``(rows, y, wide)``, where
    ``wide`` is a contiguous copy of ``rows`` followed by zero columns; its
    Gram is then the leading n×n block of ``wide.T @ wide``. For n = 3 and
    one zero column that block is bit-identical to ``rows.T @ rows`` on
    OpenBLAS, and the 4-wide syrk takes the register-blocked kernel rather
    than the slower 3-column edge path. The moment stays
    ``rows.T @ y`` on the n-wide rows: a gemv on ``wide`` or on a strided
    ``wide[:, :n]`` view rounds differently. One
    :func:`solve_normal_equations` call then solves them all, each as it
    would alone. The first system with fewer rows than coefficients, or
    singular, raises :class:`SingularSystemError` with ``system`` set to
    its position.
    """
    grams, moments = [], []
    for f, (rows, y, *wide) in enumerate(systems):
        m, n = rows.shape
        if m < n:
            if grams:  # a singular system before this one is the first failure
                solve_normal_equations(np.array(grams), np.array(moments))
            raise SingularSystemError(f"fewer records ({m}) than coefficients ({n})", system=f)
        grams.append((wide[0].T @ wide[0])[:n, :n] if wide else rows.T @ rows)
        moments.append(rows.T @ y)
    return solve_normal_equations(np.array(grams), np.array(moments))


def fit(samples: SampleTable, spec: ModelSpec) -> FittedModel:
    """Build the design system for ``spec`` and solve it."""
    system = build_design(samples, spec)
    w = ols_fit(system)
    return FittedModel(spec=spec, coefficients=tuple(float(v) for v in w), n_fit=len(samples))


def model_to_text(model: FittedModel) -> str:
    """Key-value text block: kind, full-precision coefficients, and n_fit."""
    lines = [f"kind={model.spec.kind.value}"]
    if model.spec.kind is ModelKind.PL_INVTEMP and model.spec.invtemp_kelvin:
        lines.append("kelvin=true")
    for name, value in zip(model.spec.coefficient_names, model.coefficients):
        lines.append(f"{name}={value!r}")
    lines.append(f"n_fit={model.n_fit}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FittedModel:
    """Parse a model file produced by :func:`model_to_text`, its numbers by :func:`~.dataset.parse_number`."""
    entries = next(iter(read_key_value_blocks(text, "model file")), {})
    if "kind" not in entries:
        raise ValueError("model file is missing the kind entry")
    kind_value = entries.pop("kind")
    if kind_value not in _KIND_BY_VALUE:
        raise ValueError(f"unknown model kind {kind_value!r}")
    kind = _KIND_BY_VALUE[kind_value]
    # pl-invtemp's only option; any other value, or any other kind, leaves it an unexpected entry
    kelvin = kind is ModelKind.PL_INVTEMP and entries.get("kelvin", "").lower() in ("true", "false")
    spec = ModelSpec(kind, invtemp_kelvin=kelvin and entries.pop("kelvin").lower() == "true")
    if "n_fit" not in entries:
        raise ValueError("model file is missing the n_fit entry")
    n_fit_value = entries.pop("n_fit")
    try:
        n_fit = parse_number(n_fit_value, int)
    except ValueError:
        raise ValueError(f"model file entry n_fit must be a whole number, got {n_fit_value!r}") from None
    coefficients = []
    for name in spec.coefficient_names:
        if name not in entries:
            raise ValueError(f"model file is missing coefficient {name}")
        value = entries.pop(name)
        try:
            coefficients.append(parse_number(value))
        except ValueError:
            raise ValueError(f"model file coefficient {name} must be a number, got {value!r}") from None
    if entries:
        raise ValueError(f"model file has unexpected entries: {sorted(entries)}")
    return FittedModel(spec=spec, coefficients=tuple(coefficients), n_fit=n_fit)
