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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dataset import RO_NORM_PCT, TEMP_NORM_C, TOC_NORM_PCT, SampleRecord, elementwise, read_key_value_blocks

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


def _pl_geo_rows(fields: Mapping[str, np.ndarray], ids: Sequence[str], kelvin: bool) -> np.ndarray:
    toc_star = fields["toc"] / TOC_NORM_PCT
    t_star = fields["temp"] / TEMP_NORM_C
    ro_star = fields["ro"] / RO_NORM_PCT
    return _rows(toc_star, elementwise(math.log, t_star / ro_star))


def _t_star_cubed(temp: float) -> float:
    try:
        return (temp / TEMP_NORM_C) ** 3
    except OverflowError:
        raise ValueError(
            f"vl-geo regressor overflows: (temp / {TEMP_NORM_C}) ** 3 is out of range "
            f"at temperature {temp!r} degC"
        ) from None


def _vl_geo_rows(fields: Mapping[str, np.ndarray], ids: Sequence[str], kelvin: bool) -> np.ndarray:
    return _rows(fields["toc"] / TOC_NORM_PCT, elementwise(_t_star_cubed, fields["temp"]))


def _invtemp_rows(fields: Mapping[str, np.ndarray], ids: Sequence[str], kelvin: bool) -> np.ndarray:
    t = fields["temp"] + CELSIUS_TO_KELVIN if kelvin else fields["temp"]
    zero = np.flatnonzero(t == 0.0)
    if zero.size:
        raise ValueError(f"record {ids[zero[0]]}: temperature of exactly 0 breaks the reciprocal model")
    return _rows(1.0 / t)


def _log_toc_rows(fields: Mapping[str, np.ndarray], ids: Sequence[str], kelvin: bool) -> np.ndarray:
    return _rows(elementwise(math.log, fields["toc"]))


@dataclass(frozen=True)
class _KindFacts:
    """What a model kind regresses: fields, coefficients, row and transforms."""

    dependent_var: str
    required_fields: tuple[str, ...]
    coefficient_names: tuple[str, ...]
    # (field columns, row ids, invtemp_kelvin) -> (m, p) regressor rows
    rows: Callable[[Mapping[str, np.ndarray], Sequence[str], bool], np.ndarray]
    response: Callable[[float], float]                  # dependent value -> linear response
    inverse: Callable[[float], float]                   # linear response -> dependent value


_FACTS = {
    ModelKind.PL_GEO: _KindFacts("pl", ("toc", "temp", "ro"), ("a", "b", "c"),
                                 _pl_geo_rows, math.log, math.exp),
    ModelKind.VL_GEO: _KindFacts("vl", ("toc", "temp"), ("a", "b", "c"),
                                 _vl_geo_rows, math.log, math.exp),
    ModelKind.PL_INVTEMP: _KindFacts("pl", ("temp",), ("a", "c"), _invtemp_rows,
                                     lambda value: -math.log(value),     # ln(1/pl)
                                     lambda linear: math.exp(-linear)),
    ModelKind.PL_TOCPOW: _KindFacts("pl", ("toc",), ("exponent", "ln_scale"),
                                    _log_toc_rows, math.log, math.exp),
    ModelKind.VL_TOCPOW: _KindFacts("vl", ("toc",), ("exponent", "ln_scale"),
                                    _log_toc_rows, math.log, math.exp),
    ModelKind.VL_TOCLIN: _KindFacts("vl", ("toc",), ("slope", "intercept"),
                                    lambda fields, ids, kelvin: _rows(fields["toc"]),
                                    lambda value: value, lambda linear: linear),
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

    def regressors(self, fields: Mapping[str, np.ndarray], ids: Sequence[str]) -> np.ndarray:
        """Regressor rows, shape (m, p), from float64 columns of the required fields.

        ``ids`` name the rows in errors; a trailing column of ones carries
        the intercept. Each value is computed as for its row alone (every
        ``log`` and cube is a ``math`` or builtin call per element). A value
        outside a transform's domain raises for the first row that step
        rejects, which need not be the first row that fails.
        """
        # NumPy warns where the Python float arithmetic it replaces does not.
        with np.errstate(all="ignore"):
            return _FACTS[self.kind].rows(fields, ids, self.invtemp_kelvin)

    def feature_rows(self, records: Sequence[SampleRecord]) -> np.ndarray:
        """The regressor rows of records, shape (m, p); a failing record raises its own error, the first in order."""
        try:
            fields = {}
            for name in self.required_fields:
                column = [getattr(record, name) for record in records]
                if None in column:
                    record = records[column.index(None)]
                    raise ValueError(f"record {record.id} is missing field {name} required by {self.kind.value}")
                fields[name] = np.array(column, dtype=float)
            return self.regressors(fields, [record.id for record in records])
        except ValueError:
            if len(records) > 1:
                # Only on failure: one record at a time, up to the first that raises.
                for record in records:
                    self.feature_row(record)
            raise

    def feature_row(self, record: SampleRecord) -> list[float]:
        """The regressor row for one record; a trailing 1 carries the intercept."""
        return self.feature_rows([record])[0].tolist()

    def dependent_values(self, records: Sequence[SampleRecord]) -> np.ndarray:
        """The records' values of the dependent variable (pl or vl) as float64; the first missing one raises."""
        column = [getattr(record, self.dependent_var) for record in records]
        if None in column:
            record = records[column.index(None)]
            raise ValueError(f"record {record.id} is missing dependent variable {self.dependent_var}")
        return np.array(column, dtype=float)

    def inverse_response(self, linear_value: float) -> float:
        """Map a fitted linear response back to the dependent variable's units."""
        try:
            return _FACTS[self.kind].inverse(linear_value)
        except OverflowError:
            raise ValueError(
                f"{self.kind.value} prediction overflows: linear response {linear_value!r} "
                f"is out of range for {self.dependent_var}"
            ) from None

    def inverse_responses(self, linear_values: Sequence[float]) -> list[float]:
        """:meth:`inverse_response` of each value, with one lookup of the inverse."""
        try:
            return list(map(_FACTS[self.kind].inverse, linear_values))
        except OverflowError:
            # redo per value, so the error names the first one that overflows
            return [self.inverse_response(value) for value in linear_values]


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

    def predict(self, record: SampleRecord) -> float:
        """Predicted dependent value (pl in MPa or vl in m3/t) for one record."""
        row = self.spec.feature_row(record)
        linear = float(np.dot(row, self.coefficients))
        return self.spec.inverse_response(linear)


def predict_rows(spec: ModelSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Predictions in natural units: one ``vecdot`` of regressor rows and coefficients, then the inverse.

    ``x`` and ``w`` broadcast as ``np.vecdot`` does. The inverse runs per
    element in Python (``math.exp`` rounds differently from ``np.exp``), so
    each value equals :meth:`FittedModel.predict` on that row.
    """
    linear = np.vecdot(x, w)
    return np.array(spec.inverse_responses(linear.ravel().tolist())).reshape(linear.shape)


def build_design(records: Sequence[SampleRecord], spec: ModelSpec) -> DesignSystem:
    """Assemble the regression system for a cleaned record list; the rows are checked before the responses."""
    x = spec.feature_rows(records)
    return DesignSystem(x, elementwise(_FACTS[spec.kind].response, spec.dependent_values(records)))


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
    """Least-squares coefficients via the normal equations.

    The n x n system X'X w = X'y is solved directly with partial pivoting;
    the matrix is never inverted explicitly.
    """
    m, n = system.x.shape
    if m < n:
        raise SingularSystemError(f"fewer records ({m}) than coefficients ({n})")
    xtx = system.x.T @ system.x
    xty = system.x.T @ system.y
    return solve_normal_equations(xtx[None], xty[None])[0]


def fit_row_subsets(x: np.ndarray, y: np.ndarray, masks: Iterable[np.ndarray]) -> np.ndarray:
    """Least-squares coefficients of one design on each boolean row subset, shape (F, n).

    Each subset's rows are copied once and its Gram matrix is ``rows.T @
    rows`` of that one copy, as :func:`ols_fit` computes it (two separate
    copies, or a stacked matmul over all subsets, round differently). All
    systems then go through one :func:`solve_normal_equations` call, so
    every row equals :func:`ols_fit` on that subset. A subset with fewer rows
    than coefficients, or a singular one, raises
    :class:`SingularSystemError` for the first failing subset, with
    ``system`` set to its position.
    """
    n = x.shape[1]
    grams, moments = [], []
    for f, mask in enumerate(masks):
        rows = x.compress(mask, axis=0)  # x[mask], about three times faster
        if len(rows) < n:
            # a singular subset before this one is the first failure
            solve_normal_equations(np.array(grams).reshape(f, n, n), np.array(moments).reshape(f, n))
            raise SingularSystemError(f"fewer records ({len(rows)}) than coefficients ({n})", system=f)
        grams.append(rows.T @ rows)
        moments.append(rows.T @ y[mask])
    return solve_normal_equations(np.array(grams).reshape(-1, n, n), np.array(moments).reshape(-1, n))


def fit(records: Sequence[SampleRecord], spec: ModelSpec) -> FittedModel:
    """Build the design system for ``spec`` and solve it."""
    system = build_design(records, spec)
    w = ols_fit(system)
    return FittedModel(spec=spec, coefficients=tuple(float(v) for v in w), n_fit=len(records))


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
    """Parse a model file produced by :func:`model_to_text`."""
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
        n_fit = int(n_fit_value)
    except ValueError:
        raise ValueError(f"model file entry n_fit must be a whole number, got {n_fit_value!r}") from None
    coefficients = []
    for name in spec.coefficient_names:
        if name not in entries:
            raise ValueError(f"model file is missing coefficient {name}")
        coefficients.append(float(entries.pop(name)))
    if entries:
        raise ValueError(f"model file has unexpected entries: {sorted(entries)}")
    return FittedModel(spec=spec, coefficients=tuple(coefficients), n_fit=n_fit)
