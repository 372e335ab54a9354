"""Out-of-program tracer for the traced benchmark run.

The tracer wraps the public functions of each ``shale_adsorb`` module from
outside, at every name that binds them (``regression.fit`` is also bound as
``validation.fit``, ``cli.fit_model`` and ``shale_adsorb.fit``), so nested
calls nest in the trace however they are reached. Each call records a span
(name, start, end, parent, invocation) in memory; spans are written out
only when the run ends. Per-pair helpers such as ``statistical_distance``
and ``haversine_m`` are deliberately not wrapped: they run millions of
times per iteration and the wrapper would cost more than their work.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "shale_adsorb"

# Span name -> (module, attribute path) of the function it wraps. The first
# part of a span name is its layer.
TARGETS = {
    "cli.main": ("cli", "main"),
    "dataset.parse_samples": ("dataset", "parse_samples"),
    "dataset.integrate_replicates": ("dataset", "integrate_replicates"),
    "dataset.clean": ("dataset", "clean"),
    "dataset.records_to_csv": ("dataset", "records_to_csv"),
    "dataset.rejections_to_csv": ("dataset", "rejections_to_csv"),
    "outliers.detect_outliers": ("outliers", "detect_outliers"),
    "outliers.compute_weights": ("outliers", "compute_weights"),
    "outliers.weighted_relative_error": ("outliers", "weighted_relative_error"),
    "outliers.to_csv": ("outliers", "OutlierReport.to_csv"),
    "regression.build_design": ("regression", "build_design"),
    "regression.ols_fit": ("regression", "ols_fit"),
    "regression.fit": ("regression", "fit"),
    "regression.predict": ("regression", "FittedModel.predict"),
    "regression.model_to_text": ("regression", "model_to_text"),
    "validation.loo_cv": ("validation", "loo_cv"),
    "validation.compare_models": ("validation", "compare_models"),
    "validation.scenario_split": ("validation", "scenario_split"),
    "validation.mean_abs_relative_error_pct": ("validation", "mean_abs_relative_error_pct"),
    "validation.error_ci": ("validation", "error_ci"),
    "validation.qq_data": ("validation", "qq_data"),
    "estimator.parse_reservoirs": ("estimator", "parse_reservoirs"),
    "estimator.estimate_reservoir": ("estimator", "estimate_reservoir"),
    "estimator.estimates_to_csv": ("estimator", "estimates_to_csv"),
    "geotemp.parse_heatflow": ("geotemp", "parse_heatflow"),
    "geotemp.filter_heatflow": ("geotemp", "filter_heatflow"),
    "geotemp.interpolate_grid": ("geotemp", "interpolate_grid"),
    "geotemp.idw_interpolate": ("geotemp", "idw_interpolate"),
    "geotemp.grid_to_csv": ("geotemp", "grid_to_csv"),
}

LAYERS = ("cli", "dataset", "outliers", "regression", "validation", "estimator", "geotemp")

# Which end-to-end metric each layer's numbers should move, and where.
LAYER_MOVES = {
    "cli": "op_p50_s on model-compare and gradient-map, where per-invocation overhead is a large share",
    "dataset": "wall_s on screen-large",
    "outliers": "wall_s and items_per_s on screen-large; slightly op_p50_s on model-compare; "
                "nothing on gradient-map",
    "regression": "wall_s on model-compare",
    "validation": "wall_s on model-compare, and on screen-large once the K-NN screen is fast",
    "estimator": "wall_s on gradient-map",
    "geotemp": "wall_s on gradient-map, and op_p90_s through the query path",
    "setup": "setup_s, and with it op_p50_s as users see it, on every workload",
    "trace": "nothing: the cost of tracing itself",
}


# Span name -> function of (args, result) giving the counts one call adds.
_COUNTERS = {
    "dataset.parse_samples": lambda args, result: {"rows": len(result)},
    "dataset.clean": lambda args, result: {"in": len(args[0]), "kept": len(result.kept)},
    "outliers.detect_outliers": lambda args, result: {"rows": len(args[0]),
                                                      "flagged": sum(result.flagged)},
    "validation.loo_cv": lambda args, result: {"folds": result.n},
    "estimator.parse_reservoirs": lambda args, result: {"blocks": len(result)},
    "estimator.estimate_reservoir": lambda args, result: {"warned": bool(result.warnings)},
    "geotemp.filter_heatflow": lambda args, result: {"in": len(args[0]), "kept": len(result)},
    "geotemp.interpolate_grid": lambda args, result: {"nodes": len(result)},
    "cli.main": lambda args, result: {"errors": result != 0},
}


class Tracer:
    """Installs span-recording wrappers while active (use as a context manager).

    ``clock`` gives the time in seconds at which spans start and end.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised"] += 1
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if classes:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, name, start, end, parent, invocation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "invocation"])
            for index, (name, start, end, parent, invocation) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, invocation])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced iteration that lasted ``wall_s``."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in TARGETS}
    metrics.update({f"{name}.calls": float(calls.get(name, 0)) for name in TARGETS})
    metrics.update({
        "cli.main.errors": float(counts["cli.main.errors"] + counts["cli.main.raised"]),
        "dataset.parse_samples.rows": float(counts["dataset.parse_samples.rows"]),
        "dataset.clean.kept_ratio": _ratio(counts["dataset.clean.kept"], counts["dataset.clean.in"]),
        "outliers.detect_outliers.rows": float(counts["outliers.detect_outliers.rows"]),
        "outliers.flagged_ratio": _ratio(counts["outliers.detect_outliers.flagged"],
                                         counts["outliers.detect_outliers.rows"]),
        "regression.singular.errors": float(
            counts["regression.ols_fit.raised.SingularSystemError"]),
        "validation.loo_cv.folds": float(counts["validation.loo_cv.folds"]),
        "estimator.parse_reservoirs.blocks": float(counts["estimator.parse_reservoirs.blocks"]),
        "estimator.warned_ratio": _ratio(counts["estimator.estimate_reservoir.warned"],
                                         calls.get("estimator.estimate_reservoir", 0)),
        "geotemp.filter_heatflow.kept_ratio": _ratio(counts["geotemp.filter_heatflow.kept"],
                                                     counts["geotemp.filter_heatflow.in"]),
        "geotemp.interpolate_grid.nodes": float(counts["geotemp.interpolate_grid.nodes"]),
    })
    for layer in LAYERS:
        layer_self = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
        metrics[f"layer.{layer}.share_pct"] = 100.0 * _ratio(layer_self, wall_s)
    return metrics
