"""Command-line pipeline for the adsorbed-gas estimation workflow.

Subcommands mirror the pipeline stages: ``clean``, ``outliers``, ``fit`` and
``validate`` each run the chain up to their stage; ``compare`` scores the
geological-parameter model against the reference forms; ``estimate``
evaluates reservoirs; ``idw`` interpolates temperature gradients. All
randomness flows from ``--seed``; diagnostics go to stderr and data to
files, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset, estimator, geotemp, outliers, validation
from .dataset import DatasetKind
from .regression import FittedModel, ModelKind, ModelSpec, fit as fit_model, model_from_text, model_to_text
from .validation import Scenario

LOG_ENV_VAR = "SHALE_ADSORB_LOG"
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}

log = logging.getLogger("shale_adsorb")
# The package logger's own stderr handler: each main points it at the current sys.stderr.
_log_handler = logging.StreamHandler()
_log_handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))

_COMPARE_SPECS = {
    DatasetKind.PL: (ModelKind.PL_INVTEMP, ModelKind.PL_TOCPOW, ModelKind.PL_GEO),
    DatasetKind.VL: (ModelKind.VL_TOCPOW, ModelKind.VL_TOCLIN, ModelKind.VL_GEO),
}

_GEO_KIND = {DatasetKind.PL: ModelKind.PL_GEO, DatasetKind.VL: ModelKind.VL_GEO}


def _configure_logging() -> None:
    """Log to stderr at the level ``SHALE_ADSORB_LOG`` names (``warning`` if unset); others are a usage error.

    Each call applies the current value and ``sys.stderr``. Only the package
    logger is configured, and it does not propagate, so a host's root
    handlers are neither replaced nor fed a second copy.
    """
    value = os.environ.get(LOG_ENV_VAR, "")
    level_name = value.strip().lower() or "warning"
    if level_name not in _LOG_LEVELS:
        build_parser().error(f"{LOG_ENV_VAR} must be one of {', '.join(_LOG_LEVELS)}; got {value!r}")
    _log_handler.stream = sys.stderr  # not setStream, which flushes the previous stream, perhaps closed
    log.addHandler(_log_handler)
    log.setLevel(_LOG_LEVELS[level_name])
    log.propagate = False


def _number(kind: type):
    """An argparse ``type`` reading ``kind`` by ``dataset.parse_number``: a ``_`` is a usage error naming the option."""
    parse = functools.partial(dataset.parse_number, kind=kind)
    parse.__name__ = kind.__name__  # argparse names the type in its message
    return parse


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _write(path: Path, content: str) -> None:
    path.write_text(content, encoding="utf-8")
    log.info("wrote %s", path)


def _parse_file(parse, path: str):
    """``parse`` of the text of file ``path``; a file that exists but cannot be read is a ``ValueError`` naming it."""
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise stay in the first header cell.
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise  # exit 2, not a stage's failure
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse(text)


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name} stage: {exc}") from exc


def _run_clean_stage(args: argparse.Namespace, out: Path) -> dataset.SampleTable:
    kind = DatasetKind(args.kind)
    samples = _stage("parse", _parse_file, dataset.parse_samples, args.input)
    unique, duplicates = dataset.integrate_replicates(samples)
    outcome = _stage("clean", dataset.clean, unique, kind)

    _write(out / "kept.csv", dataset.records_to_csv(outcome.kept))
    _write(out / "rejections.csv", dataset.rejections_to_csv(
        dataset.SampleTable.concat([duplicates, outcome.rejected]),
        [dataset.REASON_DUPLICATE] * len(duplicates) + outcome.reasons))

    _say(f"clean[{kind.value}]: kept {len(outcome.kept)}, rejected "
         f"{len(outcome.rejected) + len(duplicates)} ({len(duplicates)} duplicate)")
    return outcome.kept


def _run_outlier_stage(args: argparse.Namespace, out: Path) -> dataset.SampleTable:
    kind = DatasetKind(args.kind)
    kept = _run_clean_stage(args, out)
    report = _stage("outlier-detection", outliers.detect_outliers, kept, kind,
                    k=args.k, threshold=args.threshold)
    _write(out / "outliers.csv", report.to_csv())
    inlier_records = report.inliers(kept)
    _say(f"outliers[{kind.value}]: flagged {len(kept) - len(inlier_records)} of {len(kept)} "
         f"(k={args.k}, threshold={args.threshold})")
    return inlier_records


def _run_fit_stage(args: argparse.Namespace, out: Path) -> tuple[FittedModel, dataset.SampleTable]:
    kind = DatasetKind(args.kind)
    records = _run_outlier_stage(args, out)
    spec = ModelSpec(_GEO_KIND[kind])
    model = _stage("fit", fit_model, records, spec)
    _write(out / f"model_{kind.value}.txt", model_to_text(model))
    coefficients = ", ".join(
        f"{name}={value:.4g}" for name, value in zip(spec.coefficient_names, model.coefficients)
    )
    _say(f"fit[{spec.kind.value}]: {coefficients} (n_fit={model.n_fit})")
    return model, records


def cmd_validate(args: argparse.Namespace, out: Path) -> None:
    model, samples = _run_fit_stage(args, out)
    report = _stage("leave-one-out", validation.loo_cv, samples, model.spec, ci_level=args.ci_level)

    _write(out / "loo_errors.csv", dataset.write_csv(("id", "error_pct"), [samples.ids, report.errors_pct]))
    _write(out / "qq.csv", dataset.write_csv(("expected", "observed"), list(report.qq_pairs.T)))
    summary = ("mean_error_pct", "ci_half_width_pct", "abs_mean_error_pct",
               "abs_ci_half_width_pct", "ci_level", "n")
    # repr, not a float column: n is an int, written 48, not 48.0
    _write(out / "validation_summary.csv", dataset.write_csv(
        ("stat", "value"), [summary, [repr(getattr(report, name)) for name in summary]]))

    _say(f"validate: mean error {report.mean_error_pct:.2f}% "
         f"(+/- {report.ci_half_width_pct:.2f}%), mean |error| {report.abs_mean_error_pct:.2f}% "
         f"(+/- {report.abs_ci_half_width_pct:.2f}%), {args.ci_level:.0%} CI, n={report.n}")


def cmd_compare(args: argparse.Namespace, out: Path) -> None:
    kind = DatasetKind(args.kind)
    records = _run_outlier_stage(args, out)
    specs = [
        ModelSpec(model_kind, invtemp_kelvin=args.invtemp_kelvin)
        for model_kind in _COMPARE_SPECS[kind]
    ]
    table = _stage("compare", validation.compare_models, records, specs,
                   scenario=Scenario(args.scenario), test_fraction=args.test_fraction,
                   repetitions=args.reps, seed=args.seed)
    _write(out / "comparison.csv", table.to_csv())
    for model, error in table.averages().items():
        _say(f"compare[{args.scenario}]: {model} average error {error:.2f}%")


def cmd_estimate(args: argparse.Namespace, out: Path) -> None:
    if args.paper_coefficients:
        pl_model, vl_model = estimator.reference_models()
    else:
        pl_model = _stage("model", _parse_file, model_from_text, args.pl_model)
        vl_model = _stage("model", _parse_file, model_from_text, args.vl_model)
        if pl_model.spec.dependent_var != "pl" or vl_model.spec.dependent_var != "vl":
            raise ValueError("model stage: --pl-model must predict pl and --vl-model must predict vl")

    reservoirs = _stage("reservoir-config", _parse_file, estimator.parse_reservoirs, args.input)
    if not reservoirs:
        raise ValueError(f"reservoir-config stage: no reservoir blocks found in {args.input}")
    estimates = _stage("estimate", estimator.estimate_reservoirs, reservoirs, pl_model, vl_model)
    _write(out / "estimates.csv", estimator.estimates_to_csv(estimates))
    for name, warnings in zip(reservoirs.names, estimates.warnings()):
        if warnings:
            _say(f"warning: {name}: outside fitted ranges ({warnings})")
    _say(f"estimate: wrote {len(estimates)} reservoirs to {out / 'estimates.csv'}")


def cmd_idw(args: argparse.Namespace, out: Path) -> None:
    points = _stage("parse", _parse_file, geotemp.parse_heatflow, args.input)
    usable = _stage("filter", geotemp.filter_heatflow, points, min_depth=args.min_depth)
    if not usable:
        raise ValueError(f"filter stage: no heat-flow points at or below {args.min_depth} m")
    _say(f"idw: {len(usable)} of {len(points)} points usable (min depth {args.min_depth} m)")

    if args.query is not None:
        lon, lat = args.query
        value = _stage("interpolate", geotemp.idw_interpolate, usable, lon, lat,
                       power=args.idw_power, max_neighbors=args.max_neighbors)
        grid = np.array([[lon, lat, value]])
        _say(f"idw: gradient at ({lon:.4f}, {lat:.4f}) is {value:.2f} degC/km")
    else:
        lon_min, lon_max, lat_min, lat_max, n_lon, n_lat = args.grid
        grid = _stage("interpolate", geotemp.interpolate_grid, usable,
                      lon_min, lon_max, lat_min, lat_max, n_lon, n_lat,
                      power=args.idw_power, max_neighbors=args.max_neighbors)
    _write(out / "idw.csv", geotemp.grid_to_csv(grid))


def _add_kind_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=["pl", "vl"],
                        help="which dependent variable's dataset to process")


def _add_outlier_options(parser: argparse.ArgumentParser) -> None:
    _add_kind_option(parser)
    parser.add_argument("--k", type=_number(int), default=outliers.DEFAULT_K,
                        help="neighbour count for outlier screening (default 5)")
    parser.add_argument("--threshold", type=_number(float), default=outliers.DEFAULT_THRESHOLD,
                        help="weighted-relative-error outlier threshold (default 0.85)")


def _add_validate_options(parser: argparse.ArgumentParser) -> None:
    _add_outlier_options(parser)
    parser.add_argument("--ci-level", type=_number(float), default=validation.DEFAULT_CI_LEVEL,
                        help="confidence level for error intervals (default 0.90)")


def _add_compare_options(parser: argparse.ArgumentParser) -> None:
    _add_outlier_options(parser)
    parser.add_argument("--scenario", default="overall", choices=[s.value for s in Scenario],
                        help="test-pool restriction (default overall)")
    parser.add_argument("--test-fraction", type=_number(float), default=0.2,
                        help="fraction of all records used as test data (default 0.2)")
    parser.add_argument("--reps", type=_number(int), default=5, help="number of repetitions (default 5)")
    parser.add_argument("--seed", type=_number(int), default=0, help="random seed (default 0)")
    parser.add_argument("--invtemp-kelvin", action="store_true",
                        help="use absolute temperature in the reciprocal-temperature reference model")


def _add_estimate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paper-coefficients", action="store_true",
                        help="use the built-in reference coefficients instead of model files")
    parser.add_argument("--pl-model", help="path to a fitted pressure-model file")
    parser.add_argument("--vl-model", help="path to a fitted volume-model file")


def _add_idw_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-depth", type=_number(float), default=geotemp.DEFAULT_MIN_SECTION_DEPTH_M,
                        help="minimum measuring-section depth in meters (default 500)")
    parser.add_argument("--idw-power", type=_number(float), default=geotemp.DEFAULT_IDW_POWER,
                        help="inverse-distance exponent (default 2)")
    parser.add_argument("--max-neighbors", type=_number(int), default=None,
                        help="optionally cap interpolation to the N nearest samples")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", nargs=2, type=_number(float), metavar=("LON", "LAT"),
                       help="interpolate at a single lon/lat point")
    group.add_argument("--grid", nargs=6, type=_number(float),
                       metavar=("LONMIN", "LONMAX", "LATMIN", "LATMAX", "NLON", "NLAT"),
                       help="interpolate on an inclusive regular grid")


# Each subcommand, in help order -> (its help, its handler, the adder of its options after --input and --output-dir).
_COMMANDS = {
    "clean": ("apply the range filters and write kept/rejected records", _run_clean_stage, _add_kind_option),
    "outliers": ("clean, then flag K-NN outliers", _run_outlier_stage, _add_outlier_options),
    "fit": ("clean, drop outliers, and fit the geological-parameter model", _run_fit_stage, _add_outlier_options),
    "validate": ("full pipeline through leave-one-out validation", cmd_validate, _add_validate_options),
    "compare": ("score the model against the reference forms on random splits", cmd_compare, _add_compare_options),
    "estimate": ("estimate adsorbed content for configured reservoirs", cmd_estimate, _add_estimate_options),
    "idw": ("interpolate temperature gradient from heat-flow data", cmd_idw, _add_idw_options),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="shale-adsorb",
        description="Estimate adsorbed shale-gas content from geological parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, add_options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--output-dir", default=".", help="directory for output files")
        add_options(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare" and args.invtemp_kelvin and args.kind != "pl":
        build_parser().error("--invtemp-kelvin needs --kind pl: --kind vl compares no pl-invtemp model")
    if args.command == "estimate" and args.paper_coefficients and (args.pl_model or args.vl_model):
        build_parser().error("--paper-coefficients cannot be combined with --pl-model/--vl-model")
    if args.command == "estimate" and not (args.paper_coefficients or args.pl_model and args.vl_model):
        build_parser().error("estimate needs --paper-coefficients or both --pl-model and --vl-model")
    _configure_logging()
    try:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        return 0
    except FileNotFoundError as exc:
        _say(f"error: file not found: {exc.filename or exc}")
        return 2
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
