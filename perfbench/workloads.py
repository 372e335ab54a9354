"""The three benchmark workloads: their parameters, inputs and CLI invocations.

Each workload writes its seeded inputs into a directory and returns the
list of ``shale_adsorb.cli.main`` argument vectors one iteration runs, in
order, one at a time (a closed loop with a single client).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs


@dataclass(frozen=True)
class Invocation:
    """One ``cli.main`` call, without its ``--output-dir``.

    ``check`` names the oracle in ``oracles.py`` that verifies its output and
    ``opts`` carries what that oracle needs. ``items`` is the work the call
    counts for in ``items_per_s``; ``fold_items`` adds the leave-one-out
    folds, known only from the output.
    """

    argv: tuple[str, ...]
    check: str
    items: int
    opts: dict = field(default_factory=dict)
    fold_items: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    # The workload's first invocation, run on the bundled data/ files.
    first_op: tuple[str, ...]
    # (params, seed, rng, directory) -> invocations, after writing the inputs.
    generate: Callable[[dict, int, np.random.Generator, Path], list[Invocation]]

    def build(self, seed: int, directory: Path) -> list[Invocation]:
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        return self.generate(self.params, seed, rng, directory)


def _samples(params: dict, rng: np.random.Generator, path: Path) -> None:
    path.write_text(inputs.samples_csv(
        rng, params["samples"], params["log_noise"], params["outlier_frac"],
        params["replicate_frac"], params["twin_frac"], params["out_of_range_frac"],
    ), encoding="utf-8")


def _validate(path: Path, kind: str, k: int, items: int, fold_items: bool = False) -> Invocation:
    return Invocation(("validate", "--input", str(path), "--kind", kind, "--k", str(k)),
                      "validate", items, {"input": path, "kind": kind, "k": k}, fold_items)


def _build_screen_large(params, seed, rng, directory):
    path = directory / "samples.csv"
    _samples(params, rng, path)
    n = params["samples"]
    return [_validate(path, kind, k, n) for kind, k in params["validate"]]


def _build_model_compare(params, seed, rng, directory):
    path = directory / "samples.csv"
    _samples(params, rng, path)
    reps, k, test_fraction = params["reps"], params["k"], params["test_fraction"]
    calls = []
    for kind in ("pl", "vl"):
        for scenario in params["scenarios"]:
            run_seed = seed * 100 + len(calls)
            calls.append(Invocation(
                ("compare", "--input", str(path), "--kind", kind, "--scenario", scenario,
                 "--k", str(k), "--test-fraction", repr(test_fraction),
                 "--reps", str(reps), "--seed", str(run_seed)),
                "compare", 3 * reps,
                {"input": path, "kind": kind, "scenario": scenario, "k": k,
                 "test_fraction": test_fraction, "reps": reps, "seed": run_seed}))
    calls += [_validate(path, kind, k, 1, fold_items=True) for kind in ("pl", "vl")]
    return calls


def _build_gradient_map(params, seed, rng, directory):
    heatflow = directory / "heatflow.csv"
    text = inputs.heatflow_csv(rng, params["heatflow_points"])
    heatflow.write_text(text, encoding="utf-8")
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    usable = [(lon, lat) for lon, lat, depth, _ in rows if depth >= 500.0]

    grid = params["grid"]
    n_nodes = grid[4] * grid[5]
    grid_argv = ("idw", "--input", str(heatflow), "--grid", *map(str, grid))
    calls = [
        Invocation(grid_argv, "grid", n_nodes, {"input": heatflow, "grid": grid, "max_neighbors": None}),
        Invocation(grid_argv + ("--max-neighbors", str(params["max_neighbors"])), "grid", n_nodes,
                   {"input": heatflow, "grid": grid, "max_neighbors": params["max_neighbors"]}),
    ]
    for lon, lat in inputs.idw_queries(rng, usable, params["queries"], params["on_sample_queries"]):
        calls.append(Invocation(("idw", "--input", str(heatflow), "--query", repr(lon), repr(lat)),
                                "query", 1, {"input": heatflow, "lon": lon, "lat": lat}))

    conf = directory / "reservoirs.conf"
    conf.write_text(inputs.reservoirs_conf(rng, params["reservoirs"], params["extrapolate_frac"]),
                    encoding="utf-8")
    calls.append(Invocation(("estimate", "--input", str(conf), "--paper-coefficients"),
                            "estimate", params["reservoirs"], {"input": conf}))
    return calls


_SAMPLE_MIX = {"log_noise": 0.1, "outlier_frac": 0.03, "replicate_frac": 0.02,
               "twin_frac": 0.01, "out_of_range_frac": 0.03}

WORKLOADS = {w.name: w for w in (
    Workload(
        "screen-large",
        "O(n^2 log n) K-NN outlier screen is ~95% of the work; a KD-tree or blocked K-NN shows here",
        {"samples": 1500, **_SAMPLE_MIX, "validate": [["pl", 5], ["vl", 12]]},
        ("validate", "--input", "data/samples.csv", "--kind", "pl", "--k", "5"),
        _build_screen_large,
    ),
    Workload(
        "model-compare",
        "thousands of small OLS fits, predictions and splits plus LOO; a QR/PRESS solver shows here",
        {"samples": 150, **_SAMPLE_MIX, "reps": 200, "k": 5, "test_fraction": 0.2,
         "scenarios": ["overall", "high-t", "high-toc", "high-ro"]},
        ("compare", "--input", "data/samples.csv", "--kind", "pl", "--reps", "200", "--seed", "0"),
        _build_model_compare,
    ),
    Workload(
        "gradient-map",
        "haversine IDW grids and queries plus bulk Langmuir estimates; no outlier, fit or LOO work",
        {"heatflow_points": 800, "grid": [100, 112, 24, 34, 40, 40], "max_neighbors": 8,
         "queries": 100, "on_sample_queries": 20, "reservoirs": 20000, "extrapolate_frac": 0.1},
        ("idw", "--input", "data/heatflow.csv", "--grid", "100", "112", "24", "34", "40", "40"),
        _build_gradient_map,
    ),
)}
