#!/usr/bin/env python3
"""Benchmark of the shale-adsorb CLI: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload screen-large --seed 1 --seconds 25 --trace 0

The run imports ``shale_adsorb`` from ``src/`` of the checkout and
generates its inputs from ``--seed`` under ``.bench_work/``. It first
measures set-up (importing ``shale_adsorb.cli`` and running the workload's
first invocation on the bundled ``data/`` files) in fresh interpreters, then
calls ``shale_adsorb.cli.main`` for each invocation of the workload, one at
a time in this process (a closed loop with one client), repeating the
workload as often as fits in ``--seconds``, at least twice. It checks the
outputs against independent oracles and prints a JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``; with
``--trace 1``, the per-layer metrics of traced iterations alternated with
untraced ones. Metric names and units come from ``BENCHMARK.json``.

Times are scaled to a reference machine speed measured in the same run
(see ``calibrate.py``), set-up times by a kernel sample taken in the same
fresh interpreter; raw seconds are in the ``# summary`` line.
"""

import os

# One BLAS thread, so that a 2-core machine measures the program and not
# the scheduler. Set before numpy loads, and inherited by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Nothing may leave bytecode in the checkout: a later run would import faster.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
REQUIRED = ("BENCHMARK.json", "src/shale_adsorb/cli.py", "data/samples.csv",
            "data/reservoirs.conf", "data/heatflow.csv")
SETUP_PROBES = 5
MIN_ITERATIONS = 2
PROBE_TIMEOUT_S = 120


@dataclass
class Iteration:
    out: Path
    latencies: list[float]  # raw seconds per invocation, kernel samples excluded
    failed: int
    samples: list[float]  # kernel times sampled during the iteration
    trace: tracer.Tracer | None = None

    @property
    def scale(self) -> float:
        return calibrate.Calibrator.scale(self.samples)

    @property
    def scaled(self) -> list[float]:
        scale = self.scale
        return [lat * scale for lat in self.latencies]

    @property
    def wall_s(self) -> float:
        return sum(self.scaled)


def probe(package_parent: Path, argv: list[str]) -> dict:
    """One ``cli.main`` call in a fresh interpreter; see ``probe.py``."""
    proc = subprocess.run(
        [sys.executable, "-B", str(Path(__file__).with_name("probe.py")), str(package_parent),
         json.dumps(argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"probe invocation {argv} exited with {result['code']}")
    return result


def measure_setup(work: Path, first_op: tuple[str, ...]) -> list[dict]:
    """Import and first-invocation times, each from a fresh interpreter.

    Each probe imports its own copy of the package sources, without any
    ``__pycache__``, so bytecode left by an earlier run cannot speed it up.
    Each also times the reference kernel once after its work, and its times
    are scaled by that sample: the machine's speed changes from one probe
    to the next, and this process's samples would not see it.
    """
    results = []
    for index in range(SETUP_PROBES):
        copy = work / f"probe{index}"
        shutil.copytree(ROOT / "src" / "shale_adsorb", copy / "shale_adsorb",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        results.append(probe(copy, [*first_op, "--output-dir", str(copy / "out")]))
    return results


def run_iteration(cli, invocations, out: Path, cal: calibrate.Calibrator,
                  trace: tracer.Tracer | None) -> Iteration:
    latencies, failed = [], 0
    first_sample = len(cal.samples)
    for index, inv in enumerate(invocations):
        if trace is not None:
            trace.invocation = index
        began = cal.clock()
        try:
            code = cli.main([*inv.argv, "--output-dir", str(out / f"{index:03d}")])
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.__stderr__)
            code = None
        latencies.append(cal.clock() - began)
        failed += code != 0
    cal.sample()
    return Iteration(out, latencies, failed, cal.samples[first_sample:], trace)


def items_done(invocations, out: Path) -> int:
    total = 0
    for index, inv in enumerate(invocations):
        total += inv.items
        if inv.fold_items:
            lines = (out / f"{index:03d}" / "loo_errors.csv").read_text().splitlines()
            total += len(lines) - 1
    return total


def run_checks(cli, invocations, iterations: list[Iteration], work: Path, seed: int):
    first = iterations[0].out
    checks = []
    queries = []
    rng = np.random.default_rng([seed, 7])

    def guarded(name, func, *args):
        try:
            checks.extend(func(*args))
        except Exception as exc:  # a missing or malformed output fails its check
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    for index, inv in enumerate(invocations):
        out = first / f"{index:03d}"
        if inv.check == "validate":
            guarded(f"validate {index}", oracles.check_validate, out, inv.opts)
        elif inv.check == "compare":
            guarded(f"compare {index}", oracles.check_compare, out, inv.opts)
        elif inv.check == "grid":
            guarded(f"grid {index}", oracles.check_grid, out, inv.opts, rng)
        elif inv.check == "estimate":
            guarded(f"estimate {index}", oracles.check_estimate, out, inv.opts)
        elif inv.check == "query":
            queries.append((out, inv.opts))
    if queries:
        guarded("queries", oracles.check_queries, queries)

    bundled = work / "bundled"
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        cli.main(["estimate", "--input", str(ROOT / "data" / "reservoirs.conf"),
                  "--paper-coefficients", "--output-dir", str(bundled)])
    guarded("bundled nine reservoirs", oracles.check_bundled_reservoirs, bundled)
    guarded("byte-identical outputs", oracles.check_identical, first, iterations[-1].out)

    # The cheapest invocation once more in a fresh interpreter, whose string
    # hashing differs from this process's: its output must not.
    index = min(range(len(invocations)), key=lambda i: invocations[i].items)

    def fresh_interpreter():
        fresh = work / "fresh"
        probe(ROOT / "src", [*invocations[index].argv, "--output-dir", str(fresh)])
        return oracles.check_identical(first / f"{index:03d}", fresh)

    guarded("fresh interpreter, byte-identical output", fresh_interpreter)
    return checks


def measure(cli, invocations, work: Path, seconds: float, traced: bool) -> list[Iteration]:
    """Repeat the workload for ``seconds``; when traced, every second iteration is.

    An iteration starts only if one as long as the last still ends in time,
    so a run lasts about ``seconds`` whatever the workload's length. A run
    has at least ``MIN_ITERATIONS`` iterations, and a traced run as many
    traced and as many untraced ones, so that the tracer's overhead is a
    difference of two medians.
    """
    minimum = 2 * MIN_ITERATIONS if traced else MIN_ITERATIONS
    iterations: list[Iteration] = []
    start = time.perf_counter()
    with (open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink),
          calibrate.Calibrator() as cal):
        while len(iterations) < minimum or (
                time.perf_counter() - start + sum(iterations[-1].latencies) < seconds):
            k = len(iterations)
            if k >= 2:  # keep the first iteration's outputs for the checks
                shutil.rmtree(iterations[-1].out)
            out = work / "out" / f"iter{k}"
            if traced and k % 2 == 1:
                with tracer.Tracer(cal.clock) as trace:
                    iterations.append(run_iteration(cli, invocations, out, cal, trace))
            else:
                iterations.append(run_iteration(cli, invocations, out, cal, None))
    return iterations


def setup_seconds(setup: list[dict]) -> dict:
    scales = [calibrate.Calibrator.scale([p["kernel_s"]]) for p in setup]
    return {
        "setup_s": statistics.median((p["import_s"] + p["first_op_s"]) * scale
                                     for p, scale in zip(setup, scales)),
        "setup.import_s": statistics.median(p["import_s"] * scale for p, scale in zip(setup, scales)),
        "setup.first_op_s": statistics.median(p["first_op_s"] * scale
                                              for p, scale in zip(setup, scales)),
    }


def end_to_end(iterations, items: int, peak_rss_kib: int) -> dict:
    walls = [it.wall_s for it in iterations]
    latencies = [lat for it in iterations for lat in it.scaled]
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(items / wall for wall in walls),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }


def per_layer(iterations) -> dict:
    traced = [it for it in iterations if it.trace is not None]
    plain = [it for it in iterations if it.trace is None]
    per_iteration = []
    for it in traced:
        raw = tracer.layer_metrics(it.trace, sum(it.latencies))
        per_iteration.append({name: value * it.scale if name.endswith("_s") else value
                              for name, value in raw.items()})
    metrics = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    metrics.update({
        "cli.bytes_written": float(sum(p.stat().st_size for p in iterations[0].out.rglob("*")
                                       if p.is_file())),
        "trace.overhead_s": (statistics.median(it.wall_s for it in traced)
                             - statistics.median(it.wall_s for it in plain)),
        "machine.kernel_s": statistics.median(s for it in iterations for s in it.samples),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a shale-adsorb checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(work, workload.first_op)
        sys.path.insert(0, str(ROOT / "src"))
        from shale_adsorb import cli
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")

        invocations = workload.build(args.seed, work / "inputs")
        iterations = measure(cli, invocations, work, args.seconds, bool(args.trace))
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        items = items_done(invocations, iterations[0].out)
        checks = run_checks(cli, invocations, iterations, work, args.seed)
        metrics = setup_seconds(setup)
        if args.trace:
            metrics.update(per_layer(iterations))
            last_traced = [it for it in iterations if it.trace is not None][-1]
            last_traced.trace.write(WORK_ROOT / "spans" / f"{args.workload}.csv")
        else:
            metrics.update(end_to_end(iterations, items, peak_rss_kib))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)
    attempted = sum(len(it.latencies) for it in iterations)
    failed = sum(it.failed for it in iterations)
    checks_failed = sum(1 for _, ok, _ in checks if not ok)
    raw_latencies = [lat for it in iterations for lat in it.latencies]
    summary = {"workload": args.workload, "seed": args.seed, "iterations": len(iterations),
               "items_per_iteration": items, "checks": len(checks), "checks_failed": checks_failed,
               "raw_setup_s": statistics.median(p["import_s"] + p["first_op_s"] for p in setup),
               "raw_wall_s": statistics.median(sum(it.latencies) for it in iterations),
               "raw_op_p50_s": statistics.median(raw_latencies),
               "op_p90_s": statistics.quantiles([lat for it in iterations for lat in it.scaled],
                                                n=10, method="inclusive")[8],
               "kernel_s": statistics.median(s for it in iterations for s in it.samples)}
    print(f"# summary {json.dumps(summary)}")
    result = {
        "correct": checks_failed == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
