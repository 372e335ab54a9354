#!/usr/bin/env python3
"""Run every workload and print every metric by name, with its unit.

Run from the root of a checkout:

    python3 perfbench/report.py [--seeds 1,2,3] [--json PATH]

Each workload runs once per seed untraced, each run a fresh process of
``perfbench/run.py`` lasting ``run_seconds`` of ``BENCHMARK.json``; the
table gives each end-to-end metric's median over the seeds and its spread,
the distance between the first and third quartile as a share of the
median. ``ops_failed_frac`` and ``checks_failed`` are printed beside them.
One traced run per workload on the first seed adds the per-layer metrics
and each layer's share of the traced wall time. ``--json`` also writes
everything, with the workload parameters and the layer-to-metric map, to a
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh benchmark process; returns (result, summary)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(line[len("# summary "):]) for line in lines
                   if line.startswith("# summary "))
    return json.loads(lines[-1]), summary


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    parser.add_argument("--json", type=Path, help="also write the results to this file")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    results = {}
    print(f"{'workload':14} {'metric':16} {'median':>14} {'unit':6} {'spread':>7} {'bound':>6}  n")
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [run(name, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        record = {"seeds": seeds, "end_to_end": {},
                  "ops_failed_frac": failed / attempted,
                  "checks_failed": sum(s["checks_failed"] for _, s in runs),
                  "checks_per_run": runs[0][1]["checks"],
                  "invocations_per_run": [r["attempted"] for r, _ in runs],
                  "summaries": [s for _, s in runs]}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
            median, share = spread(values)
            record["end_to_end"][metric["name"]] = {
                "median": median, "iqr_share": share, "unit": metric["unit"], "values": values}
            print(f"{name:14} {metric['name']:16} {median:14.6g} {metric['unit']:6} "
                  f"{share:7.3f} {metric['bound']:6.2f}  {len(values)}")
        print(f"{name:14} {'ops_failed_frac':16} {record['ops_failed_frac']:14.6g} {'ratio':6} "
              f"{'':7} {'':6}  {attempted}")
        print(f"{name:14} {'checks_failed':16} {record['checks_failed']:14d} {'count':6} "
              f"{'':7} {'':6}  {record['checks_per_run'] * len(runs)}")
        traced, _ = run(name, seeds[0], seconds, 1)
        record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        results[name] = record

    print(f"\n{'per-layer metric (traced, seed ' + str(seeds[0]) + ')':48} "
          + " ".join(f"{w:>14}" for w in results))
    for metric in spec["per_layer"]:
        row = " ".join(f"{results[w]['per_layer'][metric['name']]:14.6g}" for w in results)
        print(f"{metric['name']:42} {metric['unit']:5} {row}")

    if args.json:
        document = {
            "about": "Output of perfbench/report.py: medians over the seeds of untraced runs, "
                     "one traced run per workload, the workload parameters and which "
                     "end-to-end metric each layer should move.",
            "machine": {"cpus": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": seconds,
            "workloads": {name: {"why": w.why, "params": w.params, "first_op": list(w.first_op)}
                          for name, w in workloads.WORKLOADS.items()},
            "layer_moves": tracer.LAYER_MOVES,
            "results": results,
        }
        args.json.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
