"""Record the benchmark's reference digests or a results file.

    python3 bench/record.py references
    python3 bench/record.py results --label baseline

``references`` runs each workload's operations at the default seed for
REFERENCE_SECONDS and stores the sha256 of every primary document, in order,
in reference_digests.json.  Re-record only when a change is meant to alter
those documents.

``results`` runs every workload RUNS times untraced for BENCHMARK.json's
``run_seconds``, each with another seed, then once traced at the default
seed, and writes ``BENCH_<label>.json``
next to this file: every run's metrics and its timings as measured before
scaling to the reference pace, the median and quartiles of each end-to-end
metric, and their spread (interquartile range over median), plus the
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run
import workloads

REFERENCE_SECONDS = 75.0  # about three runs' worth of operations
RUNS = 10


def record_references() -> None:
    references = {}
    for name, ops in workloads.WORKLOADS.items():
        digests = []
        t0 = time.perf_counter()
        for op in ops(workloads.DEFAULT_SEED):
            result, document = op.run()
            reason = op.check(result)
            if reason is not None:
                sys.exit(f"{op.label}: {reason}; not recording a failing output")
            digests.append(workloads.digest(document))
            if time.perf_counter() - t0 >= REFERENCE_SECONDS:
                break
        references[name] = digests
        print(f"{name}: {len(digests)} digests", flush=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    print(f"  {lines[1]}\n  {lines[2]}", flush=True)
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "as_measured": lines[2],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    return out


def record_results(label: str) -> None:
    os.environ["FFC_THREADS"] = "1"  # as every run pins it; recorded in the machine info
    seconds = json.loads(run.SPEC.read_text())["run_seconds"]
    units = {**run.declared_metrics("end_to_end"), **run.declared_metrics("per_layer")}
    results = {"label": label, "machine": run.machine(), "run_seconds": seconds,
               "units": units, "workloads": {}}
    for name in workloads.WORKLOADS:
        print(name, flush=True)
        untraced = [one_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = one_run(name, workloads.DEFAULT_SEED, seconds, 1)
        results["workloads"][name] = {"end_to_end": summary(untraced), "runs": untraced,
                                      "traced": traced}
        for metric, s in results["workloads"][name]["end_to_end"].items():
            print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    (run.BENCH_DIR / f"BENCH_{label}.json").write_text(json.dumps(results, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    sub.add_parser("results").add_argument("--label", required=True)
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_results(args.label)


if __name__ == "__main__":
    main()
