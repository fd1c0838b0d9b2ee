"""Run one ffc benchmark workload and print its metrics.

    python3 bench/run.py --workload search-bipartite --seed 1 --seconds 28 --trace 0

One process, one thread, one operation at a time (a closed loop with one
client).  Operations run for about ``--seconds`` (see ``measure``);
input generation and output checks happen between operations and are not
timed.  Every operation's output is checked; a failed check counts as a
failed operation and never stops the run.  The timing metrics use latencies
scaled by a probe timed between operations, which takes out how fast the
shared host happens to run (see README.md, "Host pace").

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
layer functions (see tracing.py), runs the same operations, and reports the
per-layer metrics, the tracing overhead against an untraced run of the same
seed, and fresh-process timings of the four CLI subcommands.  Earlier lines
of standard output are for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import workloads
except ImportError as exc:
    sys.exit(f"bench: {exc}")
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "reference_digests.json"
SPEC = workloads.ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5  # fresh processes before the timed phase, and as many after
TAIL_BEYOND = 10  # the tail percentile leaves at least this many operations above it
SUBPROCESS_TIMEOUT_S = 120  # any child: set-up sample, CLI run or untraced comparison run
PROBE_LOOPS = 15000  # one probe: this many rounds of integer and dict work, about 1.4 ms
PROBE_REPEATS = 3  # a probe sample is the median of this many probes
PROBE_EVERY_S = 0.25  # a probe sample after at least this much operation time
# One probe at the uncontended pace of the host the bounds were set on
# (2-core Intel Xeon VM, Python 3.11.7); latencies are scaled to that pace.
PROBE_REF_S = 1.4e-3
# A run stops once its operations have taken WORK_SHARE x --seconds at the
# reference pace, so that how much it does does not depend on how fast the
# host runs, or else once they have taken --seconds as measured.
WORK_SHARE = 0.6


@dataclass
class RunResult:
    """``latencies`` are wall seconds as measured.  ``probes`` are the
    probe samples taken between operations, one before the first and one
    after the last, and ``segments[i]`` is the index of the last sample
    before operation ``i``."""

    latencies: list[float] = field(default_factory=list)
    segments: list[int] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    busy_s: float = 0.0
    trials: int = 0
    successes: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def host_factors(self) -> list[float]:
        """Per operation, PROBE_REF_S over the mean of the probe samples
        just before and after it: below 1 when the host ran slower than the
        reference pace around the operation."""
        return [2 * PROBE_REF_S / (self.probes[k] + self.probes[k + 1]) for k in self.segments]

    def scaled(self) -> list[float]:
        """Latencies at the reference pace (see README)."""
        return [dt * f for dt, f in zip(self.latencies, self.host_factors())]


def probe_sample() -> float:
    """Median seconds of PROBE_REPEATS runs of a fixed loop of interpreter
    work.  It calls no ffc code, so its time follows only how fast the
    shared host runs this process at the moment.  The collector is off so
    that garbage left by ffc is not collected inside it."""
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            table, h = {}, 0
            for i in range(PROBE_LOOPS):
                h = (h * 31 + i) % 1000003
                table[h & 255] = i
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def load_references() -> dict[str, list[str]]:
    """Document digests of the first operations of each workload at the
    default seed."""
    return json.loads(REFERENCES.read_text())


def _chain_cache():
    """(hits, lookups) of the Sturm-chain cache, or None when it is gone."""
    info = getattr(getattr(workloads.ffc.sturm, "_chain_from_coeffs", None), "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.hits + i.misses


def measure(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Tracer | None = None,
    references: list[str] | None = None,
) -> RunResult:
    """Run the workload's operations until their latencies at the reference
    pace sum to WORK_SHARE x ``seconds``, or as measured to ``seconds``.

    ``references`` are the expected document digests of the first
    operations; pass them only for the seed they were recorded with.
    """
    references = references or []
    paused = tracer.paused if tracer else contextlib.nullcontext
    out = RunResult(probes=[probe_sample()])
    since_probe = 0.0
    work_s = 0.0  # at the reference pace, from the last probe sample
    for i, op in enumerate(workloads.WORKLOADS[workload](seed)):
        if out.latencies and (work_s >= WORK_SHARE * seconds or out.busy_s >= seconds):
            break
        if since_probe >= PROBE_EVERY_S:
            out.probes.append(probe_sample())
            since_probe = 0.0
        cache0 = _chain_cache()
        t0 = time.perf_counter()
        try:
            result, document = op.run()
            reason = None
        except Exception as exc:  # a failed operation is counted, not fatal
            reason = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        cache1 = _chain_cache()
        out.latencies.append(dt)
        out.segments.append(len(out.probes) - 1)
        out.busy_s += dt
        since_probe += dt
        work_s += dt * PROBE_REF_S / out.probes[-1]
        if cache0 is not None:
            out.cache_hits += cache1[0] - cache0[0]
            out.cache_lookups += cache1[1] - cache0[1]
        if reason is None:
            try:
                with paused():
                    reason = op.check(result)
            except Exception as exc:  # a broken output can break its check too
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and i < len(references):
                if workloads.digest(document) != references[i]:
                    reason = "document digest differs from the reference"
            out.trials += getattr(result, "trials_run", 0)
            out.successes += getattr(result, "successes", 0)
        if reason is not None:
            out.failures.append(f"{op.label}: {reason}")
    out.probes.append(probe_sample())
    return out


# -- set-up time ------------------------------------------------------------------


def setup_only(workload: str, seed: int) -> None:
    """Finish set-up (imports done, first input generated), print the
    monotonic clock, which is shared by all processes on the machine, then
    a probe sample."""
    next(workloads.WORKLOADS[workload](seed))
    print(repr(time.monotonic()))
    print(repr(probe_sample()))


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start to first timed operation, in fresh processes, at
    the reference pace: scaled like an operation, by a probe sample taken
    just before the process starts and one taken in it after set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = probe_sample()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        t1, after = map(float, done.stdout.strip().splitlines()[-2:])
        samples.append((t1 - t0) * 2 * PROBE_REF_S / (before + after))
    return samples


# -- whole-CLI timings --------------------------------------------------------------


def _cli(args: list[str]) -> tuple[float, str | None]:
    """Wall seconds of one fresh-process ``ffc.cli.main``, and why it failed
    if it did not exit 0."""
    env = dict(os.environ, FFC_THREADS="1", PYTHONPATH=str(workloads.SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from ffc.cli import main; sys.exit(main(sys.argv[1:]))", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    if done.returncode == 0:
        return seconds, None
    return seconds, f"cli {args[0]}: exit code {done.returncode}: {done.stderr.strip()[-200:]}"


def cli_timings(seed: int) -> tuple[dict[str, float], list[str | None]]:
    """Seconds per subcommand at the workload sizes, and per CLI run the
    reason it failed or None; every run is expected to exit 0."""
    cli_seed = str(workloads.ffc.derive_seed(seed, 1 << 40))
    build = workloads.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    runs = {}
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        report = str(Path(tmp) / "search-bipartite.json")
        runs["search"] = [
            _cli(["search", "--mode", "bipartite", "--d", "20", "--m", "3", "--seed", cli_seed, "--out", report]),
            _cli(["search", "--mode", "plain", "--d", "24", "--m", "3", "--seed", cli_seed]),
        ]
        runs["certify"] = [_cli(["certify", report])]
        runs["table"] = [_cli(["table", "--m", "3..8", "--d", "4..24:2", "--mode", "both"])]
        runs["descend"] = [_cli(["descend", "--mode", "plain", "--d", "4", "--m", "3"])]
    seconds = {name: sum(s for s, _ in done) for name, done in runs.items()}
    return seconds, [why for done in runs.values() for _, why in done]


def untraced_ops_per_s(workload: str, seed: int, seconds: float) -> float:
    """ops_per_s of an untraced run of the same seed in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


# -- metrics ----------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND operations above it, as
    (latency, percentile).  It is never below the median: with too few
    operations for a higher percentile, the tail is the upper median."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def timings(latencies: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1000 * statistics.median(latencies),
        "op_ms.tail": 1000 * tail(latencies)[0],
    }


def end_to_end(result: RunResult, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        **timings(result.scaled()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    result: RunResult,
    tracer: Tracer,
    untraced_ops: float,
    cli_seconds: dict[str, float],
) -> dict[str, float]:
    """Every per-layer value the trace gives; BENCHMARK.json picks the
    reported ones."""
    values: dict[str, float] = {}
    for name, stats in tracer.stats.items():
        values[f"{name}.calls"] = stats.calls
        values[f"{name}.s"] = stats.s
        values[f"{name}.self_s"] = stats.self_s
    screens = values["graphs.float_filter.calls"]
    certified = values["graphs.certify.calls"]
    values["graphs.float_filter.skip_ratio"] = _ratio(screens - certified, screens)
    values["search.trials"] = result.trials
    values["search.certified_ratio"] = _ratio(result.successes, certified)
    values["sturm.chain_cache.lookups"] = result.cache_lookups
    values["sturm.chain_cache.hit_ratio"] = _ratio(result.cache_hits, result.cache_lookups)
    values["run.ops"] = result.attempted
    values["run.tail_pct"] = tail(result.latencies)[1]
    values["run.fail_ratio"] = _ratio(len(result.failures), result.attempted)
    values["trace.overhead_ratio"] = _ratio(untraced_ops, timings(result.scaled())["ops_per_s"])
    for name, s in cli_seconds.items():
        values[f"cli.{name}.s"] = s
    return values


# -- reporting --------------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (head.parent / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "FFC_THREADS": os.environ.get("FFC_THREADS"),
        "commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["FFC_THREADS"] = "1"
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    references = None
    if args.seed == workloads.DEFAULT_SEED:
        references = load_references().get(args.workload)
    cli_outcomes: list[str | None] = []
    missing: list[str] = []
    if args.trace:
        untraced = untraced_ops_per_s(args.workload, args.seed, args.seconds)
        tracer = Tracer()
        with tracer.installed():
            result = measure(args.workload, args.seed, args.seconds, tracer, references)
        cli_seconds, cli_outcomes = cli_timings(args.seed)
        values = per_layer(result, tracer, untraced, cli_seconds)
        missing = tracer.missing
    else:
        setup = setup_seconds(args.workload, args.seed)
        result = measure(args.workload, args.seed, args.seconds, None, references)
        setup += setup_seconds(args.workload, args.seed)
        values = end_to_end(result, setup)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {name: (values[name], unit) for name, unit in declared.items()}
    failures = result.failures + [why for why in cli_outcomes if why]
    attempted = result.attempted + len(cli_outcomes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(machine())}")
    _, pct = tail(result.latencies)
    print(f"{result.attempted} operations in {result.busy_s:.3f} s busy, "
          f"{sum(result.scaled()):.3f} s at the reference pace; tail is p{pct:.1f}; "
          f"fail_ratio {len(result.failures) / result.attempted:.4f}")
    measured = ", ".join(f"{k} {v:.6g}" for k, v in timings(result.latencies).items())
    factors = result.host_factors()
    print(f"as measured: {measured}; {len(result.probes)} probe samples, "
          f"{1000 * min(result.probes):.4f}-{1000 * max(result.probes):.4f} ms; "
          f"host factor median {statistics.median(factors):.4f}")
    for target in missing:
        print(f"not traced, no longer in ffc: {target}")
    for reason in failures:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
