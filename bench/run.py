"""Closed-loop benchmark of baryalg: one caller, one query at a time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload membership --seed 1 --seconds 15 --trace 0

Set-up imports baryalg from the checkout's `src` and builds the workload's
queries from the seed; it is repeated SETUP_REPEATS times and `setup_s` is
the median.  The untraced run (`--trace 0`) then sends whole rounds of
queries until `--seconds` have passed, checks every answer independently and
prints the end-to-end metrics.  The traced run (`--trace 1`) sends each of
the workload's first `trace_rounds` rounds twice, untraced and then with
timing wrappers around baryalg's public functions, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

#: Rounds generated per workload; the untraced run wraps around if it
#: finishes them all before its time is up.
ROUNDS = {"membership": 80, "formula": 50, "polytope": 32, "cli": 100}
TINY_ROUNDS = 2

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    pass


def import_baryalg():
    """A fresh import of baryalg (and its CLI) from the checkout's src."""
    for key in [k for k in sys.modules if k == "baryalg" or k.startswith("baryalg.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("baryalg")
        importlib.import_module("baryalg.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import baryalg from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"baryalg was imported from {package.__file__}, not from {SRC}")
    return package


def set_up(name: str, seed: int, tiny: bool):
    """Import and build the workload SETUP_REPEATS times; keep the last build."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_baryalg()
        rounds = TINY_ROUNDS if tiny else ROUNDS[name]
        workload = workloads.WORKLOADS[name](package, random.Random(seed), rounds, tiny)
        times.append(time.perf_counter() - start)
    return package, workload, statistics.median(times)


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    wrong: int = 0  # answers returned that failed their check

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def drive(
    workload,
    seconds: float | None = None,
    count: int | None = None,
    first: int = 0,
    outcome: Outcome | None = None,
) -> Outcome:
    """Send queries one at a time from index `first`: `count` of them, or
    whole rounds until `seconds` have passed.  Only the call itself is timed;
    its check runs after the clock stops."""
    queries = workload.queries
    outcome = Outcome() if outcome is None else outcome
    started = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % workload.round_size == 0 and i and time.perf_counter() - started >= seconds:
            break
        query = queries[(first + i) % len(queries)]
        i += 1
        start = time.perf_counter()
        try:
            result = query.call()
        except (Exception, SystemExit) as exc:  # an escaping exception is a failed query
            outcome.latencies.append(time.perf_counter() - start)
            outcome.failures.append((query.label, f"escaped {type(exc).__name__}: {exc}"))
            continue
        outcome.latencies.append(time.perf_counter() - start)
        reason = query.check(result)
        if reason is not None:
            outcome.wrong += 1
            outcome.failures.append((query.label, reason))
    return outcome


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, float]:
    return {
        "throughput_qps": outcome.attempted / sum(outcome.latencies),
        "latency_p50_ms": 1000 * statistics.median(outcome.latencies),
        "latency_tail_ms": 1000 * tail(outcome.latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def print_failures(outcome: Outcome) -> None:
    counts: dict[tuple[str, str], int] = {}
    for failure in outcome.failures:
        counts[failure] = counts.get(failure, 0) + 1
    for (label, reason), n in sorted(counts.items()):
        print(f"  FAILED x{n}: {label}: {reason}")


def run_untraced(workload, seconds: float, setup_s: float) -> tuple[Outcome, dict]:
    outcome = drive(workload, seconds=seconds)
    metrics = end_to_end(outcome, setup_s)
    _, percentile, beyond = tail(outcome.latencies)
    n = outcome.attempted
    print(f"workload {workload.name}: {n} queries in {sum(outcome.latencies):.3f} s busy, "
          f"closed loop, one caller")
    for name, unit in END_TO_END_UNITS.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{percentile:.2f}: {beyond} of {n} samples beyond)"
        print(f"  {name:<16} {metrics[name]:>14.4f} {unit}{extra}")
    print(f"  {'failed_share':<16} {len(outcome.failures) / n:>14.4f} ratio  "
          f"({len(outcome.failures)} of {n} attempted)")
    print_failures(outcome)
    return outcome, metrics


def run_traced(package, workload) -> tuple[Outcome, dict]:
    """Each of the first trace_rounds rounds runs untraced, then traced, so
    drift in machine speed affects both sides of the overhead alike."""
    size = workload.round_size
    rounds = min(workload.trace_rounds, len(workload.queries) // size)
    count = rounds * size
    plain, traced, tracer = Outcome(), Outcome(), tracing.Tracer()
    for first in range(0, count, size):
        drive(workload, count=size, first=first, outcome=plain)
        tracer.install(package)
        try:
            drive(workload, count=size, first=first, outcome=traced)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_share"] = sum(traced.latencies) / sum(plain.latencies) - 1
    units = tracing.per_layer_metric_units()
    print(f"workload {workload.name}: traced {count} queries "
          f"({rounds} rounds), untraced {sum(plain.latencies):.3f} s, "
          f"traced {sum(traced.latencies):.3f} s")
    for name in units:
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    combined = Outcome(
        plain.latencies + traced.latencies, plain.failures + traced.failures, plain.wrong + traced.wrong
    )
    print(f"  failed {len(combined.failures)} of {combined.attempted} attempted")
    print_failures(combined)
    return combined, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap queries, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        package, workload, setup_s = set_up(args.workload, args.seed, args.size == "tiny")
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(f"set-up {setup_s:.4f} s (median of {SETUP_REPEATS}); "
          f"{len(workload.queries)} queries, {workload.round_size} per round; seed {args.seed}; "
          f"properties {json.dumps(workload.properties)}")
    if args.trace:
        outcome, metrics = run_traced(package, workload)
        units = tracing.per_layer_metric_units()
    else:
        outcome, metrics = run_untraced(workload, args.seconds, setup_s)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
