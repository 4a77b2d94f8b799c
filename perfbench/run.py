"""The repository's standing benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload live-publish --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times before and after the
timed window (``setup_s`` is the median), drives it closed-loop for
``--seconds`` and prints the end-to-end metrics. ``--trace 1`` serves a fixed number of requests one
at a time, first untraced and then under span wrappers (tracer.py), and
prints the per-layer metrics. Either way every response is checked
against an independent oracle after the timed window, and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON record of steadiness diagnostics: sample
counts, request-class shares, set-up runs, calibration-loop times and
the digests of the data and of the request stream. README.md explains
the workloads, the metrics and how the benchmark was made steady.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Where the traced run writes its spans (one JSON object per line).
TRACE_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop (diagnostic only)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(rank) - 1]


class Tally:
    """What the timed window keeps per step: numbers, not step objects.

    Holding every step would make the process's peak memory grow with
    the number of requests served, that is with the machine's speed.
    """

    def __init__(self) -> None:
        self.publish = array("d")  # latency, seconds
        self.publish_end = array("d")  # end, seconds into the window
        self.write = array("d")
        self.classes: dict = {}
        self.steps = 0
        self.failed = 0

    def add(self, step, end: float) -> None:
        self.steps += 1
        self.failed += not step.ok
        if step.kind == "write":
            self.write.append(step.seconds)
            return
        self.publish.append(step.seconds)
        self.publish_end.append(end)
        self.classes[step.klass] = self.classes.get(step.klass, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.publish.extend(other.publish)
        self.publish_end.extend(other.publish_end)
        self.write.extend(other.write)
        for klass, count in other.classes.items():
            self.classes[klass] = self.classes.get(klass, 0) + count
        self.steps += other.steps
        self.failed += other.failed

    def shares(self) -> dict:
        total = sum(self.classes.values()) or 1
        return {k: round(n / total, 4) for k, n in sorted(self.classes.items())}

    def segments(self, window: float, count: int = 10) -> dict:
        """Throughput and p50 per equal slice of the window (diagnostic)."""
        width = window / count
        slices = [[] for _ in range(count)]
        for seconds, end in zip(self.publish, self.publish_end):
            slices[min(count - 1, int(end / width))].append(seconds)
        return {
            "rps": [len(values) / width for values in slices],
            "p50_ms": [
                statistics.median(values) * 1000.0 if values else None
                for values in slices
            ],
        }


def attempt(workload, client: int, index: int):
    """One step; an exception counts as one failed operation."""
    from workloads import Step

    started = time.perf_counter()
    try:
        return workload.step(client, index)
    except Exception as exc:
        print(f"perfbench: step {index} failed: {exc!r}", file=sys.stderr)
        return Step("publish", time.perf_counter() - started, False, "error")


def drive(workload, seconds: float, first_index: int) -> tuple[Tally, float]:
    """Closed loop: each client sends its next step when the last ends."""
    tallies = [Tally() for _ in range(workload.clients)]
    started = time.perf_counter()
    deadline = started + seconds

    def client(number: int) -> None:
        tally = tallies[number]
        index = first_index
        while time.perf_counter() < deadline:
            step = attempt(workload, number, index)
            tally.add(step, time.perf_counter() - started)
            index += 1

    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(n,), name=f"perfbench-client-{n}")
            for n in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window = time.perf_counter() - started
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total, window


def timed_setup(workload) -> float:
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def timed_run(workload, seconds: float) -> tuple[dict, dict]:
    calibration_before = calibrate()
    # Half the set-ups run before the window (the last one serves it) and
    # half after, so one slow phase of the machine cannot catch them all.
    setup_runs = []
    for attempt in range(workload.setups):
        setup_runs.append(timed_setup(workload))
        if attempt < workload.setups - 1:
            workload.teardown()
    try:
        warm, first_index = serve_steps(workload, workload.warm_steps, 0)
        gc.collect()
        tally, window = drive(workload, seconds, first_index)
    finally:
        workload.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(workload.setups):
        setup_runs.append(timed_setup(workload))
        workload.teardown()
    publishes = sorted(tally.publish)
    writes = sorted(tally.write)
    failed = sum(1 for s in warm if not s.ok) + tally.failed + workload.verify()
    # p98, not p99: on compose-churn ~0.8% of requests absorb a full
    # garbage collection (150-430 ms), so p99 sits on that class's edge.
    tail = percentile(publishes, 0.98)
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "throughput_rps": len(publishes) / window,
        "latency_p50_ms": percentile(publishes, 0.50) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "publishes": len(publishes),
        "writes": len(writes),
        "write_p50_ms": percentile(writes, 0.5) * 1000.0 if writes else None,
        "samples_beyond_tail": sum(1 for v in publishes if v > tail),
        "percentiles_ms": {
            str(q): percentile(publishes, q / 100.0) * 1000.0
            for q in (90, 95, 98, 99, 99.9)
        },
        "max_ms": publishes[-1] * 1000.0,
        "window_s": window,
        "warm_steps": len(warm),
        "clients": workload.clients,
        "class_shares": tally.shares(),
        "segments": tally.segments(window),
        "setup_runs_s": setup_runs,
        "calibration_ms": {"before": calibration_before, "after": calibrate()},
    }
    summary = {
        "attempted": len(warm) + tally.steps,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }
    return summary, record


def serve_steps(workload, count: int, first_index: int, tracer=None, publishes=False):
    """Serve ``count`` steps (or publishes) one at a time on client 0."""
    steps = []
    index = first_index
    done = 0
    while done < count:
        if tracer is not None:
            tracer.request = index
        step = attempt(workload, 0, index)
        steps.append(step)
        index += 1
        done += step.kind == "publish" if publishes else 1
    return steps, index


def tally_of(steps) -> Tally:
    tally = Tally()
    for step in steps:
        tally.add(step, 0.0)
    return tally


def traced_run(workload, out_dir: Path) -> tuple[dict, dict]:
    from layers import layer_metrics
    from tracer import Tracer

    calibration_before = calibrate()
    workload.clients = 1
    workload.setup()
    count = workload.trace_requests
    try:
        warm, index = serve_steps(workload, workload.warm_steps, 0)
        untraced, index = serve_steps(workload, count, index, publishes=True)
        tracer = Tracer()
        try:
            tracer.install()
            traced, _ = serve_steps(workload, count, index, tracer, publishes=True)
            deadline = time.perf_counter() + 30
            while not tracer.settled() and time.perf_counter() < deadline:
                time.sleep(0.01)
        finally:
            tracer.remove()
    finally:
        workload.teardown()
    steps = warm + untraced + traced
    failed = sum(1 for s in steps if not s.ok) + workload.verify()
    metrics, counts = layer_metrics(tracer.spans, traced)
    untraced_p50 = statistics.median(s.seconds for s in untraced if s.kind == "publish")
    traced_p50 = statistics.median(s.seconds for s in traced if s.kind == "publish")
    metrics["trace.untraced_p50_ms"] = (untraced_p50 * 1000.0, "ms")
    metrics["trace.traced_p50_ms"] = (traced_p50 * 1000.0, "ms")
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{workload.seed}.jsonl"
    tracer.dump(spans_path)
    record = {
        "traced_publishes": count,
        "counts": counts,
        "tracing_overhead": traced_p50 / untraced_p50 - 1.0,
        "class_shares": tally_of(traced).shares(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "calibration_ms": {"before": calibration_before, "after": calibrate()},
    }
    summary = {
        "attempted": len(steps),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"have {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](args.seed, nproc)
    if args.trace:
        summary, record = traced_run(workload, TRACE_DIR)
    else:
        summary, record = timed_run(workload, args.seconds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "data_digest": workload.data_digest,
        "stream_digest": workload.stream_digest(),
        **record,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
