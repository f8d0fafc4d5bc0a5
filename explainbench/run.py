"""The explanation-serving benchmark: one command, three workloads.

Run from the repository root::

    python3 explainbench/run.py --workload tpch-warm --seed 1 --seconds 10 --trace 0

One client process runs a closed loop: each request is one
``ExplainSession.explain_many(query)`` call and the next request waits
for its reply.  ``--seed`` fixes the order of the requests; the mix and
the inputs are fixed by ``settings.json``.  A run measures whole blocks
of the mix until it has run for ``--seconds`` and holds at least 100
requests.  Every answer is checked against a reference computed before
the measured phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same requests twice, untraced and then traced, prints the per-layer
metrics of the traced phase and the tracing overhead, and writes the
spans to ``explainbench/out/``.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any answer failed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A measured phase stops after this many seconds even when it holds
#: fewer than ``min_requests`` requests, so that a run always ends
#: within its time limit.
PHASE_LIMIT_S = 60.0

#: Set-up runs at least ``setup_repeats`` times and, when that takes
#: less than this many seconds in total, again until it does (at most
#: SETUP_MAX_REPEATS times): a cheap set-up's median then spans several
#: seconds, longer than the second-scale swings in a shared host's speed.
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 300

E2E_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "answers_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """What one measured phase saw."""

    latencies: list[float] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    attempted: int = 0
    verified: int = 0
    wall_s: float = 0.0
    bytes_written: int = 0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    @property
    def answers_per_s(self) -> float:
        return self.attempted / self.wall_s


def measure(workload, expected, blocks, seconds, min_requests, tracer=None):
    """Run requests block by block and check every answer.

    Before each request a full garbage collection clears what the
    previous request and the checks left, so that a request pays only
    for collecting its own garbage.  Without it a warm TPC-H Q19 request
    takes 70 or 90 ms depending on whether a collection falls in it,
    and the median flips between the two from run to run.  The time
    spent collecting, checking answers and cleaning up after a request
    is left out of the phase's wall time, like the request latencies.
    """
    from workloads import check

    phase = Phase(stats_before=workload.stats())
    paused = 0.0
    start = time.perf_counter()
    for block in blocks:
        for query in block:
            collecting = time.perf_counter()
            gc.collect()
            if tracer is not None:
                tracer.begin_request(len(phase.latencies))
            began = time.perf_counter()
            paused += began - collecting
            try:
                results = workload.request(query)
            except Exception:
                traceback.print_exc()
                results = {}
            ended = time.perf_counter()
            phase.latencies.append(ended - began)
            phase.queries.append(query)
            phase.bytes_written += workload.after_request()
            verified, attempted = check(results, expected[query])
            phase.verified += verified
            phase.attempted += attempted
            paused += time.perf_counter() - ended
            if time.perf_counter() - start > PHASE_LIMIT_S:
                break
        elapsed = time.perf_counter() - start
        if (len(phase.latencies) >= min_requests and elapsed >= seconds) \
                or elapsed > PHASE_LIMIT_S:
            break
    phase.wall_s = elapsed - paused
    phase.stats_after = workload.stats()
    return phase


def report_queries(phase) -> None:
    """Per-query request count and median latency, on standard error."""
    by_query: dict[str, list[float]] = {}
    for query, latency in zip(phase.queries, phase.latencies):
        by_query.setdefault(query, []).append(latency)
    for query, latencies in by_query.items():
        print(f"  {query}: {len(latencies)} requests, median "
              f"{statistics.median(latencies):.4f} s", file=sys.stderr)


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_kb() -> int:
    """This process's peak RSS, in kB, since the reset.

    The window starts after set-up: a set-up that compiles on the pool
    threads (hard-proxy's, under the proxy defect) reaches a peak that
    varies by about 12% from run to run with thread timing, more than
    the requests' peak does.  What set-up leaves resident counts from
    the start.
    """
    status = Path("/proc/self/status").read_text()
    return next(int(line.split()[1]) for line in status.splitlines()
                if line.startswith("VmHWM:"))


def end_to_end(setups, phase, peak_kb) -> dict[str, float]:
    latencies = phase.latencies
    return {
        "setup_s": statistics.median(setups),
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "answers_per_s": phase.answers_per_s,
        "ok_ratio": phase.verified / phase.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, untraced, traced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, averaged per request."""
    requests = len(traced.latencies)
    self_s = tracer.self_times()

    def seconds(*names):
        return sum(self_s.get(name, 0.0) for name in names) / requests

    def delta(key):
        return traced.stats_after.get(key, 0) - traced.stats_before.get(key, 0)

    def ratio(part, *whole):
        total = sum(delta(key) for key in whole)
        return delta(part) / total if total else 0.0

    def per_request(key):
        return delta(key) / requests

    metrics = {
        "db.lineage_s": (seconds("db.lineage"), "s"),
        "db.lineage_of_s": (seconds("db.lineage_of"), "s"),
        "db.answer_gates": (tracer.answer_gates / requests, "count"),
        "cache.open_s": (seconds("cache.open"), "s"),
        "cache.tape_hit_ratio": (
            ratio("tape_hits", "tape_hits", "tape_misses"), "ratio"),
        "cache.compile_calls": (per_request("compile_calls"), "count"),
        "scheduler.plan_s": (seconds("scheduler.plan"), "s"),
        "scheduler.shapes_per_answer": (
            ratio("unique_shapes", "answers_explained"), "ratio"),
        "circuits.tseytin_s": (seconds("circuits.tseytin"), "s"),
        "compiler.compile_s": (seconds("compiler.compile"), "s"),
        "compiler.component_hit_ratio": (
            ratio("component_hits", "component_hits", "component_misses"),
            "ratio"),
        "compiler.component_compilations": (
            per_request("component_compilations"), "count"),
        "compiler.stitch_jobs": (per_request("stitch_jobs"), "count"),
        "numerics.tape_lower_s": (seconds("numerics.tape_lower"), "s"),
        "numerics.exec_s": (seconds("numerics.exec"), "s"),
        "numerics.fastpath_hit_ratio": (
            ratio("fastpath_hits", "fastpath_hits", "fastpath_fallbacks"),
            "ratio"),
        "numerics.batched_answer_ratio": (
            ratio("batched_answers", "answers_explained"), "ratio"),
        "proxy.values_s": (seconds("proxy.values"), "s"),
        "store.write_s": (seconds("store.write"), "s"),
        "store.read_s": (seconds("store.read"), "s"),
        "store.writes": (per_request("store_writes"), "count"),
        "store.bytes_written": (traced.bytes_written / requests, "B"),
        "service.run_batch_s": (seconds("service.run_batch"), "s"),
        "service.retries": (per_request("retries"), "count"),
        "service.busy_rejections": (per_request("busy_rejections"), "count"),
        "service.degraded_batches": (
            per_request("degraded_batches"), "count"),
        "service.protocol_errors": (per_request("protocol_errors"), "count"),
        "service.pipeline_overlap_s": (
            per_request("pipeline_overlap_seconds"), "s"),
        "trace.answers_per_s": (traced.answers_per_s, "1/s"),
        "trace.overhead_pct": (
            100.0 * (1.0 - traced.answers_per_s / untraced.answers_per_s),
            "%"),
    }
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--quick", type=int, default=0, metavar="N",
        help="self-test mode: one set-up and only the first N requests")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload; return the result object."""
    from tracing import Tracer
    from workloads import SETTINGS, make_workload, reference, request_blocks

    if args.workload not in SETTINGS["workloads"]:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(SETTINGS['workloads'])}")
    first = None
    if args.quick:
        first = next(request_blocks(args.workload, args.seed))[: args.quick]

        def blocks():
            return iter([first])

        repeats, setup_floor, min_requests, seconds = 1, 0.0, 0, 0.0
    else:
        def blocks():
            return request_blocks(args.workload, args.seed)

        repeats, setup_floor = ((1, 0.0) if args.trace
                                else (SETTINGS["setup_repeats"], SETUP_MIN_S))
        min_requests, seconds = SETTINGS["min_requests"], args.seconds

    out = HERE / "out"
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        """Make the workload and time its set-up."""
        # Each set-up starts without the previous one's garbage.
        gc.collect()
        workload = make_workload(args.workload, workdir)
        began = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        return workload, time.perf_counter() - began

    try:
        workload, setup = set_up()
        setups = [setup]
        try:
            expected = reference(
                workload, first if args.quick else workload.queries)
            gc.collect()
            reset_peak_rss()
            phases = [measure(workload, expected, blocks(), seconds,
                              min_requests)]
            peak_kb = peak_rss_kb()
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    phases.append(measure(workload, expected, blocks(),
                                          seconds, min_requests, tracer))
                finally:
                    tracer.uninstall()
                tracer.write(
                    out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        finally:
            workload.close()
        # Further set-ups, only for the median of setup_s.
        while len(setups) < repeats or (
                sum(setups) < setup_floor and len(setups) < SETUP_MAX_REPEATS):
            workload, setup = set_up()
            workload.close()
            setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(tracer, phases[0], phases[1])
    else:
        metrics = {name: (value, E2E_UNITS[name]) for name, value
                   in end_to_end(setups, phases[0], peak_kb).items()}
    for phase in phases:
        report_queries(phase)
    attempted = sum(phase.attempted for phase in phases)
    failed = attempted - sum(phase.verified for phase in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
