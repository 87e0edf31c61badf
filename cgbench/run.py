#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 cgbench/run.py --workload read_mostly --seed 1 --seconds 20 --trace 0

Every run does a fixed amount of work: an ordered list of (trace seed,
interleave seed) repetitions derived from ``--seed``, as many as
``--seconds`` buys at the workload's nominal repetition time.  A run never
stops on a clock.  The process pins itself to one CPU first.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a share
of the repetitions twice, untraced and traced, and prints the per-layer
metrics.  Lines before the last are a readable report; the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A traced run replays one in this many of the run's repetitions, twice
#: each (untraced and traced); tracing itself is slower.
TRACE_SHARE = 3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def _sum_counters(reps: Sequence[Any]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for rep in reps:
        for name, value in rep.counters.items():
            total[name] = total.get(name, 0) + value
    return total


def end_to_end(reps: Sequence[Any]
               ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, int]]:
    """The end-to-end metrics of the timed repetitions, and sample counts."""
    from repro.apps.social.pages import WRITE_PAGES
    read = [cpu for rep in reps for page, cpu, _ in rep.samples
            if page not in WRITE_PAGES]
    write = [cpu for rep in reps for page, cpu, _ in rep.samples
             if page in WRITE_PAGES]
    audited = sum(rep.audit.keys_audited for rep in reps)
    stale = sum(rep.audit.stale_keys for rep in reps)
    metrics = {
        "setup_s": (statistics.median(rep.setup_seconds for rep in reps), "s"),
        "pages_per_s": (sum(rep.pages for rep in reps)
                        / sum(rep.replay_seconds for rep in reps), "1/s"),
        "read_page_ms_p50": (percentile(read, 0.50) * 1e3, "ms"),
        "read_page_ms_p99": (percentile(read, 0.99) * 1e3, "ms"),
        "write_page_ms_p50": (percentile(write, 0.50) * 1e3, "ms"),
        "write_page_ms_p99": (percentile(write, 0.99) * 1e3, "ms"),
        "sim_pages_per_s": (sum(rep.sim_pages for rep in reps)
                            / sum(rep.sim_seconds for rep in reps), "1/s"),
        "fresh_key_share": (1.0 - _ratio(stale, audited), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, {"read_page_samples": len(read),
                     "write_page_samples": len(write),
                     "keys_audited": audited, "stale_keys": stale}


def per_layer(traced: Sequence[Any], untraced: Sequence[Any]
              ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: spans of the traced repetitions, counters of
    either (they are equal), collector and hand-off times of the untraced."""
    pages = sum(rep.pages for rep in traced)
    writes = sum(rep.write_pages for rep in traced)
    c = _sum_counters(traced)
    spans = [rep.tracer.recorder for rep in traced]

    def self_ms(layer: str) -> float:
        return sum(r.self_seconds(layer) for r in spans) * 1e3

    def inclusive_ms(*names: str) -> float:
        return sum(r.inclusive_seconds(n) for r in spans for n in names) * 1e3

    def calls(name: str) -> int:
        return sum(r.count(name) for r in spans)

    try_fetch = calls("interception.try_fetch")
    requests = c["objects.cache_hits"] + c["objects.cache_misses"]
    cas_tries = c["cache.cas_ok"] + c["cache.cas_mismatch"] + c["cache.cas_miss"]
    server_ops = sum(c[f"cache.{name}"] for name in (
        "gets", "sets", "adds", "deletes", "cas_ok", "cas_mismatch",
        "cas_miss", "incr_ok", "incr_miss", "decr_ok", "decr_miss",
        "leases_granted", "lease_deletes"))
    server_lookups = c["cache.hits"] + c["cache.misses"]
    plain_pages = sum(rep.pages for rep in untraced)
    traced_rate = pages / sum(rep.replay_seconds for rep in traced)
    plain_rate = plain_pages / sum(rep.replay_seconds for rep in untraced)
    gc_runs = sum(rep.gc.collections for rep in untraced)
    gc_pause = sum(rep.gc.pause_seconds for rep in untraced)
    handoff_wall = sum(wall - cpu for rep in untraced
                       for _, cpu, wall in rep.samples)
    return {
        "app.self_ms_per_page": (self_ms("app") / pages, "ms"),
        "orm.queries_per_page": (
            sum(r.outermost_in_layer("orm") for r in spans) / pages, "count"),
        "orm.self_ms_per_page": (self_ms("orm") / pages, "ms"),
        "interception.try_fetch_per_page": (try_fetch / pages, "count"),
        "interception.served_share": (
            _ratio(c["objects.transparent_fetches"], try_fetch), "ratio"),
        "cache_classes.requests_per_page": (requests / pages, "count"),
        "cache_classes.hit_ratio": (
            _ratio(c["objects.cache_hits"], requests), "ratio"),
        "cache_classes.db_computes_per_page": (
            calls("cache_classes.compute_from_db") / pages, "count"),
        "cache_classes.compute_ms_per_page": (
            inclusive_ms("cache_classes.compute_from_db") / pages, "ms"),
        "cache_classes.self_ms_per_page": (self_ms("cache_classes") / pages,
                                           "ms"),
        "serializer.rows_copied_per_page": (
            sum(rep.tracer.rows_copied for rep in traced) / pages, "count"),
        "serializer.ms_per_page": (self_ms("serializer") / pages, "ms"),
        "triggers.fired_per_write_page": (
            _ratio(c["triggers.fired"], writes), "count"),
        "triggers.ms_per_write_page": (
            _ratio(inclusive_ms("triggers.fire"), writes), "ms"),
        "trigger_queue.flushes_per_write_page": (
            _ratio(c["queue.flushes"], writes), "count"),
        "trigger_queue.cas_retry_rounds_per_write_page": (
            _ratio(c["queue.cas_retry_rounds"], writes), "count"),
        "trigger_queue.cas_win_share": (
            _ratio(c["cache.cas_ok"], cas_tries, empty=1.0), "ratio"),
        "trigger_queue.ms_per_write_page": (
            _ratio(inclusive_ms("trigger_queue.flush"), writes), "ms"),
        "transactions.commits_per_write_page": (
            _ratio(c["cost.commits"], writes), "count"),
        "transactions.commit_ms_per_write_page": (
            _ratio(inclusive_ms("transactions.commit",
                                "transactions.statement_finished"), writes),
            "ms"),
        "memcache_client.round_trips_per_page": (
            c["cost.cache_round_trips"] / pages, "count"),
        "memcache_client.bytes_per_page": (
            c["cost.cache_bytes_moved"] / pages, "bytes"),
        "memcache_client.self_ms_per_page": (
            self_ms("memcache_client") / pages, "ms"),
        "memcache_server.ops_per_page": (server_ops / pages, "count"),
        "memcache_server.hit_ratio": (
            _ratio(c["cache.hits"], server_lookups), "ratio"),
        "memcache_server.evictions_per_page": (
            c["cache.evictions"] / pages, "count"),
        "memcache_server.self_ms_per_page": (
            self_ms("memcache_server") / pages, "ms"),
        "storage.statements_per_page": (c["cost.statements"] / pages, "count"),
        "storage.rows_examined_per_row_returned": (
            _ratio(c["cost.rows_scanned"], c["cost.rows_returned"]), "ratio"),
        "storage.buffer_hit_ratio": (
            _ratio(c["cost.pages_hit"],
                   c["cost.pages_hit"] + c["cost.pages_missed"]), "ratio"),
        "storage.self_ms_per_page": (self_ms("storage") / pages, "ms"),
        "costmodel.record_calls_per_page": (
            calls("costmodel.record") / pages, "count"),
        "costmodel.self_ms_per_page": (self_ms("costmodel") / pages, "ms"),
        "sim.handoffs_per_page": (
            sum(rep.handoffs for rep in untraced) / plain_pages, "count"),
        "sim.handoff_wall_ms_per_page": (handoff_wall * 1e3 / plain_pages,
                                         "ms"),
        "gc.collections_per_page": (gc_runs / plain_pages, "count"),
        "gc.pause_ms_per_page": (gc_pause * 1e3 / plain_pages, "ms"),
        "trace.overhead_ratio": (plain_rate / traced_rate, "ratio"),
        "audit.stale_key_share": (
            _ratio(sum(rep.audit.stale_keys for rep in traced),
                   sum(rep.audit.keys_audited for rep in traced)), "ratio"),
    }


class Checks:
    """Tallies pages attempted and failed, and what made a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def repetition(self, rep: Any, label: str,
                   reference: Optional[Any] = None) -> None:
        """Count a repetition's pages; a raising page fails, and so does every
        page of a repetition that does not reproduce ``reference``."""
        self.attempted += rep.attempted
        if rep.raised:
            self.failed += rep.raised
            self.problems.append(f"{label}: {rep.raised} page(s) raised")
        elif reference is not None and (rep.fingerprint != reference.fingerprint
                                         or rep.counters != reference.counters):
            self.failed += rep.pages
            self.problems.append(f"{label}: fingerprint differs from the "
                                 f"first replay of the same seeds")
        if not rep.audit.complete:
            self.problems.append(f"{label}: {rep.audit.unmapped_keys} cached "
                                 f"key(s) could not be audited")
        if rep.tracer is not None and rep.tracer.recorder.open_spans():
            self.problems.append(f"{label}: spans left open")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def repetition_count(workload: Any, seconds: int) -> int:
    return max(2, round(seconds / workload.rep_seconds))


def run_workload(workload: Any, seed: int, seconds: int,
                 trace: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Run one workload; returns the result object and the report lines."""
    from cgbench.workloads import repetition_seeds, run_repetition
    name = workload.name
    count = repetition_count(workload, seconds)
    seeds = repetition_seeds(name, seed, count)
    checks = Checks()
    # The untimed warm-up repetition; the first timed one replays the same
    # seeds and must reproduce it.
    warm = run_repetition(workload, *seeds[0])
    checks.repetition(warm, "warm-up")
    report = [f"workload {name}: seed {seed}, {count} repetitions "
              f"of {workload.trace.clients} clients, workers={workload.workers}"]
    if not trace:
        reps = []
        for index, (trace_seed, interleave_seed) in enumerate(seeds):
            rep = run_repetition(workload, trace_seed, interleave_seed)
            checks.repetition(rep, f"repetition {index}",
                              reference=warm if index == 0 else None)
            reps.append(rep)
        timed = [rep for rep in reps if rep.pages]
        metrics, counts = end_to_end(timed) if timed else ({}, {})
        report.append("samples: " + ", ".join(f"{k}={v}"
                                              for k, v in counts.items()))
    else:
        plain, traced = [], []
        for index, (trace_seed, interleave_seed) in enumerate(
                seeds[:max(1, count // TRACE_SHARE)]):
            # Alternate which side runs first, so host drift within the run
            # does not bias the tracing overhead.
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {}
            for with_spans in order:
                pair[with_spans] = run_repetition(
                    workload, trace_seed, interleave_seed,
                    traced=with_spans, time_gc=not with_spans)
            checks.repetition(pair[False], f"repetition {index}",
                              reference=warm if index == 0 else None)
            checks.repetition(pair[True], f"traced repetition {index}",
                              reference=pair[False])
            plain.append(pair[False])
            traced.append(pair[True])
        metrics = (per_layer(traced, plain)
                   if all(rep.pages for rep in plain + traced) else {})
        report.append(f"traced pages: {sum(rep.pages for rep in traced)}, "
                      f"write pages: {sum(rep.write_pages for rep in traced)}")
        stale: Dict[str, int] = {}
        for rep in traced:
            for obj, n in rep.audit.stale_by_object.items():
                stale[obj] = stale.get(obj, 0) + n
        report.append(f"stale keys by cached object: {stale or 'none'}")
    report.extend(f"  {key:48s} {value:14.6g} {unit}"
                  for key, (value, unit) in metrics.items())
    report.extend(f"problem: {problem}" for problem in checks.problems)
    result = {
        "correct": checks.correct and bool(metrics),
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, report


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the replay threads it starts) to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cgbench: the program source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from cgbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()
    result, report = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    print(f"pinned to CPU {cpu}")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
