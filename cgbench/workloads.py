"""The benchmark's workloads and one repetition of a workload.

A repetition builds a fresh stack through the public API — ``Scenario``
setup, the standard ``DEFAULT_WARMUP`` replay, ``WorkloadGenerator``,
``ConcurrentReplayer.replay`` on the plain trace, ``simulate_population`` —
and returns its timings, counters and fingerprint.  Repetitions with the
same (trace seed, interleave seed) must produce the same fingerprint.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.social import SeedScale
from repro.apps.social.pages import WRITE_PAGES
from repro.bench import (DEFAULT_SEED_SCALE, DEFAULT_WARMUP, DEFAULT_WORKLOAD,
                         HOT_KEY_WORKLOAD)
from repro.bench.scenarios import (INVALIDATE_SCENARIO, Scenario,
                                   ScenarioConfig, UPDATE_SCENARIO)
from repro.sim import (ADVERSARIAL, ROUND_ROBIN, ConcurrentReplayer,
                       WorkloadReplayer, simulate_population)
from repro.workload import WorkloadConfig, WorkloadGenerator

from cgbench.audit import AuditResult, audit_cache
from cgbench.spans import GcTimer, LayerTracer


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a stack configuration and a trace shape."""

    name: str
    scenario: str
    cache_size_bytes: int
    #: Trace shape of one repetition; its seed is replaced per repetition.
    trace: WorkloadConfig
    workers: int
    policy: str
    #: Seconds one repetition takes on the reference host (setup, replay,
    #: simulation and audit).  Only turns ``--seconds`` into a repetition
    #: count; the count never depends on a clock read during the run.
    rep_seconds: float
    seed_scale: SeedScale = field(default_factory=lambda: DEFAULT_SEED_SCALE)
    warmup: WorkloadConfig = field(default_factory=lambda: DEFAULT_WARMUP)


WORKLOADS: Dict[str, Workload] = {
    "read_mostly": Workload(
        name="read_mostly", scenario=UPDATE_SCENARIO,
        cache_size_bytes=8 * 1024 * 1024,
        trace=DEFAULT_WORKLOAD.with_overrides(sessions_per_client=8),
        workers=1, policy=ROUND_ROBIN, rep_seconds=2.2),
    "cache_overflow": Workload(
        name="cache_overflow", scenario=INVALIDATE_SCENARIO,
        cache_size_bytes=16 * 1024,
        trace=DEFAULT_WORKLOAD.with_overrides(sessions_per_client=8),
        workers=1, policy=ROUND_ROBIN, rep_seconds=3.0),
    "write_contended": Workload(
        name="write_contended", scenario=UPDATE_SCENARIO,
        cache_size_bytes=8 * 1024 * 1024,
        trace=HOT_KEY_WORKLOAD.with_overrides(sessions_per_client=24),
        workers=2, policy=ADVERSARIAL, rep_seconds=3.2),
}


def repetition_seeds(workload: str, seed: int,
                     count: int) -> List[Tuple[int, int]]:
    """The run's fixed, ordered (trace seed, interleave seed) list."""
    rng = random.Random(f"{workload}:{seed}")
    return [(rng.randrange(1 << 30), rng.randrange(1 << 30))
            for _ in range(count)]


class PageTimer:
    """Times every page on the thread that renders it.

    Installed as the app instance's ``render``; it calls the class's
    ``render`` at call time, so a traced replay still goes through the
    tracer's wrapper.  Thread CPU time leaves out time parked at a replay
    hand-off and time the host gave to other processes; wall time keeps
    both, and their difference is the hand-off wait.
    """

    def __init__(self, app: Any) -> None:
        self.app = app
        self.samples: List[Tuple[str, float, float]] = []
        self.started = 0
        self.raised = 0

    def __call__(self, page: str, user_id: int) -> Any:
        self.started += 1
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            return type(self.app).render(self.app, page, user_id)
        except BaseException:
            self.raised += 1
            raise
        finally:
            cpu_end = time.thread_time()
            self.samples.append((page, cpu_end - cpu,
                                 time.perf_counter() - wall))


def _program_counters(scenario: Scenario) -> Dict[str, float]:
    """The program's own lifetime counters that the layer metrics diff."""
    genie = scenario.genie
    out: Dict[str, float] = {f"cache.{k}": v
                             for k, v in scenario.cache_stats().items()}
    for name, value in genie.stats.totals().as_dict().items():
        out[f"objects.{name}"] = value
    queue = genie.trigger_op_queue
    for name in ("flushes", "flushed_keys", "cas_retries", "cas_retry_rounds",
                 "cas_fallbacks"):
        out[f"queue.{name}"] = getattr(queue, name) if queue is not None else 0
    out["triggers.fired"] = scenario.database.triggers.fired_count
    return out


@dataclass
class Repetition:
    """What one repetition measured."""

    setup_seconds: float
    replay_seconds: float
    pages: int
    samples: List[Tuple[str, float, float]]
    fingerprint: Dict[str, Any]
    counters: Dict[str, float]
    sim_pages: int
    sim_seconds: float
    audit: AuditResult
    handoffs: int
    raised: int
    attempted: int
    tracer: Optional[LayerTracer] = None
    gc: Optional[GcTimer] = None
    write_pages: int = field(init=False)

    def __post_init__(self) -> None:
        self.write_pages = sum(1 for page, _, _ in self.samples
                               if page in WRITE_PAGES)


def fingerprint(replay: Any, metrics: Any) -> Dict[str, Any]:
    """Everything a repetition must reproduce bit for bit."""
    pages = hashlib.sha256(json.dumps(
        [(p.client_id, p.page, p.user_id) for p in replay.pages]).encode())
    return {
        "pages": len(replay.pages),
        "page_digest": pages.hexdigest(),
        "schedule_signature": replay.schedule_signature,
        "counters": replay.total_counters.as_dict(),
        "sim": [metrics.completed_pages, metrics.measured_window,
                metrics.throughput, metrics.mean_latency],
    }


def run_repetition(workload: Workload, trace_seed: int, interleave_seed: int,
                   traced: bool = False, time_gc: bool = False) -> Repetition:
    """Set up a fresh stack, replay one trace on it, simulate and audit."""
    gc.collect()
    start = time.perf_counter()
    config = ScenarioConfig(name=workload.scenario,
                            cache_size_bytes=workload.cache_size_bytes,
                            seed_scale=workload.seed_scale)
    scenario = Scenario(config).setup()
    try:
        user_ids = list(range(1, config.seed_scale.users + 1))
        warmup = WorkloadGenerator(workload.warmup, user_ids).generate()
        WorkloadReplayer(scenario.app, scenario.database,
                         clock=scenario.clock).replay(warmup, record=False)
        setup_seconds = time.perf_counter() - start

        trace = WorkloadGenerator(
            workload.trace.with_overrides(seed=trace_seed), user_ids).generate()
        engine = ConcurrentReplayer(
            scenario.app, scenario.database, genie=scenario.genie,
            workers=workload.workers, policy=workload.policy,
            seed=interleave_seed, clock=scenario.clock)
        timer = PageTimer(scenario.app)
        scenario.app.render = timer
        before = _program_counters(scenario)
        tracer = (LayerTracer(
            hook_lists=[scenario.database.transactions.on_commit])
            if traced else None)
        gc_timer = GcTimer() if time_gc else None
        gc.collect()
        replay_start = time.perf_counter()
        try:
            with tracer or gc_timer or contextlib.nullcontext():
                replay = engine.replay(trace)
        except Exception:
            # A raising page fails the repetition; the pages not yet
            # started count as attempted and failed with it.
            traceback.print_exc(file=sys.stderr)
            unstarted = trace.total_page_loads - timer.started
            return _failed(timer, setup_seconds, unstarted)
        replay_seconds = time.perf_counter() - replay_start
        after = _program_counters(scenario)
        del scenario.app.render

        metrics = simulate_population(replay, clients=workload.trace.clients)
        audit = audit_cache(scenario.genie, scenario.cache_servers)
        counters = {name: after[name] - before[name] for name in after
                    if not name.endswith("hit_ratio")
                    and not name.endswith("_max")}
        counters.update({f"cost.{k}": v for k, v
                         in replay.total_counters.as_dict().items()})
        counters["cost.cache_round_trips"] = \
            replay.total_counters.cache_round_trips
        return Repetition(
            setup_seconds=setup_seconds, replay_seconds=replay_seconds,
            pages=len(replay.pages), samples=timer.samples,
            fingerprint=fingerprint(replay, metrics), counters=counters,
            sim_pages=metrics.completed_pages,
            sim_seconds=metrics.measured_window, audit=audit,
            handoffs=len(replay.schedule) if workload.workers > 1 else 0,
            raised=timer.raised, attempted=timer.started,
            tracer=tracer, gc=gc_timer)
    finally:
        scenario.teardown()


def _failed(timer: PageTimer, setup_seconds: float,
            unstarted: int) -> Repetition:
    return Repetition(
        setup_seconds=setup_seconds, replay_seconds=0.0, pages=0,
        samples=[], fingerprint={}, counters={}, sim_pages=0, sim_seconds=0.0,
        audit=AuditResult(), handoffs=0, raised=timer.raised + unstarted,
        attempted=timer.started + unstarted)
