"""Tiny-size runs of every workload, untraced and traced."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dataclasses import replace

from repro.apps.social import SeedScale

from cgbench.run import run_workload
from cgbench.workloads import WORKLOADS, run_repetition

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def tiny(workload):
    """The same workload on the unit-test dataset."""
    trace = workload.trace.with_overrides(
        clients=min(workload.trace.clients, 4), sessions_per_client=1,
        page_loads_per_session=4)
    warmup = workload.warmup.with_overrides(clients=2, page_loads_per_session=2)
    return replace(workload, trace=trace, warmup=warmup,
                   seed_scale=SeedScale.tiny())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    result, report = run_workload(tiny(WORKLOADS[name]), seed=3, seconds=1,
                                  trace=False)
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_prints_every_per_layer_metric(name):
    result, report = run_workload(tiny(WORKLOADS[name]), seed=3, seconds=1,
                                  trace=True)
    assert result["correct"], report
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_repetition_reproduces_the_untraced_fingerprint(name):
    workload = tiny(WORKLOADS[name])
    plain = run_repetition(workload, 11, 12)
    traced = run_repetition(workload, 11, 12, traced=True)
    assert plain.pages and plain.fingerprint == traced.fingerprint
    assert plain.counters == traced.counters
    assert traced.tracer.recorder.count("app.render") == traced.pages


def test_a_raising_page_fails_the_repetition(monkeypatch):
    from repro.apps.social.pages import SocialApplication
    from repro.workload import WorkloadGenerator

    from cgbench.run import Checks
    workload = tiny(WORKLOADS["read_mostly"])
    users = list(range(1, workload.seed_scale.users + 1))
    warmup_pages = WorkloadGenerator(workload.warmup,
                                     users).generate().total_page_loads
    trace_pages = WorkloadGenerator(workload.trace.with_overrides(seed=11),
                                    users).generate().total_page_loads
    original = SocialApplication.render
    calls = []

    def flaky(self, page, user_id):
        calls.append(page)
        if len(calls) == warmup_pages + 3:
            raise RuntimeError("page failed")
        return original(self, page, user_id)

    monkeypatch.setattr(SocialApplication, "render", flaky)
    rep = run_repetition(workload, 11, 12)
    assert rep.raised == trace_pages - 2 and rep.attempted == trace_pages
    checks = Checks()
    checks.repetition(rep, "repetition 0")
    assert checks.failed == trace_pages - 2 and not checks.correct
