"""Span self-time arithmetic, and installing/removing the layer wrappers."""

from __future__ import annotations

import threading
import time

from cgbench.spans import LayerTracer, SpanRecorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    spans.open("app.render", "app")          # t=0
    clock.now = 1.0
    spans.open("orm.count", "orm")           # t=1
    clock.now = 2.0
    spans.open("storage.count", "storage")   # t=2
    clock.now = 5.0
    spans.close()                            # storage 3
    clock.now = 6.0
    spans.close()                            # orm 5, self 2
    spans.open("orm.count", "orm")           # t=6
    clock.now = 7.0
    spans.close()                            # orm 1, self 1
    clock.now = 10.0
    spans.close()                            # app 10, self 10 - 5 - 1
    assert spans.self_seconds("storage") == 3.0
    assert spans.self_seconds("orm") == 3.0
    assert spans.self_seconds("app") == 4.0
    assert sum(spans.self_seconds(layer)
               for layer in ("app", "orm", "storage")) == 10.0
    assert spans.count("orm.count") == 2
    assert spans.inclusive_seconds("orm.count") == 6.0
    assert spans.outermost_in_layer("orm") == 2
    assert spans.open_spans() == 0


def test_recursive_spans_count_inclusive_time_once():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    spans.open("triggers.fire", "triggers")
    clock.now = 1.0
    spans.open("triggers.fire", "triggers")
    clock.now = 3.0
    spans.close()
    clock.now = 4.0
    spans.close()
    assert spans.count("triggers.fire") == 1
    assert spans.inclusive_seconds("triggers.fire") == 4.0
    assert spans.self_seconds("triggers") == 4.0
    assert spans.outermost_in_layer("triggers") == 1


def test_a_parked_span_is_not_charged_for_the_wait():
    spans = SpanRecorder()   # per-thread CPU clock
    release = threading.Event()
    finished = threading.Event()

    def worker() -> None:
        spans.open("app.render", "app")
        release.wait(timeout=10)    # parked: no CPU used
        spans.close()
        finished.set()

    thread = threading.Thread(target=worker)
    thread.start()
    time.sleep(0.3)
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive() and finished.is_set()
    assert spans.count("app.render") == 1
    assert spans.self_seconds("app") < 0.1


def test_spans_are_kept_per_thread():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    spans.open("app.render", "app")
    thread = threading.Thread(target=lambda: (spans.open("orm.count", "orm"),
                                              spans.close()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 2.0
    spans.close()
    # The other thread's span is no child of this thread's open span.
    assert spans.self_seconds("app") == 2.0
    assert spans.edges[("", "orm")] == 1


def test_layer_tracer_restores_every_patched_attribute():
    from repro.core import serializer
    from repro.core.cache_classes import base
    from repro.storage.costmodel import Recorder
    originals = (Recorder.record, serializer.freeze_rows, base.freeze_rows)
    hooks = [Recorder().record]
    with LayerTracer(hook_lists=[hooks]) as tracer:
        assert Recorder.record is not originals[0]
        assert base.freeze_rows is not originals[2]
        assert hooks[0].__func__ is Recorder.record
        serializer.freeze_rows([{"a": 1}, {"a": 2}])
        hooks[0]("statements")
    assert (Recorder.record, serializer.freeze_rows,
            base.freeze_rows) == originals
    assert hooks[0].__func__ is originals[0]
    assert tracer.rows_copied == 2
    assert tracer.recorder.count("costmodel.record") == 1
