"""Per-layer attribution: spans on the per-thread CPU clock, wrapped from outside.

The benchmark does not change the program to trace it.  :class:`LayerTracer`
replaces each layer's public entry points (class methods and module
functions of ``repro``) with thin wrappers for the duration of a ``with``
block, and restores the originals on exit.  Each wrapper opens a span on
the calling thread's stack, timed with ``time.thread_time``:

* a span's *parent* is the span on top of the stack when it opened (the
  call that caused it);
* a span's *self time* is its duration minus the durations of its direct
  children, so the self times of all spans partition the root spans' time;
* a thread parked at a replay hand-off consumes no CPU, so a span that is
  open across a hand-off is not charged for the time spent parked.

Spans are folded into per-layer and per-name totals as they close instead
of being kept one by one: a traced page records a few hundred spans.
"""

from __future__ import annotations

import functools
import gc
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Nested spans per thread, folded into totals when they close.

    ``clock`` must be a per-thread CPU clock for the parked-span guarantee
    (the default); tests pass a fake one to check the arithmetic.
    """

    def __init__(self, clock: Callable[[], float] = time.thread_time) -> None:
        self.clock = clock
        self._local = threading.local()
        #: layer -> summed self seconds of its spans
        self.layers: Dict[str, float] = {}
        #: span name -> [outermost spans closed, summed inclusive seconds]
        #: (a span nested inside another of the same name adds no time,
        #: so recursive entry points are not counted twice).
        self.names: Dict[str, List[float]] = {}
        #: (parent layer, child layer) -> spans closed with that parent.
        self.edges: Dict[Tuple[str, str], int] = {}

    def _state(self) -> Tuple[list, Dict[str, int]]:
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def open(self, name: str, layer: str) -> None:
        stack, depth = self._state()
        depth[name] = depth.get(name, 0) + 1
        # [name, layer, start, seconds covered by direct children]
        stack.append([name, layer, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        stack, depth = self._state()
        name, layer, start, children = stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        self.layers[layer] = self.layers.get(layer, 0.0) + duration - children
        depth[name] -= 1
        if not depth[name]:
            inclusive = self.names.get(name)
            if inclusive is None:
                inclusive = self.names[name] = [0, 0.0]
            inclusive[0] += 1
            inclusive[1] += duration
        edge = (parent[1] if parent is not None else "", layer)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def open_spans(self) -> int:
        """Spans still open on the calling thread (0 after a clean replay)."""
        return len(self._state()[0])

    # -- readers ---------------------------------------------------------------

    def self_seconds(self, layer: str) -> float:
        return self.layers.get(layer, 0.0)

    def count(self, name: str) -> int:
        return int(self.names.get(name, (0, 0.0))[0])

    def inclusive_seconds(self, name: str) -> float:
        return self.names.get(name, (0, 0.0))[1]

    def outermost_in_layer(self, layer: str) -> int:
        """Spans of ``layer`` whose parent belongs to another layer."""
        return sum(n for (parent, child), n in self.edges.items()
                   if child == layer and parent != layer)


def _span_wrapper(recorder: SpanRecorder, original: Callable, name: str,
                  layer: str, on_result: Optional[Callable[[Any], None]]):
    open_span, close_span = recorder.open, recorder.close
    if on_result is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            open_span(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                close_span()
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            open_span(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span()
            on_result(result)
            return result
    return wrapper


class LayerTracer:
    """Installs span wrappers around the program's layer boundaries.

    Use as a context manager around a replay; every patched attribute is
    restored on exit, so an untraced replay after it runs the original
    code.  Besides spans, it counts the rows the serializer copied, which
    the program keeps no counter for.
    """

    def __init__(self, hook_lists: Sequence[List[Callable]] = ()) -> None:
        self.recorder = SpanRecorder()
        #: Callback lists (such as a transaction manager's ``on_commit``)
        #: whose bound methods were captured before the wrappers existed;
        #: their entries are rebound to the wrappers too.
        self.hook_lists = list(hook_lists)
        self.rows_copied = 0
        self._patches: List[Tuple[Any, Any, Any]] = []

    # -- the boundaries ----------------------------------------------------------

    def _boundaries(self) -> List[Tuple[Any, List[str], str, Optional[Callable]]]:
        """(owner, attribute names, layer, result hook) for every layer."""
        from repro.apps.social.pages import SocialApplication
        from repro.core import serializer
        from repro.core.cache_classes import base as cache_base
        from repro.core.cache_classes.count import CountQuery
        from repro.core.cache_classes.feature import FeatureQuery
        from repro.core.cache_classes.link import LinkQuery
        from repro.core.cache_classes.topk import TopKQuery
        from repro.core.interception import CacheGenieInterceptor
        from repro.core.trigger_queue import TriggerOpQueue
        from repro.memcache.client import CacheClient
        from repro.memcache.server import CacheServer
        from repro.orm.models import Model
        from repro.orm.queryset import QuerySet
        from repro.storage.costmodel import CostModel, Recorder
        from repro.storage.database import Database
        from repro.storage.transactions import TransactionManager
        from repro.storage.triggers import TriggerManager

        def count_rows(rows: Any) -> None:
            self.rows_copied += len(rows)

        client_ops = ["get", "gets", "get_multi", "gets_multi", "set",
                      "set_multi", "add", "cas", "cas_multi", "delete",
                      "delete_multi", "lease_delete", "lease_delete_multi",
                      "lease", "lease_multi", "incr", "decr", "incr_multi",
                      "decr_multi"]
        server_ops = client_ops + ["touch_key", "cas_verdict"]
        return [
            (SocialApplication, ["render"], "app", None),
            (QuerySet, ["_fetch_all", "count", "update", "delete"], "orm", None),
            (Model, ["save", "delete", "refresh_from_db"], "orm", None),
            (CacheGenieInterceptor, ["try_fetch"], "interception", None),
            (cache_base.CacheClass, ["evaluate", "handle_trigger"],
             "cache_classes", None),
            (cache_base, ["evaluate_many"], "cache_classes", None),
            (CountQuery, ["compute_from_db"], "cache_classes", None),
            (FeatureQuery, ["compute_from_db"], "cache_classes", None),
            (LinkQuery, ["compute_from_db"], "cache_classes", None),
            (TopKQuery, ["compute_from_db"], "cache_classes", None),
            (serializer, ["freeze_rows", "thaw_rows"], "serializer", count_rows),
            (serializer, ["freeze_value"], "serializer", None),
            (TriggerManager, ["fire"], "triggers", None),
            (TriggerOpQueue, ["flush"], "trigger_queue", None),
            (TransactionManager, ["commit", "statement_finished"],
             "transactions", None),
            (CacheClient, client_ops, "memcache_client", None),
            (CacheServer, server_ops, "memcache_server", None),
            (Database, ["insert", "update", "delete", "select", "count",
                        "find", "get_by_pk"], "storage", None),
            (Recorder, ["record"], "costmodel", None),
            (CostModel, ["demand"], "costmodel", None),
        ]

    # -- install / restore ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        wrappers: Dict[Any, Callable] = {}
        for owner, attrs, layer, hook in self._boundaries():
            for attr in attrs:
                # Only what the owner defines itself: an inherited method is
                # already wrapped on the class that defines it.
                if attr not in owner.__dict__:
                    continue
                original = owner.__dict__[attr]
                name = f"{layer}.{attr}"
                wrapper = _span_wrapper(self.recorder, original, name, layer,
                                        hook)
                wrappers[original] = wrapper
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # A module function is also bound by name in every module
                # that imported it; rebind all of them.
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and module.__dict__.get(attr) is original):
                        self._patch(module, attr, wrapper)
        for hooks in self.hook_lists:
            for index, hook in enumerate(hooks):
                wrapper = wrappers.get(getattr(hook, "__func__", None))
                if wrapper is not None:
                    self._patches.append((hooks, index, hook))
                    hooks[index] = types.MethodType(wrapper, hook.__self__)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


class GcTimer:
    """Counts collector runs and their pauses through ``gc.callbacks``.

    The collector is timed from outside; it is never disabled or frozen,
    because its pauses are part of what the program costs.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.pause_seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause_seconds += time.perf_counter() - self._started

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)
