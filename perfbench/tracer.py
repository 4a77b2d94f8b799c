"""Span tracing from outside the program, for the traced run.

:class:`Tracer` wraps the public functions of each layer (the table in
:data:`TARGETS`) for the length of one traced run and puts every
original back in :meth:`Tracer.remove`. Each call records a
:class:`Span` — name, layer, start, end, parent and the id of the
benchmark request it belongs to — in memory; :meth:`Tracer.dump`
writes them out when the run ends.

The traced run issues one request at a time, so every span inside a
request's window belongs to that request, including spans on the
server's worker threads. A span's parent is the innermost open span of
its own thread. A thread that picks up queued work is bound to the span
that queued it by the first call it makes for the request:
``ViewServer.plan_key_for`` binds a server worker to the
``ViewServer.submit`` span of the same server and request, and
``plan_key`` binds the router's scatter thread to the open
``ShardRouter.submit`` span. Spans on threads that are never bound —
the replica appliers' background sweeps — have no parent, and count
toward no request's layers.

A layer's self time is its span minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

#: Marker set on every wrapper, so a test can prove none is left behind.
WRAPPED_MARK = "__perfbench_wrapped__"

#: (module, attribute path, layer, kind). ``kind`` is ``call`` (a plain
#: call), ``future`` (returns a Future; the span ends when it resolves),
#: ``bind`` (the first call a server worker makes for a request),
#: ``bind-router`` (the first call the router's scatter thread makes)
#: or ``async`` (a coroutine function; the span ends when it returns).
TARGETS = (
    ("repro.xslt.parser", "parse_stylesheet", "xslt", "call"),
    ("repro.core.compose", "compose", "core", "call"),
    ("repro.core.optimize", "prune_stylesheet_view", "core", "call"),
    ("repro.sql.printer", "print_select", "sql", "call"),
    ("repro.sql.transform", "attach_parent_query", "sql.transform", "call"),
    ("repro.sql.transform", "inline_parameter", "sql.transform", "call"),
    ("repro.sql.transform", "inline_parameter_deep", "sql.transform", "call"),
    ("repro.sql.transform", "scalar_aggregate_restructure", "sql.transform", "call"),
    ("repro.sql.transform", "carry_parent_columns", "sql.transform", "call"),
    ("repro.sql.transform", "push_key_predicate", "sql.transform", "call"),
    ("repro.sql.transform", "restrict_output_in", "sql.transform", "call"),
    ("repro.sql.transform", "expand_stars", "sql.transform", "call"),
    ("repro.sql.transform", "project_columns", "sql.transform", "call"),
    ("repro.sql.transform", "qualify_bare_stars", "sql.transform", "call"),
    ("repro.sql.transform", "qualify_unqualified_columns", "sql.transform", "call"),
    ("repro.sql.transform", "propagate_order", "sql.transform", "call"),
    ("repro.serving.server", "ViewServer.submit", "serving", "future"),
    ("repro.serving.server", "ViewServer.plan_key_for", "serving", "bind"),
    ("repro.serving.fingerprint", "plan_key", "serving", "bind-router"),
    ("repro.serving.pool", "ConnectionPool.acquire", "serving", "call"),
    ("repro.relational.engine", "Database.run_query", "relational", "call"),
    ("repro.schema_tree.evaluator", "ViewEvaluator.materialize", "schema_tree", "call"),
    ("repro.schema_tree.bulk_evaluator", "BulkViewEvaluator.materialize", "schema_tree", "call"),
    ("repro.xmlcore.serializer", "serialize", "xmlcore", "call"),
    ("repro.xmlcore.serializer", "serialize_spliced", "xmlcore", "call"),
    ("repro.maintenance.result_cache", "ResultCache.lookup", "maintenance", "call"),
    ("repro.maintenance.incremental", "DeltaEvaluator.evaluate", "maintenance", "call"),
    ("repro.maintenance.tracker", "WriteTracker.record_write", "maintenance", "call"),
    ("repro.sharding.router", "ShardRouter.submit", "sharding", "future"),
    ("repro.sharding.router", "ShardRouter.route_write", "sharding", "call"),
    ("repro.sharding.merge", "merge_documents", "sharding", "call"),
    ("repro.sharding.replica", "ReplicaApplier.apply_pending", "sharding", "call"),
    ("repro.frontend.facade", "AsyncViewServer.submit", "frontend", "async"),
)


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float
    request: int
    thread: int
    parent: Optional["Span"] = None
    end: Optional[float] = None
    #: Counts read from the call's public result (a RequestTrace, a
    #: composed view), keyed by name.
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Installs span wrappers on :data:`TARGETS`; one request at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Benchmark request id stamped on every span; the request loop
        #: advances it before each request.
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_futures: list[Span] = []
        self._by_submit: dict[tuple[int, int], Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            name = path
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, name, layer, kind))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, layer, kind)
            # Rebind the name everywhere the program imported it.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attr) is original
                ):
                    self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else getattr(self._local, "bound", None)
        span = Span(
            name, layer, time.perf_counter(), self.request,
            threading.get_ident(), parent,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def _close_future(self, span: Span, future) -> None:
        span.end = time.perf_counter()
        if not future.cancelled() and future.exception() is None:
            result = future.result()
            span.counts = {
                "queries": getattr(result, "queries_executed", 0),
                "rows": getattr(result, "rows_fetched", 0),
                "elements": getattr(result, "elements_created", 0),
                "plan_hit": int(getattr(result, "cache_hit", False)),
                "freshness": getattr(result, "freshness", ""),
                "fragment_hits": getattr(result, "fragment_hits", 0),
                "fragment_misses": getattr(result, "fragment_misses", 0),
            }
        with self._lock:
            self._open_futures.remove(span)

    def _wrap(self, original, name: str, layer: str, kind: str):
        tracer = self

        if kind == "async":

            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                span = tracer._open(name, layer)
                stack = tracer._stack()
                stack.append(span)
                try:
                    return await original(*args, **kwargs)
                finally:
                    stack.remove(span)
                    span.end = time.perf_counter()

            setattr(traced_async, WRAPPED_MARK, True)
            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                # Recursion into the same function: one span covers it.
                return original(*args, **kwargs)
            parent = None
            if kind == "bind" and not stack:
                # A server worker starting a request: adopt the submit
                # span of this server and request for the whole thread.
                with tracer._lock:
                    parent = tracer._by_submit.pop(
                        (id(args[0]), id(args[1])), None
                    )
                tracer._local.bound = parent
            elif kind == "bind-router" and not stack:
                with tracer._lock:
                    parent = next(
                        (
                            span
                            for span in reversed(tracer._open_futures)
                            if span.name == "ShardRouter.submit"
                        ),
                        None,
                    )
                tracer._local.bound = parent
            span = tracer._open(name, layer, parent)
            if kind == "future":
                with tracer._lock:
                    tracer._open_futures.append(span)
                    if name == "ViewServer.submit":
                        tracer._by_submit[(id(args[0]), id(args[1]))] = span
                try:
                    future = original(*args, **kwargs)
                except BaseException:
                    span.end = time.perf_counter()
                    with tracer._lock:
                        tracer._open_futures.remove(span)
                    raise
                future.add_done_callback(
                    functools.partial(tracer._close_future, span)
                )
                return future
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if name == "compose":
                span.counts["nodes"] = sum(
                    1 for _ in result.nodes(include_root=False)
                )
            return result

        setattr(traced, WRAPPED_MARK, True)
        return traced

    # -- analysis -----------------------------------------------------------

    def settled(self) -> bool:
        """True once every span has ended (no future still open)."""
        with self._lock:
            return not self._open_futures and all(
                span.end is not None for span in self.spans
            )

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": index.get(id(span.parent)),
                            "request": span.request,
                            "thread": span.thread,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def covered(span: Span, children: list[Span]) -> float:
    """Seconds of ``span``'s interval that ``children`` cover (union)."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end is not None
    )
    total = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return {
        id(span): span.seconds - covered(span, children.get(id(span), []))
        for span in spans
    }


def first_child_start(spans: list[Span]) -> dict[int, float]:
    """Earliest child start of every span that has children."""
    first: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            first[key] = min(first.get(key, span.start), span.start)
    return first

