"""Per-layer metrics from the traced run's spans.

Every timing is per publish request unless its name says otherwise
(``route_write_ms``, ``record_write_ms`` and ``replica_apply_ms`` are
per write). A layer that does not run on a workload reads 0. Counts
come from the program's own outputs: the ``RequestTrace`` each
``ViewServer.submit`` resolves to, the composed view ``compose``
returns, and the bytes the client received.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import first_child_start, self_seconds

MATERIALIZE = ("ViewEvaluator.materialize", "BulkViewEvaluator.materialize")


def _ancestors(span):
    parent = span.parent
    while parent is not None:
        yield parent
        parent = parent.parent


def layer_metrics(spans, steps) -> tuple[dict, dict]:
    """``({name: (value, unit)}, exact counts)`` for the traced steps."""
    publishes = [s for s in steps if s.kind == "publish"]
    requests = len(publishes)
    writes = sum(1 for s in steps if s.kind == "write")
    selfs = self_seconds(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(*names) -> float:
        """Seconds in the outermost spans of ``names`` (no double count)."""
        return sum(
            span.seconds
            for name in names
            for span in by_name[name]
            if not any(a.name == name for a in _ancestors(span))
        )

    def own(*names) -> float:
        return sum(selfs[id(span)] for name in names for span in by_name[name])

    def per_request_ms(seconds: float) -> tuple[float, str]:
        return (seconds * 1000.0 / requests, "ms")

    def per_write_ms(seconds: float) -> tuple[float, str]:
        return (seconds * 1000.0 / writes if writes else 0.0, "ms")

    def ratio(part: int, base: int) -> tuple[float, str]:
        return (part / base if base else 0.0, "ratio")

    submits = by_name["ViewServer.submit"]
    counts = defaultdict(int)
    for span in submits:
        for key, value in span.counts.items():
            if key == "freshness":
                counts[f"freshness.{value}"] += 1
            else:
                counts[key] += value
    first = first_child_start(spans)
    queue_wait = sum(first[id(s)] - s.start for s in submits if id(s) in first)
    transform = sum(
        span.seconds
        for span in spans
        if span.layer == "sql.transform"
        and not any(a.layer == "sql.transform" for a in _ancestors(span))
    )
    subrequests = sum(
        1
        for span in submits
        if span.parent is not None and span.parent.name == "ShardRouter.submit"
    )
    delta_recomputes = counts["freshness.delta-recompute"]
    delta_fallbacks = counts["freshness.stale-recompute"]
    route_writes = [span.seconds for span in by_name["ShardRouter.route_write"]]
    response_bytes = sum(s.size for s in publishes)
    client_seconds = sum(s.seconds for s in publishes)
    facade = total("AsyncViewServer.submit")

    metrics = {
        "xslt.parse_ms": per_request_ms(total("parse_stylesheet")),
        "core.compose_ms": per_request_ms(own("compose")),
        "core.prune_ms": per_request_ms(total("prune_stylesheet_view")),
        "core.composed_nodes": (
            sum(span.counts.get("nodes", 0) for span in by_name["compose"])
            / requests,
            "count",
        ),
        "sql.print_ms": per_request_ms(total("print_select")),
        "sql.transform_ms": per_request_ms(transform),
        "serving.plan_key_ms": per_request_ms(total("ViewServer.plan_key_for")),
        "serving.plan_hit_ratio": ratio(counts["plan_hit"], len(submits)),
        "serving.queue_wait_ms": per_request_ms(queue_wait),
        "serving.pool_wait_ms": per_request_ms(total("ConnectionPool.acquire")),
        "serving.self_ms": per_request_ms(own("ViewServer.submit") - queue_wait),
        "relational.query_ms": per_request_ms(total("Database.run_query")),
        "relational.queries": (counts["queries"] / requests, "count"),
        "relational.rows": (counts["rows"] / requests, "count"),
        "relational.rows_per_element": (
            counts["rows"] / counts["elements"] if counts["elements"] else 0.0,
            "ratio",
        ),
        "schema_tree.materialize_self_ms": per_request_ms(own(*MATERIALIZE)),
        "schema_tree.elements": (counts["elements"] / requests, "count"),
        "xmlcore.serialize_ms": per_request_ms(
            total("serialize", "serialize_spliced")
        ),
        "xmlcore.bytes": (response_bytes / requests, "count"),
        "maintenance.result_hit_ratio": ratio(
            counts["freshness.hit"], len(submits)
        ),
        "maintenance.lookup_ms": per_request_ms(total("ResultCache.lookup")),
        "maintenance.delta_ms": per_request_ms(total("DeltaEvaluator.evaluate")),
        "maintenance.delta_fallback_ratio": ratio(
            delta_fallbacks, delta_recomputes + delta_fallbacks
        ),
        "maintenance.fragment_hit_ratio": ratio(
            counts["fragment_hits"],
            counts["fragment_hits"] + counts["fragment_misses"],
        ),
        "maintenance.record_write_ms": per_write_ms(
            total("WriteTracker.record_write")
        ),
        "sharding.router_self_ms": per_request_ms(own("ShardRouter.submit")),
        "sharding.merge_ms": per_request_ms(total("merge_documents")),
        "sharding.subrequests": (subrequests / requests, "count"),
        "sharding.route_write_ms": (
            statistics.median(route_writes) * 1000.0 if route_writes else 0.0,
            "ms",
        ),
        "sharding.replica_apply_ms": per_write_ms(
            sum(
                span.seconds
                for span in by_name["ReplicaApplier.apply_pending"]
                if any(a.name == "ShardRouter.route_write" for a in _ancestors(span))
            )
        ),
        "frontend.facade_ms": per_request_ms(own("AsyncViewServer.submit")),
        "frontend.http_self_ms": per_request_ms(
            client_seconds - facade if by_name["AsyncViewServer.submit"] else 0.0
        ),
    }
    exact = {
        "publishes": requests,
        "writes": writes,
        "server_requests": len(submits),
        "queries": counts["queries"],
        "rows": counts["rows"],
        "elements": counts["elements"],
        "bytes": response_bytes,
        "plan_hits": counts["plan_hit"],
        "result_hits": counts["freshness.hit"],
        "delta_recomputes": delta_recomputes,
        "delta_fallbacks": delta_fallbacks,
        "fragment_hits": counts["fragment_hits"],
        "subrequests": subrequests,
        "composed_nodes": sum(
            span.counts.get("nodes", 0) for span in by_name["compose"]
        ),
    }
    return metrics, exact
