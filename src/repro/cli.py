"""Command-line interface: ``python -m repro <command>``.

Workflows:

.. code-block:: bash

    # Create demo artifacts (catalog, view, stylesheet, sqlite database).
    python -m repro demo --out demo/ --scale 2

    # Compose a stylesheet with a view into a stylesheet view.
    python -m repro compose --catalog demo/catalog.xml \\
        --view demo/view.xml --stylesheet demo/stylesheet.xsl \\
        --out demo/composed.xml [--paper-mode] [--prune]

    # Show the intermediate structures (CTG, TVQ, plan notes).
    python -m repro explain --catalog ... --view ... --stylesheet ...

    # Materialize a (possibly composed) view against a database.
    python -m repro materialize --catalog ... --view demo/composed.xml \\
        --db demo/hotel.sqlite [--strategy nested-loop|memoized|bulk] [--pretty]

    # One-shot: plan + execute a stylesheet over a view (hybrid executor).
    python -m repro run --catalog ... --view demo/view.xml \\
        --stylesheet demo/stylesheet.xsl --db demo/hotel.sqlite

    # Concurrent serving benchmark (ViewServer + plan cache): throughput,
    # latency percentiles, and cache hit rate over the paper workload.
    python -m repro serve-bench --scale 2 --workers 4 --requests 100 \\
        [--strategy all|nested-loop|memoized|bulk] [--json metrics.json]
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.core.compose import compose
from repro.core.ctg import build_ctg
from repro.core.hybrid import HybridExecutor
from repro.core.optimize import prune_stylesheet_view
from repro.core.tvq import build_tvq
from repro.errors import ReproError
from repro.relational.driver import BACKEND_NAMES
from repro.relational.engine import Database
from repro.resilience.faults import FLEET_FAULT_KINDS
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import STRATEGIES, ViewEvaluator
from repro.schema_tree.io import (
    load_catalog,
    load_view,
    save_catalog,
    save_view,
)
from repro.xmlcore.serializer import serialize, serialize_pretty
from repro.xslt.parser import parse_stylesheet


def _read_stylesheet(path: str):
    with open(path) as handle:
        return parse_stylesheet(handle.read())


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_compose(args: argparse.Namespace) -> int:
    """``repro compose``: compose a stylesheet with a view file."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    stylesheet = _read_stylesheet(args.stylesheet)
    composed = compose(view, stylesheet, catalog, paper_mode=args.paper_mode)
    if args.prune:
        report = prune_stylesheet_view(composed, catalog)
        print(
            f"pruned {report.columns_removed} dead columns from "
            f"{report.nodes_pruned} nodes",
            file=sys.stderr,
        )
    from repro.schema_tree.io import view_to_xml

    _write_output(view_to_xml(composed), args.out)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: print the plan and intermediate structures."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    stylesheet = _read_stylesheet(args.stylesheet)
    executor = HybridExecutor(view, stylesheet, catalog)
    print(f"plan: {executor.plan.kind}")
    for note in executor.plan.notes:
        print(f"  note: {note}")
    print()
    if executor.plan.kind == "composed":
        from repro.core.rewrites.pipeline import rewrite_to_basic

        lowered = rewrite_to_basic(stylesheet)
        ctg = build_ctg(view, lowered)
        tvq = build_tvq(ctg, catalog)
        if args.dot:
            from repro.core.visualize import ctg_to_dot, tvq_to_dot, view_to_dot

            print(ctg_to_dot(ctg))
            print()
            print(tvq_to_dot(tvq))
            print()
            print(view_to_dot(executor.plan.view, title="stylesheet_view"))
            return 0
        print("== Context Transition Graph ==")
        print(ctg.describe())
        print()
        print("== Traverse View Query ==")
        print(tvq.describe())
        print()
    print("== Output view ==")
    print(executor.plan.view.describe())
    if executor.plan.stylesheet is not None:
        print()
        print("== Residual stylesheet rules ==")
        for rule in executor.plan.stylesheet.rules:
            print(f"  match={rule.match.to_text()!r} mode={rule.mode!r}")
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    """``repro materialize``: evaluate a view file against a database."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    strategy = args.strategy
    if args.memoize:
        if strategy not in ("nested-loop", "memoized"):
            print(
                f"error: --memoize conflicts with --strategy {strategy}",
                file=sys.stderr,
            )
            return 2
        strategy = "memoized"
    db = Database.open(catalog, args.db)
    try:
        if strategy == "bulk":
            evaluator = BulkViewEvaluator(db)
        else:
            evaluator = ViewEvaluator(db, memoize=strategy == "memoized")
        document = evaluator.materialize(view)
        text = serialize_pretty(document) if args.pretty else serialize(document)
        _write_output(text, args.out)
        print(
            f"{evaluator.stats.elements_created} elements, "
            f"{db.stats.queries_executed} queries",
            file=sys.stderr,
        )
        if strategy == "bulk" and evaluator.fallback_nodes:
            print(
                f"{len(evaluator.fallback_nodes)} nodes fell back to "
                "correlated execution:",
                file=sys.stderr,
            )
            for record in evaluator.fallback_nodes:
                print(f"  {record}", file=sys.stderr)
    finally:
        db.close()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: plan and execute a stylesheet (hybrid executor)."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    stylesheet = _read_stylesheet(args.stylesheet)
    executor = HybridExecutor(
        view, stylesheet, catalog,
        fallback_builtin_rules=args.builtin_rules,
    )
    print(f"plan: {executor.plan.kind}", file=sys.stderr)
    db = Database.open(catalog, args.db)
    try:
        document = executor.execute(db)
        text = serialize_pretty(document) if args.pretty else serialize(document)
        _write_output(text, args.out)
    finally:
        db.close()
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """``repro serve-bench``: measure the concurrent publishing server.

    Builds the hotel workload at ``--scale``, starts a
    :class:`~repro.serving.server.ViewServer` with ``--workers`` pooled
    read-only connections, and serves ``--requests`` composition
    requests (Figure 1 view x {Figure 4, Figure 17} stylesheets, cycling
    through the chosen strategies). Reports throughput, latency
    percentiles, and plan-cache hit rate; ``--json`` records the full
    metrics (including per-request traces) for CI assertions.

    The backend comes from
    :func:`~repro.frontend.app.build_hotel_backend`, the build path the
    HTTP commands share. ``--writes-per-sec`` runs a writer thread
    applying the standard hotel write mix while requests are served.
    Update-aware mode: ``--staleness`` attaches a
    :class:`~repro.maintenance.tracker.WriteTracker` and a result cache
    governed by the given policy (a fleet requires one), and the report
    additionally shows the freshness histogram, result-cache counters,
    and the maximum version lag actually served; without it every
    request is computed live. ``--maintenance delta`` recomputes stale
    entries incrementally (dirty schema nodes only, spliced into the
    cached document) instead of re-running the full plan;
    ``--maintenance fragment`` additionally serializes through the
    per-fragment byte cache (``--fragment-policy`` picks what stays
    byte-materialized). ``--view-only`` serves the publishing view
    itself instead of the stylesheet compositions — the regime where
    per-node maintenance has structure to exploit. ``--profile`` adds a
    per-phase time breakdown (query / merge / serialize / splice) over
    the computed (non-hit) requests, in the text report and the JSON.

    Chaos mode: ``--faults`` (and friends) build a seeded
    :class:`~repro.resilience.faults.FaultPlan` injecting transient
    errors / latency / wrong-shape results into every pooled session;
    ``--deadline-ms`` / ``--retries`` / ``--breaker-threshold`` /
    ``--queue-limit`` assemble a
    :class:`~repro.resilience.policy.ResiliencePolicy`. ``--warmup``
    serves that many requests with faults disarmed first (caches
    populated, last-known-good entries in place). The report gains the
    outcome histogram, **availability** (success + degraded fraction),
    resilience counters, and two shutdown leak checks: pooled
    connections still borrowed after all futures resolved, and
    ``viewserver`` worker threads still alive after close. With a fault
    plan active the exit code reflects the run completing, not the
    (expected) injected errors.
    """
    import json
    import threading as _threading
    import time as _time

    from repro.frontend.app import build_hotel_backend
    from repro.serving import OUTCOMES, PublishRequest, percentile
    from repro.workloads.paper import (
        figure1_view,
        figure4_stylesheet,
        figure17_stylesheet,
    )

    options = _backend_options(args)
    faults = options["faults"]
    fleet_faults = options["fleet_faults"]
    resilience = options["resilience"]
    update_aware = args.staleness is not None
    sharded = args.shards > 1 or args.replicas > 0
    strategies = list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    db, server, write = build_hotel_backend(keep_xml=False, **options)
    view = figure1_view(db.catalog)
    stylesheets = [
        ("figure4", figure4_stylesheet()),
        ("figure17", figure17_stylesheet()),
    ]
    if args.view_only:
        stylesheets = [("figure1", None)]
    requests = []
    for index in range(args.requests):
        name, stylesheet = stylesheets[index % len(stylesheets)]
        strategy = strategies[index % len(strategies)]
        requests.append(
            PublishRequest(
                view, stylesheet, strategy=strategy, label=f"{name}/{strategy}"
            )
        )
    stop_writer = _threading.Event()
    writes_issued = [0]

    def write_loop() -> None:
        interval = 1.0 / args.writes_per_sec
        while not stop_writer.wait(interval):
            write(writes_issued[0])
            writes_issued[0] += 1

    writer = None
    if args.writes_per_sec > 0:
        writer = _threading.Thread(target=write_loop, daemon=True)
        writer.start()
    leaked_connections = 0
    try:
        if args.warmup > 0:
            # Populate plan + result caches fault-free so degraded-stale
            # has a last-known-good entry to fall back to.
            if faults is not None:
                faults.disarm()
            if fleet_faults is not None:
                fleet_faults.disarm()
            server.render_many(
                PublishRequest(
                    view,
                    stylesheets[index % len(stylesheets)][1],
                    strategy=strategies[index % len(strategies)],
                    label="warmup",
                )
                for index in range(args.warmup)
            )
            if faults is not None:
                faults.arm()
            if fleet_faults is not None:
                fleet_faults.arm()
        started = _time.perf_counter()
        traces = server.render_many(requests)
        wall_seconds = _time.perf_counter() - started
        # Stop the writer before snapshotting metrics so writes_issued
        # and the tracker's counters describe the same moment.
        stop_writer.set()
        if writer is not None:
            writer.join()
        # Every future has resolved: any borrowed session now is a leak.
        leaked_connections = (
            server.outstanding() if sharded else server.pool.outstanding()
        )
        metrics = server.aggregate_metrics() if sharded else server.metrics()
    finally:
        stop_writer.set()
        if writer is not None:
            writer.join()
        server.close()
        db.close()
    leaked_threads = sum(
        1
        for thread in _threading.enumerate()
        if thread.name.startswith(("viewserver", "shardrouter"))
    )
    latencies_ms = [trace.total_seconds * 1000 for trace in traces]
    errors = [trace for trace in traces if trace.error is not None]
    # Outcomes/availability come from the measured traces (warmup
    # requests are deliberately excluded; server.metrics() counts them).
    outcome_counts = {outcome: 0 for outcome in OUTCOMES}
    for trace in traces:
        outcome_counts[trace.outcome] += 1
    availability = (
        (outcome_counts["success"] + outcome_counts["degraded"]) / len(traces)
        if traces
        else 0.0
    )
    cache = metrics["cache"]
    lookups = cache["hits"] + cache["misses"]
    hit_rate = cache["hits"] / lookups if lookups else 0.0
    throughput = len(traces) / wall_seconds if wall_seconds else 0.0
    p50 = percentile(latencies_ms, 50)
    p95 = percentile(latencies_ms, 95)
    p99 = percentile(latencies_ms, 99)
    print(
        f"serve-bench: scale={args.scale} workers={args.workers} "
        f"backend={db.driver.name} requests={len(traces)} "
        f"strategy={args.strategy}"
    )
    if sharded:
        router_stats = metrics["router"]
        print(
            f"sharded shards={args.shards} replicas={args.replicas} "
            f"failovers={router_stats['failovers']} "
            f"key_ranges={router_stats.get('key_ranges', '')}"
        )
        fleet = router_stats.get("fleet")
        if fleet is not None:
            skips = fleet["skips"]
            rate = fleet["anti_affinity"]["rate"]
            print(
                f"fleet stale_serves={fleet['stale_serves']} "
                f"max_member_lag_served={fleet['max_member_lag_served']} "
                f"no_candidates={fleet['no_candidates']} "
                "skips "
                + " ".join(f"{k}={v}" for k, v in sorted(skips.items()))
                + " anti_affinity_rate="
                + (f"{rate:.3f}" if rate is not None else "n/a")
            )
            if fleet_faults is not None:
                stats = fleet["fleet_faults"]
                print(
                    f"fleet_faults kind={args.fault_kind} "
                    f"seed={stats['seed']} checks={stats['checks']} "
                    f"injected={stats['injected']}"
                )
    print(
        f"throughput_rps={throughput:.1f} wall_seconds={wall_seconds:.4f} "
        f"errors={len(errors)}"
    )
    print(f"latency_ms p50={p50:.3f} p95={p95:.3f} p99={p99:.3f}")
    print(
        f"cache hits={cache['hits']} misses={cache['misses']} "
        f"evictions={cache['evictions']} hit_rate={hit_rate:.3f}"
    )
    print(
        f"engine queries={metrics['queries_executed']} "
        f"rows={metrics['rows_fetched']}"
    )
    max_hit_lag = 0
    if update_aware:
        freshness = metrics["freshness"]
        result_cache = metrics["result_cache"]
        max_hit_lag = max(
            (t.version_lag for t in traces if t.freshness == "hit"),
            default=0,
        )
        print(
            f"freshness policy={metrics['staleness_policy']} "
            + " ".join(f"{state}={freshness[state]}" for state in freshness)
        )
        print(
            f"result_cache hits={result_cache['hits']} "
            f"misses={result_cache['misses']} stale={result_cache['stale']} "
            f"max_hit_lag={max_hit_lag}"
        )
        print(
            f"maintenance mode={metrics['maintenance']} "
            f"delta_recomputes={freshness['delta-recompute']} "
            f"delta_fallbacks={metrics['delta_fallbacks']}"
        )
        if "fragments" in metrics:
            fragments = metrics["fragments"]
            print(
                f"fragments policy={fragments['policy']} "
                f"hits={fragments['hits']} misses={fragments['misses']} "
                f"splices={fragments['splices']} "
                f"spliced_bytes={fragments['spliced_bytes']}"
            )
        print(
            f"writes issued={writes_issued[0]} "
            f"tracked={metrics['tracker']['total_writes']}"
        )
    if resilience is not None or faults is not None:
        print(
            "outcomes "
            + " ".join(f"{o}={outcome_counts[o]}" for o in OUTCOMES)
            + f" availability={availability:.4f}"
        )
        if resilience is not None:
            res = metrics["resilience"]
            breaker = res["breaker"] or {}
            print(
                f"resilience policy=[{res['policy']}] "
                f"retries={res['retries']} "
                f"deadline_hits={res['deadline_hits']} "
                f"shed={res['shed_requests']} "
                f"degraded={res['degraded_serves']} "
                f"breaker_opened={breaker.get('opened', 0)}"
            )
        if faults is not None:
            injected = metrics["faults"]["injected"]
            print(
                f"faults seed={args.fault_seed} "
                + " ".join(f"{k}={v}" for k, v in sorted(injected.items()))
            )
        print(
            f"shutdown leaked_connections={leaked_connections} "
            f"leaked_threads={leaked_threads}"
        )
    for trace in errors:
        print(f"error: request {trace.request_id}: {trace.error}",
              file=sys.stderr)
    profile = None
    if args.profile:
        # Per-phase breakdown over the requests that actually computed
        # (cache hits and degraded serves spend time in none of these).
        # merge = execute - query - splice: the evaluator work between
        # sqlite and the document splice (row grouping, element build).
        computed = [
            trace
            for trace in traces
            if trace.error is None
            and trace.freshness not in ("hit", "degraded-stale")
        ]
        if sharded:
            # Fleet phases: scatter covers the slowest shard's full
            # serve (the request's critical path); merge and serialize
            # are router-side work on the gathered documents.
            samples = {
                "scatter": [t.execute_seconds * 1000 for t in computed],
                "merge": [t.merge_seconds * 1000 for t in computed],
                "serialize": [t.serialize_seconds * 1000 for t in computed],
            }
        else:
            samples = {
                "query": [t.query_seconds * 1000 for t in computed],
                "merge": [
                    max(
                        0.0,
                        (t.execute_seconds - t.query_seconds
                         - t.splice_seconds)
                        * 1000,
                    )
                    for t in computed
                ],
                "serialize": [t.serialize_seconds * 1000 for t in computed],
                "splice": [t.splice_seconds * 1000 for t in computed],
            }
        phases = tuple(samples)
        profile = {
            phase: {
                "total_ms": round(sum(values), 3),
                "p50_ms": round(percentile(values, 50), 4),
                "p95_ms": round(percentile(values, 95), 4),
            }
            for phase, values in samples.items()
        }
        profile["requests"] = len(computed)
        print(
            f"profile requests={len(computed)} "
            + " ".join(
                f"{phase}_p50_ms={profile[phase]['p50_ms']:.4f}"
                for phase in phases
            )
        )
    if args.json:
        report = {
            "config": {
                "scale": args.scale,
                "workers": args.workers,
                "backend": db.driver.name,
                "requests": args.requests,
                "strategy": args.strategy,
                "shards": args.shards,
                "replicas": args.replicas,
                "replica_lag_ms": args.replica_lag_ms,
                "fault_kind": (
                    args.fault_kind if fleet_faults is not None else None
                ),
                "writes_per_sec": args.writes_per_sec,
                "staleness": args.staleness,
                "maintenance": args.maintenance,
                "fragment_policy": args.fragment_policy,
                "view_only": args.view_only,
                "warmup": args.warmup,
                "fault_seed": args.fault_seed if faults is not None else None,
                "resilience": (
                    resilience.describe() if resilience is not None else None
                ),
            },
            "wall_seconds": round(wall_seconds, 6),
            "throughput_rps": round(throughput, 3),
            "latency_ms": {
                "p50": round(p50, 3),
                "p95": round(p95, 3),
                "p99": round(p99, 3),
                "max": round(max(latencies_ms), 3) if latencies_ms else 0.0,
            },
            "cache": dict(cache, hit_rate=round(hit_rate, 4)),
            "queries_executed": metrics["queries_executed"],
            "rows_fetched": metrics["rows_fetched"],
            "errors": len(errors),
            "outcomes": outcome_counts,
            "availability": round(availability, 6),
            "shutdown": {
                "leaked_connections": leaked_connections,
                "leaked_threads": leaked_threads,
            },
            "writes_issued": writes_issued[0],
            "traces": [trace.to_dict() for trace in traces],
        }
        if update_aware:
            report["freshness"] = metrics["freshness"]
            report["result_cache"] = metrics["result_cache"]
            report["staleness_policy"] = metrics["staleness_policy"]
            report["maintenance"] = metrics["maintenance"]
            report["delta_fallbacks"] = metrics["delta_fallbacks"]
            report["delta_fallbacks_by_reason"] = metrics[
                "delta_fallbacks_by_reason"
            ]
            if "fragments" in metrics:
                report["fragments"] = metrics["fragments"]
            report["writes_tracked"] = metrics["tracker"]["total_writes"]
            report["max_hit_lag"] = max_hit_lag
        if sharded:
            report["router"] = metrics["router"]
        if profile is not None:
            report["profile"] = profile
        if resilience is not None:
            report["resilience"] = metrics["resilience"]
        if faults is not None:
            report["faults"] = metrics["faults"]
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if faults is not None or fleet_faults is not None:
        # Chaos runs *expect* injected failures; CI gates on the JSON
        # availability/leak fields instead of the exit code.
        return 0
    return 1 if errors else 0


def _backend_options(args: argparse.Namespace) -> dict:
    """:func:`~repro.frontend.app.build_hotel_backend` keyword arguments
    from the shared build flags: the workload knobs plus the fault
    plans and resilience policy they describe (``None`` when off)."""
    from repro.resilience import (
        FaultPlan,
        FaultSpec,
        FleetFaultPlan,
        ResiliencePolicy,
    )

    faults = None
    if (
        args.faults > 0
        or args.fault_latency_rate > 0
        or args.fault_wrong_rate > 0
        or args.fault_compile_rate > 0
    ):
        faults = FaultPlan(
            FaultSpec(
                error_rate=args.faults,
                latency_rate=args.fault_latency_rate,
                latency_ms=args.fault_latency_ms,
                wrong_shape_rate=args.fault_wrong_rate,
                compile_error_rate=args.fault_compile_rate,
            ),
            seed=args.fault_seed,
        )
    resilience = None
    if (
        args.deadline_ms is not None
        or args.retries > 0
        or args.breaker_threshold > 0
        or args.queue_limit is not None
        or args.no_degraded
    ):
        resilience = ResiliencePolicy(
            deadline_ms=args.deadline_ms,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_ms=args.breaker_cooldown_ms,
            queue_limit=args.queue_limit,
            degraded=not args.no_degraded,
        )
    fleet_faults = None
    if args.fault_kind != "none":
        fleet_faults = FleetFaultPlan.for_kind(
            args.fault_kind,
            rate=args.fleet_fault_rate,
            seed=args.fault_seed,
            window=args.fleet_fault_window,
        )
    return {
        "scale": args.scale,
        "workers": args.workers,
        "backend": args.backend,
        "staleness": args.staleness,
        "maintenance": args.maintenance,
        "fragment_policy": args.fragment_policy,
        "shards": args.shards,
        "replicas": args.replicas,
        "replica_lag_ms": args.replica_lag_ms,
        "resilience": resilience,
        "faults": faults,
        "fleet_faults": fleet_faults,
    }


def _frontend_app_from_args(args: argparse.Namespace):
    """The :class:`~repro.frontend.app.PublishingApp` the HTTP commands
    serve: the shared build flags plus the hedging flags."""
    from repro.frontend import HedgePolicy, build_hotel_app

    hedge = None
    if args.hedge:
        hedge = HedgePolicy(
            threshold_percentile=args.hedge_percentile,
            min_samples=args.hedge_min_samples,
            budget_fraction=args.hedge_budget,
            priorities=tuple(
                p.strip() for p in args.hedge_priorities.split(",") if p.strip()
            ),
        )
    return build_hotel_app(hedge=hedge, **_backend_options(args))


def _add_build_args(parser: argparse.ArgumentParser) -> None:
    """The workload, fleet, fault and resilience flags of every serving
    command (``serve-bench``, ``serve-http``, ``load-bench``)."""
    parser.add_argument("--scale", type=int, default=2,
                        help="hotel workload scale factor (default: 2)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker threads / pooled connections")
    parser.add_argument(
        "--backend", default="sqlite", choices=list(BACKEND_NAMES),
        help="storage engine the workload runs on (default: sqlite)",
    )
    parser.add_argument(
        "--staleness", metavar="POLICY",
        help="result-cache staleness policy: strict, manual, or bounded:N "
        "(turns on write tracking and result caching; a fleet needs one)",
    )
    parser.add_argument(
        "--maintenance", default="full",
        choices=["full", "delta", "fragment"],
        help="how stale results are recomputed: re-run the full plan, "
        "delta (re-execute only dirty schema nodes and splice; falls "
        "back to full when unsafe), or fragment (delta plus the "
        "serialized-fragment byte cache)",
    )
    parser.add_argument(
        "--fragment-policy", default="all", metavar="POLICY",
        help="fragment pinning policy for --maintenance fragment: all, "
        "none, auto, or auto:BYTES (default: all)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the workload by metro key range into N shards "
        "served by a scatter/merge router (default: 1 = single box)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0, metavar="M",
        help="read replicas per shard (snapshot clones balanced "
        "round-robin with failover; implies router mode; default: 0)",
    )
    parser.add_argument(
        "--replica-lag-ms", type=float, default=0.0, metavar="MS",
        help="delay each replica's catch-up apply loop by MS so "
        "replicas genuinely lag the primary (default: 0 = apply "
        "writes inline)",
    )
    parser.add_argument(
        "--fault-kind", default="none",
        choices=["none"] + list(FLEET_FAULT_KINDS),
        help="fleet-scoped fault to inject: replica-crash (a replica's "
        "pool refuses new sessions), apply-stall (a replica's catch-up "
        "loop freezes), or partition (the primary stays writable but "
        "unreadable); default: none",
    )
    parser.add_argument(
        "--fleet-fault-rate", type=float, default=0.5, metavar="RATE",
        help="fraction of fault-site windows the fleet fault is active "
        "in (default: 0.5)",
    )
    parser.add_argument(
        "--fleet-fault-window", type=int, default=8, metavar="N",
        help="checks per fleet-fault window; a whole window is faulted "
        "or clean together (default: 8)",
    )
    parser.add_argument(
        "--faults", type=float, default=0.0, metavar="RATE",
        help="inject transient sqlite errors into RATE of pooled queries "
        "(deterministic given --fault-seed)",
    )
    parser.add_argument(
        "--fault-latency-rate", type=float, default=0.0, metavar="RATE",
        help="inject --fault-latency-ms of delay into RATE of queries",
    )
    parser.add_argument(
        "--fault-latency-ms", type=float, default=20.0, metavar="MS",
        help="injected latency per latency fault (default: 20)",
    )
    parser.add_argument(
        "--fault-wrong-rate", type=float, default=0.0, metavar="RATE",
        help="drop a result column from RATE of queries (wrong-shape)",
    )
    parser.add_argument(
        "--fault-compile-rate", type=float, default=0.0, metavar="RATE",
        help="fail RATE of plan compilations",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the deterministic fault schedules (default: 0)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline (cooperative cancel + hard interrupt)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retry budget for transient failures (exponential backoff)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=0, metavar="N",
        help="consecutive failures that open a plan's circuit breaker "
        "(0 disables)",
    )
    parser.add_argument(
        "--breaker-cooldown-ms", type=float, default=1000.0, metavar="MS",
        help="open-breaker cooldown before a half-open trial "
        "(default: 1000)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="shed requests beyond the priority-scaled admission limit "
        "of workers+N in flight (default: unbounded)",
    )
    parser.add_argument(
        "--no-degraded", action="store_true",
        help="disable the degraded-stale fallback (failures error instead)",
    )


def _add_hedge_args(parser: argparse.ArgumentParser) -> None:
    """The hedging flags of the HTTP commands."""
    parser.add_argument(
        "--hedge", action="store_true",
        help="enable hedged requests (second attempt past the rolling "
        "p95, first usable response wins, loser cancelled)",
    )
    parser.add_argument(
        "--hedge-percentile", type=float, default=95.0, metavar="Q",
        help="rolling-latency percentile that triggers a hedge "
        "(default: 95)",
    )
    parser.add_argument(
        "--hedge-min-samples", type=int, default=16, metavar="N",
        help="latency samples required before hedging a plan "
        "(default: 16)",
    )
    parser.add_argument(
        "--hedge-budget", type=float, default=0.1, metavar="FRACTION",
        help="cap on hedges fired as a fraction of requests "
        "(default: 0.1)",
    )
    parser.add_argument(
        "--hedge-priorities", default="interactive,batch,background",
        metavar="CLASSES",
        help="comma-separated priority classes eligible to hedge "
        "(default: all; 'interactive' spends the budget on the "
        "latency-sensitive class only)",
    )


def _add_writes_arg(parser: argparse.ArgumentParser) -> None:
    """``--writes-per-sec``, for the commands that drive writes."""
    parser.add_argument(
        "--writes-per-sec", type=float, default=0.0, metavar="RATE",
        help="apply the standard hotel write mix at RATE writes/second "
        "while serving (default: 0)",
    )


def cmd_serve_http(args: argparse.Namespace) -> int:
    """``repro serve-http``: run the async HTTP publishing front end.

    Builds the hotel workload application (same knobs as
    ``serve-bench``: staleness, maintenance, shards, resilience,
    faults) and serves it over stdlib-asyncio HTTP/1.1 on
    ``--host:--port`` — ``POST /publish``, ``GET /metrics``,
    ``GET /healthz``, keep-alive connections, graceful drain on
    shutdown. ``--hedge`` races a second attempt for requests running
    past the rolling per-plan p95 (budget-capped; the losing attempt
    is cancelled cooperatively). ``--duration`` bounds the run for
    scripted use; the default serves until interrupted.
    """
    import asyncio
    import json

    from repro.frontend import serve_app

    async def run() -> dict:
        app = _frontend_app_from_args(args)
        server = await serve_app(app, args.host, args.port)
        host, port = server.address
        print(f"serve-http: listening on http://{host}:{port}")
        print(f"views: {', '.join(app.view_names())}")
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until KeyboardInterrupt
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            print("serve-http: draining...")
            drained = await server.close()
            print(
                f"serve-http: drained={drained} "
                f"requests_handled={server.requests_handled} "
                f"open_connections={server.open_connections}"
            )
        return server.app.facade.metrics()

    try:
        metrics = asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_load_bench(args: argparse.Namespace) -> int:
    """``repro load-bench``: drive the HTTP front end over real sockets.

    Self-hosts a ``serve-http`` instance on a loopback port (same
    build flags), then runs the async load generator: ``--connections``
    keep-alive clients share a deterministic schedule of
    ``--requests`` publishes mixed across priority classes
    (``--interactive/--batch/--background`` weights). A background
    task applies the hotel write mix at ``--writes-per-sec`` so
    staleness machinery has work to do. Reports throughput, the
    canonical p50/p95/p99 latency block overall and per priority
    class, availability, hedge fire/win rates, and the shutdown leak
    checks; ``--json`` records everything for CI and E19.
    """
    import asyncio
    import json
    import threading as _threading

    from repro.frontend import LoadMix, run_load, serve_app

    async def run() -> dict:
        app = _frontend_app_from_args(args)
        server = await serve_app(app, "127.0.0.1", 0)
        host, port = server.address
        mix = LoadMix(
            priority_weights={
                "interactive": args.interactive,
                "batch": args.batch,
                "background": args.background,
            }
        )
        writer_task = None
        if args.writes_per_sec > 0:
            async def write_loop() -> None:
                interval = 1.0 / args.writes_per_sec
                loop = asyncio.get_running_loop()
                while True:
                    await asyncio.sleep(interval)
                    await loop.run_in_executor(None, app.apply_write)

            writer_task = asyncio.create_task(write_loop())
        try:
            report = await run_load(
                host, port,
                requests=args.requests,
                connections=args.connections,
                mix=mix,
            )
        finally:
            if writer_task is not None:
                writer_task.cancel()
                try:
                    await writer_task
                except asyncio.CancelledError:
                    pass
            drained = await server.close()
        metrics = app.facade.metrics()
        report["hedging"] = metrics["hedging"]
        report["server"] = {
            "requests_handled": server.requests_handled,
            "protocol_errors": server.protocol_errors,
            "drained": drained,
            "open_connections": server.open_connections,
        }
        report["writes_applied"] = app.writes_applied
        outcomes = metrics.get("outcomes", {})
        report["backend_outcomes"] = outcomes
        return report

    report = asyncio.run(run())
    leaked_threads = sum(
        1
        for thread in _threading.enumerate()
        if thread.name.startswith(("viewserver", "shardrouter"))
    )
    report["shutdown"] = {
        "leaked_threads": leaked_threads,
        "open_connections": report["server"]["open_connections"],
    }
    overall = report["overall"]
    print(
        f"load-bench: requests={report['completed']}/{report['requests']} "
        f"connections={report['connections']} "
        f"throughput_rps={report['throughput_rps']}"
    )
    latency = overall["latency"]
    print(
        f"latency_ms p50={latency['p50_ms']} p95={latency['p95_ms']} "
        f"p99={latency['p99_ms']} availability={overall['availability']}"
    )
    for priority, block in report["priority"].items():
        lat = block["latency"]
        print(
            f"  {priority}: n={lat['count']} p50={lat['p50_ms']} "
            f"p95={lat['p95_ms']} p99={lat['p99_ms']} "
            f"availability={block['availability']}"
        )
    hedging = report["hedging"]
    if hedging is not None:
        print(
            f"hedging fired={hedging['fired']} won={hedging['won']} "
            f"fire_rate={hedging['fire_rate']} "
            f"win_rate={hedging['win_rate']}"
        )
    print(
        f"shutdown leaked_threads={leaked_threads} "
        f"open_connections={report['server']['open_connections']} "
        f"drained={report['server']['drained']}"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if report["transport_errors"] > 0 or leaked_threads > 0:
        return 1
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: write demo catalog/view/stylesheet/database files."""
    from repro.workloads.hotel import (
        HotelDataSpec,
        hotel_catalog,
        populate_hotel_database,
    )
    from repro.workloads.paper import figure1_view, _FIGURE4

    os.makedirs(args.out, exist_ok=True)
    catalog = hotel_catalog()
    catalog_path = os.path.join(args.out, "catalog.xml")
    view_path = os.path.join(args.out, "view.xml")
    stylesheet_path = os.path.join(args.out, "stylesheet.xsl")
    db_path = os.path.join(args.out, "hotel.sqlite")
    save_catalog(catalog, catalog_path)
    save_view(figure1_view(catalog), view_path)
    with open(stylesheet_path, "w") as handle:
        handle.write(_FIGURE4.strip() + "\n")
    if os.path.exists(db_path):
        os.remove(db_path)
    db = Database(catalog, path=db_path)
    populate_hotel_database(db, HotelDataSpec().scaled(args.scale))
    db.close()
    for path in (catalog_path, view_path, stylesheet_path, db_path):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compose XSL transformations with XML publishing views "
        "(SIGMOD 2003 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compose_parser = sub.add_parser("compose", help="compose a stylesheet with a view")
    compose_parser.add_argument("--catalog", required=True)
    compose_parser.add_argument("--view", required=True)
    compose_parser.add_argument("--stylesheet", required=True)
    compose_parser.add_argument("--out", "-o")
    compose_parser.add_argument("--paper-mode", action="store_true",
                                help="reproduce the paper's exact query shapes")
    compose_parser.add_argument("--prune", action="store_true",
                                help="run dead-column elimination")
    compose_parser.set_defaults(func=cmd_compose)

    explain_parser = sub.add_parser("explain", help="show CTG/TVQ/plan")
    explain_parser.add_argument("--catalog", required=True)
    explain_parser.add_argument("--view", required=True)
    explain_parser.add_argument("--stylesheet", required=True)
    explain_parser.add_argument("--dot", action="store_true",
                                help="emit Graphviz DOT instead of text")
    explain_parser.set_defaults(func=cmd_explain)

    materialize_parser = sub.add_parser(
        "materialize", help="evaluate a view against a database"
    )
    materialize_parser.add_argument("--catalog", required=True)
    materialize_parser.add_argument("--view", required=True)
    materialize_parser.add_argument("--db", required=True)
    materialize_parser.add_argument("--out", "-o")
    materialize_parser.add_argument(
        "--strategy", default="nested-loop", choices=list(STRATEGIES),
        help="execution strategy (default: nested-loop)",
    )
    materialize_parser.add_argument(
        "--memoize", action="store_true",
        help="deprecated alias for --strategy memoized",
    )
    materialize_parser.add_argument("--pretty", action="store_true")
    materialize_parser.set_defaults(func=cmd_materialize)

    run_parser = sub.add_parser("run", help="plan and execute a stylesheet")
    run_parser.add_argument("--catalog", required=True)
    run_parser.add_argument("--view", required=True)
    run_parser.add_argument("--stylesheet", required=True)
    run_parser.add_argument("--db", required=True)
    run_parser.add_argument("--out", "-o")
    run_parser.add_argument("--pretty", action="store_true")
    run_parser.add_argument("--builtin-rules", default="empty",
                            choices=["empty", "standard"])
    run_parser.set_defaults(func=cmd_run)

    serve_parser = sub.add_parser(
        "serve-bench", help="benchmark the concurrent publishing server"
    )
    _add_build_args(serve_parser)
    _add_writes_arg(serve_parser)
    serve_parser.add_argument("--requests", type=int, default=100,
                              help="total requests to serve")
    serve_parser.add_argument(
        "--strategy", default="all", choices=["all"] + list(STRATEGIES),
        help="execution strategy mix (default: cycle through all)",
    )
    serve_parser.add_argument(
        "--view-only", action="store_true",
        help="serve the publishing view itself instead of the stylesheet "
        "compositions",
    )
    serve_parser.add_argument(
        "--profile", action="store_true",
        help="report a per-phase time breakdown "
        "(query/merge/serialize/splice) over computed requests",
    )
    serve_parser.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="serve N requests with faults disarmed before measuring "
        "(populates plan/result caches)",
    )
    serve_parser.add_argument("--json", metavar="PATH",
                              help="write full metrics as JSON")
    serve_parser.set_defaults(func=cmd_serve_bench)

    http_parser = sub.add_parser(
        "serve-http", help="run the async HTTP publishing front end"
    )
    _add_build_args(http_parser)
    _add_hedge_args(http_parser)
    http_parser.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
    http_parser.add_argument("--port", type=int, default=8472,
                             help="bind port, 0 = ephemeral (default: 8472)")
    http_parser.add_argument(
        "--duration", type=float, default=0.0, metavar="SECONDS",
        help="serve for SECONDS then drain (default: until interrupted)",
    )
    http_parser.add_argument("--json", metavar="PATH",
                             help="write final metrics as JSON on shutdown")
    http_parser.set_defaults(func=cmd_serve_http)

    load_parser = sub.add_parser(
        "load-bench", help="drive the HTTP front end over real sockets"
    )
    _add_build_args(load_parser)
    _add_hedge_args(load_parser)
    _add_writes_arg(load_parser)
    load_parser.add_argument("--requests", type=int, default=100,
                             help="total publish requests (default: 100)")
    load_parser.add_argument("--connections", type=int, default=8,
                             help="concurrent keep-alive clients (default: 8)")
    load_parser.add_argument(
        "--interactive", type=float, default=0.5, metavar="WEIGHT",
        help="interactive-class traffic weight (default: 0.5)",
    )
    load_parser.add_argument(
        "--batch", type=float, default=0.3, metavar="WEIGHT",
        help="batch-class traffic weight (default: 0.3)",
    )
    load_parser.add_argument(
        "--background", type=float, default=0.2, metavar="WEIGHT",
        help="background-class traffic weight (default: 0.2)",
    )
    load_parser.add_argument("--json", metavar="PATH",
                             help="write the full report as JSON")
    load_parser.set_defaults(func=cmd_load_bench)

    demo_parser = sub.add_parser("demo", help="write demo artifacts")
    demo_parser.add_argument("--out", default="repro-demo")
    demo_parser.add_argument("--scale", type=int, default=1)
    demo_parser.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
