"""Lag-aware replica routing: strict pinning, bounded admission,
fleet-fault skips, and hedge anti-affinity placement.

Fleets here carry real replica lag (``replica_lag_ms``) and fleet-scoped
fault windows (``FleetFaultPlan``), exercising the candidate gate that
the per-shard failover tests in test_router_faults.py do not reach.
"""

from __future__ import annotations

from repro.maintenance.workload import hotel_metro_write
from repro.resilience import FaultPlan, FaultSpec, FleetFaultPlan
from repro.schema_tree.evaluator import materialize
from repro.serving import PublishRequest
from repro.sharding import PlacementGroup, ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize

SEED = 2003
SPEC = HotelDataSpec(metros=4, hotels_per_metro=2)


def _fleet(db, *, shards=2, replicas=1, staleness="strict",
           fleet_faults=None, replica_lag_ms=0.0):
    return ShardRouter.build(
        db.catalog,
        db,
        hotel_partition_scheme(),
        shards,
        replicas=replicas,
        workers=1,
        staleness=staleness,
        fleet_faults=fleet_faults,
        replica_lag_ms=replica_lag_ms,
    )


def _metro_domain(db):
    return [
        row["metroid"]
        for row in db.run_sql(
            "SELECT metroid FROM metroarea ORDER BY metroid", {}
        )
    ]


def _mirrored_write(router, db, step, domain):
    router.route_write(
        lambda source, tracker: hotel_metro_write(
            source, step, tracker=tracker, domain=domain
        )
    )
    hotel_metro_write(db, step, domain=domain)


def test_strict_routing_pins_to_caught_up_members():
    """With replicas held back by a huge apply delay, strict reads must
    land on the primary and serve fresh bytes — never a lagging member."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    router = _fleet(db, replicas=1, replica_lag_ms=120_000.0)
    try:
        # One write per metro, so every shard's replica falls behind.
        for step in range(SPEC.metros):
            _mirrored_write(router, db, step, domain)
        reference = serialize(materialize(view, db))
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.xml == reference
            assert trace.version_lag == 0
            for shard in trace.shards:
                assert shard["server"] == "primary"
                assert shard["lag"] == 0
        fleet = router.fleet_metrics()
        assert fleet["skips"]["lagging"] >= 1
        assert fleet["stale_serves"] == 0
        assert fleet["max_member_lag_served"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_bounded_budget_admits_lagging_replicas_within_it():
    """Partition the primaries so only the (lagging) replicas can serve
    reads: the bounded budget admits them, strict would refuse."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    plan = FleetFaultPlan.for_kind("partition", rate=1.0, seed=21)
    plan.disarm()
    router = _fleet(
        db, replicas=1, staleness="bounded:16",
        fleet_faults=plan, replica_lag_ms=120_000.0,
    )
    try:
        for step in range(SPEC.metros):
            _mirrored_write(router, db, step, domain)
        plan.arm()
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome in ("success", "degraded")
            for shard in trace.shards:
                assert shard["server"] == "replica-1"
        fleet = router.fleet_metrics()
        # The lagging replicas served...
        assert fleet["max_member_lag_served"] >= 1
        # ...but never past the version budget, and none were skipped.
        assert fleet["max_member_lag_served"] <= 16
        assert fleet["lag_budget"] == 16
        assert fleet["skips"]["lagging"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_crash_windows_route_around_replicas_without_failing_requests():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    plan = FleetFaultPlan.for_kind("replica-crash", rate=1.0, seed=21)
    router = _fleet(db, replicas=2, fleet_faults=plan)
    try:
        for _ in range(6):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            for shard in trace.shards:
                assert shard["server"] == "primary"
        fleet = router.fleet_metrics()
        assert fleet["skips"]["crash"] >= 1
        assert fleet["no_candidates"] == 0
        assert sum(fleet["fleet_faults"]["injected"].values()) >= 1
        assert router.metrics()["errors"] == 0
        assert router.outstanding() == 0
        for block in fleet["replica_health"]:
            for member in block["members"].values():
                assert member["half_open_trials"] == 0
    finally:
        router.close()
        db.close()


def test_partition_skips_primary_reads_but_writes_still_land():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    plan = FleetFaultPlan.for_kind("partition", rate=1.0, seed=21)
    plan.disarm()
    router = _fleet(db, replicas=1, fleet_faults=plan)
    try:
        # Writes land and (zero-delay) appliers mirror them before the
        # partition arms, so the replicas can serve fresh bytes alone.
        for step in range(2):
            _mirrored_write(router, db, step, domain)
        reference = serialize(materialize(view, db))
        plan.arm()
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.xml == reference
            for shard in trace.shards:
                assert shard["server"] == "replica-1"
        # The write path ignores read partitions: another write lands
        # on the partitioned primaries and replicates out.
        _mirrored_write(router, db, 2, domain)
        reference = serialize(materialize(view, db))
        trace = router.render(view, strategy="bulk", bypass_cache=True)
        assert trace.outcome == "success"
        assert trace.xml == reference
        fleet = router.fleet_metrics()
        assert fleet["skips"]["partition"] >= 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_failover_claims_the_member_actually_served():
    """Regression: placement claims are recorded per *attempted* member
    at dispatch time, not for the predicted first candidate — after a
    failover both the failed primary and the serving replica are
    claimed, so a later attempt in the same group avoids them both."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    faults = [FaultPlan(FaultSpec(every_n=1), seed=0)]
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1,
        replicas=2, workers=1, faults=faults,
    )
    try:
        group = PlacementGroup()
        trace, = router.render_many([
            PublishRequest(
                view, strategy="bulk", bypass_cache=True, placement=group
            )
        ])
        assert trace.outcome == "success"
        served = trace.shards[0]["server"]
        assert served != "primary"  # the faulted primary failed over
        assert trace.failovers >= 1
        assert group.claimed(0) >= {"primary", served}
        trace2, = router.render_many([
            PublishRequest(
                view, strategy="bulk", bypass_cache=True, placement=group
            )
        ])
        assert trace2.outcome == "success"
        assert trace2.shards[0]["server"] not in ("primary", served)
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_unattempted_dead_member_keeps_its_probe_slot():
    """Regression: enumerating a probe-eligible dead replica must not
    consume its half-open slot. Dead members sort behind the healthy
    front, so the granted probe was typically never dispatched — and
    since only an attempt's outcome releases the slot, one death locked
    the member out of readmission forever. The slot is now taken at
    dispatch time, so an unattempted candidate leaks nothing and the
    probe genuinely fires once the member is actually needed."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    router = _fleet(db, shards=1, replicas=1)
    try:
        primary, replica = router.shards[0].members
        for _ in range(replica.health.dead_after):
            replica.health.record_failure()
        assert replica.health.state() == "dead"
        replica.health.cooldown_ms = 0.0  # probe-eligible immediately
        for _ in range(4):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
            assert trace.shards[0]["server"] == "primary"
        stats = replica.health.stats()
        assert stats["state"] == "dead"
        assert stats["probes_fired"] == 0  # enumerated, never granted
        assert stats["probe_denials"] == 0
        assert replica.health.probe_ready()  # the slot did not leak
        # Take the primary out (fresh death, huge cooldown keeps it out)
        # and the replica's probe must actually fire, win, and readmit.
        primary.health.cooldown_ms = 600_000.0
        for _ in range(primary.health.dead_after):
            primary.health.record_failure()
        assert primary.health.state() == "dead"
        trace = router.render(view, strategy="bulk", bypass_cache=True)
        assert trace.outcome == "success"
        assert trace.shards[0]["server"] == "replica-1"
        stats = replica.health.stats()
        assert stats["state"] == "healthy"
        assert stats["probes_fired"] == 1
        assert stats["readmissions"] == 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_lag_skipped_dead_member_does_not_burn_its_probe():
    """Regression: the lag-budget gate runs before the probe check, so
    a dead replica that is also lagging past the strict budget is
    lag-skipped without its probe slot ever being granted — once the
    applier catches up it is still probe-eligible."""
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    domain = _metro_domain(db)
    router = _fleet(db, replicas=1, replica_lag_ms=120_000.0)
    try:
        # One write per metro: every shard's replica falls behind.
        for step in range(SPEC.metros):
            _mirrored_write(router, db, step, domain)
        replica = router.shards[0].members[1]
        for _ in range(replica.health.dead_after):
            replica.health.record_failure()
        replica.health.cooldown_ms = 0.0  # past cooldown, but lagging
        for _ in range(3):
            trace = router.render(view, strategy="bulk", bypass_cache=True)
            assert trace.outcome == "success"
        stats = replica.health.stats()
        assert stats["probes_fired"] == 0
        assert stats["probe_denials"] == 0
        assert replica.health.probe_ready()
        fleet = router.fleet_metrics()
        assert fleet["skips"]["lagging"] >= 1
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()


def test_placement_group_spreads_hedge_attempts_across_members():
    db = build_hotel_database(SPEC, cross_thread=True, seed=SEED)
    view = figure1_view(db.catalog)
    router = _fleet(db, shards=1, replicas=2)
    try:
        group = PlacementGroup()
        servers = []
        for _ in range(3):
            trace, = router.render_many([
                PublishRequest(
                    view, strategy="bulk", bypass_cache=True,
                    placement=group,
                )
            ])
            assert trace.outcome == "success"
            servers.append(trace.shards[0]["server"])
        # Three attempts sharing a group land on three distinct members.
        assert len(set(servers)) == 3
        assert group.claimed(0) == frozenset(servers)
        fleet = router.fleet_metrics()
        assert fleet["anti_affinity"]["hits"] == 2
        assert fleet["anti_affinity"]["misses"] == 0
        assert fleet["anti_affinity"]["rate"] == 1.0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()
