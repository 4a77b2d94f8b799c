"""Half-open trials come back on every exit, for both kinds of gate.

A plan's breaker and a fleet member's health are one gate: after the
cooldown it grants a single trial, and only that trial's verdict (or
its release) lets the next attempt in. These tests end a granted trial
in each way that carries no verdict — cancelled, rejected, an expired
deadline inside delta maintenance, a short-circuit further down — and
check that the gate is usable again right away, with no trial left in
flight.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

from repro.errors import DeadlineExceeded, RequestRejected
from repro.maintenance import WriteTracker, hotel_write
from repro.resilience import (
    CancelToken,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
)
from repro.serving import PublishRequest, RequestTrace, ViewServer
from repro.sharding import ShardRouter
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet

COOLDOWN_MS = 20.0


class HookPlan(FaultPlan):
    """A fault plan that runs ``hook`` (while set) at every query check."""

    def __init__(self):
        super().__init__(FaultSpec(), seed=0)
        self.hook = None

    def check_query(self, site):
        self._advance(site)
        if self.hook is not None:
            self.hook()
        return None


def _small_db():
    return build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), cross_thread=True
    )


def _request(db, **kwargs):
    return PublishRequest(
        view=figure1_view(db.catalog),
        stylesheet=figure4_stylesheet(),
        **kwargs,
    )


def _policy():
    return ResiliencePolicy(
        breaker_threshold=1, breaker_cooldown_ms=COOLDOWN_MS
    )


def _open_and_cool(server, key):
    server.plan_cache.breaker.record_failure(key)
    assert server.plan_cache.breaker.state(key) == "open"
    time.sleep(COOLDOWN_MS * 1.5 / 1000.0)


def _assert_trial_handed_back(server, db, key):
    breaker = server.plan_cache.breaker
    stats = breaker.stats()
    assert stats["half_open_trials"] == 0
    assert stats["opened"] == 1  # no verdict: not re-opened
    assert breaker.state(key) == "half-open"
    healed = server.submit(_request(db)).result()
    assert healed.outcome == "success", healed.error
    assert breaker.state(key) == "closed"
    assert breaker.stats()["half_open_trials"] == 0


# ---------------------------------------------------------------------------
# The plan gate (ViewServer's circuit breaker)
# ---------------------------------------------------------------------------


def test_plan_trial_cancelled_mid_computation_is_handed_back():
    db = _small_db()
    plan = HookPlan()
    with ViewServer(
        db.catalog, source=db, workers=1, resilience=_policy(), faults=plan
    ) as server:
        key = server.plan_key_for(_request(db))
        assert server.submit(_request(db)).result().outcome == "success"
        _open_and_cool(server, key)
        token = CancelToken()
        plan.hook = lambda: token.cancel("hedge race lost")
        trace = server.submit(_request(db, cancel=token)).result()
        plan.hook = None
        assert trace.outcome == "cancelled"
        _assert_trial_handed_back(server, db, key)
        assert server.pool.outstanding() == 0
    db.close()


def test_plan_trial_rejected_by_the_pool_is_handed_back():
    db = _small_db()
    shed = {"armed": False}

    def admission():
        if shed["armed"]:
            shed["armed"] = False
            raise RequestRejected("pool shed the session")

    with ViewServer(
        db.catalog, source=db, workers=1, resilience=_policy(),
        pool_admission=admission,
    ) as server:
        key = server.plan_key_for(_request(db))
        assert server.submit(_request(db)).result().outcome == "success"
        _open_and_cool(server, key)
        shed["armed"] = True
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "rejected"
        _assert_trial_handed_back(server, db, key)
    db.close()


def test_plan_trial_past_its_deadline_in_delta_is_handed_back():
    db = _small_db()
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    plan = HookPlan()
    with ViewServer(
        db.catalog, source=db, workers=1, resilience=_policy(), faults=plan,
        tracker=tracker, staleness="strict", maintenance="delta",
    ) as server:
        key = server.plan_key_for(_request(db))
        assert server.submit(_request(db)).result().freshness == "miss"
        _open_and_cool(server, key)
        hotel_write(db, 0, tracker)  # the cached entry goes stale
        plan.hook = lambda: (_ for _ in ()).throw(
            DeadlineExceeded(50.0, 60.0)
        )
        trace = server.submit(_request(db)).result()
        plan.hook = None
        assert trace.outcome == "deadline"
        assert trace.freshness == "stale-recompute"
        _assert_trial_handed_back(server, db, key)
    db.close()


def test_plan_trial_taken_at_compile_is_not_short_circuited_later():
    """The compile gate takes the trial; when a concurrent request
    publishes the plan first, the same request must go on to compute
    with that trial instead of asking the gate a second time."""
    db = _small_db()
    with ViewServer(
        db.catalog, source=db, workers=1, resilience=_policy()
    ) as server:
        key = server.plan_key_for(_request(db))
        real = server.plan_cache.get_or_build

        def racing(key, build):
            server.plan_cache.put(key, build())  # published meanwhile
            return real(key, build)

        server.plan_cache.get_or_build = racing
        _open_and_cool(server, key)
        trace = server.submit(_request(db)).result()
        assert trace.outcome == "success", trace.error
        breaker = server.plan_cache.breaker
        assert breaker.state(key) == "closed"
        assert breaker.stats()["half_open_trials"] == 0
    db.close()


# ---------------------------------------------------------------------------
# A fleet member's gate (ReplicaHealth, fed by the router)
# ---------------------------------------------------------------------------


def _fleet(db, **kwargs):
    router = ShardRouter.build(
        db.catalog, db, hotel_partition_scheme(), 1,
        replicas=1, workers=1, staleness="strict", **kwargs,
    )
    primary, replica = router.shards[0].members
    primary.health.cooldown_ms = 600_000.0  # out for the whole test
    for _ in range(primary.health.dead_after):
        primary.health.record_failure()
    replica.health.cooldown_ms = 0.0  # trial-ready at once
    for _ in range(replica.health.dead_after):
        replica.health.record_failure()
    return router, replica


def _assert_member_trial_handed_back(router, replica, db):
    assert replica.health.probe_ready()
    stats = replica.health.stats()
    assert stats["failures"] == replica.health.dead_after  # no verdict
    assert stats["state"] == "dead"
    assert stats["probes_fired"] == 1
    assert stats["half_open_trials"] == 0
    trace = router.render(
        figure1_view(db.catalog), strategy="bulk", bypass_cache=True
    )
    assert trace.outcome == "success", trace.error
    assert trace.shards[0]["server"] == "replica-1"
    stats = replica.health.stats()
    assert stats["state"] == "healthy"
    assert stats["readmissions"] == 1
    assert stats["half_open_trials"] == 0
    assert router.outstanding() == 0


def _answer_with(server, outcome):
    """Make ``server`` answer its next submit with a canned outcome."""
    real = server.submit

    def canned(request):
        server.submit = real
        done: "Future[RequestTrace]" = Future()
        done.set_result(
            RequestTrace(
                request_id=0, label=request.label,
                strategy=request.strategy, cache_hit=False, plan_key="",
                outcome=outcome, error=f"canned {outcome}",
            )
        )
        return done

    server.submit = canned


def test_member_trial_cancelled_is_handed_back():
    db = _small_db()
    router, replica = _fleet(db)
    try:
        token = CancelToken()
        token.cancel("hedge race lost")
        trace = router.submit(
            PublishRequest(
                figure1_view(db.catalog), strategy="bulk",
                bypass_cache=True, cancel=token,
            )
        ).result()
        assert trace.outcome == "cancelled"
        _assert_member_trial_handed_back(router, replica, db)
    finally:
        router.close()
        db.close()


def test_member_trial_rejected_is_handed_back():
    db = _small_db()
    router, replica = _fleet(db)
    try:
        _answer_with(replica.server, "rejected")
        trace = router.render(
            figure1_view(db.catalog), strategy="bulk", bypass_cache=True
        )
        assert trace.outcome == "rejected"
        _assert_member_trial_handed_back(router, replica, db)
    finally:
        router.close()
        db.close()


def test_member_trial_past_its_deadline_is_handed_back():
    db = _small_db()
    router, replica = _fleet(db)
    try:
        _answer_with(replica.server, "deadline")
        trace = router.render(
            figure1_view(db.catalog), strategy="bulk", bypass_cache=True
        )
        assert trace.outcome == "deadline"
        _assert_member_trial_handed_back(router, replica, db)
    finally:
        router.close()
        db.close()


def test_member_trial_short_circuited_by_its_plan_breaker_is_handed_back():
    db = _small_db()
    router, replica = _fleet(
        db,
        resilience=ResiliencePolicy(
            breaker_threshold=1, breaker_cooldown_ms=600_000.0
        ),
    )
    try:
        request = PublishRequest(
            figure1_view(db.catalog), strategy="bulk", bypass_cache=True
        )
        key = replica.server.plan_key_for(request)
        replica.server.plan_cache.breaker.record_failure(key)
        trace = router.submit(request).result()
        assert trace.outcome == "rejected"
        assert "circuit breaker open" in trace.error
        assert replica.health.probe_ready()
        stats = replica.health.stats()
        assert stats["failures"] == replica.health.dead_after
        assert stats["half_open_trials"] == 0
        assert router.outstanding() == 0
    finally:
        router.close()
        db.close()
