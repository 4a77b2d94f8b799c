"""The one hotel build path: caching rule, untracked writes, usage errors."""

from __future__ import annotations

import asyncio

import pytest

from repro import frontend
from repro.errors import ReproError
from repro.schema_tree.evaluator import ViewEvaluator
from repro.sharding import ShardRouter
from repro.workloads.paper import figure1_view
from repro.xmlcore.serializer import serialize


def _live_bytes(db) -> str:
    return serialize(ViewEvaluator(db).materialize(figure1_view(db.catalog)))


def test_untracked_writes_are_visible_to_the_next_read():
    """Without a staleness policy nothing is cached and nothing is
    tracked, so the server must not keep serving its snapshot from
    before the writes while labelling the bytes live (``bypass``)."""
    app = frontend.build_hotel_app(scale=1, workers=2)
    try:
        view = figure1_view(app.database.catalog)
        before = app.backend.render(view)
        assert before.freshness == "bypass"
        for _ in range(20):
            app.apply_write()
        after = app.backend.render(view)
        assert after.freshness == "bypass"
        assert after.outcome == "success"
        live = _live_bytes(app.database)
        assert live != before.xml  # the writes changed the view
        assert after.xml == live
    finally:
        asyncio.run(app.close())


def test_result_caching_is_on_iff_a_staleness_policy_is_given():
    db, server, _write = frontend.build_hotel_backend(scale=1, workers=1)
    try:
        assert server.tracker is None and server.result_cache is None
    finally:
        server.close()
        db.close()
    db, server, write = frontend.build_hotel_backend(
        scale=1, workers=1, staleness="bounded:2"
    )
    try:
        assert server.result_cache is not None
        assert server.staleness.describe() == "bounded:2"
        write(0)
        assert server.tracker.clock() == 1
    finally:
        server.close()
        db.close()


def test_fleet_needs_a_staleness_policy():
    with pytest.raises(ReproError, match="staleness"):
        frontend.build_hotel_backend(scale=1, workers=1, replicas=1)
    with pytest.raises(ReproError, match="staleness"):
        frontend.build_hotel_app(scale=1, workers=1, shards=2)


def test_fleet_builds_with_its_policy():
    db, router, write = frontend.build_hotel_backend(
        scale=1, workers=1, shards=2, staleness="strict", keep_xml=False
    )
    try:
        assert isinstance(router, ShardRouter)
        assert router.keep_xml is False
        write(0)
        trace = router.render(figure1_view(db.catalog), strategy="bulk")
        assert trace.outcome == "success"
    finally:
        router.close()
        db.close()
