"""The publishing application behind the HTTP front end.

The HTTP layer speaks in names — ``POST /publish`` says ``"view":
"figure4"`` — while the serving stack speaks in object graphs
(:class:`~repro.xml.schema_tree.SchemaTreeQuery`, stylesheets,
policies). :class:`PublishingApp` is the binding between the two: a
registry of named (view, stylesheet) pairs over one database, the
backend serving them (a :class:`~repro.serving.server.ViewServer` or a
:class:`~repro.sharding.router.ShardRouter` fleet), and the
:class:`~repro.frontend.facade.AsyncViewServer` facade wrapping it.

:func:`build_hotel_app` assembles the paper's hotel workload —
Figure 1 publishing view, Figure 4/17 stylesheets — through
:func:`build_hotel_backend`, the same build path ``serve-bench`` uses,
so the HTTP tier serves byte-identical answers to the in-process paths
the differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.frontend.facade import AsyncViewServer
from repro.frontend.hedging import HedgePolicy
from repro.serving.server import PRIORITIES, PublishRequest, ViewServer

#: View registry names the HTTP API accepts (hotel workload).
VIEW_NAMES = ("figure1", "figure4", "figure17")


@dataclass(frozen=True)
class RegisteredView:
    """One named publishing entry: a view, optionally composed."""

    name: str
    view: object
    stylesheet: Optional[object]


class PublishingApp:
    """Named views + a serving backend + the async facade over it.

    The app owns whatever it was built from (database, tracker,
    backend) and tears it all down in :meth:`close`. ``request_for``
    is the only place HTTP parameters become a
    :class:`~repro.serving.server.PublishRequest`, so validation
    errors surface as :class:`~repro.errors.ReproError` (→ HTTP 400)
    before any serving work starts.
    """

    def __init__(
        self,
        registry: dict[str, RegisteredView],
        backend,
        database,
        hedge: Optional[HedgePolicy] = None,
        write_fn=None,
    ):
        if not registry:
            raise ReproError("app needs at least one registered view")
        self.registry = registry
        self.backend = backend
        self.database = database
        self.facade = AsyncViewServer(backend, hedge=hedge, own_backend=True)
        self._write_fn = write_fn
        self._writes_applied = 0
        self._closed = False

    def request_for(
        self,
        name: str,
        strategy: str = "nested-loop",
        priority: str = "interactive",
        bypass_cache: bool = False,
        label: str = "",
    ) -> PublishRequest:
        """Translate HTTP parameters into a validated request."""
        entry = self.registry.get(name)
        if entry is None:
            raise ReproError(
                f"unknown view {name!r}; have {sorted(self.registry)}"
            )
        if priority not in PRIORITIES:
            raise ReproError(
                f"unknown priority {priority!r}; have {list(PRIORITIES)}"
            )
        return PublishRequest(
            entry.view,
            entry.stylesheet,
            strategy=strategy,
            label=label or f"{name}/{strategy}",
            priority=priority,
            bypass_cache=bypass_cache,
        )

    def apply_write(self) -> int:
        """Apply one tracked workload write; returns writes so far.

        Backed by the write mix the app was built with (hotel writes
        for :func:`build_hotel_app`); lets the E19 harness and the
        ``/write`` test hook age cached results while serving.
        """
        if self._write_fn is None:
            raise ReproError("app was built without a write mix")
        self._write_fn(self._writes_applied)
        self._writes_applied += 1
        return self._writes_applied

    @property
    def writes_applied(self) -> int:
        """How many workload writes ``apply_write`` has run so far."""
        return self._writes_applied

    def view_names(self) -> list[str]:
        """The registered view names, sorted (the valid ``view`` values)."""
        return sorted(self.registry)

    async def close(self, drain_timeout: Optional[float] = 5.0) -> bool:
        """Drain the facade, close the backend and the database."""
        if self._closed:
            return True
        self._closed = True
        drained = await self.facade.close(drain_timeout)
        self.database.close()
        return drained


def build_hotel_backend(
    scale: int = 1,
    workers: int = 4,
    staleness: Optional[str] = None,
    maintenance: str = "full",
    fragment_policy: str = "all",
    resilience=None,
    faults=None,
    shards: int = 1,
    replicas: int = 0,
    replica_lag_ms: float = 0.0,
    fleet_faults=None,
    backend: Optional[str] = None,
    keep_xml: bool = True,
):
    """The hotel workload's database, serving backend and write mix.

    The one build path behind ``serve-bench``, ``serve-http``,
    ``load-bench`` and :func:`build_hotel_app`. Returns ``(database,
    server, write)``: ``server`` is a sharded
    :class:`~repro.sharding.router.ShardRouter` fleet when ``shards > 1``
    or ``replicas > 0`` (``faults`` armed on shard 0's primary only, so
    replicas are the failover path), a single :class:`ViewServer`
    otherwise; ``write(index)`` applies hotel write number ``index``
    so that the next read sees it.

    Result caching is on if and only if ``staleness`` names a policy:
    a single box then tracks writes (auto capture where the ``backend``
    engine has it, explicit records otherwise) and caches responses;
    without one it serves every request live and re-snapshots its pool
    after each write. A fleet routes reads by version lag, so building
    one without a policy is a :class:`~repro.errors.ReproError`.
    """
    from repro.maintenance import WriteTracker, hotel_write
    from repro.relational.driver import resolve_driver
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database

    sharded = shards > 1 or replicas > 0
    if sharded and staleness is None:
        raise ReproError(
            "a fleet (shards > 1 or replicas > 0) needs a staleness "
            "policy: strict, manual, or bounded:N"
        )
    if fleet_faults is not None and not sharded:
        raise ReproError(
            "fleet faults need a fleet (shards > 1 or replicas > 0)"
        )
    driver = resolve_driver(backend)
    db = build_hotel_database(
        HotelDataSpec().scaled(scale), cross_thread=True, driver=driver
    )
    if sharded:
        from repro.sharding import ShardRouter
        from repro.workloads.hotel import hotel_partition_scheme

        router = ShardRouter.build(
            db.catalog,
            db,
            hotel_partition_scheme(),
            shards,
            replicas=replicas,
            workers=workers,
            staleness=staleness,
            maintenance=maintenance,
            fragment_policy=fragment_policy,
            resilience=resilience,
            faults=(
                None if faults is None else [faults] + [None] * (shards - 1)
            ),
            fleet_faults=fleet_faults,
            replica_lag_ms=replica_lag_ms,
            keep_xml=keep_xml,
        )

        def route_write(index: int) -> None:
            # One logical write, applied shard-locally everywhere: the
            # write mix addresses rows by key predicates, so each
            # shard's statements touch only rows it owns.
            router.route_write(
                lambda source, tracker: hotel_write(
                    source, index, tracker=tracker
                )
            )

        return db, router, route_write

    tracker = None
    if staleness is not None:
        tracker = WriteTracker()
        db.attach_tracker(tracker, auto=driver.supports_auto_capture)
    server = ViewServer(
        db.catalog,
        source=db,
        workers=workers,
        keep_xml=keep_xml,
        tracker=tracker,
        staleness=staleness or "strict",  # inert without a tracker
        maintenance=maintenance,
        fragment_policy=fragment_policy,
        resilience=resilience,
        faults=faults,
    )

    def write(index: int) -> None:
        if tracker is None:
            hotel_write(db, index)
            server.pool.refresh()  # untracked: re-snapshot right away
        elif driver.supports_auto_capture:
            hotel_write(db, index)  # auto capture records it
        else:
            hotel_write(db, index, tracker=tracker)

    return db, server, write


def build_hotel_app(
    hedge: Optional[HedgePolicy] = None, **build
) -> PublishingApp:
    """The paper's hotel workload as a servable application.

    ``build`` takes :func:`build_hotel_backend`'s keyword arguments;
    the app registers the Figure 1 view and its Figure 4/17
    compositions over that backend, keeping response bytes for the
    HTTP layer.
    """
    from repro.workloads.paper import (
        figure1_view,
        figure4_stylesheet,
        figure17_stylesheet,
    )

    db, server, write = build_hotel_backend(keep_xml=True, **build)
    view = figure1_view(db.catalog)
    registry = {
        "figure1": RegisteredView("figure1", view, None),
        "figure4": RegisteredView("figure4", view, figure4_stylesheet()),
        "figure17": RegisteredView("figure17", view, figure17_stylesheet()),
    }
    return PublishingApp(registry, server, db, hedge=hedge, write_fn=write)
