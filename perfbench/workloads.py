"""The four benchmark workloads: build, serve one request, check.

Each workload class builds its serving stack in :meth:`setup` (data,
server or fleet or HTTP listener, warm-up), serves one closed-loop step
per :meth:`step` call and checks every response against an independent
oracle in :meth:`verify`, after the timed window. Responses are checked
by class: within a class every response must equal the class's first
one (a string compare, outside the latency sample), and ``verify``
compares each class's first response with the oracle. A mismatch or a
non-success outcome counts as one failed operation.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import socket
import threading
import time

from repro.baseline.materialize import NaivePipeline
from repro.maintenance.workload import hotel_metro_write
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.serving.server import PublishRequest, ViewServer
from repro.workloads.hotel import HotelDataSpec, build_hotel_database
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.serializer import serialize
import repro.xslt.parser

from stylesheets import stylesheet_texts

#: compose-churn's distinct stylesheets: three times the plan cache's
#: 64 entries, served round-robin, so every request compiles.
CHURN_VARIANTS = 192

#: fleet-write-mix sends one write after this many reads.
READS_PER_WRITE = 10


def digest(text) -> bytes:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.blake2b(data, digest_size=16).digest()


class ResponseClasses:
    """Response digests per class plus counts, for the post-window check.

    Only digests are held, plus the latest response for a cheap equality
    test against the next one of the same class; keeping every response
    would inflate the process's peak memory.
    """

    def __init__(self) -> None:
        self.digests: dict = {}  # class -> digest of its first response
        self.counts: dict = {}
        self.mismatches = 0
        self._last = (None, None)

    def record(self, key, response) -> None:
        last_key, last_response = self._last
        if key == last_key and last_key is not None:
            same = response == last_response
        else:
            seen = digest(response)
            same = self.digests.setdefault(key, seen) == seen
            self._last = (key, response)
        if not same:
            self.mismatches += 1
        self.counts[key] = self.counts.get(key, 0) + 1

    def failed_against(self, oracle) -> int:
        """Failed responses, given ``oracle(key)`` -> the right response.

        Classes are visited in the order they were first seen.
        """
        failed = self.mismatches
        for key, seen in self.digests.items():
            if digest(oracle(key)) != seen:
                failed += self.counts[key]
        return failed


class Step:
    """Outcome of one closed-loop step."""

    __slots__ = ("kind", "seconds", "ok", "klass", "size")

    def __init__(
        self, kind: str, seconds: float, ok: bool, klass: str, size: int = 0
    ):
        self.kind = kind  # "publish" or "write"
        self.seconds = seconds
        self.ok = ok
        self.klass = klass  # request class, for the class-share record
        self.size = size  # response length (the data is ASCII: bytes)


class Workload:
    name = ""
    #: Requests the traced run times, one at a time (and as many again
    #: untraced first, for the overhead reference).
    trace_requests = 200
    #: Untimed steps served on one client after set-up, before timing.
    warm_steps = 0
    #: Timed set-ups before the window, and as many again after it.
    setups = 4

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.clients = nproc
        self.responses = ResponseClasses()
        self.lock = threading.Lock()
        #: Digest of the generated data, set by :meth:`verify`.
        self.data_digest = ""

    def stream_digest(self) -> str:
        """Digest of the request stream (one fixed request by default)."""
        return digest(f"{self.name}: Figure 1 + Figure 4, bulk").hex()

    def record(self, key, response) -> None:
        with self.lock:
            self.responses.record(key, response)


def _database_digest(db) -> str:
    h = hashlib.blake2b(digest_size=16)
    for table in sorted(db.catalog.table_names()):
        for row in db.run_sql(f"SELECT * FROM {table} ORDER BY 1", {}):
            h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


class ComposeChurn(Workload):
    """Scale 1, one client, a new seeded stylesheet per request."""

    name = "compose-churn"
    trace_requests = 300
    setups = 10  # a set-up takes ~10 ms, so take more samples

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        self.clients = 1
        self.texts = stylesheet_texts(seed, CHURN_VARIANTS)
        self.order = list(range(CHURN_VARIANTS))
        random.Random(f"perfbench-order-{seed}").shuffle(self.order)

    def stream_digest(self) -> str:
        return digest("".join(self.texts[i] for i in self.order)).hex()

    def setup(self) -> None:
        self.db = build_hotel_database(HotelDataSpec().scaled(1), cross_thread=True)
        self.view = figure1_view(self.db.catalog)
        self.server = ViewServer(self.db.catalog, source=self.db, workers=self.nproc)
        # Warm-up with a stylesheet outside the timed set.
        self.server.render(self.view, figure4_stylesheet(), strategy="bulk")

    def teardown(self) -> None:
        self.server.close()
        self.db.close()

    def step(self, client: int, index: int) -> Step:
        variant = self.order[index % CHURN_VARIANTS]
        started = time.perf_counter()
        stylesheet = repro.xslt.parser.parse_stylesheet(self.texts[variant])
        trace = self.server.submit(
            PublishRequest(self.view, stylesheet, strategy="bulk")
        ).result()
        seconds = time.perf_counter() - started
        ok = trace.outcome == "success"
        if ok:
            self.record(variant, trace.xml)
        return Step(
            "publish", seconds, ok,
            "plan-hit" if trace.cache_hit else "plan-miss", len(trace.xml or ""),
        )

    def verify(self) -> int:
        db = build_hotel_database(HotelDataSpec().scaled(1))
        self.data_digest = _database_digest(db)
        view = figure1_view(db.catalog)
        try:
            return self.responses.failed_against(
                lambda variant: serialize(
                    NaivePipeline(
                        view, repro.xslt.parser.parse_stylesheet(self.texts[variant])
                    ).run(db).document
                )
            )
        finally:
            db.close()


class LivePublish(Workload):
    """Scale 32, Figure 1 with Figure 4, full evaluation every request."""

    name = "live-publish"
    trace_requests = 200

    def setup(self) -> None:
        self.db = build_hotel_database(HotelDataSpec().scaled(32), cross_thread=True)
        self.view = figure1_view(self.db.catalog)
        self.stylesheet = figure4_stylesheet()
        self.server = ViewServer(self.db.catalog, source=self.db, workers=self.nproc)
        self.server.render(self.view, self.stylesheet, strategy="bulk")

    def teardown(self) -> None:
        self.server.close()
        self.db.close()

    def step(self, client: int, index: int) -> Step:
        started = time.perf_counter()
        trace = self.server.submit(
            PublishRequest(self.view, self.stylesheet, strategy="bulk")
        ).result()
        seconds = time.perf_counter() - started
        ok = trace.outcome == "success"
        if ok:
            self.record("figure4", trace.xml)
        return Step("publish", seconds, ok, "full-eval", len(trace.xml or ""))

    def verify(self) -> int:
        return _verify_figure4(self, scale=32)


def _verify_figure4(workload: Workload, scale: int) -> int:
    db = build_hotel_database(HotelDataSpec().scaled(scale))
    workload.data_digest = _database_digest(db)
    try:
        expected = serialize(
            NaivePipeline(figure1_view(db.catalog), figure4_stylesheet())
            .run(db)
            .document
        )
        return workload.responses.failed_against(lambda _key: expected)
    finally:
        db.close()


class KeepAliveClient:
    """A minimal HTTP/1.1 client holding one keep-alive connection."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def post(self, path: str, payload: dict) -> tuple[int, dict, bytes]:
        body = json.dumps(payload).encode("utf-8")
        self.sock.sendall(
            (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        while len(self.buffer) < length:
            self._fill()
        response, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, response

    def _fill(self) -> None:
        chunk = self.sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class HttpHit(Workload):
    """Scale 32 behind the HTTP front end, every request a cache hit."""

    name = "http-hit"
    trace_requests = 1000
    PAYLOAD = {"view": "figure4", "strategy": "bulk"}

    def setup(self) -> None:
        from repro.frontend.app import build_hotel_app
        from repro.frontend.http import serve_app

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-http", daemon=True
        )
        self.thread.start()
        app = build_hotel_app(scale=32, workers=self.nproc, staleness="strict")
        self.http = self._run(serve_app(app))
        self.connections = [
            KeepAliveClient(self.http.address) for _ in range(self.clients)
        ]
        for connection in self.connections:
            connection.post("/publish", self.PAYLOAD)

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60)

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self._run(self.http.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()

    def step(self, client: int, index: int) -> Step:
        started = time.perf_counter()
        status, headers, body = self.connections[client].post(
            "/publish", self.PAYLOAD
        )
        seconds = time.perf_counter() - started
        ok = status == 200
        if ok:
            self.record("figure4", body)
        return Step(
            "publish", seconds, ok, headers.get("x-repro-freshness", "?"), len(body)
        )

    def verify(self) -> int:
        return _verify_figure4(self, scale=32)


class FleetWriteMix(Workload):
    """2 shards x (primary + 1 replica), Figure 1 reads, 1 write per 10."""

    name = "fleet-write-mix"
    trace_requests = 400

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        self.clients = 1
        self.metros = HotelDataSpec().scaled(32).metros
        # The write positions: a seeded order over the metros, cycled.
        self.write_steps = list(range(self.metros))
        random.Random(f"perfbench-writes-{seed}").shuffle(self.write_steps)
        # The first write to a metro collapses its four start dates to
        # two, which shrinks its subtree. Timing starts after one full
        # pass of writes, so every metro is in that steady state.
        self.warm_steps = (READS_PER_WRITE + 1) * self.metros

    def stream_digest(self) -> str:
        return digest(repr((READS_PER_WRITE, self.write_steps))).hex()

    def setup(self) -> None:
        from repro.sharding import ShardRouter
        from repro.workloads.hotel import hotel_partition_scheme

        db = build_hotel_database(HotelDataSpec().scaled(32), cross_thread=True)
        try:
            self.domain = [
                row["metroid"]
                for row in db.run_sql(
                    "SELECT metroid FROM metroarea ORDER BY metroid", {}
                )
            ]
            self.view = figure1_view(db.catalog)
            self.router = ShardRouter.build(
                db.catalog,
                db,
                hotel_partition_scheme(),
                2,
                replicas=1,
                workers=self.nproc,
                staleness="strict",
                maintenance="fragment",
            )
        finally:
            db.close()
        self.writes = 0
        # Warm both members of both shards (reads rotate between them).
        for _ in range(2):
            self._read()

    def teardown(self) -> None:
        self.router.close()

    def _read(self):
        return self.router.submit(PublishRequest(self.view, strategy="bulk")).result()

    def write(self, index: int) -> None:
        step = self.write_steps[index % len(self.write_steps)]
        self.router.route_write(
            lambda source, tracker: hotel_metro_write(
                source, step, tracker=tracker, domain=self.domain
            )
        )

    def step(self, client: int, index: int) -> Step:
        # Every READS_PER_WRITE + 1 steps: that many reads, then a write.
        if index % (READS_PER_WRITE + 1) == READS_PER_WRITE:
            started = time.perf_counter()
            self.write(self.writes)
            seconds = time.perf_counter() - started
            self.writes += 1
            return Step("write", seconds, True, "write")
        started = time.perf_counter()
        trace = self._read()
        seconds = time.perf_counter() - started
        ok = trace.outcome == "success"
        if ok:
            self.record(self.writes, trace.xml)
        klass = (
            "hit"
            if all(shard["freshness"] == "hit" for shard in trace.shards)
            else "recompute"
        )
        return Step("publish", seconds, ok, klass, len(trace.xml or ""))

    def verify(self) -> int:
        """Replay the writes on an unsharded mirror, one state per write."""
        db = build_hotel_database(HotelDataSpec().scaled(32))
        self.data_digest = _database_digest(db)
        view = figure1_view(db.catalog)
        applied = 0

        def mirror(write_index: int) -> str:
            nonlocal applied
            while applied < write_index:
                step = self.write_steps[applied % len(self.write_steps)]
                hotel_metro_write(db, step, domain=self.domain)
                applied += 1
            return serialize(BulkViewEvaluator(db).materialize(view))

        try:
            # Classes are write indexes, first seen in write order, so
            # the mirror only ever moves forward.
            return self.responses.failed_against(mirror)
        finally:
            db.close()


WORKLOADS = {
    workload.name: workload
    for workload in (ComposeChurn, LivePublish, HttpHit, FleetWriteMix)
}
