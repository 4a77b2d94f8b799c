"""Replica bookkeeping for the sharded fleet: lineage, health, placement.

Before this module, every replica of a shard shared the primary's
:class:`~repro.maintenance.tracker.WriteTracker` — so a replica's
``version_lag`` was 0 by construction and staleness accounting on
replica reads was silently wrong. Here each replica gets its **own
tracker lineage**: writes land on the primary's tracker, and a
:class:`ReplicaApplier` replays them into the replica's tracker through
:meth:`WriteTracker.replay_events`, optionally holding each event back
for an injectable delay so replicas *genuinely* lag. The router then
routes reads by the replica's real lag (primary clock minus replica
clock) against the staleness policy's version budget.

:class:`ReplicaHealth` is the half-open gate
(:class:`~repro.resilience.breaker.HalfOpenGate`) each member owns,
fed by request outcomes and labelled in fleet terms:

.. code-block:: text

            failures >= suspect_after        failures >= dead_after
   healthy ─────────────────────────> suspect ───────────────────> dead
      ^                                  │ success                   │
      │ success (trial)                  v                           │
      └───────────────────────────── healthy <── cooldown + half-open trial

A dead member refuses traffic until its cooldown elapses, then admits
one trial request at a time; one success readmits it, one failure
re-deads it and restarts the cooldown. Only real failures count
(:func:`repro.errors.classify_error` says transient or permanent):
a cancelled hedge loser, an admission shed or an expired deadline ends
the attempt without a verdict and just hands the trial back. Lag is not
a health signal; the router gates it separately against the staleness
budget.

:class:`PlacementGroup` carries hedge anti-affinity: both attempts of a
hedged request share one group, each attempt's chosen member is
claimed, and the router prefers unclaimed members for later attempts —
so the hedge lands on a *different* replica than the first attempt
whenever the shard has one to offer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import classify_error
from repro.maintenance.tracker import WriteTracker
from repro.resilience.breaker import REAL_FAILURES, HalfOpenGate

#: States a replica's health reports, best first.
REPLICA_STATES = ("healthy", "suspect", "dead")


class ReplicaHealth(HalfOpenGate):
    """The health gate one fleet member owns.

    ``dead_after`` consecutive real failures open the gate (the member
    is *dead*); ``suspect_after`` of them already mark it *suspect*,
    which costs routing priority but no traffic. Admission, cooldown and
    the half-open trial are :class:`HalfOpenGate`'s; this class adds the
    error taxonomy filter, the fleet vocabulary in :meth:`stats`, and
    the member's lag watermarks.
    """

    def __init__(
        self,
        suspect_after: int = 2,
        dead_after: int = 4,
        cooldown_ms: float = 500.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 1 <= suspect_after <= dead_after:
            raise ValueError(
                "need 1 <= suspect_after <= dead_after, got "
                f"{suspect_after}/{dead_after}"
            )
        super().__init__(dead_after, cooldown_ms, clock)
        self.suspect_after = suspect_after
        self.failures = 0
        self.ignored_failures = 0
        self.current_lag = 0
        self.max_lag = 0

    @property
    def dead_after(self) -> int:
        """Consecutive real failures that kill the member."""
        return self.threshold

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        """A request served by this member failed.

        ``error`` (when available) is classified; anything but a real
        failure is ignored here, and the caller's
        :meth:`~HalfOpenGate.release` hands the trial back.
        """
        real = error is None or classify_error(error) in REAL_FAILURES
        with self._lock:
            if real:
                self.failures += 1
            else:
                self.ignored_failures += 1
        if real:
            super().record_failure()

    def observe_lag(self, lag: int) -> None:
        """Record the member's current version lag (watermarked)."""
        with self._lock:
            self.current_lag = lag
            if lag > self.max_lag:
                self.max_lag = lag

    def state(self) -> str:
        """``healthy``, ``suspect`` or ``dead`` (see the module diagram)."""
        with self._lock:
            if self.phase != "closed":
                return "dead"
            if self.consecutive_failures >= self.suspect_after:
                return "suspect"
            return "healthy"

    def stats(self) -> dict:
        """Counters, trials in flight and lag watermarks."""
        gate = super().stats()
        with self._lock:
            failures = self.failures
            ignored = self.ignored_failures
            current_lag = self.current_lag
            max_lag = self.max_lag
        return {
            "state": self.state(),
            "consecutive_failures": gate["consecutive_failures"],
            "failures": failures,
            "ignored_failures": ignored,
            "deaths": gate["opened"],
            "readmissions": gate["closed"],
            "probes_fired": gate["half_opened"],
            "probe_denials": gate["trial_denials"],
            "half_open_trials": gate["half_open_trials"],
            "current_lag": current_lag,
            "max_lag": max_lag,
        }


class ReplicaApplier:
    """Replays primary write events into a replica's tracker, lagged.

    Writes land on the primary tracker; this applier replays them —
    event for event, preserving version parity — into the replica's own
    tracker once each event is at least ``delay_ms`` old. With the
    default ``delay_ms=0`` propagation is *synchronous*: the apply runs
    inline in the primary tracker's subscriber callback, so a write is
    visible on every replica's clock before ``record_write`` returns
    (the pre-split shared-tracker behaviour, now with split lineage).
    With a positive delay the background thread (named with the
    ``shardrouter`` prefix so fleet leak checks cover it) holds events
    back, and the replica genuinely lags.

    An armed fleet fault plan can stall the loop: while
    ``apply-stall`` is active at this member's site, no events apply
    and the replica's lag grows unboundedly until the window passes.
    """

    def __init__(
        self,
        primary: WriteTracker,
        replica: WriteTracker,
        delay_ms: float = 0.0,
        faults=None,
        shard: int = 0,
        member: str = "replica",
        poll_ms: float = 5.0,
        name: Optional[str] = None,
    ):
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self.primary = primary
        self.replica = replica
        self.delay_ms = delay_ms
        self.faults = faults
        self.shard = shard
        self.member = member
        self.applied = 0
        self.stalled_checks = 0
        self._poll_s = max(poll_ms, 1.0) / 1000.0
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        primary.subscribe(self._on_write)
        self._thread = threading.Thread(
            target=self._run,
            daemon=True,
            name=name or f"shardrouter-apply-s{shard}-{member}",
        )
        self._thread.start()

    def _on_write(self, table: str, version: int) -> None:
        if self._stop.is_set():
            return
        if self.delay_ms == 0:
            # Synchronous propagation: catch up inline so zero-delay
            # fleets never observe spurious lag between a write and the
            # next read. The thread still sweeps stall leftovers.
            self.apply_pending()
        self._wake.set()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self._poll_s)
            self._wake.clear()
            if self._stop.is_set():
                break
            self.apply_pending()

    def apply_pending(self) -> int:
        """Apply every due event; returns how many were applied.

        Serialized under a lock (the inline zero-delay path and the
        background thread may race). Events are replayed oldest-first;
        a not-yet-due event blocks its table's later events so per-table
        version order is never violated.
        """
        if self.faults is not None and self.faults.active(
            "apply-stall", self.shard, self.member
        ):
            with self._lock:
                self.stalled_checks += 1
            return 0
        applied = 0
        with self._lock:
            pending = self.primary.replay_events(self.replica.snapshot())
            now = time.monotonic()
            blocked: set[str] = set()
            for table, _version, keys, columns, ts in pending:
                if table in blocked:
                    continue
                if self.delay_ms and (now - ts) * 1000.0 < self.delay_ms:
                    blocked.add(table)
                    continue
                self.replica.record_write(
                    table, rows=0, keys=keys, columns=columns
                )
                applied += 1
            self.applied += applied
        return applied

    def lag(self) -> int:
        """Write events recorded on the primary but not yet replayed."""
        return max(0, self.primary.clock() - self.replica.clock())

    def close(self, timeout: float = 5.0) -> None:
        """Stop the apply thread (pending events stay unapplied)."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)


class PlacementGroup:
    """Anti-affinity scope shared by the attempts of one hedged request.

    The router claims the member each attempt is routed to; later
    attempts in the same group prefer unclaimed members. Per-shard
    claim sets, thread-safe (the primary attempt and the hedge race).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: dict[int, list[str]] = {}

    def claim(self, shard: int, member: str) -> None:
        """Record that an attempt was routed to ``member`` of ``shard``."""
        with self._lock:
            self._claims.setdefault(shard, []).append(member)

    def claimed(self, shard: int) -> frozenset:
        """Members of ``shard`` already used by attempts in this group."""
        with self._lock:
            return frozenset(self._claims.get(shard, ()))

    def attempts(self, shard: int) -> int:
        """How many attempts have claimed a member of ``shard``."""
        with self._lock:
            return len(self._claims.get(shard, ()))
