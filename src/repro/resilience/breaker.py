"""Half-open health gates: one per compiled plan, one per fleet member.

A plan that keeps failing — a poisoned compile, a tag query over a
dropped table, a pathological input — should stop consuming worker
time and pool connections on every request; a fleet member that keeps
failing should stop receiving reads. Both are the same machine,
:class:`HalfOpenGate`:

* **closed** — attempts flow; ``threshold`` consecutive real failures
  open the gate (a success at any point resets the count).
* **open** — attempts are refused until ``cooldown_ms`` elapses.
* **half-open** — after the cooldown, exactly one trial attempt is
  admitted at a time (further attempts keep being refused while it
  runs); a success closes the gate, a failure re-opens it and restarts
  the cooldown.

Every admission returns a *ticket*, and the caller hands it back to
:meth:`HalfOpenGate.release` when the attempt ends, however it ends.
Ending without a verdict — a cancelled hedge loser, an admission shed,
an expired deadline, a short-circuit further down — frees the trial
slot and leaves the gate half-open, so the next attempt can try again.
A trial is therefore never lost, and only real failures
(:func:`repro.errors.classify_error` says ``transient`` or
``permanent``) count toward opening the gate.

:class:`CircuitBreaker` is a keyed map of gates for plan fingerprints;
:class:`~repro.sharding.replica.ReplicaHealth` is the gate each fleet
member owns. Clocks are injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

#: Gate states, in reporting order.
BREAKER_STATES = ("closed", "open", "half-open")

#: The ticket of an ordinary (non-trial) admission. Trial tickets are
#: positive and unique per gate, so releasing an ordinary ticket never
#: frees somebody else's trial.
PASS = -1

#: :func:`repro.errors.classify_error` categories that count toward
#: opening a gate. Deadlines, cancellations and rejections end an
#: attempt without saying anything about the plan or member.
REAL_FAILURES = ("transient", "permanent")


class HalfOpenGate:
    """One closed → open → half-open machine with a single trial slot.

    Thread-safe: every transition runs under the gate's lock and is
    counted — ``opened`` (transitions to open), ``closed`` (recoveries),
    ``half_opened`` (trials granted), ``short_circuits`` (refusals) and
    ``trial_denials`` (refusals because the trial slot was taken).
    """

    def __init__(
        self,
        threshold: int,
        cooldown_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_ms < 0:
            raise ValueError(f"cooldown_ms must be >= 0, got {cooldown_ms}")
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self._clock = clock
        self._lock = threading.Lock()
        self.phase = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: Ticket of the half-open trial in flight (0 when none).
        self.trial = 0
        self._tickets = 0
        self.opened = 0
        self.closed = 0
        self.half_opened = 0
        self.short_circuits = 0
        self.trial_denials = 0

    def _cooling(self) -> bool:
        return (self._clock() - self.opened_at) * 1000.0 < self.cooldown_ms

    # -- admission -----------------------------------------------------------

    def probe_ready(self) -> bool:
        """Read-only: would :meth:`admit` grant an attempt right now?

        Candidate enumeration asks this; only an attempt that will
        certainly run takes a ticket through :meth:`admit`.
        """
        with self._lock:
            if self.phase == "closed":
                return True
            if self.phase == "open" and self._cooling():
                return False
            return self.trial == 0

    def admit(self) -> Optional[int]:
        """Admit one attempt: a ticket, or ``None`` when refused.

        A closed gate returns :data:`PASS`. Once the cooldown of an
        open gate has elapsed, the gate half-opens and the first caller
        gets the trial ticket; everyone else is refused until that
        ticket comes back through :meth:`release`, :meth:`record_success`
        or :meth:`record_failure`.
        """
        with self._lock:
            if self.phase == "closed":
                return PASS
            if self.phase == "open":
                if self._cooling():
                    self.short_circuits += 1
                    return None
                self.phase = "half-open"
            if self.trial:
                self.short_circuits += 1
                self.trial_denials += 1
                return None
            self._tickets += 1
            self.trial = self._tickets
            self.half_opened += 1
            return self.trial

    def retry_after_ms(self) -> float:
        """Cooldown remaining before an open gate half-opens (else 0)."""
        with self._lock:
            if self.phase != "open":
                return 0.0
            elapsed_ms = (self._clock() - self.opened_at) * 1000.0
            return max(0.0, self.cooldown_ms - elapsed_ms)

    # -- outcomes ------------------------------------------------------------

    def record_success(self) -> None:
        """An attempt succeeded: close the gate (ends any trial)."""
        with self._lock:
            if self.phase != "closed":
                self.closed += 1
            self.phase = "closed"
            self.consecutive_failures = 0
            self.trial = 0

    def record_failure(self) -> None:
        """An attempt failed for real: count it, open when due.

        A failure while half-open re-opens the gate and restarts the
        cooldown; so does reaching ``threshold`` consecutive failures
        while closed. Either way the trial in flight (if any) is over.
        """
        with self._lock:
            self.consecutive_failures += 1
            if self.phase == "half-open" or (
                self.phase == "closed"
                and self.consecutive_failures >= self.threshold
            ):
                self.phase = "open"
                self.opened_at = self._clock()
                self.trial = 0
                self.opened += 1

    def release(self, ticket: Optional[int]) -> None:
        """Hand an admission's ticket back when its attempt ends.

        Idempotent, and a no-op unless ``ticket`` is the trial still in
        flight: then the slot is freed without a verdict and the gate
        stays half-open for the next attempt.
        """
        with self._lock:
            if ticket is not None and ticket == self.trial:
                self.trial = 0

    def stats(self) -> dict:
        """Phase, transition counters and trials in flight (one snapshot)."""
        with self._lock:
            return {
                "state": self.phase,
                "consecutive_failures": self.consecutive_failures,
                "opened": self.opened,
                "closed": self.closed,
                "half_opened": self.half_opened,
                "short_circuits": self.short_circuits,
                "trial_denials": self.trial_denials,
                "half_open_trials": 1 if self.trial else 0,
            }


class CircuitBreaker:
    """Per-plan-fingerprint gates with a shared threshold and cooldown.

    Gates are created on a key's first failure; a key with no gate is
    closed. It lives on the :class:`~repro.serving.plan_cache.PlanCache`,
    which already speaks plan fingerprints.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_ms: float = 1000.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_ms <= 0:
            raise ValueError(f"cooldown_ms must be > 0, got {cooldown_ms}")
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self._clock = clock
        self._lock = threading.Lock()
        self._gates: dict[str, HalfOpenGate] = {}

    def allow(self, key: str) -> Optional[int]:
        """Admit an attempt for ``key``: a ticket, or ``None`` if refused.

        See :meth:`HalfOpenGate.admit`; the ticket goes back through
        :meth:`release` when the attempt ends.
        """
        gate = self._gates.get(key)
        return PASS if gate is None else gate.admit()

    def release(self, key: str, ticket: Optional[int]) -> None:
        """Return ``ticket`` for ``key`` (frees a verdict-less trial)."""
        gate = self._gates.get(key)
        if gate is not None:
            gate.release(ticket)

    def retry_after_ms(self, key: str) -> float:
        """Cooldown remaining before ``key`` half-opens (0 when closed)."""
        gate = self._gates.get(key)
        return 0.0 if gate is None else gate.retry_after_ms()

    def record_success(self, key: str) -> None:
        """A compile/eval attempt for ``key`` succeeded."""
        gate = self._gates.get(key)
        if gate is not None:
            gate.record_success()

    def record_failure(self, key: str) -> None:
        """A compile/eval attempt for ``key`` failed for real."""
        with self._lock:
            gate = self._gates.get(key)
            if gate is None:
                gate = self._gates[key] = HalfOpenGate(
                    self.threshold, self.cooldown_ms, self._clock
                )
        gate.record_failure()

    def state(self, key: str) -> str:
        """Current state of ``key``'s gate (``closed`` if untracked)."""
        gate = self._gates.get(key)
        return "closed" if gate is None else gate.stats()["state"]

    def stats(self) -> dict:
        """Transition totals, trials in flight and a state histogram."""
        with self._lock:
            gates = list(self._gates.values())
        totals = {
            "threshold": self.threshold,
            "cooldown_ms": self.cooldown_ms,
            "opened": 0,
            "closed": 0,
            "half_opened": 0,
            "short_circuits": 0,
            "half_open_trials": 0,
            "states": {state: 0 for state in BREAKER_STATES},
        }
        for gate in gates:
            snapshot = gate.stats()
            for name in ("opened", "closed", "half_opened", "short_circuits",
                         "half_open_trials"):
                totals[name] += snapshot[name]
            totals["states"][snapshot["state"]] += 1
        return totals
