"""CircuitBreaker: the closed → open → half-open state machine."""

from __future__ import annotations

import pytest

from repro.resilience import BREAKER_STATES, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(threshold=3, cooldown_ms=100.0, clock=clock)


def test_validates_construction():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=1, cooldown_ms=0)


def test_untracked_keys_are_closed_and_allowed(breaker):
    assert breaker.state("unseen") == "closed"
    assert breaker.allow("unseen")
    assert breaker.retry_after_ms("unseen") == 0.0


def test_opens_after_threshold_consecutive_failures(breaker):
    breaker.record_failure("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "closed"
    assert breaker.allow("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "open"
    assert not breaker.allow("k")
    assert breaker.stats()["opened"] == 1
    assert breaker.stats()["short_circuits"] == 1


def test_success_resets_the_failure_count(breaker):
    breaker.record_failure("k")
    breaker.record_failure("k")
    breaker.record_success("k")
    breaker.record_failure("k")
    breaker.record_failure("k")
    assert breaker.state("k") == "closed"  # never hit 3 consecutively


def test_cooldown_half_opens_then_success_closes(breaker, clock):
    for _ in range(3):
        breaker.record_failure("k")
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(100.0)
    clock.advance(0.05)
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(50.0)
    clock.advance(0.06)
    assert breaker.allow("k")  # cooldown elapsed: half-open trial
    assert breaker.state("k") == "half-open"
    breaker.record_success("k")
    assert breaker.state("k") == "closed"
    stats = breaker.stats()
    assert stats["half_opened"] == 1
    assert stats["closed"] == 1


def test_half_open_failure_reopens_and_restarts_cooldown(breaker, clock):
    for _ in range(3):
        breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    breaker.record_failure("k")  # first trial failure re-opens immediately
    assert breaker.state("k") == "open"
    assert not breaker.allow("k")
    assert breaker.retry_after_ms("k") == pytest.approx(100.0)
    assert breaker.stats()["opened"] == 2


def test_keys_are_independent(breaker):
    for _ in range(3):
        breaker.record_failure("bad")
    assert breaker.state("bad") == "open"
    assert breaker.allow("good")
    assert breaker.state("good") == "closed"


def test_stats_histogram_covers_all_states(breaker, clock):
    breaker.record_failure("a")
    for _ in range(3):
        breaker.record_failure("b")
    for _ in range(3):
        breaker.record_failure("c")
    clock.advance(0.2)
    assert breaker.allow("c")  # half-opens c
    histogram = breaker.stats()["states"]
    assert set(histogram) == set(BREAKER_STATES)
    assert histogram == {"closed": 1, "open": 1, "half-open": 1}


def test_half_open_trial_budget_boundary(clock):
    # One trial at a time: the first allow() after the cooldown passes,
    # the next short-circuits until the trial resolves.
    breaker = CircuitBreaker(threshold=2, cooldown_ms=100.0, clock=clock)
    breaker.record_failure("k")
    breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    assert breaker.state("k") == "half-open"
    assert breaker.stats()["half_open_trials"] == 1
    before = breaker.stats()["short_circuits"]
    assert not breaker.allow("k")  # budget spent
    assert breaker.stats()["short_circuits"] == before + 1
    # The trial succeeding closes the circuit and frees everything.
    breaker.record_success("k")
    assert breaker.state("k") == "closed"
    assert breaker.stats()["half_open_trials"] == 0
    assert breaker.allow("k")


def test_half_open_probe_completion_refills_the_budget(clock):
    # A trial that fails re-opens the circuit AND releases its slot —
    # after the next cooldown the trial is available again (no slot
    # leak across re-opens).
    breaker = CircuitBreaker(threshold=1, cooldown_ms=100.0, clock=clock)
    breaker.record_failure("k")
    clock.advance(0.2)
    assert breaker.allow("k")
    assert not breaker.allow("k")
    breaker.record_failure("k")  # the trial fails: straight back to open
    assert breaker.state("k") == "open"
    assert breaker.stats()["half_open_trials"] == 0
    assert not breaker.allow("k")
    clock.advance(0.2)
    assert breaker.allow("k")  # fresh cooldown, fresh trial
    assert not breaker.allow("k")
    assert breaker.stats()["half_open_trials"] == 1


def test_released_trial_without_verdict_stays_half_open(clock):
    """A trial that ends without a verdict (cancelled, shed, deadline)
    hands its slot back: the circuit stays half-open and the very next
    request gets the trial, with no second cooldown."""
    breaker = CircuitBreaker(threshold=1, cooldown_ms=100.0, clock=clock)
    breaker.record_failure("k")
    clock.advance(0.2)
    ticket = breaker.allow("k")
    assert ticket
    breaker.release("k", ticket)
    assert breaker.state("k") == "half-open"
    assert breaker.stats()["half_open_trials"] == 0
    assert breaker.stats()["opened"] == 1
    second = breaker.allow("k")
    assert second and second != ticket
    breaker.release("k", ticket)  # a stale ticket frees nothing
    assert breaker.stats()["half_open_trials"] == 1
    breaker.release("k", second)
    assert breaker.stats()["half_open_trials"] == 0


def test_ordinary_pass_never_frees_a_trial(clock):
    breaker = CircuitBreaker(threshold=1, cooldown_ms=100.0, clock=clock)
    ordinary = breaker.allow("k")  # closed: an ordinary pass
    breaker.record_failure("k")
    clock.advance(0.2)
    trial = breaker.allow("k")
    breaker.release("k", ordinary)  # the early request ends, no verdict
    assert breaker.stats()["half_open_trials"] == 1
    assert not breaker.allow("k")
    breaker.release("k", trial)
    assert breaker.allow("k")
