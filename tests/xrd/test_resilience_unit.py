"""Unit tests for RetryPolicy, Deadline, and HealthTracker."""

import time

import pytest

from repro.xrd import Deadline, HealthTracker, RetryPolicy


class TestDeadline:
    def test_remaining_counts_down(self):
        d = Deadline.after(10.0)
        assert 9.0 < d.remaining() <= 10.0
        assert not d.expired

    def test_expired_clamps_to_zero(self):
        d = Deadline.after(-1.0)
        assert d.expired
        assert d.remaining() == 0.0

    def test_real_expiry(self):
        d = Deadline.after(0.02)
        time.sleep(0.03)
        assert d.expired


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_first_attempt_never_sleeps(self):
        p = RetryPolicy(base_backoff=0.5)
        assert p.backoff(0) == 0.0

    def test_exponential_growth_capped(self):
        p = RetryPolicy(
            max_attempts=6,
            base_backoff=0.1,
            backoff_multiplier=2.0,
            max_backoff=0.3,
            jitter=0.0,
        )
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(2) == pytest.approx(0.2)
        assert p.backoff(3) == pytest.approx(0.3)  # capped
        assert p.backoff(5) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_decorrelated(self):
        p = RetryPolicy(base_backoff=0.1, jitter=0.5)
        a = p.backoff(1, key="chunk-1")
        b = p.backoff(1, key="chunk-2")
        assert a == p.backoff(1, key="chunk-1")  # reproducible
        assert a != b  # distinct keys de-correlate
        assert 0.1 <= a <= 0.15  # within +jitter fraction

    def test_sleep_before_honours_deadline(self):
        p = RetryPolicy(base_backoff=10.0, jitter=0.0)
        expired = Deadline.after(-1.0)
        assert p.sleep_before(1, "k", expired) is False
        # A live deadline clips the sleep instead of waiting 10s.
        t0 = time.perf_counter()
        assert p.sleep_before(1, "k", Deadline.after(0.02)) is True
        assert time.perf_counter() - t0 < 1.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestHealthTracker:
    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown", 1.0)
        tracker = HealthTracker(clock=clock, **kw)
        return tracker, clock

    def test_unknown_server_is_available(self):
        tracker, _ = self.make()
        assert tracker.available("w1")
        assert tracker.state("w1") == "closed"

    def test_breaker_trips_after_threshold(self):
        tracker, _ = self.make()
        for _ in range(2):
            tracker.record_failure("w1")
        assert tracker.available("w1")  # still under threshold
        tracker.record_failure("w1")
        assert tracker.state("w1") == "open"
        assert not tracker.available("w1")

    def test_success_resets_consecutive_count(self):
        tracker, _ = self.make()
        tracker.record_failure("w1")
        tracker.record_failure("w1")
        tracker.record_success("w1")
        tracker.record_failure("w1")
        assert tracker.state("w1") == "closed"

    def test_cooldown_admits_probe_then_success_closes(self):
        tracker, clock = self.make()
        for _ in range(3):
            tracker.record_failure("w1")
        assert not tracker.available("w1")
        clock.advance(1.0)
        assert tracker.available("w1")  # the probe
        assert tracker.state("w1") == "half-open"
        tracker.record_success("w1")
        assert tracker.state("w1") == "closed"

    def test_failed_probe_doubles_cooldown(self):
        tracker, clock = self.make()
        for _ in range(3):
            tracker.record_failure("w1")
        clock.advance(1.0)
        assert tracker.available("w1")
        tracker.record_failure("w1")  # probe fails
        assert tracker.state("w1") == "open"
        clock.advance(1.0)
        assert not tracker.available("w1")  # cooldown doubled to 2s
        clock.advance(1.0)
        assert tracker.available("w1")

    def test_cooldown_capped(self):
        tracker, clock = self.make(cooldown=10.0, max_cooldown=15.0)
        for _ in range(3):
            tracker.record_failure("w1")
        clock.advance(10.0)
        assert tracker.available("w1")
        tracker.record_failure("w1")
        snap = tracker.snapshot()["w1"]
        assert snap.cooldown == 15.0

    def test_servers_tracked_independently(self):
        tracker, _ = self.make()
        for _ in range(3):
            tracker.record_failure("w1")
        assert not tracker.available("w1")
        assert tracker.available("w2")

    def test_snapshot_is_a_copy(self):
        tracker, _ = self.make()
        tracker.record_failure("w1")
        snap = tracker.snapshot()
        snap["w1"].failures = 99
        assert tracker.snapshot()["w1"].failures == 1
