"""Unit tests for the reliability primitives (retry, dedup, failure
detection, insertion leases)."""

import pytest

from repro.errors import ConfigurationError
from repro.reliability import (
    DedupState,
    DedupWindow,
    FailureDetector,
    LeaseState,
    LeaseTable,
    RetryPolicy,
    TIMED_OUT,
)


class TestRetryPolicy:
    def test_sentinel_is_falsy_singleton(self):
        from repro.reliability.retry import _TimedOut

        assert not TIMED_OUT
        assert _TimedOut() is TIMED_OUT
        assert repr(TIMED_OUT) == "TIMED_OUT"

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(timeout=1e-3, backoff=2.0, jitter=0.0)
        rng = policy.make_rng(7)
        assert policy.delay(0, rng) == pytest.approx(1e-3)
        assert policy.delay(1, rng) == pytest.approx(2e-3)
        assert policy.delay(3, rng) == pytest.approx(8e-3)

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(timeout=1e-3, backoff=2.0, jitter=0.2, seed=42)
        a = [policy.delay(n, policy.make_rng(5)) for n in range(4)]
        b = [policy.delay(n, policy.make_rng(5)) for n in range(4)]
        assert a == b  # same (seed, salt) -> same draws
        for attempt, delay in enumerate(a):
            base = 1e-3 * 2.0 ** attempt
            assert 0.8 * base <= delay <= 1.2 * base
        # A different salt (request) draws different jitter.
        assert policy.delay(0, policy.make_rng(6)) != a[0]

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0.0},
        {"backoff": 0.5},
        {"max_retries": -1},
        {"jitter": 1.0},
        {"jitter": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestDedupWindow:
    def test_lookup_miss_then_applied_hit(self):
        window = DedupWindow()
        assert window.lookup(1, 10) is None
        assert window.hits == 0
        window.note_applied(1, 10, reply_op=99)
        assert window.lookup(1, 10) == (DedupState.APPLIED, 99)
        assert window.hits == 1

    def test_clients_do_not_collide(self):
        window = DedupWindow()
        window.note_applied(1, 10, reply_op=99)
        assert window.lookup(2, 10) is None

    def test_queued_to_applied_transition(self):
        window = DedupWindow()
        window.note_queued(1, 10)
        assert window.lookup(1, 10) == (DedupState.QUEUED, None)
        window.note_applied(1, 10, reply_op=99)
        assert window.lookup(1, 10) == (DedupState.APPLIED, 99)

    def test_eviction_prefers_applied_entries(self):
        window = DedupWindow(capacity=2)
        window.note_queued(1, 1)
        window.note_applied(1, 2, reply_op=9)
        window.note_applied(1, 3, reply_op=9)  # evicts token 2, not 1
        assert window.lookup(1, 1) is not None
        assert window.lookup(1, 2) is None
        assert window.evictions == 1

    def test_eviction_falls_back_to_queued(self):
        window = DedupWindow(capacity=2)
        window.note_queued(1, 1)
        window.note_queued(1, 2)
        window.note_queued(1, 3)  # all QUEUED: the oldest goes
        assert window.lookup(1, 1) is None
        assert len(window) == 2

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            DedupWindow(capacity=0)


class TestFailureDetector:
    def _detector(self, alive, threshold=3):
        return FailureDetector([1, 2], probe=lambda sid: alive[sid],
                               threshold=threshold)

    def test_death_needs_consecutive_misses(self):
        alive = {1: False, 2: True}
        det = self._detector(alive)
        assert det.poll(0.0) == []
        assert det.poll(1.0) == []
        events = det.poll(2.0)
        assert [(e.server, e.alive) for e in events] == [(1, False)]
        assert not det.is_alive(1) and det.is_alive(2)
        assert det.deaths == 1

    def test_one_success_resets_the_count(self):
        alive = {1: False, 2: True}
        det = self._detector(alive)
        det.poll(0.0)
        det.poll(1.0)
        alive[1] = True
        det.poll(2.0)   # reset
        alive[1] = False
        assert det.poll(3.0) == []  # count restarted, not yet dead
        assert det.deaths == 0

    def test_recovery_records_failover_latency(self):
        alive = {1: False, 2: True}
        det = self._detector(alive)
        for t in (0.0, 1.0, 2.0):
            det.poll(t)
        alive[1] = True
        events = det.poll(5.0)
        assert [(e.server, e.alive) for e in events] == [(1, True)]
        assert det.recoveries == 1
        assert det.failover_latencies == [pytest.approx(3.0)]
        assert det.is_alive(1)

    def test_events_log_is_append_only(self):
        alive = {1: False, 2: True}
        det = self._detector(alive, threshold=1)
        det.poll(0.0)
        alive[1] = True
        det.poll(1.0)
        assert [(e.at, e.server, e.alive) for e in det.events] == [
            (0.0, 1, False), (1.0, 1, True)]

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            FailureDetector([1], probe=lambda sid: True, threshold=0)


KEY = b"0123456789abcdef"


class TestLeaseTable:
    def test_grant_complete_lifecycle(self):
        table = LeaseTable(timeout=1.0)
        lease = table.grant(KEY, server=5, now=10.0)
        assert lease.expires_at == pytest.approx(11.0)
        assert len(table) == 1 and table.get(KEY) is lease
        done = table.complete(KEY)
        assert done is lease and done.state is LeaseState.COMPLETED
        assert len(table) == 0 and table.completed == 1

    def test_double_grant_rejected(self):
        table = LeaseTable(timeout=1.0)
        table.grant(KEY, server=5, now=0.0)
        with pytest.raises(ConfigurationError):
            table.grant(KEY, server=6, now=0.5)

    def test_expiry_and_abort(self):
        table = LeaseTable(timeout=1.0)
        lease = table.grant(KEY, server=5, now=0.0)
        assert table.expired(0.5) == []
        assert table.expired(1.0) == [lease]
        gone = table.abort(KEY)
        assert gone.state is LeaseState.ABORTED
        assert table.aborted == 1 and len(table) == 0

    def test_extend_pushes_expiry(self):
        table = LeaseTable(timeout=1.0)
        table.grant(KEY, server=5, now=0.0)
        table.extend(KEY, now=0.9)
        assert table.expired(1.5) == []
        table.extend(b"other-key-0123456", now=0.0)  # unknown: no-op

    def test_complete_or_abort_unknown_is_none(self):
        table = LeaseTable(timeout=1.0)
        assert table.complete(KEY) is None
        assert table.abort(KEY) is None

    def test_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            LeaseTable(timeout=0.0)
