"""Tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.net.events import EventQueue


class TestScheduling:
    def test_runs_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(3.0, order.append, "c")
        q.schedule(1.0, order.append, "a")
        q.schedule(2.0, order.append, "b")
        q.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        q = EventQueue()
        order = []
        for name in "abc":
            q.schedule(1.0, order.append, name)
        q.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        order = []
        q.schedule(1.0, order.append, "low", priority=1)
        q.schedule(1.0, order.append, "high", priority=0)
        q.run()
        assert order == ["high", "low"]

    def test_clock_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(2.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [2.5] and q.now == 2.5

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1.0, lambda: None)

    def test_schedule_abs_at_absolute_time(self):
        q = EventQueue()
        seen = []
        q.schedule_abs(4.0, lambda: seen.append(q.now))
        q.run()
        assert seen == [4.0]

    def test_nested_scheduling(self):
        q = EventQueue()
        seen = []

        def outer():
            q.schedule(1.0, lambda: seen.append(q.now))

        q.schedule(1.0, outer)
        q.run()
        assert seen == [2.0]


class TestScheduleAbs:
    def test_lands_at_bit_exact_time(self):
        # A pair where now + (when - now) rounds one ulp away from when;
        # schedule_abs must not take that detour.
        now = 9.173988086863538e-06
        when = 1.8628264379002524
        assert now + (when - now) != when  # the pair stays adversarial
        q = EventQueue()
        q.schedule(now, lambda: None)
        q.run()
        seen = []
        q.schedule_abs(when, lambda: seen.append(q.now))
        q.run()
        assert seen == [when]

    def test_past_rejected(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule_abs(0.5, lambda: None)

    def test_now_is_allowed(self):
        q = EventQueue()
        seen = []
        q.schedule_abs(0.0, seen.append, "x")
        q.run()
        assert seen == ["x"]


class TestPeek:
    def test_peek_returns_next_live_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(2.0, lambda: None)
        ev = q.schedule(1.0, lambda: None)
        assert q.peek_time() == 1.0
        ev.cancel()
        assert q.peek_time() == 2.0
        assert len(q) == 1

    def test_peek_does_not_advance_clock(self):
        q = EventQueue()
        q.schedule(3.0, lambda: None)
        q.peek_time()
        assert q.now == 0.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        seen = []
        ev = q.schedule(1.0, seen.append, "x")
        ev.cancel()
        q.run()
        assert seen == []

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, seen.append, "early")
        q.schedule(5.0, seen.append, "late")
        q.run_until(2.0)
        assert seen == ["early"] and q.now == 2.0
        q.run_until(10.0)
        assert seen == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        q = EventQueue()
        q.run_until(7.0)
        assert q.now == 7.0

    def test_run_max_events(self):
        q = EventQueue()
        for _ in range(5):
            q.schedule(1.0, lambda: None)
        assert q.run(max_events=3) == 3
        assert len(q) == 2


class TestLiveCounter:
    """len() is a maintained counter, so every cancel edge case must keep
    it exact — a drifting counter would silently stall run loops that use
    empty() to terminate."""

    def test_cancel_after_run_is_noop(self):
        q = EventQueue()
        seen = []
        ev = q.schedule(1.0, seen.append, "x")
        q.schedule(2.0, seen.append, "y")
        q.step()
        ev.cancel()  # timer cleanup racing its own firing
        assert seen == ["x"]
        assert len(q) == 1 and not q.empty()
        q.run()
        assert seen == ["x", "y"]
        assert len(q) == 0 and q.empty()

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert len(q) == 0 and q.empty()

    def test_ordering_is_event_native(self):
        q = EventQueue()
        a = q.schedule(1.0, lambda: None)
        b = q.schedule(1.0, lambda: None, priority=-1)
        c = q.schedule(0.5, lambda: None)
        assert c < b < a  # time first, then priority, then sequence
