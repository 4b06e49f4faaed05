"""The flooding oracle's discrete-event queue."""

import pytest

from repro.errors import SimulationError

from ..routing.flooding_oracle import EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(2.0, lambda: log.append("b"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(3.0, lambda: log.append("c"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        log = []
        for label in "xyz":
            q.schedule(1.0, lambda l=label: log.append(l))
        q.run()
        assert log == ["x", "y", "z"]

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        assert q.now == 5.0

    def test_schedule_in(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: q.schedule_in(2.0, lambda: seen.append(q.now)))
        q.run()
        assert seen == [3.0]

    def test_run_until_stops_early(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(10.0, lambda: log.append(10))
        q.run(until=5.0)
        assert log == [1]
        assert q.now == 5.0
        assert q.pending == 1

    def test_resume_after_until(self):
        q = EventQueue()
        log = []
        q.schedule(10.0, lambda: log.append(10))
        q.run(until=5.0)
        q.run()
        assert log == [10]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule(1.0, lambda: None)

    def test_event_storm_guard(self):
        q = EventQueue()

        def rearm():
            q.schedule_in(0.001, rearm)

        q.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            q.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_processed_counter(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), lambda: None)
        q.run()
        assert q.processed == 5
