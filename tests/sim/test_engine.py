"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.schedule(5.0, fired.append, "early")
        sim.schedule(7.5, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in ("a", "b", "c"):
            sim.schedule(5.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]
        assert sim.now == 42.0

    def test_absolute_scheduling(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.at(150.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [150.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.at(5.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("outer"),
                                   sim.schedule(0.0, order.append,
                                                "inner")))
        sim.schedule(1.0, order.append, "peer")
        sim.run()
        # The zero-delay event fires after already-queued same-time peers.
        assert order == ["outer", "peer", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()  # should not raise

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(5.0, lambda: None)
        drop = sim.schedule(6.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        assert keep is not drop


class TestRunUntil:
    def test_run_until_stops_and_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.schedule(15.0, fired.append, "b")
        sim.run(until=10.0)
        assert fired == ["a"]
        assert sim.now == 10.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_empty_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestPeriodic:
    def test_periodic_fires_while_real_events_remain(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.schedule(35.0, lambda: None)  # keeps the sim alive to t=35
        sim.run()
        assert ticks == [10.0, 20.0, 30.0]

    def test_periodic_stops_without_real_events(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run()
        assert ticks == []  # nothing real to observe: never runs

    def test_periodic_start_delay(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.schedule(25.0, lambda: None)
        sim.run()
        assert ticks == [0.0, 10.0, 20.0]

    def test_periodic_cancel_stops_chain(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.schedule(15.0, handle.cancel)
        sim.schedule(50.0, lambda: None)
        sim.run()
        assert ticks == [10.0]

    def test_invalid_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_any_delay_set_fires_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, fired.append, d)
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestKeyedQueue:
    """``draw_seq``/``queue_at``: keys drawn now, queued later."""

    def test_pops_in_the_order_reschedule_would(self):
        def replay(keyed):
            sim = Simulator()
            fired = []
            events = [sim.schedule(10.0, fired.append, label)
                      for label in "abc"]
            sim.schedule(4.0, fired.append, "x")
            # Move a and b to the same time as a later event y; the key
            # is drawn where reschedule would draw it, queued after y.
            keys = []
            for event in events[:2]:
                if keyed:
                    keys.append((event, 6.0, sim.draw_seq(6.0)))
                else:
                    sim.reschedule(event, 6.0)
            sim.schedule(6.0, fired.append, "y")
            for event, time, seq in keys:
                sim.queue_at(event, time, seq)
            sim.run()
            return fired

        assert replay(keyed=True) == replay(keyed=False) \
            == ["x", "a", "b", "y", "c"]

    def test_reattaching_a_fired_event_keeps_counters_exact(self):
        sim = Simulator()
        fired = []

        def again(label):
            fired.append((sim.now, label))
            if len(fired) < 3:
                sim.queue_at(event, sim.now + 5.0,
                             sim.draw_seq(sim.now + 5.0), (label * 2,))
                assert sim._scan_counts() == (sim._live, sim._real) == (1, 1)

        event = sim.at(1.0, again, "a")
        sim.run()
        assert fired == [(1.0, "a"), (6.0, "aa"), (11.0, "aaaa")]
        assert sim._scan_counts() == (sim._live, sim._real) == (0, 0)

    def test_returning_to_a_queued_key_fires_once(self):
        sim = Simulator()
        fired = []
        event = sim.at(10.0, fired.append, "e")
        first = (event.time, event.seq)
        sim.queue_at(event, 5.0, sim.draw_seq(5.0))   # moves away
        sim.queue_at(event, *first, push=False)       # and back
        assert sim._scan_counts() == (sim._live, sim._real) == (1, 1)
        sim.run()
        assert fired == ["e"] and sim.now == 10.0

    @pytest.mark.parametrize("bad, message", [
        (1.0, "before now"), (float("inf"), "non-finite"),
        (float("nan"), "non-finite")])
    def test_rejects_past_and_non_finite_times(self, bad, message):
        sim = Simulator(start_time=5.0)
        event = sim.at(7.0, lambda: None)
        with pytest.raises(ValueError, match=message):
            sim.draw_seq(bad)
        with pytest.raises(ValueError, match=message):
            sim.queue_at(event, bad, sim.draw_seq(8.0))

    def test_rejects_cancelled_and_foreign_events(self):
        sim = Simulator()
        event = sim.at(1.0, lambda: None)
        event.cancel()
        with pytest.raises(ValueError, match="cancelled"):
            sim.queue_at(event, 2.0, sim.draw_seq(2.0))
        foreign = Simulator().at(1.0, lambda: None)
        with pytest.raises(ValueError, match="another simulator"):
            sim.queue_at(foreign, 2.0, sim.draw_seq(2.0))
