"""Tests for the structured event log."""

import numpy as np
import pytest

from repro.policies.lru import LRUPolicy
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import Event, EventKind, EventLog
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request


def run_logged(reqs, capacity_gb=1.0, functions=None):
    log = EventLog()
    functions = functions or [FunctionSpec("fn", 100.0, 500.0)]
    orch = Orchestrator(functions, LRUPolicy(),
                        SimulationConfig(capacity_gb=capacity_gb),
                        event_log=log)
    result = orch.run(reqs)
    return log, result


class TestEventLog:
    def test_lifecycle_events_recorded(self):
        log, _ = run_logged([Request("fn", 0.0, 100.0)])
        kinds = [e.kind for e in log]
        assert kinds == [EventKind.ARRIVAL, EventKind.PROVISION_START,
                         EventKind.CONTAINER_READY, EventKind.EXEC_START,
                         EventKind.EXEC_END]

    def test_warm_start_has_no_provision(self):
        log, _ = run_logged([Request("fn", 0.0, 100.0),
                             Request("fn", 1_000.0, 100.0)])
        assert len(log.of_kind(EventKind.PROVISION_START)) == 1
        starts = log.of_kind(EventKind.EXEC_START)
        assert starts[0].detail == "cold"
        assert starts[1].detail == "warm"

    def test_eviction_logged(self):
        functions = [FunctionSpec("a", 100.0, 500.0),
                     FunctionSpec("b", 100.0, 500.0)]
        log, _ = run_logged([Request("a", 0.0, 10.0),
                             Request("b", 1_000.0, 10.0)],
                            capacity_gb=100.0 / 1024.0,
                            functions=functions)
        evictions = log.of_kind(EventKind.EVICTION)
        assert len(evictions) == 1
        assert evictions[0].func == "a"

    def test_explain_request(self):
        log, result = run_logged([Request("fn", 0.0, 100.0)])
        story = log.explain_request(result.requests[0].req_id)
        kinds = [e.kind for e in story]
        assert EventKind.PROVISION_START in kinds
        assert EventKind.EXEC_START in kinds
        assert EventKind.EXEC_END in kinds

    def test_queries_by_func_and_container(self):
        log, result = run_logged([Request("fn", 0.0, 100.0)])
        assert len(log.of_func("fn")) == len(log)
        cid = result.requests[0].container_id
        assert any(e.kind is EventKind.CONTAINER_READY
                   for e in log.of_container(cid))

    def test_render_and_str(self):
        log, _ = run_logged([Request("fn", 0.0, 100.0)])
        text = log.render()
        assert "arrival" in text and "exec_start" in text
        assert str(log.events[0])

    def test_capacity_bound(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.record(float(i), EventKind.ARRIVAL, "f")
        assert len(log) <= 4 + 2
        assert log.dropped > 0

    def test_capacity_dropped_accounting(self):
        # Regression: the old purge-half implementation incremented
        # ``dropped`` by 1 while discarding capacity//2 events.
        log = EventLog(capacity=4)
        for i in range(10):
            log.record(float(i), EventKind.ARRIVAL, "f", req_id=i)
        assert len(log) == 4
        assert log.dropped == 6
        assert log.recorded == 10
        # Oldest events drop first; the newest survive in order.
        assert [e.req_id for e in log] == [6, 7, 8, 9]

    def test_capacity_zero_is_sink_only(self):
        log = EventLog(capacity=0)
        for i in range(3):
            log.record(float(i), EventKind.ARRIVAL, "f", req_id=i)
        assert len(log) == 0
        assert log.dropped == 3
        assert log.recorded == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=-1)

    def test_explain_request_orders_same_tick_by_lifecycle(self):
        # Regression: same-timestamp events were ordered by kind.value
        # (alphabetical), which puts eviction before exec_end. Record
        # a same-tick provision -> ready -> exec -> evict story in a
        # deliberately scrambled order and expect the causal order back.
        log = EventLog()
        t = 100.0
        log.record(t, EventKind.EVICTION, "f", container_id=1)
        log.record(t, EventKind.EXEC_END, "f", container_id=1, req_id=0)
        log.record(t, EventKind.EXEC_START, "f", container_id=1, req_id=0)
        log.record(t, EventKind.CONTAINER_READY, "f", container_id=1)
        log.record(t, EventKind.PROVISION_START, "f", container_id=1)
        log.record(t - 50.0, EventKind.ARRIVAL, "f", req_id=0)
        story = log.explain_request(0)
        assert [e.kind for e in story] == [
            EventKind.ARRIVAL, EventKind.PROVISION_START,
            EventKind.CONTAINER_READY, EventKind.EXEC_START,
            EventKind.EXEC_END, EventKind.EVICTION]

    def test_disabled_by_default(self):
        orch = Orchestrator([FunctionSpec("fn", 100.0, 500.0)],
                            LRUPolicy(),
                            SimulationConfig(capacity_gb=1.0))
        orch.run([Request("fn", 0.0, 10.0)])
        assert orch.event_log is None


class TestEventRecord:
    """``Event`` is tuple-backed; its fields, defaults and text forms are
    those of the frozen dataclass it replaced."""

    def test_fields_defaults_and_text(self):
        event = Event(1.5, EventKind.ARRIVAL, "fn")
        assert Event._fields == ("time_ms", "kind", "func", "container_id",
                                 "req_id", "detail", "worker_id")
        assert (event.container_id, event.req_id, event.detail,
                event.worker_id) == (None, None, "", None)
        assert repr(event) == ("Event(time_ms=1.5, kind=<EventKind.ARRIVAL:"
                               " 'arrival'>, func='fn', container_id=None,"
                               " req_id=None, detail='', worker_id=None)")
        full = Event(2.0, EventKind.EXEC_START, "fn", 3, 4, "warm", 0)
        assert str(full) == "  ".join([f"{2.0:12.3f}", "exec_start", "fn",
                                       "w0", "c3", "r4", "warm"])
        with pytest.raises(AttributeError):
            full.detail = "cold"

    def test_record_builds_the_same_event(self):
        seen = []

        class Sink:
            def emit(self, event):
                seen.append(event)

        args = (2.0, EventKind.EXEC_START, "fn", 3, 4, "warm", 0)
        log = EventLog(sinks=[Sink()])
        log.record(*args)
        EventLog().record(*args)  # no sinks attached
        assert list(log) == seen == [Event(*args)]
        assert type(seen[0]) is Event


class TestColumnStore:
    """The log keeps columns; :attr:`EventLog.events` and the queries
    rebuild the events that were recorded."""

    ARGS = [(float(i), EventKind.EXEC_START if i % 2 else EventKind.ARRIVAL,
             f"f{i % 3}", i if i % 4 else None, 10 + i, "warm" if i else "",
             0 if i % 5 else None) for i in range(10)]

    def _log(self, capacity=None, sinks=()):
        log = EventLog(capacity=capacity, sinks=sinks)
        for args in self.ARGS:
            log.record(*args)
        return log

    def test_view_len_iteration_and_indexing(self):
        log = self._log()
        expected = [Event(*args) for args in self.ARGS]
        view = log.events
        assert len(view) == len(log) == 10
        assert list(view) == list(log) == expected
        assert [view[i] for i in range(10)] == expected
        assert view[-1] == expected[-1] and view[-10] == expected[0]
        assert view[2:5] == expected[2:5]
        assert all(type(e) is Event for e in view)
        for index in (10, -11):
            with pytest.raises(IndexError):
                view[index]
        with pytest.raises(TypeError):
            view[0] = expected[0]

    def test_ids_keep_zero_and_none_apart(self):
        log = self._log()
        assert log.events[0].container_id is None
        assert log.events[0].worker_id is None
        assert log.events[1].worker_id == 0
        assert log.of_container(None) == [
            e for e in log if e.container_id is None]

    def test_times_read_back_as_float(self):
        log = EventLog()
        log.record(np.float64(2.5), EventKind.ARRIVAL, "f")
        (event,) = log
        assert type(event.time_ms) is float and event.time_ms == 2.5

    def test_rotated_ring_counts_and_order(self):
        log = self._log(capacity=4)
        assert (len(log), log.dropped, log.recorded) == (4, 6, 10)
        expected = [Event(*args) for args in self.ARGS[6:]]
        assert list(log) == list(log.events) == expected
        assert log.events[0] == expected[0]
        assert log.events[-1] == expected[-1]
        assert log.of_kind(EventKind.ARRIVAL) == expected[::2]
        assert log.of_func("f1") == [e for e in expected if e.func == "f1"]

    def test_sinks_see_every_record_and_capacity_zero_keeps_none(self):
        seen = []

        class Sink:
            def emit(self, event):
                seen.append(event)

        log = self._log(capacity=0, sinks=[Sink()])
        assert seen == [Event(*args) for args in self.ARGS]
        assert len(log) == 0 and list(log) == [] and list(log.events) == []
        assert (log.dropped, log.recorded) == (10, 10)

    def test_queries_on_a_rotated_ring(self):
        log = EventLog(capacity=5)
        log.record(0.0, EventKind.ARRIVAL, "f", req_id=1)
        log.record(1.0, EventKind.PROVISION_START, "f", container_id=7,
                   detail="bound")
        for t in (2.0, 3.0):
            log.record(t, EventKind.ARRIVAL, "g", req_id=int(t))
        log.record(4.0, EventKind.CONTAINER_READY, "f", container_id=7)
        log.record(5.0, EventKind.EXEC_START, "f", container_id=7,
                   req_id=1, detail="cold")
        # The ring now starts at the provision: the arrival rotated out.
        assert log.dropped == 1
        assert log.cold_start_of(1) == Event(
            1.0, EventKind.PROVISION_START, "f", 7, None, "bound")
        assert [e.time_ms for e in log.explain_request(1)] == [1.0, 4.0, 5.0]
        assert log.cold_start_of(2) is None
