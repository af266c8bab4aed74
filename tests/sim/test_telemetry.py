"""Tests for the run-telemetry subsystem: sinks, spans, traces, series.

Covers the satellite/acceptance items of the telemetry work: bit-exact
JSONL round trips, ring-bounded memory under a pressure replay with the
streaming sink still seeing every event, span reconstruction matching
the simulator's own request records, Chrome ``trace_event`` schema
validity, time-series start accounting, and the differential proof that
attaching telemetry leaves simulation outcomes bit-identical.
"""

import json

import numpy as np
import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import Event, EventKind, EventLog
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import StartType
from repro.sim.telemetry import (JsonlSink, RingSink, SpanBuilder,
                                 TimeSeriesRecorder, build_spans,
                                 chrome_trace, event_from_dict,
                                 event_to_dict, read_events_jsonl,
                                 write_chrome_trace)
from repro.traces.azure import azure_trace
from repro.traces.synth import ArrivalModel, synth_trace


def pressure_trace(seed=101):
    return synth_trace(f"telemetry-{seed}", np.random.default_rng(seed),
                       n_functions=8, total_requests=900,
                       duration_ms=120_000.0,
                       arrivals=ArrivalModel(burst_size_p=0.4))


def replay(trace, capacity_gb=2.0, policy="CIDRE", event_log=None,
           recorder=None):
    config = SimulationConfig(capacity_gb=capacity_gb)
    orchestrator = Orchestrator(trace.functions,
                                policy_factories()[policy](trace), config,
                                event_log=event_log, recorder=recorder)
    result = orchestrator.run(trace.fresh_requests())
    return orchestrator, result


class Traced:
    """One fully-instrumented pressure replay shared across tests."""

    def __init__(self):
        self.log = EventLog()
        self.spans = SpanBuilder()
        self.log.attach(self.spans)
        self.recorder = TimeSeriesRecorder(interval_ms=1_000.0)
        self.orch, self.result = replay(pressure_trace(),
                                        event_log=self.log,
                                        recorder=self.recorder)


@pytest.fixture(scope="module")
def traced():
    return Traced()


# ======================================================================
# Serialization + sinks


class TestSerialization:
    def test_event_dict_roundtrip(self):
        full = Event(12.5, EventKind.EXEC_START, "fn", container_id=3,
                     req_id=7, detail="cold", worker_id=1)
        sparse = Event(0.0, EventKind.ARRIVAL, "fn")
        for event in (full, sparse):
            assert event_from_dict(event_to_dict(event)) == event
        # Sparse events omit the None/empty fields entirely.
        assert set(event_to_dict(sparse)) == {"t", "kind", "func"}

    def test_jsonl_roundtrip_is_bit_exact(self, traced, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            for event in traced.log:
                sink.emit(event)
        loaded = read_events_jsonl(path)
        assert loaded == list(traced.log)   # dataclass eq: every field
        assert sink.emitted == len(traced.log)

    def test_jsonl_sink_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit(Event(1.0, EventKind.ARRIVAL, "fn", req_id=0))
        sink.close()
        sink.close()   # idempotent
        assert len(read_events_jsonl(path)) == 1


class TestRingSink:
    def test_keeps_newest(self):
        ring = RingSink(capacity=3)
        for i in range(10):
            ring.emit(Event(float(i), EventKind.ARRIVAL, "fn", req_id=i))
        assert len(ring) == 3
        assert [e.req_id for e in ring] == [7, 8, 9]
        assert ring.emitted == 10
        assert ring.dropped == 7

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingSink(0)


class TestBoundedPressureReplay:
    """Acceptance: a large pressure replay with a streaming sink keeps
    the in-memory EventLog bounded by the ring capacity while the sink
    sees the complete stream."""

    def test_ring_bounded_with_complete_jsonl(self, tmp_path):
        trace = azure_trace(seed=1, total_requests=20_000)
        jsonl = JsonlSink(tmp_path / "pressure.jsonl")
        ring = RingSink(capacity=256)
        log = EventLog(capacity=4_096, sinks=(jsonl, ring))
        _, result = replay(trace, capacity_gb=2.0, event_log=log)
        log.close()

        assert result.total >= 15_000
        assert result.evictions > 0              # really under pressure
        assert len(log) == 4_096                 # memory bound held
        assert log.recorded == len(log) + log.dropped
        assert jsonl.emitted == log.recorded     # sink saw every event
        loaded = read_events_jsonl(jsonl.path)
        assert len(loaded) == log.recorded
        # The bounded buffer holds exactly the newest events.
        assert loaded[-len(log):] == list(log)
        assert ring.emitted == log.recorded
        assert list(ring) == loaded[-len(ring):]


# ======================================================================
# Spans


class TestSpans:
    def test_spans_match_request_records(self, traced):
        spans = {s.req_id: s for s in traced.spans.finish()}
        completed = [r for r in traced.result.requests if r.completed]
        assert len(completed) > 0
        for r in completed:
            span = spans[r.req_id]
            assert span.func == r.func
            assert span.arrival_ms == r.arrival_ms
            assert span.exec_start_ms == r.start_ms
            assert span.exec_end_ms == r.end_ms
            assert span.wait_ms == r.wait_ms
            assert span.service_ms == r.service_ms
            assert span.start_type == r.start_type.value
            assert span.container_id == r.container_id
            assert span.completed

    def test_cold_spans_carry_provision_window(self, traced):
        cold = [s for s in traced.spans.finish()
                if s.start_type == "cold" and s.completed]
        assert cold
        for span in cold:
            assert span.provision_start_ms is not None
            assert span.provision_ready_ms is not None
            assert span.provision_start_ms < span.provision_ready_ms
            assert span.provision_ready_ms <= span.exec_start_ms

    def test_streaming_equals_offline_fold(self, traced):
        offline = build_spans(list(traced.log))
        assert offline == traced.spans.finish()

    def test_container_tracks(self, traced):
        evicted = [t for t in traced.spans.containers.values()
                   if t.evicted_ms is not None]
        assert len(evicted) == traced.result.evictions
        for track in traced.spans.containers.values():
            assert track.worker_id is not None
            for window in track.provisions:
                assert window.ready_ms is None or \
                    window.ready_ms >= window.start_ms


# ======================================================================
# Chrome trace export


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def payload(self, traced):
        return chrome_trace(traced.spans)

    def test_is_json_serializable(self, payload):
        text = json.dumps(payload)
        assert json.loads(text) == payload

    def test_schema(self, payload):
        events = payload["traceEvents"]
        assert events
        named_pids = set()
        for entry in events:
            assert {"ph", "pid", "name"} <= set(entry)
            if entry["ph"] == "M" and entry["name"] == "process_name":
                named_pids.add(entry["pid"])
            if entry["ph"] == "X":
                assert entry["ts"] >= 0.0
                assert entry["dur"] >= 0.0
                assert "tid" in entry
            if entry["ph"] in ("b", "e"):
                assert "id" in entry and "cat" in entry
        # Every referenced pid has a process_name metadata record.
        assert {e["pid"] for e in events} == named_pids

    def test_async_pairs_balanced(self, payload, traced):
        begins = {}
        ends = {}
        for entry in payload["traceEvents"]:
            if entry["ph"] == "b":
                begins[(entry["pid"], entry["id"])] = entry["ts"]
            elif entry["ph"] == "e":
                ends[(entry["pid"], entry["id"])] = entry["ts"]
        assert set(begins) == set(ends)
        assert all(begins[k] <= ends[k] for k in begins)
        completed = sum(1 for r in traced.result.requests if r.completed)
        assert len(begins) == completed

    def test_exec_slices_cover_requests(self, payload, traced):
        execs = [e for e in payload["traceEvents"]
                 if e["ph"] == "X" and e.get("cat") == "exec"]
        completed = [r for r in traced.result.requests if r.completed]
        assert len(execs) == len(completed)
        by_rid = {e["args"]["req_id"]: e for e in execs}
        r = completed[0]
        entry = by_rid[r.req_id]
        assert entry["ts"] == pytest.approx(r.start_ms * 1000.0)
        assert entry["dur"] == pytest.approx((r.end_ms - r.start_ms)
                                             * 1000.0)

    def test_write_chrome_trace(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        payload = write_chrome_trace(path, traced.spans)
        with open(path) as fh:
            assert json.load(fh) == payload


# ======================================================================
# Time series


class TestTimeSeries:
    def test_start_totals_match_result(self, traced):
        cluster = traced.recorder.cluster
        for start_type in StartType:
            assert sum(cluster.starts[start_type.value]) == \
                traced.result.count(start_type)

    def test_function_starts_sum_to_cluster(self, traced):
        recorder = traced.recorder
        for kind in ("warm", "delayed", "cold"):
            per_func = sum(sum(s.starts[kind])
                           for s in recorder.functions.values())
            assert per_func == sum(recorder.cluster.starts[kind])

    def test_sampling_grid(self, traced):
        cluster = traced.recorder.cluster
        assert len(cluster) > 10
        times = cluster.times
        assert all(a < b for a, b in zip(times, times[1:]))
        # Periodic ticks land on the interval grid (final flush may not).
        assert times[1] - times[0] == pytest.approx(1_000.0)
        # Function series sample the tail of the cluster grid.
        for series in traced.recorder.functions.values():
            assert series.times == times[-len(series):]
            assert series.warm == [i + b for i, b in
                                   zip(series.idle, series.busy)]

    def test_points_and_rates(self, traced):
        cluster = traced.recorder.cluster
        points = cluster.points("warm")
        assert points == list(zip(cluster.times, cluster.warm))
        starts = cluster.points("cold_starts")
        assert [v for _, v in starts] == cluster.starts["cold"]
        rates = cluster.start_rate_per_sec("cold", 1_000.0)
        assert [v for _, v in rates] == cluster.starts["cold"]

    def test_as_dict_roundtrips_through_json(self, traced, tmp_path):
        path = tmp_path / "series.json"
        traced.recorder.save_json(path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == traced.recorder.as_dict()
        assert loaded["interval_ms"] == 1_000.0
        assert set(loaded["functions"]) == set(traced.recorder.functions)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(interval_ms=0.0)


class _OneWorker:
    """Orchestrator and worker stand-in: ``state`` maps each hosted
    function to its ``(idle, busy, provisioning, memory_mb)``."""

    used_mb = 0.0

    def __init__(self):
        self.now = 0.0
        self.state = {}

    def workers(self):
        return [self]

    def census(self):
        return [(func, *counts) for func, counts in self.state.items()]


#: Per tick: hosted functions, then the starts noted before the tick.
SCRIPT = [
    ({"a": (1, 0, 0, 128.0)}, {}),
    ({"a": (1, 0, 0, 128.0)}, {"b": "cold"}),
    ({}, {}),
    ({}, {"a": "warm"}),
    ({"b": (0, 1, 0, 64.0)}, {}),
    ({}, {}),
    ({}, {}),
    ({"a": (0, 0, 1, 128.0)}, {}),
    ({}, {}),
]


def _expected_rows(script):
    """Every function seen so far gets one row per tick."""
    rows = {}
    for counts, starts in script:
        for func in list(counts) + list(starts):
            rows.setdefault(func, [])
        for func, series in rows.items():
            idle, busy, prov, mb = counts.get(func, (0, 0, 0, 0.0))
            start = starts.get(func)
            series.append((idle, busy, prov, mb,
                           int(start == "warm"), int(start == "delayed"),
                           int(start == "cold")))
    return rows


class TestQuietSeries:
    """A function with no container and no start is left alone by the
    recorder and owes zero rows, materialised when read or sampled."""

    @staticmethod
    def _replay(script, read_after=()):
        recorder = TimeSeriesRecorder(1_000.0)
        orch = _OneWorker()
        reads = {}
        for tick, (counts, starts) in enumerate(script):
            for func, start_type in starts.items():
                recorder.note_start(func, start_type, orch.now)
            orch.state = counts
            orch.now = 1_000.0 * tick
            recorder.sample(orch)
            if tick in read_after:
                reads[tick] = {f: s.as_dict()
                               for f, s in recorder.functions.items()}
        return recorder, reads

    @staticmethod
    def _as_rows(series_dict):
        starts = series_dict["starts"]
        return list(zip(series_dict["idle"], series_dict["busy"],
                        series_dict["provisioning"],
                        series_dict["memory_mb"], starts["warm"],
                        starts["delayed"], starts["cold"]))

    def test_rows_match_one_row_per_tick(self):
        recorder, _ = self._replay(SCRIPT)
        expected = _expected_rows(SCRIPT)
        assert list(recorder.functions) == ["a", "b"]
        grid = recorder.cluster.times
        for func, rows in expected.items():
            series = recorder.functions[func]
            assert len(series) == len(rows)
            assert series.times == grid[-len(rows):]
            assert self._as_rows(series.as_dict()) == rows
            assert series.warm == [r[0] + r[1] for r in rows]

    def test_reads_mid_run_see_every_tick_so_far(self):
        recorder, reads = self._replay(SCRIPT, read_after=(2, 5, 6))
        for tick, snapshot in reads.items():
            expected = _expected_rows(SCRIPT[:tick + 1])
            for func, rows in expected.items():
                assert self._as_rows(snapshot[func]) == rows
        # Reading mid-run changes nothing that is read later.
        fresh, _ = self._replay(SCRIPT)
        assert recorder.as_dict() == fresh.as_dict()

    def test_unchanged_rows_share_one_tuple(self):
        recorder, _ = self._replay(SCRIPT)
        series = recorder.functions["a"]
        len(series)  # materialise the owed rows
        rows = series._rows
        assert rows[0] is rows[1]          # same counts, no start
        assert rows[2] is rows[4] is rows[6]   # zero rows
        assert rows[3] is not rows[2]      # a warm start

    def test_columns_follow_appends(self):
        recorder = TimeSeriesRecorder(1_000.0)
        orch = _OneWorker()
        orch.state = {"a": (2, 1, 0, 256.0)}
        recorder.sample(orch)
        series = recorder.functions["a"]
        assert series.warm == [3]
        orch.state, orch.now = {}, 1_000.0
        recorder.sample(orch)
        assert series.warm == [3, 0]
        assert series.memory_mb == [256.0, 0.0]


# ======================================================================
# Telemetry must not perturb the simulation


def _normalized_events(events):
    """Event tuples with container ids rebased to the first observed id
    (ids come from a process-global counter, so two runs differ by a
    constant offset)."""
    base = None
    out = []
    for e in events:
        cid = None
        if e.container_id is not None:
            if base is None:
                base = e.container_id
            cid = e.container_id - base
        out.append((e.time_ms, e.kind.value, e.func, cid, e.req_id,
                    e.detail, e.worker_id))
    return out


class TestTelemetryIsReadOnly:
    def test_instrumented_run_is_bit_identical(self, tmp_path):
        trace = pressure_trace(seed=202)

        bare_log = EventLog()
        _, bare = replay(trace, event_log=bare_log)

        jsonl = JsonlSink(tmp_path / "events.jsonl")
        full_log = EventLog(capacity=128, sinks=(jsonl, SpanBuilder()))
        _, instrumented = replay(trace, event_log=full_log,
                                 recorder=TimeSeriesRecorder(500.0))
        full_log.close()

        assert bare.summary() == instrumented.summary()
        tuples = lambda res: [(r.req_id, r.start_type, r.start_ms,
                               r.end_ms) for r in res.requests]
        assert tuples(bare) == tuples(instrumented)
        # The streamed event log matches the unbounded in-memory one.
        streamed = read_events_jsonl(jsonl.path)
        assert _normalized_events(streamed) == \
            _normalized_events(list(bare_log))

    def test_recorder_disabled_by_default(self):
        orch, _ = replay(pressure_trace())
        assert orch.recorder is None
        assert orch.event_log is None
