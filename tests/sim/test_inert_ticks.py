"""Exactness of the closed-form advance of inert periodic ticks.

Under ``SimulationConfig.fast_forward`` the maintenance handle carries a
horizon, and the run loop advances every tick before it, up to the next
other event, in one :meth:`Simulator.advance_periodic` step, in busy
periods as well as idle gaps. The promise is that nothing observable
moves: the clock, ``processed``, the sequence counter and every future
``(time, seq)`` tie-break end where firing each tick would leave them.

The engine cases run one setup twice, classic and with a horizon, and
compare what the real events observe (clock, ``processed``, the next
sequence number) plus the final counters. Each covers one edge: a tie
with a heap entry, a tie with a stream row, ``until`` on a tick, a tick
exactly at the horizon, a stopped handle, the terminal tick, and dead
heap entries on either side of the boundary.

The orchestrator grid replays with ``fast_forward`` off and on and
compares a digest of requests, summary and events, the event-log bytes,
the recorder series, ``processed`` and the final sequence counter. Its
main trace is integer-millisecond with arrivals, cold starts and
executions on the 100 ms maintenance grid, so completions, readies,
crashes and stream rows tie with ticks exactly.
"""

import hashlib
import json
import random
from math import inf

import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.engine import Simulator
from repro.sim.eventlog import EventLog
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.sim.telemetry import TimeSeriesRecorder, event_to_dict
from repro.traces.azure import azure_trace
from repro.traces.schema import Trace

# ======================================================================
# Engine: twin runs, classic and with a horizon


def _probe(sim, log, name):
    """A real event's callback: logs what it observes, drawing one
    sequence number (the same draw in both twins)."""
    def fire():
        log.append((name, sim.now, sim.processed, sim.draw_seq(sim.now)))
    return fire


def _count_skips(sim):
    """Wrap ``sim.advance_periodic`` to count the ticks it advances."""
    skipped = [0]
    advance = sim.advance_periodic

    def counted(boundary, replay):
        ticks = advance(boundary, replay)
        skipped[0] += ticks
        return ticks

    sim.advance_periodic = counted
    return skipped


def _twins(build, horizon, until=None):
    """Run ``build(sim, log) -> handle`` classic and with ``horizon`` on
    the handle; return both observations and the ticks skipped."""
    out = []
    for h in (None, horizon):
        sim = Simulator()
        log = []
        handle = build(sim, log)
        handle.horizon = h
        skipped = _count_skips(sim)
        if until is not None:
            sim.run(until=until)
            log.append(("paused", sim.now, sim.processed, next(sim._seq)))
        sim.run()
        assert sim._scan_counts() == (sim._live, sim._real)
        out.append(((log, sim.processed, next(sim._seq), sim.now),
                    skipped[0]))
    (classic, none_skipped), (closed, skipped) = out
    assert none_skipped == 0
    assert closed == classic
    return classic, skipped


def _always_inert():
    return inf


class TestInertTicks:
    def test_tick_ties_older_heap_entry_and_goes_after_it(self):
        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            sim.at(30.0, _probe(sim, log, "old"))
            sim.at(35.0, lambda: sim.at(40.0, _probe(sim, log, "new")))
            sim.at(55.0, _probe(sim, log, "end"))
            return handle

        (log, _, _, now), skipped = _twins(build, _always_inert)
        # "old" holds an older seq than the tick re-armed at 20 and fires
        # first; "new" was queued after the tick at 40 and fires after.
        assert [entry[:3] for entry in log] == [
            ("old", 30.0, 3), ("new", 40.0, 7), ("end", 55.0, 9)]
        assert now == 60.0          # the terminal tick still pops
        assert skipped == 5

    def test_stream_row_wins_tie_with_tick(self):
        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            sim.bind_stream([30.0, 30.0, 70.0], lambda lo, hi: log.append(
                ("rows", lo, hi, sim.now, sim.processed)))
            return handle

        (log, processed, _, now), skipped = _twins(build, _always_inert)
        assert log == [("rows", 0, 2, 30.0, 4), ("rows", 2, 3, 70.0, 9)]
        assert (processed, now) == (10, 70.0)
        assert skipped == 6

    @pytest.mark.parametrize("until", [30.0, 35.0])
    def test_until_on_and_between_ticks(self, until):
        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            sim.at(100.0, _probe(sim, log, "real"))
            return handle

        (log, _, _, _), skipped = _twins(build, _always_inert, until=until)
        assert log[0][:3] == ("paused", until, 3)
        assert log[1][:3] == ("real", 100.0, 10)
        assert skipped == 9

    def test_tick_exactly_at_horizon_fires(self):
        def build(sim, log):
            def tick():
                if sim.now >= 30.0:
                    log.append(("tick", sim.now))
            handle = sim.every(10.0, tick)
            sim.at(65.0, _probe(sim, log, "real"))
            return handle

        (log, _, _, _), skipped = _twins(build, lambda: 30.0)
        assert [entry[:2] for entry in log] == [
            ("tick", 30.0), ("tick", 40.0), ("tick", 50.0), ("tick", 60.0),
            ("real", 65.0)]
        assert skipped == 2

    def test_stopped_handle_is_not_asked(self):
        asked = []

        def horizon():
            asked.append(1)
            return inf

        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            handle.stopped = True   # stopped, its tick left queued
            sim.at(35.0, _probe(sim, log, "real"))
            return handle

        (log, processed, _, _), skipped = _twins(build, horizon)
        assert (processed, skipped, asked) == (2, 0, [])

    def test_terminal_tick_fires_without_asking(self):
        asked = []

        def horizon():
            asked.append(1)
            return inf

        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            sim.at(25.0, _probe(sim, log, "real"))
            return handle

        (_, processed, _, now), skipped = _twins(build, horizon)
        # Ticks 10 and 20 in one advance; the tick at 30 finds no real
        # event left and ends the chain as the classic loop does.
        assert (processed, now, skipped, len(asked)) == (4, 30.0, 2, 1)

    def test_dead_heads_below_boundary(self):
        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            sim.at(15.0, _probe(sim, log, "cancelled")).cancel()
            moved = sim.at(25.0, _probe(sim, log, "moved"))
            sim.reschedule(moved, 45.0)     # stale entry left at 25
            sim.at(60.0, _probe(sim, log, "end"))
            return handle

        (log, _, _, _), skipped = _twins(build, _always_inert)
        assert [entry[:2] for entry in log] == [("moved", 45.0),
                                                ("end", 60.0)]
        assert skipped == 5

    def test_dead_head_past_boundary_survives_revival(self):
        """A stale entry beyond the boundary is left in the heap: the
        stream row at the boundary points its event back at it."""
        def build(sim, log):
            handle = sim.every(10.0, lambda: None)
            event = sim.at(50.0, _probe(sim, log, "revived"))
            key = (event.time, event.seq)
            sim.queue_at(event, 70.0, sim.draw_seq(70.0))   # stale at 50

            def revive(lo, hi):
                sim.queue_at(event, *key, push=False)
            sim.bind_stream([40.0], revive)
            return handle

        (log, _, _, _), skipped = _twins(build, _always_inert)
        assert [entry[:2] for entry in log] == [("revived", 50.0)]
        assert skipped == 4


# ======================================================================
# Orchestrator grid: fast_forward off vs on


def _grid_trace():
    """Integer-ms trace on the 100 ms grid: dense busy spells with
    bursts, separated by gaps, some longer than TTL's ten minutes."""
    rng = random.Random(19)
    functions = [FunctionSpec(f"fn-{i}", memory_mb=float(128 * (1 + i % 4)),
                              cold_start_ms=float(100 * (2 + i % 5)))
                 for i in range(8)]
    requests = []
    t = 0
    for gap in (0, 200_000, 700_000, 30_000, 650_000):
        t += gap
        end = t + 90_000
        while t < end:
            hot = functions[:3] if rng.random() < 0.7 else functions
            for _ in range(rng.randint(3, 10) if rng.random() < 0.2 else 1):
                # Mostly on the grid; an off-grid millisecond now and then.
                offset = 0 if rng.random() < 0.8 else rng.randrange(1, 100)
                exec_ms = float(100 * rng.randint(1, 30)
                                + (0 if rng.random() < 0.8 else 37))
                requests.append(Request(rng.choice(hot).name,
                                        float(t + offset), exec_ms))
            t += 100 * rng.choice((1, 2, 3, 5, 10, 20))
    return Trace("grid", functions, requests)


TRACES = {"grid": _grid_trace(),
          "azure": azure_trace(seed=5, total_requests=1_200)}

REGIMES = {
    "plain": {},
    "recorder": {},
    "faults": dict(faults=FaultPlan(crashes=(
        CrashSpec(0, 600_000.0, 30_000.0),
        CrashSpec(0, 1_500_000.0, 200_000.0)))),
    "contention": dict(contention=ContentionModel(cores=1)),
}


def _grid_replay(trace, policy_name, capacity_gb, regime, fast_forward):
    config = SimulationConfig(capacity_gb=capacity_gb,
                              fast_forward=fast_forward, **REGIMES[regime])
    log = EventLog()
    recorder = TimeSeriesRecorder() if regime == "recorder" else None
    orch = Orchestrator(trace.functions,
                        policy_factories()[policy_name](trace), config,
                        event_log=log, recorder=recorder)
    skipped = _count_skips(orch.sim)
    result = orch.run(trace.packed())
    events = []
    base = None
    for e in log:
        d = event_to_dict(e)
        if "cid" in d:
            base = d["cid"] if base is None else base
            d["cid"] -= base
        events.append(json.dumps(d, sort_keys=True))
    event_bytes = "\n".join(events).encode()
    h = hashlib.sha256(event_bytes)
    for r in sorted(result.requests, key=lambda r: r.req_id):
        h.update(repr((r.req_id, r.start_type.value, r.wait_ms,
                       r.service_ms)).encode())
    for key, value in sorted(result.summary().items()):
        h.update(repr((key, float(value))).encode())
    series = (json.dumps(recorder.as_dict()) if recorder is not None
              else None)
    observed = (h.hexdigest(), event_bytes, series, orch.sim.processed,
                next(orch.sim._seq))
    return observed, skipped[0]


GRID = [(trace, policy, gb, regime)
        for trace in ("grid",)
        for policy in ("CIDRE", "TTL", "FaasCache")
        for gb in (2.0, 100.0)
        for regime in REGIMES]
GRID += [("azure", policy, 2.0, regime)
         for policy in ("CIDRE", "TTL") for regime in ("plain", "faults")]


@pytest.mark.parametrize("trace_name,policy_name,capacity_gb,regime", GRID)
def test_fast_forward_matches_classic(trace_name, policy_name, capacity_gb,
                                      regime):
    trace = TRACES[trace_name]
    classic, none_skipped = _grid_replay(trace, policy_name, capacity_gb,
                                         regime, False)
    closed, skipped = _grid_replay(trace, policy_name, capacity_gb, regime,
                                   True)
    assert none_skipped == 0
    for name, a, b in zip(("digest", "event log", "recorder series",
                           "processed", "final seq"), closed, classic):
        assert a == b, f"{name} differs"
    if policy_name == "FaasCache":
        assert skipped == 0     # no maintenance, nothing to skip
    else:
        assert skipped > 0, "no maintenance tick was skipped"
