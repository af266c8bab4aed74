"""Differential tests for the packed-trace replay fast path.

The batched arrival stream and the closed-form advance of inert
maintenance ticks (fast-forward) promise
*bit-identical* outcomes versus the classic schedule-everything-up-front
replay — same tie-breaking, same eviction order, same floats, same
event-log sequence. These tests replay the golden workload grid three
ways — classic reference (``reference_impl=True`` over
``fresh_requests()``), packed stream, and packed stream with
``fast_forward=True`` — and assert exact equality of summaries,
per-request tuples and the complete normalized event log.

Engine-level unit tests pin the stream merge rules documented in
:mod:`repro.sim.engine` (stream wins same-timestamp ties, equal rows
batch, liveness counts stream rows) and the ``advance_periodic``
contract the fast-forward is built on (seq burning, reschedule-by-reuse,
stopped/cancelled/unknown-callback edges). ``tests/sim/test_inert_ticks.py``
pins the run loop's use of it.
"""

import numpy as np
import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.eventlog import EventLog
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.sim.sanitizer import SimSanitizer
from repro.traces.azure import azure_trace
from repro.traces.schema import Trace
from repro.traces.synth import ArrivalModel, synth_trace

POLICIES = ("TTL", "LRU", "FaasCache", "CIDRE", "CodeCrunch",
            "RainbowCake")


def _synth(seed: int, n_functions: int, total_requests: int,
           duration_ms: float, **arrivals):
    return synth_trace(f"golden-{seed}", np.random.default_rng(seed),
                       n_functions=n_functions,
                       total_requests=total_requests,
                       duration_ms=duration_ms,
                       arrivals=ArrivalModel(**arrivals))


def _cases():
    # Same golden grid as test_differential_golden (same seeds, same
    # pressure regimes) so the packed path is proven on exactly the
    # workloads the index work is proven on.
    yield "synth-bursty", _synth(101, 8, 900, 120_000.0,
                                 burst_size_p=0.4), 2.0
    yield "synth-steady", _synth(202, 12, 1_200, 180_000.0,
                                 steady_fraction=0.7), 2.0
    yield "synth-tail", _synth(303, 6, 700, 90_000.0,
                               heavy_tail_prob=0.05,
                               burst_spread_ms=300.0), 1.0
    yield "azure-sample", azure_trace(seed=5, total_requests=4_000), 2.0


CASES = {name: (trace, gb) for name, trace, gb in _cases()}


def _replay(trace, policy_name, capacity_gb, *, reference=False,
            fast_forward=False, packed=False, sanitizer=None,
            faults=None, contention=None):
    config = SimulationConfig(capacity_gb=capacity_gb,
                              reference_impl=reference,
                              fast_forward=fast_forward,
                              faults=faults, contention=contention)
    log = EventLog()
    policy = policy_factories()[policy_name](trace)
    orchestrator = Orchestrator(trace.functions, policy, config,
                                event_log=log)
    workload = trace.packed() if packed else trace.fresh_requests()
    if sanitizer is not None:
        sanitizer.install(orchestrator)
        try:
            result = orchestrator.run(workload)
            sanitizer.finalize(orchestrator)
        finally:
            sanitizer.uninstall(orchestrator)
    else:
        result = orchestrator.run(workload)
    return orchestrator, result, log


def _request_tuples(result):
    return [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.wait_ms)
            for r in result.requests]


def _normalized_events(log):
    """Event tuples with container ids rebased to the run's first id."""
    base = None
    out = []
    for e in log:
        cid = None
        if e.container_id is not None:
            if base is None:
                base = e.container_id
            cid = e.container_id - base
        out.append((e.time_ms, e.kind.value, e.func, cid, e.req_id,
                    e.detail, e.worker_id))
    return out


# ======================================================================
# Golden differential: reference vs packed stream vs packed + ff


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_packed_and_fast_forward_match_reference(case, policy_name):
    trace, capacity_gb = CASES[case]
    _, ref, ref_log = _replay(trace, policy_name, capacity_gb,
                              reference=True)
    ref_events = _normalized_events(ref_log)
    ref_tuples = _request_tuples(ref)
    ref_summary = ref.summary()

    for label, kwargs in (("packed", dict(packed=True)),
                          ("packed+ff", dict(packed=True,
                                             fast_forward=True))):
        orch, got, got_log = _replay(trace, policy_name, capacity_gb,
                                     **kwargs)
        assert got.summary() == ref_summary, f"{case}/{policy_name} {label}"
        assert _request_tuples(got) == ref_tuples, (
            f"{case}/{policy_name} {label}")
        got_events = _normalized_events(got_log)
        for i, (a, b) in enumerate(zip(got_events, ref_events)):
            assert a == b, (f"{case}/{policy_name} {label}: event {i} "
                            f"diverged:\n  {label}:    {a}\n"
                            f"  reference: {b}")
        assert len(got_events) == len(ref_events)
        # The streamed run must leave the engine counters consistent
        # (the stream is accounted outside the heap).
        assert orch.sim._scan_counts() == (orch.sim._live, orch.sim._real)
        assert orch.sim._stream_remaining() == 0


def test_fast_forward_with_recorder_skips_ticks_and_matches_classic():
    """A recorder's periodic has no horizon, so it samples every tick,
    while maintenance ticks proven inert are still skipped; outputs
    equal the classic run's."""
    import json
    from repro.sim.telemetry import TimeSeriesRecorder
    trace, capacity_gb = CASES["synth-bursty"]
    runs = {}
    for fast_forward in (False, True):
        config = SimulationConfig(capacity_gb=capacity_gb,
                                  fast_forward=fast_forward)
        recorder = TimeSeriesRecorder()
        log = EventLog()
        orch = Orchestrator(trace.functions,
                            policy_factories()["CIDRE"](trace), config,
                            event_log=log, recorder=recorder)
        skipped = [0]
        advance = orch.sim.advance_periodic

        def counted(boundary, replay, advance=advance, skipped=skipped):
            ticks = advance(boundary, replay)
            skipped[0] += ticks
            return ticks

        orch.sim.advance_periodic = counted
        result = orch.run(trace.packed())
        runs[fast_forward] = (
            skipped[0], result.summary(), _request_tuples(result),
            _normalized_events(log), json.dumps(recorder.as_dict()),
            orch.sim.processed, next(orch.sim._seq))
    classic, ff = runs[False], runs[True]
    assert classic[0] == 0
    assert ff[0] > 0, "no maintenance tick was skipped"
    assert ff[1:] == classic[1:]


def test_reference_impl_ignores_packed_stream():
    """Under reference_impl a packed workload replays via the classic
    all-events-up-front schedule (materialize_all), not the stream."""
    trace, capacity_gb = CASES["synth-tail"]
    orch, ref, _ = _replay(trace, "CIDRE", capacity_gb, reference=True,
                           packed=True)
    assert orch.sim._stream_len == 0
    _, classic, _ = _replay(trace, "CIDRE", capacity_gb, reference=True)
    assert ref.summary() == classic.summary()


# ======================================================================
# Tie-heavy batching under the sanitizer


def _tie_heavy_trace():
    """Integer-ms arrivals, five requests per timestamp: every dispatch
    is a batch, and arrival ties against completions are common."""
    functions = [FunctionSpec(f"fn-{i}", memory_mb=128.0,
                              cold_start_ms=250.0) for i in range(4)]
    requests = [Request(functions[i % 4].name,
                        arrival_ms=float(100 * (i // 5)),
                        exec_ms=float(40 + 13 * (i % 7)))
                for i in range(400)]
    return Trace("tie-heavy", functions, requests)


@pytest.mark.parametrize("fast_forward", (False, True))
def test_batched_dispatch_under_sanitizer(fast_forward):
    trace = _tie_heavy_trace()
    _, ref, ref_log = _replay(trace, "CIDRE", 0.5, reference=True)
    sanitizer = SimSanitizer(check_interval=64)
    _, got, got_log = _replay(trace, "CIDRE", 0.5, packed=True,
                              fast_forward=fast_forward,
                              sanitizer=sanitizer)
    assert got.summary() == ref.summary()
    assert _request_tuples(got) == _request_tuples(ref)
    assert _normalized_events(got_log) == _normalized_events(ref_log)
    assert sanitizer.checks_run > 0


# ======================================================================
# Engine stream + advance_periodic unit tests


class TestBindStream:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Simulator().bind_stream([5.0, 3.0], lambda lo, hi: None)

    def test_rejects_start_in_the_past(self):
        sim = Simulator(start_time=100.0)
        with pytest.raises(ValueError, match="past"):
            sim.bind_stream([50.0], lambda lo, hi: None)

    def test_rejects_bind_while_running(self):
        sim = Simulator()

        def rebind():
            sim.bind_stream([20.0], lambda lo, hi: None)

        sim.schedule(1.0, rebind)
        with pytest.raises(RuntimeError, match="while running"):
            sim.run()

    def test_start_offset_skips_validated_prefix(self):
        sim = Simulator()
        seen = []
        sim.bind_stream([1.0, 2.0, 3.0],
                        lambda lo, hi: seen.append((lo, hi)), start=2)
        sim.run()
        assert seen == [(2, 3)]


class TestStreamMerge:
    def test_stream_wins_same_timestamp_tie(self):
        sim = Simulator()
        order = []
        sim.bind_stream([10.0], lambda lo, hi: order.append("arrival"))
        sim.at(10.0, lambda: order.append("heap"))
        sim.run()
        assert order == ["arrival", "heap"]

    def test_equal_rows_dispatch_as_one_batch(self):
        sim = Simulator()
        batches = []
        sim.bind_stream([5.0, 5.0, 5.0, 8.0, 8.0],
                        lambda lo, hi: batches.append((lo, hi, sim.now)))
        sim.run()
        assert batches == [(0, 3, 5.0), (3, 5, 8.0)]
        assert sim.processed == 5

    def test_pending_counts_stream_rows(self):
        for naive in (False, True):
            sim = Simulator(naive=naive)
            sim.bind_stream([1.0, 2.0, 3.0], lambda lo, hi: None)
            sim.at(5.0, lambda: None)
            assert sim.pending() == 4
            assert sim._has_real_events()

    def test_periodic_keeps_ticking_while_stream_rows_remain(self):
        sim = Simulator()
        ticks = []
        arrivals = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.bind_stream([35.0], lambda lo, hi: arrivals.append(sim.now))
        sim.run()
        # Ticks at 10/20/30 precede the arrival; the tick at 40 fires
        # after it (one trailing no-op pop ends the chain).
        assert arrivals == [35.0]
        assert ticks == [10.0, 20.0, 30.0]

    def test_run_until_stops_before_stream_row(self):
        sim = Simulator()
        seen = []
        sim.bind_stream([10.0, 50.0], lambda lo, hi: seen.append(lo))
        sim.run(until=20.0)
        assert seen == [0]
        assert sim.now == 20.0
        assert sim._stream_remaining() == 1
        sim.run()
        assert seen == [0, 1]


class TestAdvancePeriodic:
    def test_advances_ticks_and_reschedules(self):
        sim = Simulator()
        handle = sim.every(10.0, lambda: None)
        advanced = sim.advance_periodic(35.0, {handle: None})
        assert advanced == 3
        assert sim.now == 30.0
        assert sim.processed == 3
        assert handle.event.time == 40.0
        # Counters unchanged: each tick was one pop + one push.
        assert sim._scan_counts() == (sim._live, sim._real)

    def test_burns_one_seq_per_tick(self):
        """Identical setups, one run classic and one fast-forwarded,
        end on the same sequence counter (each analytic tick burns
        exactly one seq, like its fired counterpart)."""
        classic = Simulator()
        classic.every(10.0, lambda: None)
        classic.at(35.0, lambda: None)
        classic.run()
        ff = Simulator()
        handle = ff.every(10.0, lambda: None)
        ff.at(35.0, lambda: None)
        assert ff.advance_periodic(35.0, {handle: None}) == 3
        ff.run()
        assert ff.now == classic.now
        assert ff.processed == classic.processed
        assert next(ff._seq) == next(classic._seq)

    def test_tick_exactly_at_boundary_left_alone(self):
        sim = Simulator()
        handle = sim.every(10.0, lambda: None)
        assert sim.advance_periodic(10.0, {handle: None}) == 0
        assert sim.now == 0.0

    def test_unknown_callback_aborts_skip(self):
        sim = Simulator()
        handle = sim.every(10.0, lambda: None)
        sim.at(15.0, lambda: None)
        assert sim.advance_periodic(40.0, {handle: None}) == 1
        assert sim.now == 10.0  # stopped at the non-periodic event

    def test_cancelled_entries_popped_and_skipped(self):
        sim = Simulator()
        doomed = sim.at(5.0, lambda: None)
        doomed.cancel()
        handle = sim.every(10.0, lambda: None)
        assert sim.advance_periodic(25.0, {handle: None}) == 2
        assert sim._scan_counts() == (sim._live, sim._real)

    def test_stopped_handle_pops_without_reschedule(self):
        sim = Simulator()
        handle = sim.every(10.0, lambda: None)
        handle.stopped = True  # stopped but tick left uncancelled
        assert sim.advance_periodic(25.0, {handle: None}) == 1
        assert sim.pending() == 0
        assert sim._scan_counts() == (sim._live, sim._real)


# ======================================================================
# Fault layer x fast-forward soundness
#
# Every fault mechanism leaves *real* (non-periodic) heap events behind
# — running executions, provision readies, pending restarts, armed
# straggler-window boundaries — and a run of inert ticks ends at the
# next of them, while the maintenance horizon refuses outright while
# blocked provisions wait. These differentials prove it end to end:
# chaos replay under fast-forward is bit-identical to the classic
# reference replay.


@pytest.mark.parametrize("policy_name", ("TTL", "CIDRE"))
@pytest.mark.parametrize("chaos_seed", (7, 23))
def test_faults_fast_forward_matches_reference(policy_name, chaos_seed):
    from repro.sim.faults import random_plan
    trace, capacity_gb = CASES["synth-tail"]
    plan = random_plan(chaos_seed, workers=1,
                       horizon_ms=trace.duration_ms)
    _, ref, ref_log = _replay(trace, policy_name, capacity_gb,
                              reference=True, faults=plan)
    ref_events = _normalized_events(ref_log)
    kinds = {e[1] for e in ref_events}
    assert "worker_crash" in kinds  # the scenario is non-vacuous

    for label, kwargs in (("packed", dict(packed=True)),
                          ("packed+ff", dict(packed=True,
                                             fast_forward=True))):
        _, res, log = _replay(trace, policy_name, capacity_gb,
                              faults=plan, **kwargs)
        assert _normalized_events(log) == ref_events, label
        assert _request_tuples(res) == _request_tuples(ref), label
        assert res.summary() == ref.summary(), label


@pytest.mark.parametrize("policy_name", ("TTL", "FaasCache"))
def test_contention_fast_forward_matches_reference(policy_name):
    from repro.sim.contention import ContentionModel
    trace, _ = CASES["synth-bursty"]
    model = ContentionModel(cores=1, alpha=1.0)
    _, ref, ref_log = _replay(trace, policy_name, 1.0,
                              reference=True, contention=model)
    ref_events = _normalized_events(ref_log)
    assert any(e[5].startswith("slowdown=") for e in ref_events
               if e[1] == "exec_end")  # contention actually bit

    for label, kwargs in (("packed", dict(packed=True)),
                          ("packed+ff", dict(packed=True,
                                             fast_forward=True)),
                          ("classic", {})):
        _, res, log = _replay(trace, policy_name, 1.0,
                              contention=model, **kwargs)
        assert _normalized_events(log) == ref_events, label
        assert _request_tuples(res) == _request_tuples(ref), label
        assert res.summary() == ref.summary(), label


# ======================================================================
# Engine: reschedule (the progress model's primitive)


class TestReschedule:
    def test_moves_event_and_skips_stale_entry(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10.0, fired.append, "a")
        sim.schedule(15.0, fired.append, "b")
        sim.reschedule(event, 20.0)
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 20.0

    def test_reschedule_earlier(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(30.0, fired.append, "late")
        sim.schedule(15.0, fired.append, "mid")
        sim.reschedule(event, 5.0)
        sim.run()
        assert fired == ["late", "mid"]

    def test_counters_stay_consistent(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        for t in (30.0, 7.0, 40.0):
            sim.reschedule(event, t)
            assert sim.pending() == 1
            assert sim._scan_counts() == (sim._live, sim._real)
        sim.run()
        assert sim.pending() == 0
        assert sim._scan_counts() == (0, 0)

    def test_cancel_after_reschedule(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10.0, fired.append, "x")
        sim.reschedule(event, 20.0)
        event.cancel()
        sim.schedule(1.0, fired.append, "y")
        sim.run()
        assert fired == ["y"]
        assert sim._scan_counts() == (0, 0)

    def test_rejects_cancelled_past_and_foreign_events(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.reschedule(event, 1.0)     # before now
        event.cancel()
        with pytest.raises(ValueError):
            sim.reschedule(event, 20.0)    # cancelled
        other = Simulator()
        foreign = other.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.reschedule(foreign, 20.0)  # queued elsewhere

    def test_rejects_fired_events(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.reschedule(event, 5.0)

    def test_advance_periodic_skips_stale_entries(self):
        """A stale completion entry lingering in an idle gap must not
        abort the analytic skip (its event now lives later)."""
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        sim.reschedule(event, 100.0)   # stale entry remains at t=5
        handle = sim.every(10.0, lambda: None)
        assert sim.advance_periodic(45.0, {handle: None}) == 4
        assert sim.now == 40.0
        assert sim._scan_counts() == (sim._live, sim._real)
