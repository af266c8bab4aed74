"""SimSanitizer: bit-identity under guard, loud failure on mutation.

Two halves, mirroring the ISSUE contract:

* **differential** — a sanitized golden-trace run (write barrier armed,
  periodic consistency sweeps firing) produces results bit-identical to
  the unsanitized run, for CIDRE and TTL, bare and with the full
  observability stack attached;
* **detection** — a deliberately mutating sink/recorder is caught with a
  :class:`SanitizerError` naming the attribute written and the probe
  call site, while well-behaved probes (including ones that exercise
  the allowlisted lazy caches) never trip it.
"""

import pytest

from repro.experiments.runner import run_one
from repro.experiments.suites import policy_factories
from repro.obs import DecisionAudit
from repro.policies.lru import LRUPolicy
from repro.sim.config import SimulationConfig
from repro.sim.container import Container
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventLog
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.sim.sanitizer import (GUARDED_CLASSES, SanitizerError,
                                 SimSanitizer, _PATCH_STATE)
from repro.sim.telemetry import TimeSeriesRecorder
from repro.traces.azure import azure_trace

TRACE = azure_trace(seed=7, total_requests=800)
CONFIG_GB = 2.0


def _factory(name):
    return policy_factories()[name]


def _tuples(result):
    return [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.wait_ms)
            for r in result.requests]


# ======================================================================
# Differential: sanitized == unsanitized, bit for bit


@pytest.mark.parametrize("policy", ["CIDRE", "TTL"])
def test_sanitized_run_bit_identical(policy):
    config = SimulationConfig(capacity_gb=CONFIG_GB)
    plain = run_one(TRACE, _factory(policy), config)
    sanitizer = SimSanitizer(check_interval=128)
    guarded = run_one(TRACE, _factory(policy), config,
                      sanitizer=sanitizer)

    assert plain.result.summary() == guarded.result.summary()
    assert _tuples(plain.result) == _tuples(guarded.result)
    # The guard actually did something — this was not a vacuous pass.
    assert sanitizer.events_seen > 0
    assert sanitizer.checks_run > 1  # periodic sweeps plus the final one


def test_sanitized_run_with_full_observability(tmp_path):
    """Sanitized + instrumented matches bare: no false positives from
    the real sinks/recorder/audit, and their outputs are unchanged."""
    config = SimulationConfig(capacity_gb=CONFIG_GB)
    bare = run_one(TRACE, _factory("CIDRE"), config)

    log = EventLog()
    recorder = TimeSeriesRecorder(interval_ms=2_000.0)
    audit = DecisionAudit()
    sanitizer = SimSanitizer(check_interval=64)
    guarded = run_one(TRACE, _factory("CIDRE"), config, event_log=log,
                      recorder=recorder, audit=audit,
                      sanitizer=sanitizer)

    assert bare.result.summary() == guarded.result.summary()
    assert _tuples(bare.result) == _tuples(guarded.result)
    assert log.recorded == sanitizer.events_seen > 0
    assert audit.recorded > 0
    assert len(recorder.cluster) > 0
    stats = sanitizer.stats()
    assert stats["checks_run"] == sanitizer.checks_run > 1


def test_uninstall_restores_classes():
    before = {cls: (cls.__setattr__, cls.__delattr__)
              for cls in GUARDED_CLASSES}
    config = SimulationConfig(capacity_gb=CONFIG_GB)
    run_one(TRACE, _factory("TTL"), config, sanitizer=SimSanitizer())
    assert _PATCH_STATE == {}
    for cls, (setter, deleter) in before.items():
        assert cls.__setattr__ is setter
        assert cls.__delattr__ is deleter


# ======================================================================
# Detection: mutating probes are caught, precisely


def _build(policy="CIDRE", **orch_kwargs):
    config = SimulationConfig(capacity_gb=CONFIG_GB)
    pol = _factory(policy)(TRACE)
    return Orchestrator(TRACE.functions, pol, config, **orch_kwargs)


def _run_guarded(orchestrator, sanitizer):
    sanitizer.install(orchestrator)
    try:
        orchestrator.run(TRACE.fresh_requests())
        sanitizer.finalize(orchestrator)
    finally:
        sanitizer.uninstall(orchestrator)


class MutatingSink:
    """Pretends to observe events but pokes a container timestamp."""

    def __init__(self, orchestrator):
        self.orchestrator = orchestrator

    def emit(self, event):
        for worker in self.orchestrator.workers():
            for container in worker.containers.values():
                container.last_used_ms = 0.0
                return


class MutatingRecorder:
    interval_ms = 1_000.0

    def note_start(self, func, start_type, now):
        pass

    def sample(self, orchestrator):
        orchestrator.sim.processed = 0

    def finish(self, orchestrator):
        pass


class ReadOnlySink:
    """Well-behaved: reads state, exercising the allowlisted lazy cache
    (``Worker.evictable_mb`` refreshes ``_evictable_mb_cache``)."""

    def __init__(self, orchestrator):
        self.orchestrator = orchestrator
        self.samples = []

    def emit(self, event):
        total_mb = 0.0
        for worker in self.orchestrator.workers():
            total_mb += worker.evictable_mb()
        self.samples.append((event.time_ms, total_mb))


def test_mutating_sink_caught_with_precise_error():
    log = EventLog()
    orchestrator = _build(event_log=log)
    log.attach(MutatingSink(orchestrator))
    sanitizer = SimSanitizer()
    with pytest.raises(SanitizerError) as excinfo:
        _run_guarded(orchestrator, sanitizer)
    message = str(excinfo.value)
    assert "MutatingSink.emit" in message       # the call site
    assert "Container.last_used_ms" in message  # the attribute
    assert "read-only" in message


def test_mutating_recorder_caught():
    orchestrator = _build(recorder=MutatingRecorder())
    with pytest.raises(SanitizerError) as excinfo:
        _run_guarded(orchestrator, SimSanitizer())
    message = str(excinfo.value)
    assert "MutatingRecorder.sample" in message
    assert "Simulator.processed" in message


def test_read_only_sink_not_flagged():
    log = EventLog()
    orchestrator = _build(event_log=log)
    sink = ReadOnlySink(orchestrator)
    log.attach(sink)
    sanitizer = SimSanitizer(check_interval=64)
    _run_guarded(orchestrator, sanitizer)  # must not raise
    assert sink.samples
    assert sanitizer.checks_run > 1


def test_mutation_outside_probe_window_allowed():
    """The barrier is scoped to probe callbacks: normal simulation-side
    writes pass through while the sanitizer is installed."""
    orchestrator = _build(event_log=EventLog())
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        from repro.sim.function import FunctionSpec
        container = Container(FunctionSpec("probe-free", 64, 100.0), 0.0)
        container.last_used_ms = 42.0  # no probe active: fine
        assert container.last_used_ms == 42.0
    finally:
        sanitizer.uninstall(orchestrator)


def test_index_inconsistency_reported():
    orchestrator = _build(event_log=EventLog())
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        orchestrator.run(TRACE.fresh_requests())
        # Corrupt a worker's incremental account, then sweep.
        worker = orchestrator.workers()[0]
        worker._used_mb += 123.0
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.run_checks(orchestrator)
        assert "index inconsistency" in str(excinfo.value)
    finally:
        sanitizer.uninstall(orchestrator)


def test_engine_counter_divergence_reported():
    orchestrator = _build(event_log=EventLog())
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        orchestrator.run(TRACE.fresh_requests())
        orchestrator.sim._live += 1
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.run_checks(orchestrator)
        assert "counters diverged" in str(excinfo.value)
    finally:
        sanitizer.uninstall(orchestrator)


@pytest.mark.parametrize("corrupt", ["stale", "order"])
def test_online_list_corruption_reported(corrupt):
    """The orchestrator dispatches from its own list of online workers;
    one that misses a crash or loses worker order must be caught."""
    plan = FaultPlan(crashes=(CrashSpec(0, 5_000.0, 2_000.0),
                              CrashSpec(2, 9_000.0)))
    config = SimulationConfig(capacity_gb=6.0, workers=3, faults=plan)
    orchestrator = Orchestrator(TRACE.functions, _factory("CIDRE")(TRACE),
                                config, event_log=EventLog())
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        orchestrator.run(TRACE.fresh_requests())
        sanitizer.run_checks(orchestrator)
        workers = orchestrator.workers()
        assert orchestrator._online == workers[:2]
        if corrupt == "stale":
            orchestrator._online = list(workers)
        else:
            orchestrator._online.reverse()
        with pytest.raises(SanitizerError, match="online-worker list"):
            sanitizer.run_checks(orchestrator)
    finally:
        sanitizer.uninstall(orchestrator)


class _Stop(Exception):
    """Ends a replay once the corrupted state has been checked."""


def _corrupt_head(orchestrator, worker_id, how):
    table = orchestrator._worker_execs[worker_id]
    head = orchestrator._heads[worker_id]
    other = next(state for state in table.values()
                 if state.key != (head.time, head.seq))
    if how == "cancelled":
        head.cancel()
    elif how == "key":
        orchestrator.sim.queue_at(head, *other.key)
    elif how == "entry":
        # Moved without the push its never-queued key needs.
        orchestrator.sim.queue_at(head, *other.key, push=False)
    else:
        head.args = (other.container, other.request)


@pytest.mark.parametrize("how, message", [
    ("cancelled", "not queued"), ("key", "not at its earliest"),
    ("entry", "counters diverged"), ("args", "names request")])
def test_completion_head_corruption_reported(how, message):
    """Two executions share a core; once both run, the worker's single
    completion event is corrupted one way and a sweep must name it."""
    spec = FunctionSpec("f", memory_mb=100.0, cold_start_ms=50.0)
    config = SimulationConfig(capacity_gb=1.0, threads_per_container=4,
                              contention=ContentionModel(cores=1))
    orchestrator = Orchestrator([spec], LRUPolicy(), config,
                                event_log=EventLog())
    sanitizer = SimSanitizer()
    begin = orchestrator._begin_progress_exec

    def begin_then_corrupt(container, request):
        begin(container, request)
        worker_id = container.worker.worker_id
        if len(orchestrator._worker_execs[worker_id]) < 2:
            return
        sanitizer.run_checks(orchestrator)      # consistent so far
        _corrupt_head(orchestrator, worker_id, how)
        with pytest.raises(SanitizerError, match=message):
            sanitizer.run_checks(orchestrator)
        raise _Stop

    orchestrator._begin_progress_exec = begin_then_corrupt
    sanitizer.install(orchestrator)
    try:
        with pytest.raises(_Stop):
            orchestrator.run([Request("f", 0.0, 300.0),
                              Request("f", 100.0, 200.0)])
    finally:
        sanitizer.uninstall(orchestrator)


def _handoff_orchestrator():
    """Three executions share a core and a fourth request queues, so a
    completion hands its slot straight on (n -> n-1 -> n)."""
    spec = FunctionSpec("f", memory_mb=100.0, cold_start_ms=50.0)
    config = SimulationConfig(capacity_gb=1.0, threads_per_container=3,
                              contention=ContentionModel(cores=1))
    orchestrator = Orchestrator([spec], LRUPolicy(), config,
                                event_log=EventLog())
    requests = [Request("f", 0.0, 300.0), Request("f", 60.0, 200.0),
                Request("f", 70.0, 250.0), Request("f", 80.0, 100.0)]
    return orchestrator, requests


def test_pending_retime_is_exempt_mid_handler():
    """A sweep that runs while a completion handler still owes its
    neighbours' retime skips that worker's head, and only that one."""
    orchestrator, requests = _handoff_orchestrator()
    sanitizer = SimSanitizer(check_interval=1)
    pending_sweeps = []
    defer = orchestrator._defer_retime

    def defer_then_sweep(worker_id, table):
        defer(worker_id, table)
        sanitizer.run_checks(orchestrator)
        pending_sweeps.append(worker_id)

    orchestrator._defer_retime = defer_then_sweep
    sanitizer.install(orchestrator)
    try:
        orchestrator.run(requests)
        sanitizer.finalize(orchestrator)
    finally:
        sanitizer.uninstall(orchestrator)
    assert pending_sweeps, "no completion deferred a retime"


def test_retime_left_pending_after_handler_reported():
    orchestrator, requests = _handoff_orchestrator()
    retime = orchestrator._retime_worker

    def retime_but_stay_pending(worker_id, table, busy, now):
        deferred = orchestrator._deferred
        head = retime(worker_id, table, busy, now)
        orchestrator._deferred = deferred
        return head

    orchestrator._retime_worker = retime_but_stay_pending
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        with pytest.raises(SanitizerError, match="still pending"):
            orchestrator.run(requests)
    finally:
        sanitizer.uninstall(orchestrator)
    orchestrator._deferred = (0, 1, 1.0, 0, 0)
    with pytest.raises(SanitizerError, match="still pending"):
        sanitizer.finalize(orchestrator)


def test_waiting_function_off_the_worklist_reported():
    """A waiting function that is neither covered, on the CSS worklist
    nor marked changed would never be visited again: a sweep names it.
    (A closed gate keeps a function on the worklist with no change.)"""
    trace = azure_trace(seed=7, total_requests=2_000, duration_ms=180_000)
    orchestrator = Orchestrator(
        trace.functions, _factory("CIDRE")(trace),
        SimulationConfig(capacity_gb=4.0), event_log=EventLog())
    policy = orchestrator.policy
    sanitizer = SimSanitizer()
    tick = policy.on_maintenance

    def tick_then_corrupt(now):
        tick(now)
        lost = [func for func in orchestrator.waiting_functions()
                if func in policy._worklist
                and func not in orchestrator._changed]
        if not lost:
            return
        sanitizer.run_checks(orchestrator)      # consistent so far
        policy._worklist.discard(lost[0])
        with pytest.raises(SanitizerError, match="worklist"):
            sanitizer.run_checks(orchestrator)
        raise _Stop

    policy.on_maintenance = tick_then_corrupt
    sanitizer.install(orchestrator)
    try:
        with pytest.raises(_Stop):
            orchestrator.run(trace.packed())
    finally:
        sanitizer.uninstall(orchestrator)


def test_double_install_rejected():
    orchestrator = _build()
    sanitizer = SimSanitizer()
    sanitizer.install(orchestrator)
    try:
        with pytest.raises(RuntimeError):
            sanitizer.install(orchestrator)
    finally:
        sanitizer.uninstall(orchestrator)
    # Idempotent uninstall.
    sanitizer.uninstall(orchestrator)


def test_check_interval_validated():
    with pytest.raises(ValueError):
        SimSanitizer(check_interval=0)
