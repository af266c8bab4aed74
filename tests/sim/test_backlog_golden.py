"""Golden digests for the CSS backlog, blocked-provision and contention
retiming paths.

CIDRE replays in progress mode, each pinned by one SHA-256 digest over

* every request's ``(req_id, start_type, wait_ms, service_ms)``;
* the full ``summary()``;
* the complete control-plane event stream, in order, with container ids
  rebased to the run's first id (ids come from a process-global counter).

The first three cases run under a 4-core contention model and keep
queue re-evaluation, blocked-provision retries and their interaction
with crashes busy:

* ``backlog``: one 4 GB worker with a deep CSS backlog, so maintenance
  ticks and retry passes dominate;
* ``crash``: two 4 GB workers with crashes and restarts, which
  re-dispatch blocked provisions to a live worker and invalidate every
  function's queue state at once;
* ``multi``: three 2 GB workers, so provisions block on more than one
  worker at a time.

The retiming cases further down cover what those three miss (see there).

Each test also checks that its run actually reached the paths it pins.
After a deliberate behaviour change, copy the new digest from the
failure message into ``DIGESTS`` or ``RETIMING_DIGESTS``.
"""

import hashlib
from collections import Counter

import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import CrashSpec, FaultPlan, StragglerSpec
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.traces.azure import azure_trace
from repro.traces.schema import Trace

DIGESTS = {
    "backlog":
        "5e240ebaf5fd00944056f5bde3e4442354289ab309f84330ae7aa6aafa898617",
    "crash":
        "f729cdcb46a6636083456523556b704ba19f686509b4ffafd9d8bb979028a40e",
    "multi":
        "bdc49b1efc27527d8a5d7c54f2b442819206a3f4130e747436ce96a923f37324",
}

CRASHES = (CrashSpec(0, 40_000.0, 5_000.0), CrashSpec(1, 75_000.0, 3_000.0),
           CrashSpec(0, 110_000.0, 2_000.0))

CONFIGS = {
    "backlog": dict(capacity_gb=4.0),
    "crash": dict(capacity_gb=8.0, workers=2,
                  faults=FaultPlan(crashes=CRASHES)),
    "multi": dict(capacity_gb=6.0, workers=3),
}


@pytest.fixture(scope="module")
def trace():
    return azure_trace(seed=7, total_requests=2_000, duration_ms=180_000)


def _replay(trace, case):
    """Replay ``case``, counting what the non-vacuity checks need."""
    config = SimulationConfig(contention=ContentionModel(cores=4),
                              **CONFIGS[case])
    log = EventLog()
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        config, event_log=log)
    seen = {"passes": 0, "blocked_on": set(), "redispatched": 0}

    # Instance attributes shadow the methods the orchestrator schedules
    # and calls through ``self``.
    retry = orch._retry_pending

    def counted_retry():
        seen["passes"] += 1
        retry()

    provision = orch._provision

    def counted_provision(spec, worker, *args, **kwargs):
        container = provision(spec, worker, *args, **kwargs)
        if container is None:
            seen["blocked_on"].add(worker.worker_id)
        return container

    crash = orch._on_worker_crash

    def counted_crash(spec):
        seen["redispatched"] += sum(
            1 for pend in orch._pending if pend.worker.worker_id ==
            spec.worker_id)
        crash(spec)

    orch._retry_pending = counted_retry
    orch._provision = counted_provision
    orch._on_worker_crash = counted_crash
    result = orch.run(trace.packed())
    return result, log, seen


def _digest(result, log) -> str:
    h = hashlib.sha256()
    for r in sorted(result.requests, key=lambda r: r.req_id):
        h.update(repr((r.req_id, r.start_type.value, r.wait_ms,
                       r.service_ms)).encode())
    for key, value in sorted(result.summary().items()):
        h.update(repr((key, float(value))).encode())
    base = None
    for e in log:
        cid = e.container_id
        if cid is not None:
            if base is None:
                base = cid
            cid -= base
        # float(): the clock may run on numpy scalars; the digest pins
        # the value, not the scalar type.
        h.update(repr((float(e.time_ms), e.kind.value, e.func, cid,
                       e.req_id, e.detail, e.worker_id)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_digest_matches_golden(trace, case):
    result, log, seen = _replay(trace, case)
    assert seen["passes"] > 0, "no blocked-provision retry pass ran"
    assert seen["blocked_on"], "no provision ever blocked"
    if case == "crash":
        assert result.summary()["worker_crashes"] == len(CRASHES)
        assert seen["redispatched"] > 0, \
            "no blocked provision sat on a crashing worker"
    if case == "multi":
        assert len(seen["blocked_on"]) > 1, seen["blocked_on"]
    digest = _digest(result, log)
    assert digest == DIGESTS[case], f"{case}: digest is now {digest}"


# ----------------------------------------------------------------------
# Retiming goldens: progress-mode corners the backlog cases miss.
#
# * ``table``: a per-function contention table whose factors stay flat
#   for some functions, so one transition re-keys some co-runners and
#   leaves others' completion keys untouched;
# * ``straggler``: ``exec_multiplier`` windows with no contention model,
#   so progress mode is on only through the fault plan and window edges
#   retime running executions;
# * ``tie``: identical arrivals and execution times on one core, so
#   completions on one worker tie exactly and pop in sequence order.

RETIMING_DIGESTS = {
    "table":
        "850f4bb4679e2cc4682033b8b04f71616ed080f2bb01e653ec5e1867a8ffec3f",
    "straggler":
        "2704b41d0ce67b265b8b9bf7ecd641fa2c4ea46b5ed3674725a52a1dc1298ef1",
    "tie":
        "7c407766c3a1fbc657d5d6aa2095d1017b1b4051960e842ff9f4bbd3d5914f4b",
}

TABLE = (("fn-0040", (1.0, 1.0, 1.25)), ("fn-0098", (1.0,)),
         ("fn-0078", (1.5, 1.5, 2.0, 3.0)), ("fn-0103", (1.0, 2.0)))

STRAGGLERS = (StragglerSpec(0, 20_000.0, 70_000.0, exec_multiplier=3.0),
              StragglerSpec(1, 50_000.0, 110_000.0, exec_multiplier=2.0),
              StragglerSpec(0, 60_000.0, 150_000.0, exec_multiplier=0.5))


def _tie_trace():
    spec = FunctionSpec("f", memory_mb=128.0, cold_start_ms=100.0)
    requests = [Request("f", 1_000.0 * burst, 200.0)
                for burst in range(20) for _ in range(6)]
    return Trace("tie", [spec], requests)


def _retiming_replay(trace, case):
    """Replay ``case``; count the retimings the non-vacuity checks need."""
    if case == "tie":
        trace = _tie_trace()
        config = SimulationConfig(capacity_gb=1.0, threads_per_container=4,
                                  contention=ContentionModel(cores=1))
    elif case == "table":
        config = SimulationConfig(
            capacity_gb=4.0, contention=ContentionModel(cores=2, table=TABLE))
    else:
        config = SimulationConfig(capacity_gb=8.0, workers=2,
                                  faults=FaultPlan(stragglers=STRAGGLERS))
    log = EventLog()
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        config, event_log=log)
    seen = {"mixed": 0, "edges": 0}

    retime = orch._retime_worker

    def counted_retime(worker_id, *args):
        table = orch._worker_execs.get(worker_id) or {}
        before = {req_id: s.slowdown for req_id, s in table.items()}
        result = retime(worker_id, *args)
        moved = {before[req_id] != s.slowdown for req_id, s in table.items()}
        if moved == {True, False}:
            seen["mixed"] += 1
        return result

    boundary = orch._on_rate_boundary

    def counted_boundary(worker_id):
        if orch._worker_execs.get(worker_id):
            seen["edges"] += 1
        boundary(worker_id)

    orch._retime_worker = counted_retime
    orch._on_rate_boundary = counted_boundary
    result = orch.run(trace.packed())
    return result, log, seen


@pytest.mark.parametrize("case", sorted(RETIMING_DIGESTS))
def test_retiming_digest_matches_golden(trace, case):
    result, log, seen = _retiming_replay(trace, case)
    assert all(r.completed for r in result.requests)
    if case == "table":
        assert seen["mixed"] > 0, \
            "no transition re-keyed one co-runner and kept another"
    if case == "straggler":
        assert seen["edges"] > 0, "no window edge retimed a running execution"
    if case == "tie":
        ends = Counter((e.time_ms, e.worker_id) for e in log
                       if e.kind is EventKind.EXEC_END)
        assert max(ends.values()) >= 2, "no two completions tied exactly"
    digest = _digest(result, log)
    assert digest == RETIMING_DIGESTS[case], f"{case}: digest is now {digest}"


# ----------------------------------------------------------------------
# Dispatch goldens: multi-worker routing under crash and restart.
#
# The reference path shares ``_dispatch``, so the differential suites
# cannot see a change in which live worker a request lands on. Three
# workers replay without a contention model under ``least-loaded`` and
# ``hash`` dispatch. The crashes all restart and overlap, so for a few
# seconds one, two and then all three workers are down: arrivals and
# orphans go to the survivors, then wait for the first restart.

DISPATCH_DIGESTS = {
    "hash":
        "77428df67a98d737bfa5407aec1d14b633dca19991cb59233fb4cb00e58f945d",
    "least-loaded":
        "fa77a679473c8420d41536c5f93e6ef3ec1a0e740532c9e2ea16e435b5e2fed0",
}

DISPATCH_CRASHES = (
    CrashSpec(0, 30_000.0, 20_000.0), CrashSpec(1, 40_000.0, 10_000.0),
    CrashSpec(2, 45_000.0, 3_000.0), CrashSpec(1, 100_000.0, 5_000.0),
    CrashSpec(0, 140_000.0, 8_000.0))


@pytest.mark.parametrize("dispatch", sorted(DISPATCH_DIGESTS))
def test_dispatch_digest_matches_golden(trace, dispatch):
    config = SimulationConfig(
        capacity_gb=9.0, workers=3, dispatch=dispatch,
        faults=FaultPlan(crashes=DISPATCH_CRASHES))
    log = EventLog()
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        config, event_log=log)
    result = orch.run(trace.packed())
    summary = result.summary()
    assert summary["worker_crashes"] == len(DISPATCH_CRASHES)
    assert summary["reassigned_requests"] > 0
    arrivals = Counter(e.worker_id for e in log
                       if e.kind is EventKind.ARRIVAL)
    assert sorted(arrivals) == [0, 1, 2], arrivals
    outage = [r for r in result.requests
              if 45_000.0 <= r.arrival_ms < 48_000.0]
    assert outage, "no request arrived while every worker was down"
    assert all(r.start_ms >= 48_000.0 for r in outage)
    digest = _digest(result, log)
    assert digest == DISPATCH_DIGESTS[dispatch], \
        f"{dispatch}: digest is now {digest}"
