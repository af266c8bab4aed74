"""Golden digests for the CSS backlog and blocked-provision paths.

Three CIDRE replays under a 4-core contention model, each pinned by one
SHA-256 digest over

* every request's ``(req_id, start_type, wait_ms, service_ms)``;
* the full ``summary()``;
* the complete control-plane event stream, in order, with container ids
  rebased to the run's first id (ids come from a process-global counter).

The cases keep queue re-evaluation, blocked-provision retries and their
interaction with crashes busy:

* ``backlog``: one 4 GB worker with a deep CSS backlog, so maintenance
  ticks and retry passes dominate;
* ``crash``: two 4 GB workers with crashes and restarts, which
  re-dispatch blocked provisions to a live worker and invalidate every
  function's queue state at once;
* ``multi``: three 2 GB workers, so provisions block on more than one
  worker at a time.

Each test also checks that its run actually reached the paths it pins.
After a deliberate behaviour change, copy the new digest from the
failure message into ``DIGESTS``.
"""

import hashlib

import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventLog
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.orchestrator import Orchestrator
from repro.traces.azure import azure_trace

DIGESTS = {
    "backlog":
        "cdc315b983c080c6ea64ee3d6b46de8b42acdca0748e4e87be917f8aed55bc9c",
    "crash":
        "09835f245eca8e70e608dabb3244bfa29ef6215e1d85c7d734b38847652a58e7",
    "multi":
        "eed9706e929d5363f6d09b57b85413be92cf61fefc1a2085c2f1c5c81d49c94b",
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
        h.update(repr((e.time_ms, e.kind.value, e.func, cid, e.req_id,
                       e.detail, e.worker_id)).encode())
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
