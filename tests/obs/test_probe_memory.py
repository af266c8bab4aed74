"""Bytes the event log and the decision audit retain per record.

Both probes keep numbers in typed columns instead of Python objects
per record. This test replays a small pressure-shaped CIDRE run with
both attached, then drops each store and counts the bytes
``tracemalloc`` sees freed.

The bounds sit below the previous layout, with room for the event mix:
this replay frees ~34 bytes per event and ~136 per audit record, where
string references and one value tuple per record freed ~57 and ~323.
"""

import gc
import tracemalloc

from repro.experiments.suites import policy_factories
from repro.obs import CauseTracker, DecisionAudit
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import EventLog
from repro.sim.orchestrator import Orchestrator
from repro.traces.azure import azure_trace

MAX_BYTES_PER_EVENT = 40
MAX_BYTES_PER_RECORD = 200


def _freed_bytes(stores: dict, name: str) -> int:
    """Bytes freed when the last reference to ``stores[name]`` goes."""
    before = tracemalloc.get_traced_memory()[0]
    del stores[name]
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def test_retained_bytes_per_event_and_record():
    trace = azure_trace(seed=7, total_requests=2_000, duration_ms=120_000.0)
    stores = {"log": EventLog(), "audit": DecisionAudit()}
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        SimulationConfig(capacity_gb=2.0),
                        event_log=stores["log"], audit=stores["audit"],
                        attribution=CauseTracker())
    tracemalloc.start()
    try:
        orch.run(trace.packed())
        del orch
        gc.collect()
        events, records = len(stores["log"]), len(stores["audit"])
        assert events > 5_000 and records > 1_000
        per_event = _freed_bytes(stores, "log") / events
        per_record = _freed_bytes(stores, "audit") / records
    finally:
        tracemalloc.stop()
    assert per_event <= MAX_BYTES_PER_EVENT, per_event
    assert per_record <= MAX_BYTES_PER_RECORD, per_record
