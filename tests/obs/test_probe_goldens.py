"""Golden digests of every probe's output.

A small pressure-shaped CIDRE replay runs with all five probes attached
(event log, time-series recorder, decision audit, metrics registry and
cause tracker), and the finished audit and event streams are then folded
through :func:`repro.obs.outcomes.resolve` into the same registry. Each
output is pinned by one SHA-256 digest:

* the event stream as JSON Lines (:func:`event_to_dict`);
* ``recorder.as_dict()`` as JSON (the ``save_json`` bytes);
* the audit records as JSON Lines;
* ``MetricsRegistry.snapshot()`` and ``render_prometheus()``;
* ``CauseTracker.stamped``.

Three cases cover the probe sites: ``pressure`` (one 4 GB worker),
``contention`` (an 8-core contention model, so slowdown histograms
fill) and ``chaos`` (two workers under a seeded random fault plan, so
crash, orphan and reassignment events and counters appear).

Container ids come from a process-global counter, so each replay starts
it afresh. The probes observe and never steer, so these digests change
only when a probe's output format or the replay itself changes. After a
deliberate change, copy the new digests from the failure message into
``DIGESTS``.
"""

import hashlib
import itertools
import json

import pytest

from repro.experiments.suites import policy_factories
from repro.obs import CauseTracker, DecisionAudit, MetricsRegistry
from repro.obs.outcomes import resolve
from repro.sim import container as container_module
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventLog
from repro.sim.faults import random_plan
from repro.sim.orchestrator import Orchestrator
from repro.sim.telemetry import TimeSeriesRecorder, event_to_dict
from repro.traces.azure import azure_trace

DURATION_MS = 240_000.0

CONFIGS = {
    "pressure": dict(capacity_gb=4.0),
    "contention": dict(capacity_gb=4.0,
                       contention=ContentionModel(cores=8)),
    "chaos": dict(capacity_gb=8.0, workers=2,
                  faults=random_plan(3, workers=2, horizon_ms=DURATION_MS)),
}

DIGESTS = {
    "pressure": {
        "events":
            "84682faebeec0555f29c4b4e3a6a6a97d0cda3523df08eafbd42e6d311ac707d",
        "series":
            "1dfb87bf7e3ba19ec404157eac4581acfa100f0eda3234ae97f667bb2c377ca2",
        "audit":
            "cef7a0701490fcd169965a0e59988c6c968529b051f8174627c690dbeb7d69e7",
        "snapshot":
            "9af91b5921d2fc3e121bf1b9291ee65d90232787a27afcc469694c9157993b07",
        "prometheus":
            "5bc85a1f740c70504d42237a8c7c7966a139f12501b4daaec1821bcb278775ba",
        "stamped":
            "63b5465bcdd4a5bdccc8950a587dd1277738c6cfa93e1f4508d8a4741088855f",
    },
    "contention": {
        "events":
            "f0c1c2b130d0256111efa397cd7e4bf33aadcfaaa3809cf4c745c1aea062372a",
        "series":
            "2c11bd207cd90fae6723e1c3e44cf5935e8200f99c3b1c971e5572b76c02f981",
        "audit":
            "25b614a8f5a0cd2b2a18caed8b4fddf3655b39f1291cc252fe4fe6b106d8c434",
        "snapshot":
            "7ceaa9e3c55c70a7bf21dd90b59e2f4a078780dbc4d835307682ead58e2fe83d",
        "prometheus":
            "3fb48dce5b9eec3d433b426c0c2ca00e2b3f97016f4c92ef90fd0bb66ab73218",
        "stamped":
            "bfde5abeae28fb6733f4592c8b4690e1f3d9dea1957cdc3775aeb8f2ce7ef170",
    },
    "chaos": {
        "events":
            "226792217308545ed4d7ca9f8b538502bd85ca0991f6fd058c87551b6f7b45f1",
        "series":
            "af36c6663a460330e79b00dbae1e04beba6ac980a0659c212573a35a3f5df771",
        "audit":
            "a34a0cc07d53e4d8cb0b4b07275b093f7223b81c61bf157555f6afa0a945360d",
        "snapshot":
            "39b7f602e417b03740062b928a76c6b806f62966d2564e387c776848c3d49a89",
        "prometheus":
            "a12a98fed479098ef9271cbd9aa4664e6a091d53520e94e7d7af9d054c5bc379",
        "stamped":
            "9b8f676aa3ec7b6d39b6d9e1696507c77fbf2e9a8aed1684ce4ee4b652e2c498",
    },
}


@pytest.fixture(scope="module")
def trace():
    return azure_trace(seed=7, total_requests=3_000,
                       duration_ms=DURATION_MS)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonl(items) -> str:
    return "".join(json.dumps(item, separators=(",", ":")) + "\n"
                   for item in items)


def _replay(trace, case, monkeypatch):
    monkeypatch.setattr(container_module, "_container_ids",
                        itertools.count())
    probes = {"event_log": EventLog(),
              "recorder": TimeSeriesRecorder(1_000.0),
              "audit": DecisionAudit(),
              "metrics": MetricsRegistry(),
              "attribution": CauseTracker()}
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        SimulationConfig(**CONFIGS[case]), **probes)
    orch.run(trace.packed())
    resolve(probes["audit"].records, probes["event_log"].events,
            metrics=probes["metrics"])
    return probes


def _outputs(probes) -> dict:
    registry = probes["metrics"]
    return {
        "events": _jsonl(event_to_dict(e) for e in probes["event_log"]),
        "series": json.dumps(probes["recorder"].as_dict()),
        "audit": _jsonl(probes["audit"].records),
        "snapshot": json.dumps(registry.snapshot(), indent=2,
                               sort_keys=True),
        "prometheus": registry.render_prometheus(),
        "stamped": json.dumps(probes["attribution"].stamped),
    }


def _samples(snapshot, name):
    return snapshot.get(name, {}).get("samples", [])


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_probe_outputs_match_golden(trace, case, monkeypatch):
    probes = _replay(trace, case, monkeypatch)
    snapshot = probes["metrics"].snapshot()
    # Non-vacuity: every labelled probe site this case exists for fired.
    kinds = {r["kind"] for r in probes["audit"].records}
    assert {"css_scale", "gate_flip", "eviction_decision"} <= kinds, kinds
    for name in ("repro_starts_total", "repro_scale_decisions_total",
                 "repro_evictions_total", "repro_provision_starts_total",
                 "repro_css_scale_total", "repro_bss_gate_flips_total",
                 "repro_replace_decisions_total",
                 "repro_coldstart_cause_total", "repro_eviction_regret_ms"):
        assert _samples(snapshot, name), name
    assert len(probes["recorder"].functions) > 1
    assert probes["attribution"].stamped.get("eviction", 0) > 0
    if case == "contention":
        assert _samples(snapshot, "repro_contention_slowdown")
    if case == "chaos":
        for name in ("repro_worker_crashes_total",
                     "repro_requests_orphaned_total",
                     "repro_requests_reassigned_total"):
            assert _samples(snapshot, name), name
    else:
        assert not _samples(snapshot, "repro_worker_crashes_total")
    outputs = _outputs(probes)
    # The clock can run on numpy scalars; no output may carry their repr.
    for key, text in outputs.items():
        assert "np.float64" not in text, key
    got = {key: _sha(text) for key, text in outputs.items()}
    assert got == DIGESTS[case], json.dumps(got, indent=4)
