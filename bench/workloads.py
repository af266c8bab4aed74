"""The replay benchmark's workloads: inputs, cluster configs and digests.

Every workload replays a CIDRE policy over a synthetic Azure-like trace.
The function population and burst structure of each trace are pinned by
the workload's ``base_seed``; the benchmark's ``--seed`` then draws a
per-request perturbation (arrival jitter inside the burst window and
execution-time noise). Every seed is therefore a distinct input of the
same shape and cost. A whole new population per seed would make the
benchmark measure the input instead of the program: across ten
population seeds the pressure shape's replay rate spread by 15% (IQR
over median) and its cold ratio ranged from 0.19 to 0.46.

Only public APIs of the program are used, and nothing is shared with
``repro.experiments.throughput``, so a change under ``src/`` cannot
change what the benchmark replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.experiments.suites import policy_factories
from repro.obs import CauseTracker, DecisionAudit, MetricsRegistry
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventLog
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.sim.telemetry import TimeSeriesRecorder
from repro.traces.azure import azure_trace
from repro.traces.schema import Trace

HOUR_MS = 3_600_000.0

#: Perturbation drawn from ``--seed``: arrivals shift by U(0, JITTER_MS)
#: (inside the generator's 300 ms burst spread) and execution times are
#: scaled by LogNormal(0, EXEC_SIGMA).
JITTER_MS = 250.0
EXEC_SIGMA = 0.1

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


@dataclass(frozen=True)
class Workload:
    """One named benchmark input and the cluster it replays on."""

    name: str
    base_seed: int
    total_requests: int
    duration_ms: float
    capacity_gb: float
    contention_cores: Optional[int] = None
    fast_forward: bool = False
    #: Attach all five probes (event log, time series, decision audit,
    #: metrics registry, cause tracker) to every measured replay.
    observed: bool = False
    #: Traced-run counters that must be non-zero on this workload: a
    #: renamed callback or a cached bound method would otherwise zero a
    #: layer without any other symptom.
    must_fire: Tuple[str, ...] = ()

    def config(self) -> SimulationConfig:
        contention = None
        if self.contention_cores is not None:
            contention = ContentionModel(cores=self.contention_cores)
        return SimulationConfig(capacity_gb=self.capacity_gb,
                                contention=contention,
                                fast_forward=self.fast_forward)


_ALWAYS = ("orchestrator.arrival_calls", "orchestrator.completion_calls",
           "policy.scale_calls", "worker.slot_probes")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Memory-pressured per-request path; broad, no layer dominates.
    Workload(
        name="pressure",
        base_seed=7, total_requests=20_000, duration_ms=0.5 * HOUR_MS,
        capacity_gb=4.0,
        must_fire=_ALWAYS + ("policy.make_room_calls",)),
    # CSS backlog under contention: retries and maintenance dominate.
    Workload(
        name="backlog",
        base_seed=7, total_requests=8_000, duration_ms=720_000.0,
        capacity_gb=4.0, contention_cores=4,
        must_fire=_ALWAYS + ("orchestrator.retry_passes",)),
    # Idle gaps: the engine's periodic and fast-forward path.
    Workload(
        name="sparse",
        base_seed=1, total_requests=20_000, duration_ms=8 * HOUR_MS,
        capacity_gb=100.0, fast_forward=True,
        must_fire=_ALWAYS + ("engine.ff_calls",)),
    # The pressure input with every probe on: the cost of observing.
    Workload(
        name="observed",
        base_seed=7, total_requests=20_000, duration_ms=0.5 * HOUR_MS,
        capacity_gb=4.0, observed=True,
        must_fire=_ALWAYS + ("obs.audit_calls",)),
)}


def generate(workload: Workload, seed: int) -> Trace:
    """The workload's input for ``seed``: the pinned base trace, perturbed."""
    base = azure_trace(seed=workload.base_seed,
                       total_requests=workload.total_requests,
                       duration_ms=workload.duration_ms)
    rng = np.random.default_rng(seed)
    n = base.num_requests
    shifts = rng.uniform(0.0, JITTER_MS, size=n).tolist()
    scales = rng.lognormal(0.0, EXEC_SIGMA, size=n).tolist()
    requests = [Request(r.func, r.arrival_ms + shifts[i],
                        r.exec_ms * scales[i])
                for i, r in enumerate(base.requests)]
    return Trace(f"{base.name}-s{seed}", list(base.functions), requests)


def make_orchestrator(workload: Workload, trace: Trace,
                      observed: bool) -> Orchestrator:
    """A fresh CIDRE orchestrator over ``trace``; with ``observed``, fresh
    instances of all five probes are attached."""
    policy = policy_factories()["CIDRE"](trace)
    probes = {}
    if observed:
        probes = {"event_log": EventLog(),
                  "recorder": TimeSeriesRecorder(1_000.0),
                  "audit": DecisionAudit(),
                  "metrics": MetricsRegistry(),
                  "attribution": CauseTracker()}
    return Orchestrator(trace.functions, policy, workload.config(), **probes)


@dataclass
class Build:
    """One fresh set-up: the input and how long each step took."""

    trace: Trace
    generate_s: float
    pack_s: float
    setup_s: float


def build(workload: Workload, seed: int) -> Build:
    """Generate, pack and construct once, timing each step.

    The orchestrator built here is discarded: every replay constructs its
    own, but its construction cost belongs to set-up time.
    """
    t0 = perf_counter()
    trace = generate(workload, seed)
    t1 = perf_counter()
    trace.packed()
    t2 = perf_counter()
    make_orchestrator(workload, trace, workload.observed)
    t3 = perf_counter()
    return Build(trace, t1 - t0, t2 - t1, t3 - t0)


def digest(result) -> str:
    """SHA-256 of a replay's simulated outputs.

    Per-request ``(req_id, start_type, wait_ms, service_ms)`` in req_id
    order, then ``summary()``. Engine counters are left out on purpose: a
    legitimate event-driven change may process fewer ticks.
    """
    h = hashlib.sha256()
    for r in sorted(result.requests, key=lambda r: r.req_id):
        h.update(repr((r.req_id, r.start_type.value, r.wait_ms,
                       r.service_ms)).encode())
    for key, value in sorted(result.summary().items()):
        h.update(repr((key, float(value))).encode())
    return h.hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)
