"""Seeded fuzz of fault plans: hostile input fails at the boundary.

Seeded stdlib ``random`` builds small fault-plan payloads for a 2-3
worker cluster, in the JSON shape :meth:`FaultPlan.from_dict` reads.
Half of them carry one hostile value (NaN, an infinity, a negative or
zero where a positive number is needed, an empty straggler window, a
worker id that is fractional or outside the cluster). Every plan must
either

* raise :class:`ValueError` before the replay starts, when it is
  hostile; or
* replay a ~300-request trace to the end, under the sim-sanitizer, with
  every worker's indexes intact and every arrival accounted completed
  or failed, when it is valid.

The whole suite runs under a wall-clock bound, so a plan that makes the
replay hang or crawl fails it too.
"""

import math
import random
import time

import pytest

from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultPlan
from repro.sim.orchestrator import Orchestrator
from repro.sim.sanitizer import SimSanitizer
from repro.traces.azure import azure_trace

SEED = 2025
N_PLANS = 30
HORIZON_MS = 60_000.0
#: Generous: the 30 plans take under a second on a 2-vCPU VM.
WALL_BOUND_S = 20.0
POLICIES = ("CIDRE", "FaasCache", "TTL")

NAN, INF = math.nan, math.inf
#: field -> values that must be rejected.
HOSTILE = {
    "time": (NAN, INF, -INF, -1.0),
    "multiplier": (NAN, INF, -INF, 0.0, -2.0),
    "memory_mb": (NAN, INF, 0.0, -512.0),
    "worker_id": (-1, 1.5, NAN, 99),
    "max_retries": (-1, 0.5, NAN, INF),
}
KIND = {"at_ms": "time", "restart_delay_ms": "time", "start_ms": "time",
        "retry_delay_ms": "time", "exec_multiplier": "multiplier",
        "cold_multiplier": "multiplier",
        "cold_start_multiplier": "multiplier", "memory_mb": "memory_mb",
        "worker_id": "worker_id", "max_retries": "max_retries"}


@pytest.fixture(scope="module")
def trace():
    return azure_trace(seed=11, n_functions=20, total_requests=300,
                       duration_ms=HORIZON_MS)


def _valid_payload(rng: random.Random, workers: int) -> dict:
    crashes = []
    for _ in range(rng.randint(0, 3)):
        crashes.append({
            "worker_id": rng.randrange(workers),
            "at_ms": rng.uniform(0.0, HORIZON_MS),
            "restart_delay_ms": (None if rng.random() < 0.25
                                 else rng.uniform(100.0, 15_000.0))})
    stragglers = []
    for _ in range(rng.randint(0, 3)):
        start = rng.uniform(0.0, HORIZON_MS)
        stragglers.append({
            "worker_id": rng.randrange(workers),
            "start_ms": start,
            "end_ms": start + rng.uniform(100.0, HORIZON_MS / 3),
            "exec_multiplier": rng.choice((1.0, rng.uniform(0.3, 4.0))),
            "cold_multiplier": rng.choice((1.0, rng.uniform(0.5, 3.0)))})
    classes = []
    if rng.random() < 0.5:
        classes.append({
            "name": "slow", "workers": [rng.randrange(workers)],
            "memory_mb": rng.choice((None, rng.uniform(3_000.0, 6_000.0))),
            "cold_start_multiplier": rng.uniform(0.5, 2.5)})
    return {"retry": {"max_retries": rng.randint(0, 3),
                      "retry_delay_ms": rng.uniform(0.0, 500.0)},
            "crashes": crashes, "stragglers": stragglers,
            "worker_classes": classes}


def _spoil(rng: random.Random, payload: dict) -> str:
    """Replace one field of ``payload`` with a hostile value; return a
    description of what was spoiled."""
    entries = [("retry", payload["retry"])]
    for key in ("crashes", "stragglers", "worker_classes"):
        entries += [(f"{key}[{i}]", entry)
                    for i, entry in enumerate(payload[key])]
    where, entry = rng.choice(entries)
    fields = [f for f in entry if f in KIND or f in ("end_ms", "workers")]
    field = rng.choice(fields)
    if field == "end_ms":
        value = rng.choice((NAN, INF, entry["start_ms"],
                            entry["start_ms"] - 1.0))
        entry[field] = value
    elif field == "workers":
        value = rng.choice(HOSTILE["worker_id"])
        entry[field] = entry[field] + [value]
    else:
        value = rng.choice(HOSTILE[KIND[field]])
        entry[field] = value
    return f"{where}.{field}={value!r}"


def _plans():
    rng = random.Random(SEED)
    for i in range(N_PLANS):
        workers = rng.choice((2, 3))
        payload = _valid_payload(rng, workers)
        spoiled = _spoil(rng, payload) if i % 2 else None
        yield i, workers, payload, spoiled


def _build(trace, i, workers, payload):
    plan = FaultPlan.from_dict(payload)
    config = SimulationConfig(capacity_gb=3.0 * workers, workers=workers,
                              dispatch=("hash", "least-loaded")[i % 2],
                              faults=plan)
    policy = policy_factories()[POLICIES[i % len(POLICIES)]](trace)
    return Orchestrator(trace.functions, policy, config)


def test_fault_plan_fuzz(trace):
    began = time.perf_counter()
    replayed = rejected = crashed = 0
    for i, workers, payload, spoiled in _plans():
        if spoiled is not None:
            with pytest.raises(ValueError):
                _build(trace, i, workers, payload)
                pytest.fail(f"plan {i} accepted hostile {spoiled}")
            rejected += 1
            continue
        orchestrator = _build(trace, i, workers, payload)
        sanitizer = SimSanitizer(check_interval=128)
        sanitizer.install(orchestrator)
        try:
            result = orchestrator.run(trace.fresh_requests())
            sanitizer.finalize(orchestrator)
        finally:
            sanitizer.uninstall(orchestrator)
        for worker in orchestrator.workers():
            assert worker.check_integrity(), (i, worker.worker_id)
        assert (len(result.requests) + len(result.failed_requests)
                == len(trace.requests)), f"plan {i} lost requests"
        replayed += 1
        crashed += result.worker_crashes > 0
    elapsed = time.perf_counter() - began
    assert (replayed, rejected) == (N_PLANS // 2, N_PLANS // 2)
    assert crashed > 0, "no valid plan crashed a worker"
    assert elapsed < WALL_BOUND_S, f"fuzz took {elapsed:.1f} s"
