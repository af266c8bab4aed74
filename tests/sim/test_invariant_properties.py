"""Property-based simulation invariants over random synthetic traces.

Seeded stdlib ``random`` drives the trace parameters (no new deps);
each sampled workload is replayed under TTL, FaasCache and CIDRE, and
conservation laws that must hold for *every* (trace, policy, config)
triple are asserted:

* every request finishes exactly once;
* warm + cold + delayed-warm starts sum to the request count;
* committed memory never exceeds ``capacity_gb``;
* time only moves forward: arrival <= start <= end for each request;
* the per-worker state indexes survive the run self-consistent
  (``Worker.check_integrity``) and the engine's O(1) liveness counters
  match a full heap scan;
* replaying with ``reference_impl=True`` (pre-index scanning/sorting
  implementations) produces a bit-identical summary.
"""

import dataclasses

import random

import numpy as np
import pytest

from repro.core.cidre import CIDREPolicy
from repro.policies.faascache import FaasCachePolicy
from repro.policies.ttl import TTLPolicy
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.faults import RetryPolicy, random_plan
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import StartType
from repro.traces.synth import ArrivalModel, synth_trace

N_SAMPLES = 5
POLICIES = {
    "TTL": lambda: TTLPolicy(ttl_ms=20_000),
    "FaasCache": FaasCachePolicy,
    "CIDRE": CIDREPolicy,
}


def sample_case(rng: random.Random):
    """One random (trace, config) pair from a seeded stdlib generator."""
    trace_seed = rng.randrange(2**31)
    n_functions = rng.randint(4, 12)
    total_requests = rng.randint(300, 800)
    duration_ms = rng.uniform(60_000.0, 180_000.0)
    arrivals = ArrivalModel(
        burst_size_p=rng.uniform(0.3, 0.8),
        heavy_tail_prob=rng.uniform(0.0, 0.05),
        burst_spread_ms=rng.uniform(50.0, 400.0),
        steady_fraction=rng.uniform(0.1, 0.6),
    )
    trace = synth_trace(f"prop-{trace_seed}",
                        np.random.default_rng(trace_seed),
                        n_functions=n_functions,
                        duration_ms=duration_ms,
                        total_requests=total_requests,
                        arrivals=arrivals)
    # Keep a real chance of memory pressure: the floor is the largest
    # single function footprint (the orchestrator rejects anything less).
    floor_gb = max(f.memory_mb for f in trace.functions) / 1024.0
    capacity_gb = max(rng.uniform(1.0, 4.0), floor_gb * rng.uniform(1.0, 2.0))
    config = SimulationConfig(capacity_gb=capacity_gb,
                              seed=rng.randrange(2**31))
    return trace, config


CASES = [sample_case(random.Random(1000 + i)) for i in range(N_SAMPLES)]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_conservation_invariants(case_idx, policy_name):
    trace, config = CASES[case_idx]
    policy = POLICIES[policy_name]()
    orchestrator = Orchestrator(trace.functions, policy, config)
    result = orchestrator.run(trace.fresh_requests())

    # Every request finishes exactly once.
    assert result.total == trace.num_requests
    assert all(r.completed for r in result.requests)
    assert sorted(r.req_id for r in result.requests) \
        == list(range(trace.num_requests))

    # Start types partition the requests.
    counted = sum(result.count(t) for t in
                  (StartType.WARM, StartType.COLD, StartType.DELAYED))
    assert counted == result.total

    # Causality per request.
    for r in result.requests:
        assert r.arrival_ms <= r.start_ms <= r.end_ms
        assert r.wait_ms >= 0.0

    # Committed memory never exceeds the configured capacity
    # (provisioning claims memory up front; REPLACE must make room
    # before a container is admitted).
    capacity_mb = config.capacity_mb
    for sample in result.memory_samples:
        assert sample.used_mb <= capacity_mb + 1e-6, (
            f"{policy_name} oversubscribed: {sample.used_mb} MB "
            f"> {capacity_mb} MB at t={sample.time_ms}")

    # Final worker state is also within budget, and the incremental
    # state indexes the run relied on are still self-consistent.
    for worker in orchestrator.workers():
        assert worker.used_mb <= config.per_worker_mb + 1e-6
        worker.check_integrity()

    # Engine liveness counters agree with a full heap scan.
    sim = orchestrator.sim
    assert sim._scan_counts() == (sim._live, sim._real)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_reference_impl_bit_identical(case_idx, policy_name):
    """Indexed and pre-index reference replays agree exactly.

    The exhaustive event-sequence comparison lives in
    ``test_differential_golden``; here every random property case gets
    the cheaper summary + per-request check under both implementations.
    """
    trace, config = CASES[case_idx]
    results = {}
    for reference in (False, True):
        cfg = dataclasses.replace(config, reference_impl=reference)
        orchestrator = Orchestrator(trace.functions,
                                    POLICIES[policy_name](), cfg)
        result = orchestrator.run(trace.fresh_requests())
        results[reference] = (
            result.summary(),
            [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.wait_ms)
             for r in result.requests])
    assert results[False] == results[True]


# ======================================================================
# Chaos properties: the same laws under random fault plans


def sample_chaos_case(rng: random.Random):
    """A random (trace, config) pair with a multi-worker cluster and a
    seeded random fault plan (crashes, stragglers, heterogeneity)."""
    trace, base = sample_case(rng)
    workers = rng.randint(2, 3)
    # Every spec must fit every worker's share (crashes mean any function
    # can land anywhere), with headroom kept tight enough for pressure.
    floor_gb = max(f.memory_mb for f in trace.functions) / 1024.0
    capacity_gb = floor_gb * workers * rng.uniform(1.1, 1.6)
    plan = random_plan(rng.randrange(2**31), workers=workers,
                       horizon_ms=trace.duration_ms,
                       retry=RetryPolicy(max_retries=rng.randint(0, 3)))
    config = dataclasses.replace(base, capacity_gb=capacity_gb,
                                 workers=workers, faults=plan)
    return trace, config


CHAOS_CASES = [sample_chaos_case(random.Random(2000 + i))
               for i in range(N_SAMPLES)]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_chaos_conservation_invariants(case_idx, policy_name):
    """Crashes reshuffle work but never lose it: every arrival ends up
    either completed or explicitly failed, exactly once."""
    trace, config = CHAOS_CASES[case_idx]
    policy = POLICIES[policy_name]()
    orchestrator = Orchestrator(trace.functions, policy, config)
    result = orchestrator.run(trace.fresh_requests())

    # Arrivals partition into completions and accounted failures.
    assert len(result.requests) + len(result.failed_requests) \
        == trace.num_requests
    assert all(r.completed and not r.failed for r in result.requests)
    assert all(r.failed and not r.completed
               for r in result.failed_requests)
    finished = sorted(r.req_id for r in result.requests)
    failed = sorted(r.req_id for r in result.failed_requests)
    assert sorted(finished + failed) == list(range(trace.num_requests))

    # Start types still partition the completions.
    counted = sum(result.count(t) for t in
                  (StartType.WARM, StartType.COLD, StartType.DELAYED))
    assert counted == result.total

    # Causality per completed request; retries stay within budget.
    budget = config.faults.retry.max_retries
    for r in result.requests:
        assert r.arrival_ms <= r.start_ms <= r.end_ms
        assert 0 <= r.retries <= budget

    # Reassignment accounting: every orphan either re-entered or failed;
    # rescued/rebound waiters may add reassignments beyond the orphans.
    assert result.reassigned_requests + len(result.failed_requests) \
        >= result.orphaned_requests

    # Memory stays within the configured envelope throughout.
    capacity_mb = config.capacity_mb
    for sample in result.memory_samples:
        assert sample.used_mb <= capacity_mb + 1e-6

    # Crash teardown left the per-worker indexes self-consistent.
    for worker in orchestrator.workers():
        assert worker.check_integrity()
    sim = orchestrator.sim
    assert sim._scan_counts() == (sim._live, sim._real)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_chaos_reference_impl_bit_identical(case_idx, policy_name):
    """Indexed and reference replays agree exactly under chaos too."""
    trace, config = CHAOS_CASES[case_idx]
    results = {}
    for reference in (False, True):
        cfg = dataclasses.replace(config, reference_impl=reference)
        orchestrator = Orchestrator(trace.functions,
                                    POLICIES[policy_name](), cfg)
        result = orchestrator.run(trace.fresh_requests())
        results[reference] = (
            result.summary(),
            [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.retries)
             for r in result.requests],
            [(r.req_id, r.retries) for r in result.failed_requests])
    assert results[False] == results[True]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_chaos_packed_replay_bit_identical(case_idx, policy_name):
    """The packed arrival stream (and the idle fast-forward) survive
    chaos: crashes defer batched arrivals, retries re-enter the heap —
    outcomes must still match the classic request-list replay exactly."""
    trace, config = CHAOS_CASES[case_idx]
    outcomes = {}
    for label, workload_packed, fast_forward in (
            ("classic", False, False),
            ("packed", True, False),
            ("packed+ff", True, True)):
        cfg = dataclasses.replace(config, fast_forward=fast_forward)
        orchestrator = Orchestrator(trace.functions,
                                    POLICIES[policy_name](), cfg)
        workload = (trace.packed() if workload_packed
                    else trace.fresh_requests())
        result = orchestrator.run(workload)
        outcomes[label] = (
            result.summary(),
            [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.retries)
             for r in result.requests],
            [(r.req_id, r.retries) for r in result.failed_requests])
        sim = orchestrator.sim
        assert sim._scan_counts() == (sim._live, sim._real)
    assert outcomes["packed"] == outcomes["classic"]
    assert outcomes["packed+ff"] == outcomes["classic"]


def test_chaos_cases_exercise_faults():
    """The sampled chaos grid is not vacuous."""
    crashes = sum(c.faults.crashes != () for _, c in CHAOS_CASES)
    stragglers = sum(c.faults.stragglers != () for _, c in CHAOS_CASES)
    assert crashes == N_SAMPLES
    assert stragglers == N_SAMPLES


# ======================================================================
# Contention properties: the same laws under progress-based completions


def sample_contention_case(rng: random.Random):
    """A random (trace, config) pair with a CPU-contention model tight
    enough (few cores, few workers, multi-threaded containers) that
    executions overlap and the progress machinery actually retimes."""
    trace, base = sample_case(rng)
    workers = rng.randint(1, 2)
    floor_gb = max(f.memory_mb for f in trace.functions) / 1024.0
    capacity_gb = max(base.capacity_gb, floor_gb * workers * 1.1)
    # Few cores so the sampled bursts actually exceed the budget.
    model = ContentionModel(cores=rng.randint(1, 2),
                            alpha=rng.uniform(0.5, 2.0))
    config = dataclasses.replace(base, capacity_gb=capacity_gb,
                                 workers=workers,
                                 threads_per_container=rng.randint(1, 3),
                                 contention=model)
    return trace, config


CONTENTION_CASES = [sample_contention_case(random.Random(3000 + i))
                    for i in range(N_SAMPLES)]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_contention_conservation_invariants(case_idx, policy_name):
    """Progress-based completions slow requests down but never lose,
    duplicate or time-travel them."""
    trace, config = CONTENTION_CASES[case_idx]
    policy = POLICIES[policy_name]()
    orchestrator = Orchestrator(trace.functions, policy, config)
    result = orchestrator.run(trace.fresh_requests())

    assert result.total == trace.num_requests
    assert all(r.completed for r in result.requests)
    assert sorted(r.req_id for r in result.requests) \
        == list(range(trace.num_requests))

    counted = sum(result.count(t) for t in
                  (StartType.WARM, StartType.COLD, StartType.DELAYED))
    assert counted == result.total

    # Causality, and contention only ever stretches executions: realized
    # wall time is never shorter than the trace's service demand.
    for r in result.requests:
        assert r.arrival_ms <= r.start_ms <= r.end_ms
        assert r.end_ms - r.start_ms >= r.exec_ms - 1e-9

    capacity_mb = config.capacity_mb
    for sample in result.memory_samples:
        assert sample.used_mb <= capacity_mb + 1e-6

    # Progress ledgers, completion heads and rate-boundary events fully
    # retired, worker indexes self-consistent, liveness counters exact
    # despite every head move leaving a stale heap entry behind.
    assert not orchestrator._execs
    assert not orchestrator._worker_execs or \
        all(not t for t in orchestrator._worker_execs.values())
    assert not orchestrator._heads
    assert not orchestrator._rate_events
    for worker in orchestrator.workers():
        assert worker.check_integrity()
    sim = orchestrator.sim
    assert sim._scan_counts() == (sim._live, sim._real)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_contention_packed_replay_bit_identical(case_idx, policy_name):
    """Packed arrivals and the idle fast-forward replay contention runs
    exactly: each busy worker's completion event is a real heap event,
    so the analytic skip can never jump over a retiming."""
    trace, config = CONTENTION_CASES[case_idx]
    outcomes = {}
    for label, workload_packed, fast_forward in (
            ("classic", False, False),
            ("packed", True, False),
            ("packed+ff", True, True)):
        cfg = dataclasses.replace(config, fast_forward=fast_forward)
        orchestrator = Orchestrator(trace.functions,
                                    POLICIES[policy_name](), cfg)
        workload = (trace.packed() if workload_packed
                    else trace.fresh_requests())
        result = orchestrator.run(workload)
        outcomes[label] = (
            result.summary(),
            [(r.req_id, r.start_type, r.start_ms, r.end_ms)
             for r in result.requests])
        sim = orchestrator.sim
        assert sim._scan_counts() == (sim._live, sim._real)
    assert outcomes["packed"] == outcomes["classic"]
    assert outcomes["packed+ff"] == outcomes["classic"]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("case_idx", range(N_SAMPLES))
def test_inert_contention_bit_identical_to_none(case_idx, policy_name):
    """alpha=0 keeps every slowdown at exactly 1.0, so the progress path
    must reproduce the classic path bit for bit."""
    trace, config = CONTENTION_CASES[case_idx]
    inert = dataclasses.replace(
        config, contention=ContentionModel(
            cores=config.contention.cores, alpha=0.0))
    off = dataclasses.replace(config, contention=None)
    results = {}
    for label, cfg in (("inert", inert), ("off", off)):
        orchestrator = Orchestrator(trace.functions,
                                    POLICIES[policy_name](), cfg)
        result = orchestrator.run(trace.fresh_requests())
        results[label] = (
            result.summary(),
            [(r.req_id, r.start_type, r.start_ms, r.end_ms, r.wait_ms)
             for r in result.requests])
    assert results["inert"] == results["off"]


def test_contention_cases_exercise_slowdowns():
    """The sampled contention grid is not vacuous: under at least one
    policy every case stretches some execution past its service demand."""
    for trace, config in CONTENTION_CASES:
        orchestrator = Orchestrator(trace.functions, POLICIES["TTL"](),
                                    config)
        result = orchestrator.run(trace.fresh_requests())
        assert any(r.end_ms - r.start_ms > r.exec_ms + 1e-9
                   for r in result.requests), config.contention
