"""Integration tests for the orchestrator's request lifecycle semantics.

Each test constructs a tiny deterministic scenario and checks the exact
start types, waits and completions the paper's mechanism implies.
"""

import pytest

from repro.core.cidre import CIDREBSSPolicy
from repro.policies.base import OrchestrationPolicy, ScalingDecision
from repro.policies.faascache import BoundedQueueFaasCache
from repro.policies.lru import LRUPolicy
from repro.policies.ttl import TTLPolicy
from repro.sim.config import SimulationConfig
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator, simulate
from repro.sim.request import Request, StartType

GB = 1024.0


def spec(name="fn", mem=100.0, cold=500.0):
    return FunctionSpec(name, memory_mb=mem, cold_start_ms=cold)


def config(mb=1000.0, **kw):
    return SimulationConfig(capacity_gb=mb / GB, **kw)


class QueueOnlyPolicy(OrchestrationPolicy):
    """Test helper: always wait for a busy container (never cold start
    unless the orchestrator must escalate)."""

    name = "queue-only"

    def scale(self, request, worker, now):
        return ScalingDecision.queue()


class TestColdAndWarm:
    def test_first_request_is_cold(self):
        result = simulate([spec()], [Request("fn", 0.0, 100.0)],
                          LRUPolicy(), config())
        req = result.requests[0]
        assert req.start_type is StartType.COLD
        assert req.wait_ms == 500.0
        assert req.end_ms == 600.0
        assert result.cold_start_ratio == 1.0

    def test_reuse_after_completion_is_warm(self):
        reqs = [Request("fn", 0.0, 100.0), Request("fn", 1000.0, 100.0)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        assert result.requests[1].start_type is StartType.WARM
        assert result.requests[1].wait_ms == 0.0

    def test_concurrent_requests_cold_only_policy(self):
        reqs = [Request("fn", 0.0, 1000.0), Request("fn", 10.0, 1000.0)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        assert [r.start_type for r in result.requests] \
            == [StartType.COLD, StartType.COLD]
        # Each request waited exactly one cold start.
        assert result.requests[0].wait_ms == 500.0
        assert result.requests[1].wait_ms == 500.0

    def test_unknown_function_rejected(self):
        orch = Orchestrator([spec()], LRUPolicy(), config())
        with pytest.raises(KeyError):
            orch.run([Request("ghost", 0.0, 1.0)])

    def test_function_too_large_rejected(self):
        with pytest.raises(ValueError):
            Orchestrator([spec(mem=2000.0)], LRUPolicy(), config(mb=1000.0))

    def test_duplicate_function_name_rejected(self):
        """The last spec used to win silently."""
        with pytest.raises(ValueError, match="duplicate function name 'b'"):
            Orchestrator([spec("a"), spec("b"), spec("b", mem=200.0)],
                         LRUPolicy(), config())


class TestDelayedWarmStarts:
    def test_queue_only_waits_for_busy_container(self):
        # R0 cold-starts (ready at 500, runs to 800); R1 arrives at 600,
        # queues, and is served when R0's container frees at 800.
        reqs = [Request("fn", 0.0, 300.0), Request("fn", 600.0, 300.0)]
        result = simulate([spec()], reqs, QueueOnlyPolicy(), config())
        r0, r1 = sorted(result.requests, key=lambda r: r.arrival_ms)
        assert r0.start_type is StartType.COLD
        assert r1.start_type is StartType.DELAYED
        assert r1.start_ms == 800.0
        assert r1.wait_ms == 200.0
        assert r1.container_id == r0.container_id

    def test_queue_escalates_to_cold_without_supply(self):
        # Only request of its function: nothing to queue on.
        result = simulate([spec()], [Request("fn", 0.0, 100.0)],
                          QueueOnlyPolicy(), config())
        assert result.requests[0].start_type is StartType.COLD

    def test_fifo_order_among_waiters(self):
        # One container busy until t=1000; three waiters queue.
        reqs = [Request("fn", 0.0, 1000.0)] + [
            Request("fn", 600.0 + i, 100.0) for i in range(3)]
        result = simulate([spec()], reqs, QueueOnlyPolicy(), config())
        waiters = sorted((r for r in result.requests
                          if r.start_type is not StartType.COLD),
                         key=lambda r: r.arrival_ms)
        starts = [r.start_ms for r in waiters]
        assert starts == sorted(starts)
        # Served back-to-back on the same container.
        assert starts[0] == 1500.0  # cold ready at 500 + exec 1000
        assert starts[1] == 1600.0
        assert starts[2] == 1700.0


class TestSpeculativeScaling:
    def test_busy_container_wins_race(self):
        # R0: cold 500, exec 300 -> container free at 800.
        # R1 arrives at 700: speculation provisions C1 (ready 1200) while
        # waiting on C0 (free 800). C0 wins; R1 delayed, wait 100.
        reqs = [Request("fn", 0.0, 300.0), Request("fn", 700.0, 300.0)]
        result = simulate([spec()], reqs, CIDREBSSPolicy(), config())
        r1 = max(result.requests, key=lambda r: r.arrival_ms)
        assert r1.start_type is StartType.DELAYED
        assert r1.wait_ms == 100.0
        # The speculative container was provisioned anyway.
        assert result.cold_starts_begun == 2

    def test_cold_start_wins_race(self):
        # R0 executes for 10 s; R1 arrives at 600 and its speculative
        # container (ready at 1100) beats C0 (free at 10500).
        reqs = [Request("fn", 0.0, 10_000.0), Request("fn", 600.0, 300.0)]
        result = simulate([spec()], reqs, CIDREBSSPolicy(), config())
        r1 = max(result.requests, key=lambda r: r.arrival_ms)
        assert r1.start_type is StartType.COLD
        assert r1.start_ms == 1100.0

    def test_wasted_speculative_container_counted(self):
        # The speculative container loses the race and is never reused.
        reqs = [Request("fn", 0.0, 300.0), Request("fn", 700.0, 300.0)]
        result = simulate([spec()], reqs, CIDREBSSPolicy(), config())
        assert result.wasted_cold_starts == 1


class TestBoundedQueues:
    def test_committed_queue_sticks_to_container(self):
        # Two busy containers: C0 frees at 5000, C1 at 1000. A request
        # committing to C0 (fewest queued at decision time is a tie ->
        # first found) must wait for C0 even though C1 frees earlier...
        # here we exercise commitment by filling C1's queue first.
        reqs = [
            Request("fn", 0.0, 5000.0),    # C0 busy long
            Request("fn", 0.0, 1000.0),    # C1 busy short
            Request("fn", 600.0, 10.0),    # commits to least-queued
            Request("fn", 601.0, 10.0),    # commits to the other
        ]
        result = simulate([spec()], reqs, BoundedQueueFaasCache(1),
                          config())
        delayed = [r for r in result.requests
                   if r.start_type is StartType.DELAYED]
        assert len(delayed) == 2
        starts = sorted(r.start_ms for r in delayed)
        # One served when the short container frees (1500), the other
        # stuck behind the long execution (5500).
        assert starts[0] == pytest.approx(1500.0)
        assert starts[1] == pytest.approx(5500.0)

    def test_queue_length_zero_is_vanilla(self):
        reqs = [Request("fn", 0.0, 5000.0), Request("fn", 600.0, 10.0)]
        result = simulate([spec()], reqs, BoundedQueueFaasCache(0),
                          config())
        assert result.delayed_start_ratio == 0.0
        assert result.cold_start_ratio == 1.0

    def test_full_queues_fall_back_to_cold(self):
        reqs = [
            Request("fn", 0.0, 5000.0),   # busy container
            Request("fn", 600.0, 10.0),   # fills its L=1 queue
            Request("fn", 601.0, 10.0),   # queue full -> cold start
        ]
        result = simulate([spec()], reqs, BoundedQueueFaasCache(1),
                          config())
        types = [r.start_type for r in
                 sorted(result.requests, key=lambda r: r.arrival_ms)]
        assert types == [StartType.COLD, StartType.DELAYED, StartType.COLD]


class TestMemoryPressure:
    def test_lru_evicts_oldest_idle(self):
        # Capacity 250 MB, 100 MB each: third function evicts the LRU one.
        specs = [spec("a"), spec("b"), spec("c")]
        reqs = [
            Request("a", 0.0, 10.0),
            Request("b", 1000.0, 10.0),
            Request("a", 2000.0, 10.0),   # touch a: b becomes LRU
            Request("c", 3000.0, 10.0),   # evicts b
            Request("a", 4000.0, 10.0),   # a still warm
            Request("b", 5000.0, 10.0),   # b was evicted -> cold
        ]
        result = simulate(specs, reqs, LRUPolicy(), config(mb=250.0))
        by_arrival = sorted(result.requests, key=lambda r: r.arrival_ms)
        assert by_arrival[4].start_type is StartType.WARM   # a
        assert by_arrival[5].start_type is StartType.COLD   # b again

    def test_provision_blocks_until_memory_frees(self):
        # Capacity fits one container; both requests contend.
        reqs = [Request("a", 0.0, 1000.0), Request("b", 100.0, 100.0)]
        result = simulate([spec("a"), spec("b")], reqs, LRUPolicy(),
                          config(mb=100.0))
        rb = [r for r in result.requests if r.func == "b"][0]
        # b could only start provisioning once a finished (t=1500) and its
        # container was evicted.
        assert rb.start_type is StartType.COLD
        assert rb.start_ms == pytest.approx(2000.0)

    def test_eviction_counted(self):
        specs = [spec("a"), spec("b")]
        reqs = [Request("a", 0.0, 10.0), Request("b", 1000.0, 10.0)]
        result = simulate(specs, reqs, LRUPolicy(), config(mb=100.0))
        assert result.evictions == 1


class TestThreads:
    def test_multi_thread_warm_start_on_busy_container(self):
        reqs = [Request("fn", 0.0, 1000.0), Request("fn", 600.0, 100.0)]
        result = simulate([spec()], reqs, LRUPolicy(),
                          config(threads_per_container=2))
        r1 = max(result.requests, key=lambda r: r.arrival_ms)
        assert r1.start_type is StartType.WARM
        assert r1.wait_ms == 0.0
        ids = {r.container_id for r in result.requests}
        assert len(ids) == 1  # both ran in the same container

    def test_single_thread_cannot_share(self):
        reqs = [Request("fn", 0.0, 1000.0), Request("fn", 600.0, 100.0)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        r1 = max(result.requests, key=lambda r: r.arrival_ms)
        assert r1.start_type is StartType.COLD


class TestTTL:
    def test_ttl_expires_idle_containers(self):
        reqs = [Request("fn", 0.0, 10.0),
                Request("fn", 100_000.0, 10.0)]   # 100 s later
        result = simulate([spec()], reqs, TTLPolicy(ttl_ms=60_000.0),
                          config())
        later = max(result.requests, key=lambda r: r.arrival_ms)
        assert later.start_type is StartType.COLD

    def test_ttl_keeps_recent_containers(self):
        reqs = [Request("fn", 0.0, 10.0),
                Request("fn", 30_000.0, 10.0)]
        result = simulate([spec()], reqs, TTLPolicy(ttl_ms=60_000.0),
                          config())
        later = max(result.requests, key=lambda r: r.arrival_ms)
        assert later.start_type is StartType.WARM


class TestPlumbing:
    def test_all_requests_complete_and_recorded(self):
        reqs = [Request("fn", float(i * 50), 25.0) for i in range(40)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        assert result.total == 40
        assert all(r.completed for r in result.requests)

    def test_memory_sampling(self):
        reqs = [Request("fn", 0.0, 5_000.0)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        assert result.memory_samples
        assert result.peak_memory_mb == pytest.approx(100.0)

    def test_multi_worker_hash_dispatch(self):
        specs = [spec(f"f{i}") for i in range(8)]
        reqs = [Request(f"f{i}", float(i), 10.0) for i in range(8)]
        cfg = SimulationConfig(capacity_gb=1.0, workers=4)
        orch = Orchestrator(specs, LRUPolicy(), cfg)
        result = orch.run(reqs)
        used_workers = {w.worker_id for w in orch.workers()
                        if w.containers or w.used_mb > 0}
        # With 8 functions over 4 workers, more than one worker is used.
        assert result.total == 8

    def test_requests_sorted_even_if_given_unsorted(self):
        reqs = [Request("fn", 1000.0, 10.0), Request("fn", 0.0, 10.0)]
        result = simulate([spec()], reqs, LRUPolicy(), config())
        first = min(result.requests, key=lambda r: r.arrival_ms)
        assert first.start_type is StartType.COLD
