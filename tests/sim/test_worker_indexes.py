"""Unit tests for the worker's incremental state indexes.

The indexed queries (``idle_of``/``busy_of``/..., the O(1) counts,
``evictable_mb``, ``slot_available``, ``state_mb``) must agree with the
``naive=True`` scanning implementations after any sequence of container
lifecycle transitions, and ``check_integrity`` must notice when they do
not. The differential golden tests cover whole replays; these cover the
index mechanics directly, transition by transition.
"""

import random

import pytest

from repro.sim.container import Container, ContainerState
from repro.sim.engine import Simulator
from repro.sim.function import FunctionSpec
from repro.sim.request import Request
from repro.sim.worker import Worker

SPECS = [FunctionSpec("f0", memory_mb=100, cold_start_ms=500),
         FunctionSpec("f1", memory_mb=150, cold_start_ms=400),
         FunctionSpec("f2", memory_mb=60, cold_start_ms=300)]


def paired_workers(capacity_mb=10_000):
    """An indexed worker and a naive twin fed identical transitions. The
    indexed one also keeps its evictable containers in recency order, so
    ``check_integrity`` covers the ordered function groups too."""
    return (Worker(0, capacity_mb=capacity_mb, order_key="last_used_ms"),
            Worker(1, capacity_mb=capacity_mb, naive=True))


def assert_queries_agree(fast: Worker, naive: Worker) -> None:
    """Every public query agrees between the twins (ids aside).

    Containers are distinct objects per worker, so lists are compared on
    (function, state, memory) signatures; registration order is the same
    on both sides, which the signature comparison therefore verifies too.
    """
    def sig(containers):
        return [(c.spec.name, c.state, c.memory_mb) for c in containers]

    for spec in SPECS:
        f = spec.name
        assert sig(fast.of_func(f)) == sig(naive.of_func(f))
        assert sig(fast.idle_of(f)) == sig(naive.idle_of(f))
        assert sig(fast.busy_of(f)) == sig(naive.busy_of(f))
        assert sig(fast.provisioning_of(f)) == sig(naive.provisioning_of(f))
        assert sig(fast.compressed_of(f)) == sig(naive.compressed_of(f))
        assert fast.func_count(f) == len(naive.of_func(f))
        assert fast.idle_count(f) == len(naive.idle_of(f))
        assert fast.busy_count(f) == len(naive.busy_of(f))
        assert fast.provisioning_count(f) == len(naive.provisioning_of(f))
        assert fast.compressed_count(f) == len(naive.compressed_of(f))
        assert fast.warm_count(f) == naive.warm_count(f)
        a, b = fast.slot_available(f), naive.slot_available(f)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.spec.name, a.last_used_ms) == (b.spec.name,
                                                     b.last_used_ms)
    assert sig(fast.evictable()) == sig(naive.evictable())
    assert fast.evictable_mb() == naive.evictable_mb()
    assert fast.used_mb == naive.used_mb
    for state in ContainerState:
        assert fast.state_mb(state) == naive.state_mb(state)
    fast.check_integrity()
    naive.check_integrity()


def test_lifecycle_transitions_keep_twins_agreeing():
    """Drive both twins through every lifecycle edge, comparing at each."""
    fast, naive = paired_workers()
    pairs = []
    for i, spec in enumerate(SPECS * 2):
        pair = (Container(spec, 0.0), Container(spec, 0.0))
        for worker, c in zip((fast, naive), pair):
            worker.add(c)
        pairs.append(pair)
        assert_queries_agree(fast, naive)

    for t, pair in enumerate(pairs):
        for c in pair:
            c.mark_ready(float(t))
        assert_queries_agree(fast, naive)

    # Busy: start a request on half of them.
    for i, pair in enumerate(pairs[::2]):
        for c in pair:
            c.start_request(Request(c.spec.name, 0.0, 10.0, req_id=i), 10.0)
        assert_queries_agree(fast, naive)

    # Compress / restore / abort-restore on idle ones.
    idle_pairs = [p for p in pairs if p[0].is_idle]
    for c0, c1 in idle_pairs:
        old = c0.memory_mb
        for worker, c in zip((fast, naive), (c0, c1)):
            c.compress(0.4)
            worker.recharge(c, old)
        assert_queries_agree(fast, naive)
    # Aborted restore: footprint and state return to compressed exactly.
    # (No query checks mid-restore: memory is recharged only once room is
    # made, so the worker is transiently undercharged by design.)
    c0, c1 = idle_pairs[0]
    for c in (c0, c1):
        c.begin_restore(20.0)
        c.abort_restore(0.4)
    assert_queries_agree(fast, naive)
    # Successful restore: recharge to the full footprint, then ready.
    for worker, c in zip((fast, naive), idle_pairs[1]):
        old_mb = c.memory_mb
        c.begin_restore(21.0)
        worker.recharge(c, old_mb)
        c.mark_ready(22.0)
    assert_queries_agree(fast, naive)

    # Finish requests, then evict everything evictable.
    for pair in pairs[::2]:
        for c in pair:
            c.finish_request(c.active[0], 30.0)
        assert_queries_agree(fast, naive)
    while fast.evictable():
        fast.remove(fast.evictable()[0])
        naive.remove(naive.evictable()[0])
        assert_queries_agree(fast, naive)


def test_randomized_transition_storm():
    """A seeded random walk over the transition space stays consistent."""
    rng = random.Random(42)
    fast, naive = paired_workers(capacity_mb=2_000)
    pairs = []
    now = 0.0
    for step in range(400):
        now += rng.random() * 10.0
        roll = rng.random()
        if roll < 0.3 and len(pairs) < 12:
            spec = rng.choice(SPECS)
            pair = (Container(spec, now), Container(spec, now))
            try:
                fast.add(pair[0])
            except MemoryError:
                continue
            naive.add(pair[1])
            pairs.append(pair)
        elif pairs:
            pair = rng.choice(pairs)
            c0, c1 = pair
            if c0.is_provisioning and roll < 0.6:
                for c in pair:
                    c.mark_ready(now)
            elif c0.is_idle and roll < 0.5:
                for c in pair:
                    c.start_request(
                        Request(c.spec.name, now, 5.0, req_id=step), now)
            elif c0.is_idle and roll < 0.7:
                old = c0.memory_mb
                for worker, c in zip((fast, naive), pair):
                    c.compress(0.35)
                    worker.recharge(c, old)
            elif c0.is_busy and c0.active:
                for c in pair:
                    c.finish_request(c.active[0], now)
            elif c0.is_compressed:
                for worker, c in zip((fast, naive), pair):
                    old_mb = c.memory_mb
                    c.begin_restore(now)
                    worker.recharge(c, old_mb)
                    c.mark_ready(now + 1.0)
            elif c0.is_evictable and roll > 0.85:
                fast.remove(c0)
                naive.remove(c1)
                pairs.remove(pair)
        if step % 20 == 0:
            assert_queries_agree(fast, naive)
    assert_queries_agree(fast, naive)


def test_check_integrity_detects_corruption():
    worker, _ = paired_workers()
    c = Container(SPECS[0], 0.0)
    worker.add(c)
    c.mark_ready(0.0)
    worker.check_integrity()
    # Sabotage one index entry behind the bookkeeping's back.
    del worker._by_func["f0"].idle[c.container_id]
    with pytest.raises(AssertionError):
        worker.check_integrity()


def test_check_integrity_reports_key_written_while_idle():
    """An order key must not move while its container is filed: the
    group would no longer be sorted by the live key."""
    worker = Worker(0, capacity_mb=10_000, order_key="clock")
    c = Container(SPECS[0], 0.0)
    worker.add(c)
    c.mark_ready(0.0)
    worker.check_integrity()
    c.clock = 5.0
    with pytest.raises(AssertionError, match="filed at key 0.0"):
        worker.check_integrity()
    worker.remove(c)                   # found by its stored key
    assert worker.check_integrity()


def test_ordered_groups_follow_evictable_set():
    worker = Worker(0, capacity_mb=10_000, order_key="clock")
    containers = []
    for clock, spec in zip((3.0, 1.0, 2.0, 1.0), SPECS + SPECS[:1]):
        c = Container(spec, 0.0)
        worker.add(c)
        c.clock = clock
        c.mark_ready(0.0)
        containers.append(c)
    groups = {g[0][2].spec.name: [(k, cid) for k, cid, _ in g]
              for g in worker.ordered_groups()}
    a, b, c, d = containers
    assert groups == {"f0": [(1.0, d.container_id), (3.0, a.container_id)],
                      "f1": [(1.0, b.container_id)],
                      "f2": [(2.0, c.container_id)]}
    b.start_request(Request("f1", 0.0, 1.0), 0.0)
    b.clock = 9.0                      # serve-time write, while busy
    worker.remove(c)
    assert sorted(g[0][2].spec.name for g in worker.ordered_groups()) \
        == ["f0"]
    b.finish_request(b.active[0], 1.0)
    assert [g[0][:2] for g in worker.ordered_groups()][-1] \
        == (9.0, b.container_id)
    worker.check_integrity()
    worker.crash()
    assert not list(worker.ordered_groups())


def test_check_integrity_detects_memory_drift():
    worker, _ = paired_workers()
    c = Container(SPECS[0], 0.0)
    worker.add(c)
    c.mark_ready(0.0)
    worker._used_mb += 1.0
    with pytest.raises(AssertionError):
        worker.check_integrity()


def test_slot_available_strict_recency_tie_break():
    """Most recently used wins; exact ties go to the earlier-added one."""
    fast, naive = paired_workers()
    for worker in (fast, naive):
        for spec in (SPECS[0], SPECS[0], SPECS[0]):
            c = Container(spec, 0.0)
            worker.add(c)
            c.mark_ready(0.0)
    for worker in (fast, naive):
        a, b, c = worker.of_func("f0")
        a.last_used_ms = 5.0
        b.last_used_ms = 9.0
        c.last_used_ms = 9.0   # ties b: b (earlier id) must win
        assert worker.slot_available("f0") is b


def test_evictable_mb_tracks_membership():
    fast, naive = paired_workers()
    containers = []
    for worker_idx, worker in enumerate((fast, naive)):
        for spec in SPECS:
            c = Container(spec, 0.0)
            worker.add(c)
            c.mark_ready(0.0)
            if worker_idx == 0:
                containers.append(c)
    assert fast.evictable_mb() == naive.evictable_mb() == 310.0
    containers[0].start_request(
        Request("f0", 0.0, 5.0, req_id=0), 0.0)   # busy: not evictable
    assert fast.evictable_mb() == 210.0
    fast.remove(containers[2])
    assert fast.evictable_mb() == 150.0
    fast.check_integrity()


def _id_order_evictable_mb(worker):
    return sum(worker.containers[cid].memory_mb
               for cid in sorted(worker.containers)
               if worker.containers[cid].is_evictable)


def _compress(worker, container, fraction):
    old_mb = container.memory_mb
    container.compress(fraction)
    worker.recharge(container, old_mb)


def test_evictable_mb_integral_footprints_use_running_totals():
    """Integer footprints keep the running totals exact, so they serve
    ``evictable_mb`` directly and still equal the id-order sum."""
    worker = Worker(0, capacity_mb=10_000)
    containers = []
    for spec in SPECS * 3:
        c = Container(spec, 0.0)
        worker.add(c)
        c.mark_ready(0.0)
        containers.append(c)
    _compress(worker, containers[1], 0.5)   # 150 -> 75.0 MB, integral
    worker.remove(containers[3])
    assert worker._integral
    assert worker.evictable_mb() == _id_order_evictable_mb(worker) == 755.0
    worker.check_integrity()


def test_evictable_mb_fractional_footprint_falls_back():
    """CodeCrunch's default 0.35 compression leaves fractional
    footprints. Compressed in reverse id order, the running total
    drifts from the id-order sum, so the worker must fall back to that
    sum, and stays on it (the flag is sticky)."""
    from repro.policies.codecrunch import CodeCrunchPolicy
    fraction = CodeCrunchPolicy().compressed_fraction
    worker = Worker(0, capacity_mb=10_000)
    containers = []
    for i, mb in enumerate((101, 103, 109, 127)):
        c = Container(FunctionSpec(f"g{i}", memory_mb=mb,
                                   cold_start_ms=100.0), 0.0)
        worker.add(c)
        c.mark_ready(0.0)
        containers.append(c)
    for c in reversed(containers):
        _compress(worker, c, fraction)
    running = (worker.state_mb(ContainerState.IDLE)
               + worker.state_mb(ContainerState.COMPRESSED))
    assert running != _id_order_evictable_mb(worker)   # the drift is real
    assert not worker._integral
    assert worker.evictable_mb() == _id_order_evictable_mb(worker)
    worker.check_integrity()
    for c in containers:
        old_mb = c.memory_mb
        c.decompress()                  # integral again, flag stays off
        worker.recharge(c, old_mb)
    assert not worker._integral
    assert worker.evictable_mb() == _id_order_evictable_mb(worker)
    worker.check_integrity()


class TestEngineCounters:
    """O(1) liveness counters vs full-heap scans."""

    def test_counts_track_schedule_cancel_run(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i), fired.append, i)
                  for i in range(10)]
        handle = sim.every(2.0, lambda: None)
        assert sim._scan_counts() == (sim._live, sim._real) == (11, 10)
        events[3].cancel()
        events[3].cancel()   # idempotent
        assert sim._scan_counts() == (sim._live, sim._real) == (10, 9)
        sim.run(until=4.0)
        assert sim._scan_counts() == (sim._live, sim._real)
        sim.run()
        assert (sim._live, sim._real) == (0, 0)
        assert sim._scan_counts() == (0, 0)
        assert fired == [0, 1, 2, 4, 5, 6, 7, 8, 9]
        handle.cancel()      # after the chain died: counters untouched
        assert (sim._live, sim._real) == (0, 0)

    def test_naive_mode_matches_counters(self):
        fast, naive = Simulator(), Simulator(naive=True)
        for sim in (fast, naive):
            events = [sim.schedule(float(i), lambda: None)
                      for i in range(6)]
            sim.every(1.5, lambda: None)
            events[2].cancel()
        assert fast.pending() == naive.pending() == 6
        assert fast._has_real_events() and naive._has_real_events()
        fast.run()
        naive.run()
        assert fast.pending() == naive.pending() == 0
        assert not fast._has_real_events()
        assert not naive._has_real_events()
        assert fast.processed == naive.processed

    def test_processed_counts_fired_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed == 5
