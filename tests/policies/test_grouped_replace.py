"""REPLACE over function groups selects exactly the full ranking's victims.

Policies whose priority is ``getattr(c, order_key) + group_offset(...)``
score only each function group's head in ``make_room``. These tests pin
that selection, victim by victim and in order, against an explicit
``sorted(((priority(c), container_id), c))`` ranking of the same pool,
on seeded pools built to stress the merge: equal keys within and across
groups, several workers, and keys one ulp apart under a large offset, so
that computed priorities round equal while the id order is reversed.
"""

import math
import random

import pytest

from repro.core.cidre import CIDREPolicy
from repro.obs import DecisionAudit
from repro.policies.faascache import FaasCacheCPolicy, FaasCachePolicy
from repro.policies.lru import LRUPolicy
from repro.policies.ttl import TTLPolicy
from repro.sim.config import SimulationConfig
from repro.sim.container import Container
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request

POLICIES = [CIDREPolicy, FaasCachePolicy, FaasCacheCPolicy, LRUPolicy,
            TTLPolicy]
NOW = 60_000.0
#: Keys from a small set, so equal keys are common, with ulp neighbours.
KEYS = [1.0, math.nextafter(1.0, 2.0), 2.0, math.nextafter(2.0, 3.0), 7.5]

# Two functions with identical parameters (equal offsets, so equal
# priorities across groups) and cold starts large enough that the offset
# swallows a one-ulp key difference.
SPECS = [FunctionSpec("twin-a", memory_mb=100.0, cold_start_ms=1e6),
         FunctionSpec("twin-b", memory_mb=100.0, cold_start_ms=1e6),
         FunctionSpec("small", memory_mb=40.0, cold_start_ms=300.0),
         FunctionSpec("big", memory_mb=250.0, cold_start_ms=5e5)]


def build(policy_cls, workers=3):
    policy = policy_cls()
    orch = Orchestrator(SPECS, policy,
                        SimulationConfig(capacity_gb=workers * 8.0,
                                         workers=workers))
    for spec in SPECS:
        for i in range(10):
            policy.on_request_arrival(Request(spec.name, 0.0, 1.0),
                                      orch.workers()[0], float(i))
    evicted = []
    evict = orch.evict

    def recording_evict(container, decision_id=None):
        evicted.append(container)
        evict(container, decision_id=decision_id)

    orch.evict = recording_evict
    return policy, orch, evicted


def idle(worker, spec, key, policy):
    """An idle container whose order key is ``key`` when it is filed."""
    c = Container(spec, 0.0)
    worker.add(c)
    setattr(c, policy.order_key, key)
    c.mark_ready(0.0)
    return c


def busy(worker, spec):
    c = Container(spec, 0.0)
    worker.add(c)
    c.mark_ready(0.0)
    c.start_request(Request(spec.name, 0.0, 1.0), 0.0)
    return c


def expected_order(policy, worker):
    pool = worker.evictable()
    return [c for _, c in sorted(
        ((policy.priority(c, NOW), c.container_id), c) for c in pool)]


def need_for(worker, victims):
    """The ``need_mb`` that REPLACE meets with exactly ``victims``."""
    freed = worker.free_mb
    for c in victims:
        freed += c.memory_mb
    return freed


@pytest.mark.parametrize("policy_cls", POLICIES,
                         ids=lambda cls: cls.__name__)
class TestGroupedReplace:
    def test_grouped_path_is_taken(self, policy_cls):
        policy, orch, _ = build(policy_cls)
        assert policy.group_key == policy.order_key
        assert all(w.order_key == policy.group_key for w in orch.workers())

    def test_ulp_apart_keys_break_by_container_id(self, policy_cls):
        policy, orch, evicted = build(policy_cls, workers=1)
        worker = orch.workers()[0]
        # The lower-id container gets the higher key: the group lists
        # `late` first, but the offset rounds both priorities equal.
        early = idle(worker, SPECS[0], KEYS[1], policy)
        late = idle(worker, SPECS[0], KEYS[0], policy)
        idle(worker, SPECS[1], KEYS[3], policy)
        expected = expected_order(policy, worker)
        if policy.group_offset(SPECS[0], worker, NOW):
            assert (policy.priority(early, NOW)
                    == policy.priority(late, NOW))
            assert expected[0] is early
        assert policy.make_room(worker, need_for(worker, expected[:1]), NOW)
        assert evicted == expected[:1]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pools_match_full_ranking(self, policy_cls, seed):
        rng = random.Random(seed)
        policy, orch, evicted = build(policy_cls)
        for worker in orch.workers():
            for _ in range(rng.randint(4, 24)):
                spec = rng.choice(SPECS)
                if rng.random() < 0.15:
                    busy(worker, spec)
                else:
                    idle(worker, spec, rng.choice(KEYS), policy)
        for worker in orch.workers():
            while worker.evictable():
                expected = expected_order(policy, worker)
                count = rng.randint(1, len(expected))
                del evicted[:]
                assert policy.make_room(
                    worker, need_for(worker, expected[:count]), NOW)
                assert [c.container_id for c in evicted] == [
                    c.container_id for c in expected[:count]]
                worker.check_integrity()

    @pytest.mark.parametrize("seed", range(4))
    def test_may_make_room_is_exact(self, policy_cls, seed):
        """The retry dry run's predicate: True exactly when REPLACE
        succeeds, and a refused call evicts nothing."""
        rng = random.Random(seed)
        policy, orch, evicted = build(policy_cls, workers=1)
        worker = orch.workers()[0]
        for _ in range(rng.randint(4, 24)):
            spec = rng.choice(SPECS)
            if rng.random() < 0.3:
                busy(worker, spec)
            else:
                idle(worker, spec, rng.choice(KEYS), policy)
        reclaimable = worker.free_mb + sum(c.memory_mb
                                           for c in worker.evictable())
        for need in (worker.free_mb, reclaimable, reclaimable + 1.0,
                     worker.capacity_mb + 1.0):
            del evicted[:]
            may = policy.may_make_room(worker, need)
            assert may == (need <= reclaimable)
            if not may:
                assert not policy.make_room(worker, need, NOW)
                assert evicted == []

    def test_audit_ranks_survivors_by_priorities(self, policy_cls):
        """An audited grouped REPLACE ranks the survivors with the
        selection's group offsets: the values priorities() computes."""
        policy, orch, _ = build(policy_cls, workers=1)
        worker = orch.workers()[0]
        rng = random.Random(5)
        for _ in range(20):
            idle(worker, rng.choice(SPECS), rng.choice(KEYS), policy)
        policy.audit = audit = DecisionAudit()
        pool = list(worker.evictable_items())
        ranked = sorted(zip(policy.priorities(pool, NOW), pool),
                        key=lambda pair: (pair[0], pair[1].container_id))
        assert policy.make_room(worker, need_for(worker, [ranked[0][1]]),
                                NOW)
        (record,) = audit.records
        assert [c["cid"] for c in record["victims"]] == [
            ranked[0][1].container_id]
        assert record["survivors"] == [
            {"cid": c.container_id, "func": c.spec.name, "priority": p}
            for p, c in ranked[1:]]
