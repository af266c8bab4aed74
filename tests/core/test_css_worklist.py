"""CSS maintenance on a ranked worklist.

A maintenance tick visits only the waiting functions that are not
*covered* (open gate, last cover found nothing, no count change since).
Instead of scanning every waiting function, the policy keeps a worklist
(last tick's uncovered visits plus every function whose gate closed) and
adds the functions the orchestrator reports changed. These tests pin that
the visits are exactly the ones the full scan would make, in the same
order, and that the worklist stays small on the benchmark backlog.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.cidre import CIDREPolicy
from repro.core.scaling import _LastCreated
from repro.experiments.suites import policy_factories
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.traces.azure import azure_trace

REPO = Path(__file__).resolve().parents[2]


class StubContext:
    """The slice of the orchestrator facade CSS maintenance reads."""

    def __init__(self, ranked):
        #: func -> unserved waiters, in rank (first-queued) order.
        self.waiting = {func: 0 for func in ranked}
        self.in_flight = {func: 0 for func in ranked}
        self.changed = set()
        self.speculated = []

    def set_waiting(self, func, count):
        self.waiting[func] = count
        self.changed.add(func)

    def outstanding_waiters(self, func):
        return self.waiting[func]

    def oldest_waiter_age_ms(self, func):
        return 0.0

    def provisions_in_flight(self, func):
        return self.in_flight[func]

    def speculate_for(self, func):
        self.speculated.append(func)
        self.in_flight[func] += 1
        self.changed.add(func)
        return True

    def waiting_functions(self):
        return [func for func, count in self.waiting.items() if count]

    def any_waiting(self):
        return any(self.waiting.values())

    def waiting_among(self, funcs):
        return [func for func in self.waiting_functions() if func in funcs]

    def take_changed_functions(self):
        changed, self.changed = self.changed, set()
        return changed


def bound_policy(ranked):
    policy = CIDREPolicy()
    ctx = StubContext(ranked)
    policy.bind(ctx)
    visits = []
    cover = policy._cover_backlog

    def counted_cover(func):
        visits.append(func)
        return cover(func)

    policy._cover_backlog = counted_cover
    return policy, ctx, visits


def count_gate_checks(policy):
    """Record each closed-gate evaluation (its ``T_d`` read)."""
    checks = []
    last_delay = policy.last_delay_ms

    def counted_last_delay(func, now):
        checks.append((func, now))
        return last_delay(func, now)

    policy.last_delay_ms = counted_last_delay
    return checks


class BusyWorker:
    def busy_count(self, func):
        return 2


class TestWorklist:
    def test_visits_follow_rank_order(self):
        policy, ctx, visits = bound_policy(["c", "a", "b"])
        for func in ("b", "a", "c"):
            ctx.set_waiting(func, 1)
        policy.on_maintenance(100.0)
        assert visits == ["c", "a", "b"]
        assert ctx.speculated == ["c", "a", "b"]
        # Each cover provisioned, which is a change: all three are
        # visited again, find their backlog covered, and drop off.
        visits.clear()
        policy.on_maintenance(200.0)
        assert visits == ["c", "a", "b"]
        assert policy._worklist == set()
        visits.clear()
        policy.on_maintenance(300.0)
        assert visits == []

    def test_only_waiting_functions_are_visited(self):
        policy, ctx, visits = bound_policy(["a", "b"])
        ctx.set_waiting("a", 1)
        ctx.set_waiting("b", 1)
        ctx.set_waiting("b", 0)
        policy.on_maintenance(100.0)
        assert visits == ["a"]
        assert "b" not in policy._worklist

    def test_closed_gate_function_stays_on_the_worklist(self):
        policy, ctx, visits = bound_policy(["a"])
        policy._set_bss("a", False, 0.0, "T_i>T_e", "scale")
        ctx.set_waiting("a", 3)
        gate_checks = count_gate_checks(policy)
        for tick in range(1, 4):
            policy.on_maintenance(100.0 * tick)
        # No count changed after the first tick, yet every tick looks at
        # the closed gate again (its windows age with time).
        assert gate_checks == [("a", 100.0), ("a", 200.0), ("a", 300.0)]
        assert policy._worklist == {"a"}
        assert visits == []  # T_d/T_p never reopened it: no cover

    def test_gate_closed_by_scale_reenters_the_worklist(self):
        policy, ctx, visits = bound_policy(["a"])
        ctx.set_waiting("a", 1)
        ctx.in_flight["a"] = 1
        policy.on_maintenance(100.0)
        assert visits == ["a"] and "a" in policy._covered
        assert policy._worklist == set()
        # T_i > T_e with less queued demand than busy containers: scale()
        # closes the gate without any waiter or in-flight count moving.
        policy._window(policy._exec_window, "a").add(150.0, 10.0)
        policy._window(policy._cold_window, "a").add(150.0, 500.0)
        policy._last_created["a"] = _LastCreated(container_id=1, ready_ms=0.0)
        policy.scale(Request("a", 200.0, 10.0), BusyWorker(), 200.0)
        assert not policy.bss_enabled("a")
        assert not ctx.changed
        assert "a" in policy._worklist and "a" not in policy._covered
        gate_checks = count_gate_checks(policy)
        policy.on_maintenance(300.0)
        assert gate_checks == [("a", 300.0)]

    def test_bind_starts_a_fresh_worklist(self):
        policy, ctx, _ = bound_policy(["a"])
        policy._set_bss("a", False, 0.0, "T_i>T_e", "scale")
        assert policy._worklist
        policy.bind(StubContext(["a"]))
        assert policy._worklist == set() and policy._covered == set()


def full_scan_visits(orch, policy):
    """The visits the full scan made: every waiting function that is not
    covered once this tick's changes are taken into account."""
    covered = policy._covered - orch._changed
    return [func for func in orch.waiting_functions() if func not in covered]


#: Two small CSS backlogs: without contention the gate closes on some
#: waiting functions (closed-gate visits); under contention it never does.
SCAN_CASES = {"plain": dict(capacity_gb=4.0),
              "contention": dict(capacity_gb=2.0,
                                 contention=ContentionModel(cores=4))}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_ticks_visit_what_the_full_scan_visited(case):
    """Tick by tick on a CSS backlog, the worklist visits exactly the
    functions the full scan of waiting functions visited, in its order,
    and keeps every waiting closed-gate function on the worklist."""
    trace = azure_trace(seed=7, total_requests=2_000, duration_ms=180_000)
    policy = policy_factories()["CIDRE"](trace)
    orch = Orchestrator(trace.functions, policy,
                        SimulationConfig(**SCAN_CASES[case]))
    ticks = {"visited": 0, "closed": 0}
    among = orch.waiting_among
    seen = []

    def spied_among(funcs):
        visits = among(funcs)
        seen.append(visits)
        return visits

    orch.waiting_among = spied_among
    tick = policy.on_maintenance

    def checked_tick(now):
        expected = full_scan_visits(orch, policy)
        tick(now)
        assert seen.pop() == expected
        ticks["visited"] += bool(expected)
        ticks["closed"] += sum(1 for f in expected
                               if not policy.bss_enabled(f))
        for func in orch.waiting_functions():
            if not policy.bss_enabled(func):
                assert func in policy._worklist

    policy.on_maintenance = checked_tick
    result = orch.run(trace.packed())
    assert all(r.completed for r in result.requests)
    assert ticks["visited"] > 0, "no tick visited a waiting function"
    if case == "plain":
        assert ticks["closed"] > 0, "no tick visited a closed gate"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


def test_backlog_benchmark_work_is_bounded():
    """On the benchmark's ``backlog`` input (seed 0) the worklist makes at
    most 30k visits (a full scan made 878,115) and the contention retimes
    touch at most 160k ledgers (two passes per slot hand-off touched
    298,538)."""
    workloads = _bench_workloads()
    workload = workloads.WORKLOADS["backlog"]
    trace = workloads.generate(workload, 0)
    orch = workloads.make_orchestrator(workload, trace, observed=False)
    counts = {"visits": 0, "ledgers": 0}
    among, retime = orch.waiting_among, orch._retime_worker

    def counted_among(funcs):
        visits = among(funcs)
        counts["visits"] += len(visits)
        return visits

    def counted_retime(worker_id, table, busy, now):
        counts["ledgers"] += len(table)
        return retime(worker_id, table, busy, now)

    orch.waiting_among = counted_among
    orch._retime_worker = counted_retime
    result = orch.run(trace.packed())
    assert workloads.digest(result) == \
        workloads.load_goldens()["workloads"]["backlog"]["digest"]
    assert 0 < counts["visits"] <= 30_000, counts
    assert 0 < counts["ledgers"] <= 160_000, counts
