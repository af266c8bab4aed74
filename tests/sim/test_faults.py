"""Fault-injection edge cases: crash timing, stragglers, heterogeneity.

Every scenario here is hand-built against a 1-2 worker cluster with
``dispatch="single"`` (deterministic worker choice: first online worker),
so the exact timelines — who crashes when, where the orphan lands, what
the retry costs — can be asserted to the millisecond.
"""

import dataclasses

import pytest

from repro.policies.base import OrchestrationPolicy, ScalingDecision
from repro.policies.lru import LRUPolicy
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import (CrashSpec, FaultPlan, RetryPolicy,
                              StragglerSpec, WorkerClassSpec, random_plan)
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request, StartType

F0 = FunctionSpec("f0", memory_mb=100.0, cold_start_ms=500.0)


def run_chaos(plan, requests, functions=(F0,), workers=2,
              capacity_gb=2.0, policy=None, **config_kwargs):
    """Run a scenario and return (result, event log, orchestrator)."""
    log = EventLog()
    cfg = SimulationConfig(capacity_gb=capacity_gb, workers=workers,
                           dispatch="single", faults=plan,
                           **config_kwargs)
    orch = Orchestrator(list(functions), policy or LRUPolicy(), cfg,
                        event_log=log)
    result = orch.run(requests)
    return result, log, orch


def kinds(log, kind):
    return log.of_kind(kind)


class TestCrashDuringProvisioning:
    def test_bound_waiter_rebinds_without_retry_charge(self):
        """A crash that kills an in-flight cold start re-provisions on a
        surviving worker; the request never executed, so no retry budget
        is consumed and nothing is orphaned."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=100.0, restart_delay_ms=10_000.0),))
        result, log, _ = run_chaos(
            plan, [Request("f0", 0.0, 50.0)])
        assert result.total == 1
        req = result.requests[0]
        assert req.completed and req.retries == 0
        # Re-provisioned on worker 1 at crash time: ready at 100 + 500.
        assert req.start_ms == 600.0
        assert req.end_ms == 650.0
        assert result.orphaned_requests == 0
        assert result.reassigned_requests == 1
        reassigned = kinds(log, EventKind.REQUEST_REASSIGNED)
        assert len(reassigned) == 1
        assert reassigned[0].detail == "provision"
        assert reassigned[0].worker_id == 1

    def test_crash_cancels_ready_event(self):
        """The dead worker's CONTAINER_READY never fires: the only ready
        event belongs to the replacement provision."""
        plan = FaultPlan(crashes=(CrashSpec(worker_id=0, at_ms=100.0),))
        _, log, _ = run_chaos(plan, [Request("f0", 0.0, 50.0)])
        ready = kinds(log, EventKind.CONTAINER_READY)
        assert len(ready) == 1
        assert ready[0].time_ms == 600.0


class TestCrashMidExecution:
    def test_orphan_retries_on_surviving_worker(self):
        """Crash at t=700 orphans an execution started at t=500; the
        retry cold-starts on worker 1 and completes at 700+500+1000."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=700.0, restart_delay_ms=5_000.0),))
        result, log, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)])
        req = result.requests[0]
        assert req.completed
        assert req.retries == 1
        assert req.start_type is StartType.COLD
        assert req.start_ms == 1_200.0     # 700 crash + 500 cold start
        assert req.end_ms == 2_200.0
        assert result.orphaned_requests == 1
        assert result.reassigned_requests == 1
        assert not result.failed_requests
        orphaned = kinds(log, EventKind.REQUEST_ORPHANED)
        assert [e.detail for e in orphaned] == ["exec:retry"]
        reassigned = kinds(log, EventKind.REQUEST_REASSIGNED)
        assert [e.detail for e in reassigned] == ["attempt1"]

    def test_retry_delay_is_applied(self):
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=700.0,
                               restart_delay_ms=5_000.0),),
            retry=RetryPolicy(max_retries=2, retry_delay_ms=300.0))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)])
        req = result.requests[0]
        # Reassigned at 700+300, ready 500 later.
        assert req.start_ms == 1_500.0
        assert req.end_ms == 2_500.0

    def test_dead_workers_exec_end_never_fires(self):
        plan = FaultPlan(crashes=(CrashSpec(worker_id=0, at_ms=700.0),))
        result, log, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)])
        ends = kinds(log, EventKind.EXEC_END)
        assert len(ends) == 1
        assert ends[0].time_ms == result.requests[0].end_ms


class TestRetryExhaustion:
    def test_zero_budget_fails_the_orphan(self):
        plan = FaultPlan(crashes=(CrashSpec(worker_id=0, at_ms=700.0),),
                         retry=RetryPolicy(max_retries=0))
        result, log, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)])
        assert result.total == 0          # total counts completions only
        assert not result.requests
        assert len(result.failed_requests) == 1
        failed = result.failed_requests[0]
        assert failed.failed and not failed.completed
        assert result.orphaned_requests == 1
        assert result.reassigned_requests == 0
        orphaned = kinds(log, EventKind.REQUEST_ORPHANED)
        assert [e.detail for e in orphaned] == ["exec:exhausted"]

    def test_budget_exhausts_after_repeated_crashes(self):
        """One retry allowed: the first crash retries, the second crash
        (on the surviving worker) exhausts the budget."""
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=700.0,
                               restart_delay_ms=60_000.0),
                     CrashSpec(worker_id=1, at_ms=1_500.0)),
            retry=RetryPolicy(max_retries=1))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)])
        assert not result.requests
        assert len(result.failed_requests) == 1
        assert result.failed_requests[0].retries == 1
        assert result.orphaned_requests == 2
        assert result.reassigned_requests == 1


class TestLastWorkerCrash:
    def test_arrival_during_outage_waits_for_restart(self):
        """Single worker, down from 1000 to 3000: the t=1500 arrival is
        parked and cold-starts right after the restart."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=1_000.0, restart_delay_ms=2_000.0),))
        result, log, _ = run_chaos(
            plan, [Request("f0", 1_500.0, 100.0)], workers=1,
            capacity_gb=1.0)
        req = result.requests[0]
        assert req.completed
        assert req.start_ms == 3_500.0     # restart 3000 + cold 500
        assert req.end_ms == 3_600.0
        restarts = kinds(log, EventKind.WORKER_RESTART)
        assert [e.time_ms for e in restarts] == [3_000.0]

    def test_orphan_defers_to_restart_of_same_worker(self):
        """An orphan with nowhere to go re-dispatches onto its own worker
        once that worker rejoins."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=700.0, restart_delay_ms=2_000.0),))
        result, _, _ = run_chaos(
            plan, [Request("f0", 0.0, 1_000.0)], workers=1,
            capacity_gb=1.0)
        req = result.requests[0]
        assert req.retries == 1
        assert req.start_ms == 3_200.0     # restart 2700 + cold 500
        assert req.end_ms == 4_200.0

    def test_permanent_outage_fails_everything(self):
        """No restart scheduled: in-flight work and later arrivals are
        all accounted as failed, and the run still terminates cleanly."""
        plan = FaultPlan(crashes=(CrashSpec(worker_id=0, at_ms=700.0),))
        result, log, _ = run_chaos(
            plan, [Request("f0", 0.0, 1_000.0),
                   Request("f0", 2_000.0, 100.0)],
            workers=1, capacity_gb=1.0)
        assert not result.requests
        assert len(result.failed_requests) == 2
        # The in-flight request burns one retry before discovering no
        # worker will ever come back; the late arrival fails immediately.
        details = {e.detail for e in kinds(log, EventKind.REQUEST_ORPHANED)}
        assert details == {"exec:retry", "no-online-workers"}

    def test_crash_of_offline_worker_is_a_noop(self):
        """A plan may crash a worker that is already down; the second
        crash is skipped instead of corrupting state."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=1_000.0, restart_delay_ms=5_000.0),
            CrashSpec(worker_id=0, at_ms=2_000.0, restart_delay_ms=5_000.0),
        ))
        result, log, _ = run_chaos(
            plan, [Request("f0", 1_500.0, 100.0)], workers=1,
            capacity_gb=1.0)
        assert len(kinds(log, EventKind.WORKER_CRASH)) == 1
        assert result.worker_crashes == 1
        assert result.requests[0].completed


class TestStragglers:
    def test_slowdown_window_scales_cold_and_exec(self):
        """cold 100 x3 = ready at 300; exec 500 x2 = end at 1300."""
        spec = FunctionSpec("s0", memory_mb=100.0, cold_start_ms=100.0)
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=10_000.0,
                          exec_multiplier=2.0, cold_multiplier=3.0),))
        result, _, _ = run_chaos(
            plan, [Request("s0", 0.0, 500.0)], functions=(spec,),
            workers=1, capacity_gb=1.0)
        req = result.requests[0]
        assert req.start_ms == 300.0
        assert req.end_ms == 1_300.0

    def test_window_end_is_exclusive(self):
        """A warm start after the window runs at full speed."""
        spec = FunctionSpec("s0", memory_mb=100.0, cold_start_ms=100.0)
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=10_000.0,
                          exec_multiplier=2.0),))
        result, _, _ = run_chaos(
            plan, [Request("s0", 0.0, 500.0),
                   Request("s0", 20_000.0, 500.0)],
            functions=(spec,), workers=1, capacity_gb=1.0)
        late = result.requests[1]
        assert late.start_type is StartType.WARM
        assert late.start_ms == 20_000.0
        assert late.end_ms == 20_500.0

    def test_overlapping_windows_multiply(self):
        spec = FunctionSpec("s0", memory_mb=100.0, cold_start_ms=100.0)
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=1_000.0,
                          exec_multiplier=2.0),
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=1_000.0,
                          exec_multiplier=3.0),))
        result, _, _ = run_chaos(
            plan, [Request("s0", 0.0, 50.0)], functions=(spec,),
            workers=1, capacity_gb=1.0)
        req = result.requests[0]
        assert req.start_ms == 100.0       # cold multipliers default to 1
        assert req.end_ms == 400.0         # 50 x 2 x 3

    def test_straggler_overlapping_crash(self):
        """A straggling execution is orphaned mid-slowdown; the retry on
        the healthy worker runs at full speed."""
        spec = FunctionSpec("s0", memory_mb=100.0, cold_start_ms=500.0)
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=1_000.0,
                               restart_delay_ms=60_000.0),),
            stragglers=(StragglerSpec(worker_id=0, start_ms=0.0,
                                      end_ms=5_000.0,
                                      exec_multiplier=10.0),))
        result, _, _ = run_chaos(
            plan, [Request("s0", 0.0, 200.0)], functions=(spec,))
        req = result.requests[0]
        # Straggling exec would have ended at 500 + 2000; the crash at
        # 1000 beats it. Retry on worker 1: ready 1500, exec 200.
        assert req.retries == 1
        assert req.start_ms == 1_500.0
        assert req.end_ms == 1_700.0


class TestWorkerClasses:
    def test_capacity_and_class_names_are_applied(self):
        plan = FaultPlan(worker_classes=(
            WorkerClassSpec(name="big", workers=(0,), memory_mb=2_048.0),
            WorkerClassSpec(name="slow", workers=(1,),
                            cold_start_multiplier=2.0),))
        _, _, orch = run_chaos(plan, [Request("f0", 0.0, 50.0)])
        w0, w1 = orch.workers()
        assert w0.capacity_mb == 2_048.0
        assert w1.capacity_mb == 1_024.0   # 2 GB / 2 workers default
        assert w0.wclass == "big"
        assert w1.wclass == "slow"

    def test_slow_class_scales_cold_start(self):
        """Crash worker 0 up front so dispatch lands on the slow-class
        worker 1: cold start 500 x 2."""
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=0.0),),
            worker_classes=(WorkerClassSpec(
                name="slow", workers=(1,), cold_start_multiplier=2.0),))
        result, _, _ = run_chaos(plan, [Request("f0", 10.0, 50.0)])
        req = result.requests[0]
        assert req.start_ms == 1_010.0
        assert req.end_ms == 1_060.0

    def test_class_multiplier_stacks_with_straggler(self):
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=0.0),),
            stragglers=(StragglerSpec(worker_id=1, start_ms=0.0,
                                      end_ms=10_000.0,
                                      cold_multiplier=3.0),),
            worker_classes=(WorkerClassSpec(
                name="slow", workers=(1,), cold_start_multiplier=2.0),))
        result, _, _ = run_chaos(plan, [Request("f0", 10.0, 50.0)])
        assert result.requests[0].start_ms == 3_010.0    # 500 x 2 x 3

    def test_per_class_memory_must_fit_every_spec(self):
        """The fit check uses the smallest worker across classes."""
        tiny = FaultPlan(worker_classes=(
            WorkerClassSpec(name="tiny", workers=(1,), memory_mb=50.0),))
        with pytest.raises(ValueError, match="only 50.0 MB"):
            run_chaos(tiny, [])


class _QueueToBusy(OrchestrationPolicy):
    """Always queue behind the first busy container of the function."""

    def scale(self, request, worker, now):
        busy = worker.busy_of(request.func)
        if busy:
            return ScalingDecision.queue(busy[0])
        return ScalingDecision.cold()


class TestQueuedWaiterRescue:
    def test_starved_queue_waiter_is_reassigned(self):
        """A QUEUE waiter whose entire supply (one busy container) died
        in the crash is rescued and re-enters as a reassignment — no
        silent request loss."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=700.0, restart_delay_ms=60_000.0),))
        result, log, orch = run_chaos(
            plan,
            [Request("f0", 0.0, 1_000.0),      # executes 500..1500
             Request("f0", 600.0, 100.0)],     # queued behind it
            policy=_QueueToBusy())
        assert len(result.requests) == 2
        assert all(r.completed for r in result.requests)
        assert not result.failed_requests
        # Both the orphaned execution and the rescued waiter re-enter.
        assert result.reassigned_requests == 2
        assert not orch.waiting_functions()
        # requests is in completion order; pick the queued one by id.
        queued = next(r for r in result.requests if r.req_id == 1)
        assert queued.start_type is StartType.COLD
        assert queued.retries == 0          # rescue consumes no budget

    def test_committed_target_cleared_on_crash(self):
        """Committed per-container queue entries do not dangle after the
        target container's worker crashes."""
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=700.0, restart_delay_ms=60_000.0),))
        result, _, orch = run_chaos(
            plan,
            [Request("f0", 0.0, 1_000.0),
             Request("f0", 600.0, 100.0),
             Request("f0", 650.0, 100.0)],
            policy=_QueueToBusy())
        assert len(result.requests) == 3
        assert all(r.completed for r in result.requests)
        assert not orch.waiting_functions()
        for worker in orch.workers():
            assert worker.check_integrity()


class TestBlockedProvisionRedirect:
    def test_pending_provision_moves_off_dead_worker(self):
        """A provision blocked on the crashed worker's memory pressure is
        redirected to a live worker instead of waiting forever."""
        # Worker capacity 512 MB; f_big's 400 MB container blocks f_other
        # (200 MB) while busy, so the second request's provision queues.
        big = FunctionSpec("fb", memory_mb=400.0, cold_start_ms=100.0)
        other = FunctionSpec("fo", memory_mb=200.0, cold_start_ms=100.0)
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=0, at_ms=500.0, restart_delay_ms=60_000.0),))
        result, _, orch = run_chaos(
            plan,
            [Request("fb", 0.0, 10_000.0),
             Request("fo", 200.0, 50.0)],
            functions=(big, other), capacity_gb=1.0)
        fo = [r for r in result.requests if r.func == "fo"]
        assert fo and fo[0].completed
        assert fo[0].container_id is not None
        assert not orch.waiting_functions()

    def test_provision_stranded_by_total_outage_moves_on_restart(self):
        """Worker 0 dies for good while worker 1 is down, so its blocked
        provision has nowhere to move; it must move when worker 1 comes
        back instead of waiting on worker 0 forever."""
        big = FunctionSpec("fb", memory_mb=400.0, cold_start_ms=100.0)
        other = FunctionSpec("fo", memory_mb=200.0, cold_start_ms=100.0)
        plan = FaultPlan(crashes=(
            CrashSpec(worker_id=1, at_ms=50.0, restart_delay_ms=2_000.0),
            CrashSpec(worker_id=0, at_ms=500.0)))
        result, log, orch = run_chaos(
            plan,
            [Request("fb", 0.0, 10_000.0),
             Request("fo", 200.0, 50.0)],
            functions=(big, other), capacity_gb=1.0)
        fo = [r for r in result.requests if r.func == "fo"]
        assert fo and fo[0].completed and fo[0].start_ms >= 2_050.0
        starts = [e for e in kinds(log, EventKind.PROVISION_START)
                  if e.func == "fo"]
        assert [e.worker_id for e in starts] == [1]
        assert not orch._pending


class TestPlanSerialization:
    def plan(self):
        return FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=100.0,
                               restart_delay_ms=50.0),
                     CrashSpec(worker_id=1, at_ms=200.0)),
            stragglers=(StragglerSpec(worker_id=1, start_ms=10.0,
                                      end_ms=20.0, exec_multiplier=2.5,
                                      cold_multiplier=1.5),),
            worker_classes=(WorkerClassSpec(name="big", workers=(0,),
                                            memory_mb=4_096.0,
                                            cold_start_multiplier=0.5),),
            retry=RetryPolicy(max_retries=3, retry_delay_ms=25.0))

    def test_json_round_trip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan

    def test_dict_round_trip(self):
        plan = self.plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_schema_mismatch_rejected(self):
        payload = self.plan().to_dict()
        payload["schema"] = "repro/fault-plan/v999"
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_dict(payload)

    def test_empty_plan_is_hashable_and_falsy_free(self):
        plan = FaultPlan()
        assert hash(plan) == hash(FaultPlan())
        assert plan.exec_multiplier(0, 0.0) == 1.0
        assert plan.cold_multiplier(0, 0.0) == 1.0
        assert plan.worker_capacity_mb(0, 512.0) == 512.0
        assert plan.class_of(0) is None

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            StragglerSpec(worker_id=0, start_ms=10.0, end_ms=5.0)
        with pytest.raises(ValueError):
            FaultPlan(worker_classes=(
                WorkerClassSpec(name="a", workers=(0,)),
                WorkerClassSpec(name="b", workers=(0, 1))))
        plan = FaultPlan(crashes=(CrashSpec(worker_id=7, at_ms=1.0),))
        with pytest.raises(ValueError, match="worker"):
            SimulationConfig(capacity_gb=2.0, workers=2, faults=plan)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"),
                                     -float("inf")))
    @pytest.mark.parametrize("factory, kwargs, field", [
        (RetryPolicy, {}, "max_retries"),
        (RetryPolicy, {}, "retry_delay_ms"),
        (CrashSpec, dict(worker_id=0, at_ms=1.0), "worker_id"),
        (CrashSpec, dict(worker_id=0, at_ms=1.0), "at_ms"),
        (CrashSpec, dict(worker_id=0, at_ms=1.0), "restart_delay_ms"),
        (StragglerSpec, dict(worker_id=0, start_ms=1.0, end_ms=2.0),
         "worker_id"),
        (StragglerSpec, dict(worker_id=0, start_ms=1.0, end_ms=2.0),
         "start_ms"),
        (StragglerSpec, dict(worker_id=0, start_ms=1.0, end_ms=2.0),
         "end_ms"),
        (StragglerSpec, dict(worker_id=0, start_ms=1.0, end_ms=2.0),
         "exec_multiplier"),
        (StragglerSpec, dict(worker_id=0, start_ms=1.0, end_ms=2.0),
         "cold_multiplier"),
        (WorkerClassSpec, dict(name="c", workers=(0,)), "memory_mb"),
        (WorkerClassSpec, dict(name="c", workers=(0,)),
         "cold_start_multiplier"),
    ])
    def test_non_finite_field_rejected(self, factory, kwargs, field, bad):
        """NaN passes a bare ``< 0`` check, and inf overflows the engine's
        clock mid-replay; both must fail at construction, naming the
        field and the value."""
        with pytest.raises(ValueError, match=f"{field} must be .* got "):
            factory(**{**kwargs, field: bad})

    def test_non_integer_worker_ids_rejected(self):
        with pytest.raises(ValueError, match="workers\\[1\\] must be an "
                                             "integer"):
            WorkerClassSpec(name="c", workers=(0, 1.5))
        with pytest.raises(ValueError, match="max_retries must be an "
                                             "integer"):
            RetryPolicy(max_retries=1.5)

    def test_from_dict_names_the_bad_entry(self):
        payload = self.plan().to_dict()
        payload["stragglers"].append(dict(
            payload["stragglers"][0], exec_multiplier=float("nan")))
        with pytest.raises(ValueError,
                           match="stragglers\\[1\\]: exec_multiplier"):
            FaultPlan.from_dict(payload)
        payload = self.plan().to_dict()
        payload["crashes"][1]["at"] = 5.0
        with pytest.raises(ValueError, match="crashes\\[1\\]: .*'at'"):
            FaultPlan.from_dict(payload)
        payload = self.plan().to_dict()
        payload["retry"]["retry_delay_ms"] = float("inf")
        with pytest.raises(ValueError, match="retry: retry_delay_ms"):
            FaultPlan.from_dict(payload)

    def test_with_retry_replaces_policy_only(self):
        plan = self.plan()
        bumped = plan.with_retry(RetryPolicy(max_retries=9))
        assert bumped.retry.max_retries == 9
        assert bumped.crashes == plan.crashes
        assert bumped.stragglers == plan.stragglers

    def test_random_plan_is_deterministic(self):
        a = random_plan(42, workers=3, horizon_ms=60_000.0)
        b = random_plan(42, workers=3, horizon_ms=60_000.0)
        assert a == b
        assert a != random_plan(43, workers=3, horizon_ms=60_000.0)
        a.validate(3)
        assert len(a.crashes) == 2
        assert all(c.restart_delay_ms is not None for c in a.crashes)


class TestAccountingUnderChaos:
    def test_conservation_and_integrity(self):
        """Arrivals partition into completed + failed; worker indexes
        stay coherent through crash/restart cycles."""
        plan = random_plan(11, workers=2, horizon_ms=30_000.0,
                           retry=RetryPolicy(max_retries=1))
        requests = [Request("f0", 100.0 * i, 750.0) for i in range(200)]
        result, log, orch = run_chaos(plan, requests)
        assert len(result.requests) + len(result.failed_requests) == 200
        for worker in orch.workers():
            assert worker.check_integrity()
        assert result.orphaned_requests >= len(result.failed_requests)
        # Metadata survives into the summary.
        summary = result.summary()
        assert summary["worker_crashes"] == result.worker_crashes
        assert summary["failed_requests"] == len(result.failed_requests)

    def test_finalize_tolerates_failed_requests(self):
        """dataclasses.replace keeps Request equality semantics: failed
        requests are excluded from the completion check, not silently
        dropped."""
        plan = FaultPlan(crashes=(CrashSpec(worker_id=0, at_ms=700.0),),
                         retry=RetryPolicy(max_retries=0))
        request = Request("f0", 0.0, 1_000.0)
        result, _, _ = run_chaos(plan, [request])
        failed = result.failed_requests[0]
        assert failed == dataclasses.replace(request)


class TestStragglerWindowStraddling:
    """Window edges that fall *inside* an execution or provision must
    change the remaining wall time (the multipliers used to be sampled
    once at dispatch, silently ignoring mid-flight edges)."""

    def test_exec_window_ends_mid_execution(self):
        """Exec of 800 ms work starts at 500 inside a 2x window that
        ends at 1000: 250 ms of work done slowed, 550 ms at full speed —
        done at 1550, not the sampled-once 500 + 1600 = 2100."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=1_000.0,
                          exec_multiplier=2.0),))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 800.0)],
                                 workers=1)
        req = result.requests[0]
        assert req.start_ms == 500.0
        assert req.end_ms == 1_550.0

    def test_exec_window_starts_mid_execution(self):
        """A 3x window opening at 1000 catches an execution halfway:
        500 ms done at full speed, the remaining 500 ms stretch to 1500."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=1_000.0, end_ms=5_000.0,
                          exec_multiplier=3.0),))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)],
                                 workers=1)
        req = result.requests[0]
        assert req.start_ms == 500.0
        assert req.end_ms == 2_500.0  # not the sampled-once 1500

    def test_exec_window_opens_and_closes_mid_execution(self):
        """A [600, 800) 2x window entirely inside the execution adds
        exactly its slowed span: 100 ms of work takes 200 ms."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=600.0, end_ms=800.0,
                          exec_multiplier=2.0),))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 1_000.0)],
                                 workers=1)
        req = result.requests[0]
        assert req.end_ms == 1_600.0  # not the sampled-once 1500

    @pytest.mark.parametrize("start_ms, end_ms", [
        (0.0, 1_500.0),   # the window covers the start of the execution
        (700.0, 1_500.0),  # it opens mid-execution (a retime overflows)
    ])
    def test_overflowing_multiplier_runs_to_the_window_edge(self, start_ms,
                                                            end_ms):
        """A finite multiplier whose product with the work overflows
        (1e308) stalls the execution until the window closes, then the
        rest runs at full speed. It used to fail mid-replay with
        "non-finite time inf"."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=start_ms, end_ms=end_ms,
                          exec_multiplier=1e308),))
        result, _, _ = run_chaos(plan, [Request("f0", 0.0, 800.0)],
                                 workers=1)
        req = result.requests[0]
        assert req.start_ms == 500.0
        done_before_ms = max(start_ms - 500.0, 0.0)
        assert req.end_ms == end_ms + 800.0 - done_before_ms

    def test_cold_window_ends_mid_provision(self):
        """Provisioning 500 ms of work from t=0 under a 2x cold window
        that ends at 250: 125 ms of work done slowed, 375 at full speed
        — ready at 625, not the sampled-once 1000."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=250.0,
                          cold_multiplier=2.0),))
        result, log, _ = run_chaos(plan, [Request("f0", 0.0, 100.0)],
                                   workers=1)
        ready = kinds(log, EventKind.CONTAINER_READY)
        assert [e.time_ms for e in ready] == [625.0]
        req = result.requests[0]
        assert req.start_ms == 625.0
        assert req.end_ms == 725.0

    def test_non_straddled_windows_are_bit_identical(self):
        """An execution and a provision entirely inside (or outside)
        their windows keep the single sampled multiply, bit-for-bit."""
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=10_000.0,
                          exec_multiplier=1.5, cold_multiplier=3.0),))
        result, log, _ = run_chaos(plan, [Request("f0", 0.0, 100.0)],
                                   workers=1)
        ready = kinds(log, EventKind.CONTAINER_READY)
        assert [e.time_ms for e in ready] == [500.0 * 3.0]
        req = result.requests[0]
        assert req.start_ms == 1_500.0
        assert req.end_ms == 1_500.0 + 100.0 * 1.5
