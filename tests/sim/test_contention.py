"""CPU-contention model: slowdown curves, progress-based completions,
the straggler interaction, and the determinism contract.

Timelines are hand-computed against ``dispatch="single"`` clusters the
same way :mod:`tests.sim.test_faults` pins fault timelines: every
assertion is an exact float, not an approximation — progress settlement
is analytically exact under piecewise-constant rates.
"""

import pytest

from repro.policies.lru import LRUPolicy
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import FaultPlan, StragglerSpec
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.sim.telemetry import build_spans

F0 = FunctionSpec("f0", memory_mb=100.0, cold_start_ms=500.0)


def run_contention(model, requests, functions=(F0,), threads=4,
                   workers=1, capacity_gb=2.0, policy=None,
                   **config_kwargs):
    """Run a scenario and return (result, event log, orchestrator)."""
    log = EventLog()
    cfg = SimulationConfig(capacity_gb=capacity_gb, workers=workers,
                           threads_per_container=threads,
                           dispatch="single", contention=model,
                           **config_kwargs)
    orch = Orchestrator(list(functions), policy or LRUPolicy(), cfg,
                        event_log=log)
    result = orch.run(requests)
    return result, log, orch


def event_tuples(log):
    """Event tuples with container ids rebased to the run's first id
    (the id counter is process-global)."""
    base = None
    out = []
    for e in log:
        cid = None
        if e.container_id is not None:
            if base is None:
                base = e.container_id
            cid = e.container_id - base
        out.append((e.time_ms, e.kind.value, e.func, cid, e.req_id,
                    e.detail, e.worker_id))
    return out


def request_tuples(result):
    return [(r.req_id, r.start_type, r.start_ms, r.end_ms)
            for r in result.requests]


class TestModel:
    def test_default_curve(self):
        model = ContentionModel(cores=2, alpha=1.0)
        assert model.slowdown(1, "f") == 1.0
        assert model.slowdown(2, "f") == 1.0
        assert model.slowdown(4, "f") == 2.0
        assert model.slowdown(6, "f") == 3.0

    def test_alpha_shapes_the_curve(self):
        assert ContentionModel(cores=1, alpha=2.0).slowdown(3, "f") == 9.0
        sub = ContentionModel(cores=1, alpha=0.5)
        assert sub.slowdown(4, "f") == 2.0

    def test_alpha_zero_is_inert(self):
        model = ContentionModel(cores=1, alpha=0.0)
        for busy in (1, 2, 7, 100):
            assert model.slowdown(busy, "f") == 1.0

    def test_table_overrides_curve_with_clamping(self):
        model = ContentionModel(cores=8, table=(("f0", (1.0, 2.5, 4.0)),))
        assert model.slowdown(1, "f0") == 1.0
        assert model.slowdown(2, "f0") == 2.5
        assert model.slowdown(3, "f0") == 4.0
        assert model.slowdown(9, "f0") == 4.0   # clamped to last entry
        assert model.slowdown(9, "other") == 1.125  # curve: 9/8

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionModel(cores=0)
        with pytest.raises(ValueError):
            ContentionModel(alpha=-0.5)
        with pytest.raises(ValueError):
            ContentionModel(table=(("f0", ()),))
        with pytest.raises(ValueError):
            ContentionModel(table=(("f0", (0.0,)),))
        with pytest.raises(ValueError):
            ContentionModel(table=(("f0", (1.0,)), ("f0", (2.0,))))
        with pytest.raises(ValueError):
            ContentionModel(table=(("", (1.0,)),))

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="cores must be an integer"):
            ContentionModel(cores=bad)
        with pytest.raises(ValueError, match="alpha must be finite"):
            ContentionModel(alpha=bad)
        with pytest.raises(ValueError,
                           match="table entry 'f0' factor 1 must be finite"):
            ContentionModel(table=(("f0", (1.0, bad)),))

    def test_json_round_trip(self, tmp_path):
        model = ContentionModel(cores=3, alpha=1.5,
                                table=(("a", (1.0, 2.0)), ("b", (3.0,))))
        path = str(tmp_path / "model.json")
        model.to_json(path)
        loaded = ContentionModel.from_json(path)
        assert loaded == model
        assert loaded.slowdown(2, "a") == 2.0

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            ContentionModel.from_dict({"schema": "bogus/v0"})

    def test_hashable_and_frozen(self):
        model = ContentionModel(cores=2, table=(("f", [1.0, 2.0]),))
        assert isinstance(hash(model), int)
        assert model.table == (("f", (1.0, 2.0)),)


class TestProgressTimelines:
    def test_fair_share_batch(self):
        """4 executions on 2 cores (alpha=1) run at half speed: 1000 ms
        of work each takes 2000 ms wall."""
        model = ContentionModel(cores=2, alpha=1.0)
        requests = [Request("f0", 0.0, 1_000.0) for _ in range(4)]
        result, _, _ = run_contention(model, requests)
        assert request_tuples(result) == [
            (i, result.requests[i].start_type, 500.0, 2_500.0)
            for i in range(4)]

    def test_staggered_join_and_leave(self):
        """r1 joining at 1000 halves r0's rate mid-flight; r0 finishing
        restores r1's: both settle points are exact."""
        model = ContentionModel(cores=1, alpha=1.0)
        requests = [Request("f0", 0.0, 1_000.0),
                    Request("f0", 1_000.0, 1_000.0)]
        result, _, _ = run_contention(model, requests, threads=2)
        r0, r1 = sorted(result.requests, key=lambda r: r.req_id)
        # r0: 500 ms solo + shares [1000, 2000) -> 500 work left at 2x.
        assert (r0.start_ms, r0.end_ms) == (500.0, 2_000.0)
        # r1: 500 work done shared by 2000, 500 left solo -> ends 2500.
        assert (r1.start_ms, r1.end_ms) == (1_000.0, 2_500.0)

    def test_table_driven_slowdown(self):
        model = ContentionModel(cores=8, table=(("f0", (1.0, 4.0)),))
        requests = [Request("f0", 0.0, 1_000.0) for _ in range(2)]
        result, _, _ = run_contention(model, requests, threads=2)
        assert all(r.start_ms == 500.0 and r.end_ms == 4_500.0
                   for r in result.requests)

    def test_straggler_window_multiplies_into_the_rate(self):
        """Contention and straggler exec windows compose: a lone
        execution inside a 2x window on a 1-core worker runs at 2x."""
        model = ContentionModel(cores=1, alpha=1.0)
        plan = FaultPlan(stragglers=(
            StragglerSpec(worker_id=0, start_ms=0.0, end_ms=10_000.0,
                          exec_multiplier=2.0),))
        result, _, _ = run_contention(model, [Request("f0", 0.0, 1_000.0)],
                                      faults=plan)
        req = result.requests[0]
        # Cold start unslowed (cold_multiplier=1); execution runs 2x.
        assert (req.start_ms, req.end_ms) == (500.0, 2_500.0)

    def test_contention_metrics_histogram(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        model = ContentionModel(cores=1, alpha=1.0)
        log = EventLog()
        cfg = SimulationConfig(capacity_gb=2.0, threads_per_container=2,
                               dispatch="single", contention=model)
        orch = Orchestrator([F0], LRUPolicy(), cfg, event_log=log,
                            metrics=metrics)
        orch.run([Request("f0", 0.0, 1_000.0),
                  Request("f0", 0.0, 1_000.0)])
        family = metrics.snapshot()["repro_contention_slowdown"]
        (sample,) = family["samples"]
        assert sample["count"] == 2
        assert sample["sum"] == 4.0  # both realized exactly 2x


class TestTelemetry:
    def test_exec_end_carries_realized_slowdown(self):
        model = ContentionModel(cores=1, alpha=1.0)
        requests = [Request("f0", 0.0, 1_000.0),
                    Request("f0", 1_000.0, 1_000.0)]
        result, log, _ = run_contention(model, requests, threads=2)
        ends = log.of_kind(EventKind.EXEC_END)
        assert [e.detail for e in ends] == ["slowdown=1.5", "slowdown=1.5"]
        spans = build_spans(log)
        assert [s.slowdown for s in spans] == [1.5, 1.5]

    def test_unslowed_exec_end_has_no_detail(self):
        """A lone execution at full speed emits the plain EXEC_END, so
        low-pressure contention runs stay byte-identical per event."""
        model = ContentionModel(cores=4, alpha=1.0)
        _, log, _ = run_contention(model, [Request("f0", 0.0, 1_000.0)])
        ends = log.of_kind(EventKind.EXEC_END)
        assert [e.detail for e in ends] == [""]
        assert [s.slowdown for s in build_spans(log)] == [None]


class TestInertness:
    def _pressure(self):
        return [Request("f0", 200.0 * (i // 3), 700.0) for i in range(60)]

    def test_alpha_zero_event_stream_matches_contention_none(self):
        """An attached-but-inert model (alpha=0) replays the exact event
        stream of a contention-free run — the progress machinery adds no
        float drift and no extra events."""
        off, off_log, _ = run_contention(None, self._pressure(), threads=2,
                                         capacity_gb=0.3)
        inert, inert_log, _ = run_contention(
            ContentionModel(cores=4, alpha=0.0), self._pressure(),
            threads=2, capacity_gb=0.3)
        assert event_tuples(inert_log) == event_tuples(off_log)
        assert request_tuples(inert) == request_tuples(off)
        assert inert.summary() == off.summary()

    def test_reference_impl_is_bit_identical(self):
        model = ContentionModel(cores=1, alpha=1.0)
        fast, fast_log, _ = run_contention(model, self._pressure(),
                                           threads=2, capacity_gb=0.3)
        ref, ref_log, _ = run_contention(model, self._pressure(),
                                         threads=2, capacity_gb=0.3,
                                         reference_impl=True)
        assert event_tuples(ref_log) == event_tuples(fast_log)
        assert request_tuples(ref) == request_tuples(fast)
        assert ref.summary() == fast.summary()

    def test_sanitized_run_is_bit_identical(self):
        from repro.sim.sanitizer import SimSanitizer
        model = ContentionModel(cores=1, alpha=1.0)
        plain, plain_log, _ = run_contention(model, self._pressure(),
                                             threads=2, capacity_gb=0.3)
        log = EventLog()
        cfg = SimulationConfig(capacity_gb=0.3, threads_per_container=2,
                               dispatch="single", contention=model)
        orch = Orchestrator([F0], LRUPolicy(), cfg, event_log=log)
        sanitizer = SimSanitizer()
        sanitizer.install(orch)
        try:
            result = orch.run(self._pressure())
            sanitizer.finalize(orch)
        finally:
            sanitizer.uninstall(orch)
        assert event_tuples(log) == event_tuples(plain_log)
        assert request_tuples(result) == request_tuples(plain)


class TestCrashInteraction:
    def test_crash_drops_progress_state_and_neighbours_speed_up(self):
        """A crash mid-flight cancels the worker's progress ledgers; the
        survivors on the other worker are untouched and the retried
        request re-enters the contention accounting cleanly."""
        from repro.sim.faults import CrashSpec, RetryPolicy
        model = ContentionModel(cores=1, alpha=1.0)
        plan = FaultPlan(
            crashes=(CrashSpec(worker_id=0, at_ms=1_000.0,
                               restart_delay_ms=60_000.0),),
            retry=RetryPolicy(max_retries=1, retry_delay_ms=100.0))
        requests = [Request("f0", 0.0, 1_000.0)]
        result, log, orch = run_contention(model, requests, workers=2,
                                           faults=plan)
        req = result.requests[0]
        assert req.retries == 1
        assert req.completed
        # Re-dispatched at 1100 on worker 1: cold 500, runs solo.
        assert (req.start_ms, req.end_ms) == (1_600.0, 2_600.0)
        assert not orch._execs          # ledgers fully retired
        assert not orch._heads          # crashed worker's head cancelled
        assert not orch._rate_events    # no armed boundaries leak
