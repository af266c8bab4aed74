"""Resolver arithmetic pinned on hand-built timelines.

Every scenario here feeds an :class:`repro.obs.OutcomeResolver` a small
hand-written stream of audit records and lifecycle events, so penalty,
memory credit, keep-warm waste and settlement gating can be asserted to
exact float values — no simulator in the loop.
"""

import pytest

from repro.obs import MetricsRegistry, OutcomeResolver, resolve
from repro.sim.eventlog import Event, EventKind


def E(time_ms, kind, func="a", cid=None, detail=""):
    return Event(time_ms=time_ms, kind=kind, func=func,
                 container_id=cid, detail=detail)


def eviction_record(did, t, victims):
    return {"kind": "eviction_decision", "did": did, "t": t, "wid": 0,
            "need_mb": 0.0, "freed_mb": sum(m for _c, _f, m in victims),
            "victims": [{"cid": c, "func": f, "mem_mb": m}
                        for c, f, m in victims],
            "survivors": []}


def scale_down_record(did, t, cid, func, mem_mb, idle_ms):
    return {"kind": "scale_down", "did": did, "t": t, "wid": 0,
            "cid": cid, "func": func, "mem_mb": mem_mb,
            "idle_ms": idle_ms}


def victim_lifecycle(cid, func, ready_ms, idle_from_ms, evicted_ms):
    """PROVISION→READY→one exec ending at ``idle_from_ms``→EVICTION."""
    return [
        E(0.0, EventKind.PROVISION_START, func, cid,
          "bound cause=first-invocation"),
        E(ready_ms, EventKind.CONTAINER_READY, func, cid),
        E(ready_ms, EventKind.EXEC_START, func, cid),
        E(idle_from_ms, EventKind.EXEC_END, func, cid),
        E(evicted_ms, EventKind.EVICTION, func, cid),
    ]


class TestEvictionRegret:
    def events(self):
        # Victim cid=1 (200 MB) evicted at t=1000 after idling since
        # t=500; the blamed re-provision runs t=2000..2500.
        return victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(2_000.0, EventKind.PROVISION_START, "a", 2,
              "bound cause=eviction:0"),
            E(2_500.0, EventKind.CONTAINER_READY, "a", 2),
            E(20_000.0, EventKind.ARRIVAL, "z"),   # push past deadline
        ]

    def records(self):
        return [eviction_record(0, 1_000.0, [(1, "a", 200.0)])]

    def test_penalty_is_blamed_provision_time(self):
        r = resolve(self.records(), self.events(), horizon_ms=10_000.0)
        assert len(r.outcomes) == 1
        outcome = r.outcomes[0]
        assert outcome.did == 0
        assert outcome.kind == "eviction"
        assert outcome.t_ms == 1_000.0
        assert outcome.provisions == 1
        assert outcome.penalty_ms == 500.0
        # Memory held from the decision to the first blamed re-provision
        # of the victim's function: 200 MB x (2000 - 1000) ms.
        assert outcome.reclaimed_mb_ms == 200.0 * 1_000.0
        # Default credit rate is zero: regret *is* the penalty.
        assert outcome.regret_ms == 500.0

    def test_memory_credit_subtracts(self):
        r = resolve(self.records(), self.events(), horizon_ms=10_000.0,
                    credit_ms_per_mb_ms=0.001)
        outcome = r.outcomes[0]
        assert outcome.regret_ms == 500.0 - 0.001 * 200_000.0

    def test_unreprovisioned_victim_credits_full_horizon(self):
        events = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(20_000.0, EventKind.ARRIVAL, "z")]
        r = resolve(self.records(), events, horizon_ms=10_000.0)
        outcome = r.outcomes[0]
        assert outcome.penalty_ms == 0.0
        assert outcome.reclaimed_mb_ms == 200.0 * 10_000.0

    def test_settlement_waits_for_inflight_blamed_provision(self):
        # The blamed provision starts inside the horizon but READY lands
        # beyond the deadline: the decision must not settle in between.
        records = self.records()
        head = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(10_900.0, EventKind.PROVISION_START, "a", 2,
              "bound cause=eviction:0"),
            E(11_200.0, EventKind.ARRIVAL, "z"),   # past deadline 11000
        ]
        resolver = OutcomeResolver(horizon_ms=10_000.0)
        for record in records:
            resolver.emit(record)
        for event in head:
            resolver.emit(event)
        assert resolver.outcomes == []
        resolver.emit(E(11_500.0, EventKind.CONTAINER_READY, "a", 2))
        assert len(resolver.outcomes) == 1
        assert resolver.outcomes[0].penalty_ms == 600.0
        assert resolver.outcomes[0].settled_ms == 11_500.0

    def test_finish_caps_credit_at_observed_time(self):
        # Stream ends at t=4000 with the decision's horizon still open:
        # the un-reprovisioned victim can only be credited 3000 ms.
        events = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(4_000.0, EventKind.ARRIVAL, "z")]
        r = resolve(self.records(), events, horizon_ms=10_000.0)
        assert r.outcomes[0].reclaimed_mb_ms == 200.0 * 3_000.0

    def test_penalty_split_evenly_across_victim_functions(self):
        records = [eviction_record(0, 1_000.0,
                                   [(1, "a", 100.0), (2, "b", 100.0)])]
        events = (victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0)
                  + victim_lifecycle(2, "b", 400.0, 500.0, 1_000.0))
        events += [
            E(2_000.0, EventKind.PROVISION_START, "a", 3,
              "bound cause=eviction:0"),
            E(2_400.0, EventKind.CONTAINER_READY, "a", 3),
            E(20_000.0, EventKind.ARRIVAL, "z"),
        ]
        events.sort(key=lambda e: e.time_ms)
        r = resolve(records, events, horizon_ms=10_000.0)
        assert r.outcomes[0].penalty_ms == 400.0
        penalty = r.penalty_by_func()
        assert penalty == {"a": 200.0, "b": 200.0}

    def test_restore_is_never_a_cold_start(self):
        # A decompression (RESTORE_START) of a blamed function pays
        # restore latency, not cold-start penalty.
        events = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(2_000.0, EventKind.RESTORE_START, "a", 2),
            E(2_300.0, EventKind.CONTAINER_READY, "a", 2),
            E(20_000.0, EventKind.ARRIVAL, "z"),
        ]
        r = resolve(self.records(), events, horizon_ms=10_000.0)
        assert r.outcomes[0].penalty_ms == 0.0
        assert r.outcomes[0].provisions == 0


class TestKeepWarmWaste:
    def test_terminal_idle_stretch(self):
        r = resolve([eviction_record(0, 1_000.0, [(1, "a", 200.0)])],
                    victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0))
        assert len(r.wastes) == 1
        waste = r.wastes[0]
        assert waste.cid == 1
        assert waste.evicted_ms == 1_000.0
        assert waste.idle_ms == 500.0          # idle since exec end
        assert waste.waste_mb_ms == 500.0 * 200.0
        assert waste.never_used is False
        assert waste.did == 0
        assert r.waste_by_func() == {"a": 100_000.0}

    def test_scale_down_uses_exact_recorded_idle(self):
        records = [scale_down_record(3, 3_000.0, 5, "b", 100.0, 1_234.5)]
        events = [
            E(0.0, EventKind.PROVISION_START, "b", 5,
              "bound cause=first-invocation"),
            E(400.0, EventKind.CONTAINER_READY, "b", 5),
            E(3_000.0, EventKind.EVICTION, "b", 5),
        ]
        r = resolve(records, events)
        waste = r.wastes[0]
        assert waste.idle_ms == 1_234.5
        assert waste.waste_mb_ms == 1_234.5 * 100.0
        # Provisioned, went idle, reclaimed: it never served anything.
        assert waste.never_used is True
        assert waste.did == 3

    def test_unaudited_eviction_produces_no_waste(self):
        r = resolve([], victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0))
        assert r.wastes == []


class TestCausesAndMetrics:
    def events(self):
        return victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(2_000.0, EventKind.PROVISION_START, "a", 2,
              "bound cause=eviction:0"),
            E(2_500.0, EventKind.CONTAINER_READY, "a", 2),
            E(3_000.0, EventKind.PROVISION_START, "a", 3,
              "bound cause=capacity-blocked"),
            E(3_500.0, EventKind.CONTAINER_READY, "a", 3),
            E(20_000.0, EventKind.ARRIVAL, "z"),
        ]

    def test_cause_classes_counted(self):
        r = resolve([eviction_record(0, 1_000.0, [(1, "a", 200.0)])],
                    self.events())
        assert r.causes == {"first-invocation": 1, "eviction": 1,
                            "capacity-blocked": 1}

    def test_metrics_families(self):
        metrics = MetricsRegistry()
        r = resolve([eviction_record(0, 1_000.0, [(1, "a", 200.0)])],
                    self.events(), horizon_ms=10_000.0, metrics=metrics)
        by_cause = {}
        for sample in r._m_causes.samples():
            by_cause[sample["labels"]["cause"]] = sample["value"]
        assert by_cause == {"first-invocation": 1.0, "eviction": 1.0,
                            "capacity-blocked": 1.0}
        # One settled decision -> one regret observation of 500 ms.
        sample = r._m_regret.samples()[0]
        assert sample["count"] == 1
        assert sample["sum"] == 500.0

    def test_unattributed_stream_counts_nothing(self):
        events = [E(0.0, EventKind.PROVISION_START, "a", 1, "bound"),
                  E(400.0, EventKind.CONTAINER_READY, "a", 1)]
        r = resolve([], events)
        assert r.causes == {}
        assert r.outcomes == []


class TestStreamingEquivalence:
    def test_live_sink_order_matches_offline_resolve(self):
        records = [eviction_record(0, 1_000.0, [(1, "a", 200.0)])]
        events = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0) + [
            E(2_000.0, EventKind.PROVISION_START, "a", 2,
              "bound cause=eviction:0"),
            E(2_500.0, EventKind.CONTAINER_READY, "a", 2),
            E(20_000.0, EventKind.ARRIVAL, "z"),
        ]
        offline = resolve(records, events, horizon_ms=10_000.0)

        live = OutcomeResolver(horizon_ms=10_000.0)
        # Live emission order: the decision record lands right before
        # the EVICTION events it causes (same timestamp).
        for item in (events[:4] + [records[0]] + events[4:]):
            live.emit(item)
        live.close()
        live.close()   # idempotent
        assert live.outcomes == offline.outcomes
        assert live.wastes == offline.wastes
        assert live.causes == offline.causes

    def test_finish_is_idempotent(self):
        r = resolve([eviction_record(0, 1_000.0, [(1, "a", 200.0)])],
                    victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0))
        n = len(r.outcomes)
        r.finish()
        assert len(r.outcomes) == n

    def test_outcome_of(self):
        r = resolve([eviction_record(4, 1_000.0, [(1, "a", 200.0)])],
                    victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0))
        assert r.outcome_of(4) is r.outcomes[0]
        assert r.outcome_of(99) is None

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            OutcomeResolver(horizon_ms=0.0)


class TestStreamingMerge:
    def test_out_of_order_stream_is_refused(self):
        events = victim_lifecycle(1, "a", 400.0, 500.0, 1_000.0)
        events[1], events[3] = events[3], events[1]
        with pytest.raises(ValueError, match=r"events\[2\] at t=400.0"):
            resolve([], events)
        records = [eviction_record(0, 2_000.0, []),
                   eviction_record(1, 1_000.0, [])]
        with pytest.raises(ValueError, match=r"records\[1\]"):
            resolve(records, [])
