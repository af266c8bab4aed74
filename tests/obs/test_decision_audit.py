"""Tests for :mod:`repro.obs.audit` and the decision-audit hook sites.

The integration tests replay CIDRE under memory pressure with an audit
attached and check that every record carries the fields the ``repro
audit`` verb depends on: Algorithm 1's four signals on ``css_scale``
records, the Eq. 3 decomposition on ``eviction_decision`` victims, and
self-consistent totals against the metrics registry.
"""

import json

import numpy as np
import pytest

from repro.experiments.runner import run_one
from repro.experiments.suites import policy_factories
from repro.obs import (AuditJsonlSink, AuditSink, DecisionAudit,
                       MetricsRegistry, RECORD_KINDS, read_audit_jsonl)
from repro.records import Schema, SchemaFamily
from repro.sim.config import SimulationConfig
from repro.traces.synth import ArrivalModel, synth_trace


@pytest.fixture(scope="module")
def pressure_run():
    """CIDRE on a bursty trace at 2 GB: gate flips and evictions galore."""
    trace = synth_trace("pressure", np.random.default_rng(7),
                        n_functions=8, total_requests=900,
                        duration_ms=120_000.0,
                        arrivals=ArrivalModel(burst_size_p=0.4))
    audit = DecisionAudit()
    metrics = MetricsRegistry()
    result = run_one(trace, policy_factories()["CIDRE"],
                     SimulationConfig(capacity_gb=2.0),
                     audit=audit, metrics=metrics)
    return trace, audit, metrics, result


class TestDecisionAudit:
    def test_ring_unbounded_by_default(self):
        audit = DecisionAudit()
        for i in range(100):
            audit.emit({"kind": "css_scale", "t": float(i)})
        assert len(audit) == 100
        assert audit.recorded == 100

    def test_finite_capacity_keeps_most_recent(self):
        audit = DecisionAudit(capacity=10)
        for i in range(25):
            audit.emit({"kind": "gate_flip", "t": float(i)})
        assert len(audit) == 10
        assert audit.recorded == 25
        assert [r["t"] for r in audit] == [float(i) for i in range(15, 25)]

    def test_of_kind_filters(self):
        audit = DecisionAudit()
        audit.emit({"kind": "css_scale", "t": 0.0})
        audit.emit({"kind": "gate_flip", "t": 1.0})
        assert [r["t"] for r in audit.of_kind("gate_flip")] == [1.0]

    def test_sinks_see_full_stream_despite_ring(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sink = AuditJsonlSink(path)
        audit = DecisionAudit(sinks=[sink], capacity=2)
        for i in range(5):
            audit.emit({"kind": "css_scale", "t": float(i)})
        audit.close()
        assert sink.emitted == 5
        records = read_audit_jsonl(path)
        assert [r["t"] for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(audit) == 2

    def test_jsonl_sink_close_idempotent(self, tmp_path):
        sink = AuditJsonlSink(tmp_path / "audit.jsonl")
        sink.emit({"kind": "gate_flip", "t": 0.0})
        sink.close()
        sink.close()

    def test_attach_adds_sink(self, tmp_path):
        audit = DecisionAudit()
        sink = audit.attach(AuditJsonlSink(tmp_path / "a.jsonl"))
        assert audit.sinks == (sink,)



class TestRowStore:
    """The audit keeps one row per record; :attr:`DecisionAudit.records`
    rebuilds the stamped dicts, keys and JSON bytes included."""

    @staticmethod
    def _emitted(i):
        record = {"kind": "gate_flip" if i % 3 else "css_scale",
                  "t": float(i), "func": f"f{i % 2}"}
        if i % 2:
            record["t_e"] = i / 7
        return record

    def _audit(self, capacity=None, sinks=()):
        audit = DecisionAudit(sinks=sinks, capacity=capacity)
        for i in range(10):
            assert audit.emit(self._emitted(i)) == i
        return audit

    def test_view_rebuilds_stamped_records(self):
        audit = self._audit()
        expected = [dict(self._emitted(i), did=i) for i in range(10)]
        view = audit.records
        assert len(view) == len(audit) == 10
        assert list(view) == list(audit) == expected
        assert [list(r) for r in view] == [list(r) for r in expected]
        assert view[-1] == expected[-1] and view[3] == expected[3]
        assert view[1:3] == expected[1:3]
        assert (json.dumps(list(view), separators=(",", ":"))
                == json.dumps(expected, separators=(",", ":")))
        with pytest.raises(IndexError):
            view[10]
        with pytest.raises(TypeError):
            view[0] = expected[0]

    def test_caller_dict_is_not_kept(self):
        audit = DecisionAudit()
        record = {"kind": "gate_flip", "t": 0.0}
        audit.emit(record)
        record["t"] = 9.0
        assert record == {"kind": "gate_flip", "t": 9.0}
        assert audit.records[0] == {"kind": "gate_flip", "t": 0.0, "did": 0}

    def test_nested_rows_read_back_as_lists_of_dicts(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = DecisionAudit(sinks=[AuditJsonlSink(path)])
        keys = ("cid", "func", "priority")
        audit.emit({"kind": "eviction_decision", "t": 1.0,
                    "victims": audit.table(keys, [(3, "a", 0.5)]),
                    "survivors": audit.table(keys, [(4, "b", 0.75),
                                                    (5, "a", 1.0)])})
        audit.close()
        expected = {"kind": "eviction_decision", "t": 1.0,
                    "victims": [{"cid": 3, "func": "a", "priority": 0.5}],
                    "survivors": [{"cid": 4, "func": "b", "priority": 0.75},
                                  {"cid": 5, "func": "a", "priority": 1.0}],
                    "did": 0}
        assert audit.records[0] == expected
        assert read_audit_jsonl(path) == [expected]

    def test_record_by_id_and_of_kind_on_a_rotated_ring(self):
        audit = self._audit(capacity=4)
        assert (len(audit), audit.dropped, audit.recorded) == (4, 6, 10)
        assert [r["did"] for r in audit.records] == [6, 7, 8, 9]
        assert audit.record_by_id(5) is None
        assert audit.record_by_id(10) is None
        for did in (6, 9):
            assert audit.record_by_id(did) == dict(self._emitted(did),
                                                   did=did)
        assert [r["did"] for r in audit.of_kind("css_scale")] == [6, 9]

    def test_capacity_zero_streams_to_sinks_only(self):
        seen = []

        class Sink(AuditSink):
            def emit(self, record):
                seen.append(record)

        audit = self._audit(capacity=0, sinks=[Sink()])
        assert seen == [dict(self._emitted(i), did=i) for i in range(10)]
        assert len(audit) == 0 and list(audit.records) == []
        assert audit.record_by_id(9) is None

class TestTypedColumns:
    """Each value reads back as exactly what was emitted, with the same
    JSON bytes, whichever column type it was stored in."""

    @staticmethod
    def _round_trip(schema, rows, capacity=None):
        """Emit ``rows`` under ``schema``; return (ring, sidecar) records."""
        seen = []

        class Sink(AuditSink):
            def emit(self, record):
                seen.append(record)

        audit = DecisionAudit(sinks=[Sink()], capacity=capacity)
        for values in rows:
            audit.emit(schema, values)
        return audit, list(audit.records), seen

    @staticmethod
    def _jsonl(records):
        return [json.dumps(r, separators=(",", ":")) for r in records]

    def test_an_int_in_a_float_column_stays_an_int(self):
        schema = Schema("k", ("t",))
        _, ring, seen = self._round_trip(schema, [(1.5,), (0,), (2.5,)])
        assert [r["t"] for r in ring] == [1.5, 0, 2.5]
        assert [type(r["t"]) for r in ring] == [float, int, float]
        assert self._jsonl(ring) == self._jsonl(seen)

    def test_bools_and_none_read_back_as_themselves(self):
        schema = Schema("k", ("on", "maybe"))
        rows = [(True, None), (False, 3), (True, None)]
        _, ring, seen = self._round_trip(schema, rows)
        assert [(r["on"], r["maybe"]) for r in ring] == rows
        assert all(type(r["on"]) is bool for r in ring)
        assert ring[0]["maybe"] is None
        assert self._jsonl(ring) == self._jsonl(seen)

    def test_np_float64_reads_back_as_float_with_the_same_json(self):
        schema = Schema("k", ("t", "cost"))
        rows = [(np.float64(0.1) * 3, np.float64(1e-7)), (2.0, 1 / 3)]
        _, ring, seen = self._round_trip(schema, rows)
        assert [type(r["t"]) for r in ring] == [float, float]
        assert [(r["t"], r["cost"]) for r in ring] == rows
        assert self._jsonl(ring) == self._jsonl(seen)

    def test_projection_dict_and_strings(self):
        family = SchemaFamily("css_scale", ("func",), ("projection",))
        projection = {"waiting": 3, "busy": 1,
                      "projected_ms": np.float64(12.5)}
        audit = DecisionAudit()
        audit.emit(*family.pick(("f",), (None,)))
        audit.emit(*family.pick(("g",), (projection,)))
        assert list(audit.records) == [
            {"kind": "css_scale", "func": "f", "did": 0},
            {"kind": "css_scale", "func": "g", "projection": projection,
             "did": 1}]

    def test_a_str_column_given_another_type_keeps_both(self):
        schema = Schema("k", ("func",))
        _, ring, _ = self._round_trip(schema, [("a",), (7,), ("b",)])
        assert [r["func"] for r in ring] == ["a", 7, "b"]

    def test_ints_beyond_int64_keep_their_value(self):
        schema = Schema("k", ("cid",))
        rows = [(1 << 31,), (1 << 70,), (5,)]
        _, ring, _ = self._round_trip(schema, rows)
        assert [r["cid"] for r in ring] == [1 << 31, 1 << 70, 5]

    def test_nested_rows_empty_and_not(self):
        audit = DecisionAudit()
        schema = Schema("eviction_decision", ("victims", "survivors"))
        wide = ("cid", "func", "mem_mb", "priority")
        narrow = ("cid", "func", "priority")
        audit.emit(schema, (audit.table(wide, [(1, "a", 128.0, 0.5)]),
                            audit.table(narrow, [])))
        audit.emit(schema, (audit.table(narrow, []),
                            audit.table(narrow, [(2, "b", 1.0),
                                                 (1 << 31, "a", 2)])))
        audit.emit(schema, (audit.table(narrow, [(3, "c", 0.25)]),
                            audit.table(narrow, [])))
        assert [(r["victims"], r["survivors"]) for r in audit] == [
            ([{"cid": 1, "func": "a", "mem_mb": 128.0, "priority": 0.5}],
             []),
            ([], [{"cid": 2, "func": "b", "priority": 1.0},
                  {"cid": 1 << 31, "func": "a", "priority": 2}]),
            ([{"cid": 3, "func": "c", "priority": 0.25}], [])]
        assert type(audit.records[1]["survivors"][1]["priority"]) is int

    def test_a_table_column_given_a_non_table_keeps_both(self):
        audit = DecisionAudit()
        schema = Schema("k", ("victims",))
        audit.emit(schema, (audit.table(("cid",), [(1,), (2,)]),))
        audit.emit(schema, (None,))
        audit.emit(schema, (audit.table(("cid",), [(3,)]),))
        assert [r["victims"] for r in audit] == [
            [{"cid": 1}, {"cid": 2}], None, [{"cid": 3}]]

    def test_many_rows_read_back_across_batches(self):
        schema = Schema("k", ("t", "cid", "func", "victims"))
        audit = DecisionAudit()
        rows = []
        for i in range(300):
            t = 0 if i == 130 else i / 4
            cid = 1 << 70 if i == 200 else i
            victims = audit.table(("cid",), [(i,)] * (i % 3))
            rows.append((t, cid, f"f{i % 7}", victims))
            audit.emit(schema, rows[-1])
            if i == 100:
                assert audit.record_by_id(99)["t"] == 99 / 4
        got = list(audit.records)
        assert [(r["t"], r["cid"], r["func"]) for r in got] == [
            row[:3] for row in rows]
        assert type(got[130]["t"]) is int and type(got[131]["t"]) is float
        assert [r["victims"] for r in got] == [
            [{"cid": i}] * (i % 3) for i in range(300)]

    def test_schema_and_dict_records_read_back_alike(self):
        audit = DecisionAudit()
        schema = Schema("gate_flip", ("t", "func", "enabled"))
        audit.emit(schema, (1.0, "f", True))
        audit.emit({"kind": "gate_flip", "t": 1.0, "func": "f",
                    "enabled": True})
        audit.emit({"t": 2.0, "kind": "gate_flip"})
        first, second, third = audit.records
        assert first == dict(second, did=0)
        assert list(first) == list(second)
        assert list(third) == ["t", "kind", "did"]
        assert [r["did"] for r in audit.of_kind("gate_flip")] == [0, 1, 2]

    def test_value_count_must_match_the_schema(self):
        audit = DecisionAudit()
        with pytest.raises(ValueError, match="3 keys, got 2 values"):
            audit.emit(Schema("k", ("a", "b", "c")), (1, 2))
        with pytest.raises(ValueError, match="needs 2 values"):
            audit.table(("cid", "func"), [(1, "a"), (2,)])

    def test_bounded_audit_holds_only_its_records_rows(self):
        audit = DecisionAudit(capacity=3)
        schema = Schema("eviction_decision", ("t", "victims"))
        for i in range(20):
            audit.emit(schema, (float(i), audit.table(
                ("cid", "func"), [(i * 10 + j, f"f{j}")
                                  for j in range(i % 4)])))
        held = list(audit.records)
        assert [r["t"] for r in held] == [17.0, 18.0, 19.0]
        assert [len(r["victims"]) for r in held] == [1, 2, 3]
        assert held[2]["victims"][2] == {"cid": 192, "func": "f2"}

        def stored_rows(block):
            rows = len(block.columns[0].data) if block.columns else 0
            for column in block.columns:
                if column.code == "t":
                    rows += sum(stored_rows(c) for c in column.children)
            return rows

        assert sum(stored_rows(b) for b in audit._blocks) == 3 + 6


class TestCssScaleRecords:
    def test_audit_nonempty_and_kinds_known(self, pressure_run):
        _, audit, _, _ = pressure_run
        assert audit.recorded > 0
        assert {r["kind"] for r in audit} <= set(RECORD_KINDS)
        assert audit.of_kind("css_scale")
        assert audit.of_kind("gate_flip")
        assert audit.of_kind("eviction_decision")

    def test_record_schema(self, pressure_run):
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("css_scale"):
            assert {"t", "func", "rid", "branch", "decision",
                    "bss_enabled"} <= set(record)
            assert record["branch"] in ("speculate", "disable", "reopen",
                                        "stay_queued")
            assert record["decision"] in ("speculate", "queue")

    def test_branch_implies_decision_and_gate_state(self, pressure_run):
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("css_scale"):
            branch, decision = record["branch"], record["decision"]
            if branch in ("speculate", "reopen"):
                assert decision == "speculate"
                assert record["bss_enabled"] is True
            else:
                assert decision == "queue"
                assert record["bss_enabled"] is False

    def test_disable_records_algorithm1_comparison(self, pressure_run):
        _, audit, _, _ = pressure_run
        disables = [r for r in audit.of_kind("css_scale")
                    if r["branch"] == "disable"]
        assert disables
        for record in disables:
            # Line 4 fired: both signals present and T_i > T_e, with the
            # demand guard evaluated (and false, or we would not disable).
            assert record["t_i"] > record["t_e"]
            assert record["demand_exceeds_pool"] is False

    def test_reopen_records_projection_inputs(self, pressure_run):
        _, audit, _, _ = pressure_run
        reopens = [r for r in audit.of_kind("css_scale")
                   if r["branch"] == "reopen"]
        assert reopens
        for record in reopens:
            assert record["t_d"] > record["t_p"]   # line 11 fired
            projection = record.get("projection")
            if projection is not None:
                assert projection["busy"] >= 1
                assert projection["projected_ms"] > 0
                # The projection folds into T_d via max().
                assert record["t_d"] >= projection["projected_ms"] \
                    or record["t_d"] == pytest.approx(
                        projection["projected_ms"])

    def test_gate_flips_alternate_per_function(self, pressure_run):
        _, audit, _, _ = pressure_run
        state = {}
        for flip in audit.of_kind("gate_flip"):
            func = flip["func"]
            assert flip["reason"] == ("T_d>T_p" if flip["enabled"]
                                      else "T_i>T_e")
            assert flip["trigger"] in ("scale", "maintenance")
            # BSS starts enabled, so the first flip is always off, and
            # consecutive flips of one function alternate.
            previous = state.get(func, True)
            assert flip["enabled"] != previous
            state[func] = flip["enabled"]


class TestEvictionDecisionRecords:
    def test_record_schema_and_accounting(self, pressure_run):
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("eviction_decision"):
            assert {"t", "wid", "need_mb", "freed_mb", "victims",
                    "survivors"} <= set(record)
            assert record["victims"]
            # REPLACE stops as soon as enough is freed; the audited
            # freed_mb is the victims' footprint alone (free_mb before
            # the decision made up the rest).
            assert record["freed_mb"] == pytest.approx(
                sum(v["mem_mb"] for v in record["victims"]))

    def test_victims_carry_eq3_decomposition(self, pressure_run):
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("eviction_decision"):
            for victim in record["victims"]:
                assert {"cid", "func", "mem_mb", "priority", "clock",
                        "freq_per_min", "cost_ms", "size_mb",
                        "warm_count"} <= set(victim)
                # Eq. 3 recombines exactly from its recorded terms.
                assert victim["priority"] == pytest.approx(
                    victim["clock"]
                    + victim["freq_per_min"] * victim["cost_ms"]
                    / (victim["size_mb"] * victim["warm_count"]))
                assert victim["warm_count"] >= 1

    def test_victims_outrank_no_survivor(self, pressure_run):
        """REPLACE evicts in ascending priority: every victim's priority
        is <= every survivor's (ties broken by container id)."""
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("eviction_decision"):
            worst_victim = max((v["priority"], v["cid"])
                               for v in record["victims"])
            for survivor in record["survivors"]:
                assert (survivor["priority"], survivor["cid"]) \
                    >= worst_victim

    def test_survivors_sorted_by_priority(self, pressure_run):
        _, audit, _, _ = pressure_run
        for record in audit.of_kind("eviction_decision"):
            keys = [(s["priority"], s["cid"])
                    for s in record["survivors"]]
            assert keys == sorted(keys)

    def test_records_are_json_serializable(self, pressure_run):
        import json

        _, audit, _, _ = pressure_run
        for record in audit:
            json.loads(json.dumps(record))


class TestMetricsCrossChecks:
    def test_starts_sum_to_total_requests(self, pressure_run):
        _, _, metrics, result = pressure_run
        starts = metrics.counter("repro_starts_total")
        total = sum(child.value for _, child in starts.children())
        assert total == result.result.total

    def test_eviction_counter_matches_result(self, pressure_run):
        _, _, metrics, result = pressure_run
        evictions = metrics.counter("repro_evictions_total")
        total = sum(child.value for _, child in evictions.children())
        assert total == result.result.evictions

    def test_wait_histogram_counts_every_request(self, pressure_run):
        _, _, metrics, result = pressure_run
        wait = metrics.histogram("repro_request_wait_ms")
        assert wait.labels().count == result.result.total

    def test_replace_victim_counter_matches_audit(self, pressure_run):
        _, audit, metrics, _ = pressure_run
        decisions = audit.of_kind("eviction_decision")
        assert metrics.counter("repro_replace_decisions_total").value \
            == len(decisions)
        assert metrics.counter("repro_replace_victims_total").value \
            == sum(len(r["victims"]) for r in decisions)

    def test_gate_flip_counter_matches_audit(self, pressure_run):
        _, audit, metrics, _ = pressure_run
        flips = metrics.counter("repro_bss_gate_flips_total")
        total = sum(child.value for _, child in flips.children())
        assert total == len(audit.of_kind("gate_flip"))

    def test_css_scale_counter_matches_audit(self, pressure_run):
        _, audit, metrics, _ = pressure_run
        scales = metrics.counter("repro_css_scale_total")
        by_branch = {key[0]: child.value
                     for key, child in scales.children()}
        records = audit.of_kind("css_scale")
        assert sum(by_branch.values()) == len(records)
        for branch, count in by_branch.items():
            assert count == sum(1 for r in records
                                if r["branch"] == branch)
