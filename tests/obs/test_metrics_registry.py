"""Unit tests for :mod:`repro.obs.metrics`.

Includes a minimal Prometheus text-format parser so the exposition
output is validated by *round-trip* — every sample line the registry
renders must parse back to the exact values the instruments hold.
"""

import math
import re

import pytest

from repro.obs import (DEFAULT_LATENCY_BUCKETS_MS, Histogram,
                       MetricsRegistry)

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (.+)$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value):
    return re.sub(r"\\(.)",
                  lambda m: "\n" if m.group(1) == "n" else m.group(1),
                  value)


def parse_prometheus(text):
    """Tiny text-format parser: returns (types, samples).

    ``types`` maps family name -> declared type; ``samples`` maps
    ``(name, frozenset(labels.items()))`` -> float value.
    """
    types = {}
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        name, labelbody, value = m.groups()
        labels = {}
        for lm in LABEL_RE.finditer(labelbody or ""):
            labels[lm.group(1)] = _unescape(lm.group(2))
        samples[(name, frozenset(labels.items()))] = float(value)
    return types, samples


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("pool_mb")
        g.set(100.0)
        g.inc(50.0)
        g.dec(25.0)
        assert g.value == pytest.approx(125.0)

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        assert len(reg) == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("func",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("worker",))

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad-name")

    def test_wrong_label_set_rejected(self):
        family = MetricsRegistry().counter("x_total",
                                           labelnames=("func",))
        with pytest.raises(ValueError):
            family.labels(worker="w0")


class TestBoundChildren:
    """``child(*values)`` and ``counter_child``: validated on first use,
    a lookup after, and exported exactly like ``labels(**kw)``."""

    def test_child_is_the_labels_child_and_memoised(self):
        family = MetricsRegistry().counter("x_total",
                                           labelnames=("func", "to"))
        child = family.child("f", "on")
        assert child is family.labels(func="f", to="on")
        assert family.child("f", "on") is child

    def test_child_rejects_wrong_arity(self):
        family = MetricsRegistry().counter("x_total",
                                           labelnames=("func",))
        with pytest.raises(ValueError):
            family.child("f", "extra")
        with pytest.raises(ValueError):
            family.child()
        with pytest.raises(ValueError):
            family.inc()

    def test_unlabelled_family_keeps_one_child(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total")
        assert reg.snapshot()["x_total"]["samples"] == []
        family.inc()
        family.inc(2.0)
        assert family.child() is family.labels()
        assert reg.snapshot()["x_total"]["samples"] == [
            {"labels": {}, "value": 3.0}]

    def test_children_appear_only_once_used(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", labelnames=("type",))
        family.child("warm").inc()
        assert [s["labels"] for s in reg.snapshot()["x_total"]["samples"]] \
            == [{"type": "warm"}]

    def test_counter_child_registers_lazily_and_validates(self):
        reg = MetricsRegistry()
        assert "x_total" not in reg
        child = reg.counter_child("x_total", "help", ("branch",), ("a",))
        assert "x_total" in reg
        assert child is reg.counter_child("x_total", "help", ("branch",),
                                          ("a",))
        assert child is reg.counter("x_total").labels(branch="a")
        with pytest.raises(ValueError):
            reg.counter_child("x_total", "help", ("other",), ("b",))
        reg.gauge("g")
        with pytest.raises(ValueError):
            reg.counter_child("g", "help")

    def test_same_exports_as_labels(self):
        by_labels, by_child = MetricsRegistry(), MetricsRegistry()
        for reg in (by_labels, by_child):
            reg.counter("a_total", "A", labelnames=("k",))
            reg.histogram("h_ms", "H", buckets=(1.0, 10.0))
        for value, key in ((0.5, "x"), (5.0, "y"), (50.0, "x")):
            by_labels.counter("a_total").labels(k=key).inc(value)
            by_labels.histogram("h_ms").labels().observe(value)
            by_child.counter("a_total").child(key).inc(value)
            by_child.histogram("h_ms").observe(value)
        assert by_labels.snapshot() == by_child.snapshot()
        assert by_labels.render_prometheus() == \
            by_child.render_prometheus()


class TestHistogram:
    def test_le_edges_are_inclusive(self):
        h = Histogram((10.0, 100.0))
        h.observe(10.0)     # lands in the le=10 bucket, not le=100
        h.observe(10.0001)
        h.observe(1_000.0)  # overflow
        assert h.counts == [1, 1, 1]
        assert h.cumulative() == [1, 2, 3]
        assert h.count == 3
        assert h.sum == pytest.approx(1_020.0001)

    def test_buckets_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(5.0, 5.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] == 10_000.0
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS)


class TestSnapshot:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("evictions_total", "evictions",
                    labelnames=("func",)).labels(func="f1").inc(3)
        reg.histogram("wait_ms", buckets=(10.0, 100.0)).observe(42.0)
        snap = reg.snapshot()
        assert snap["evictions_total"]["type"] == "counter"
        assert snap["evictions_total"]["samples"] == [
            {"labels": {"func": "f1"}, "value": 3.0}]
        hist = snap["wait_ms"]["samples"][0]
        assert hist["le"] == [10.0, 100.0]
        assert hist["counts"] == [0, 1, 0]
        assert hist["count"] == 1

    def test_save_json_round_trip(self, tmp_path):
        import json

        reg = MetricsRegistry()
        reg.gauge("used_mb").set(512.0)
        path = tmp_path / "metrics.json"
        reg.save_json(path)
        with open(path) as fh:
            assert json.load(fh) == reg.snapshot()


class TestPrometheusRoundTrip:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", "requests replayed").inc(7)
        starts = reg.counter("repro_starts_total", "starts by type",
                             labelnames=("type",))
        starts.labels(type="warm").inc(5)
        starts.labels(type="cold").inc(2)
        reg.gauge("repro_used_mb", "committed memory").set(1536.5)
        wait = reg.histogram("repro_request_wait_ms", "request wait",
                             buckets=(10.0, 100.0, 1_000.0))
        for v in (0.0, 5.0, 50.0, 500.0, 5_000.0):
            wait.observe(v)
        return reg

    def test_types_declared(self):
        types, _ = parse_prometheus(self.build().render_prometheus())
        assert types == {
            "repro_requests_total": "counter",
            "repro_starts_total": "counter",
            "repro_used_mb": "gauge",
            "repro_request_wait_ms": "histogram",
        }

    def test_samples_parse_back_exactly(self):
        _, samples = parse_prometheus(self.build().render_prometheus())
        assert samples[("repro_requests_total", frozenset())] == 7.0
        assert samples[("repro_starts_total",
                        frozenset({("type", "warm")}))] == 5.0
        assert samples[("repro_starts_total",
                        frozenset({("type", "cold")}))] == 2.0
        assert samples[("repro_used_mb", frozenset())] == 1536.5

    def test_histogram_series_are_cumulative(self):
        _, samples = parse_prometheus(self.build().render_prometheus())

        def bucket(le):
            return samples[("repro_request_wait_ms_bucket",
                            frozenset({("le", le)}))]

        assert bucket("10") == 2.0    # 0.0 and 5.0
        assert bucket("100") == 3.0
        assert bucket("1000") == 4.0
        assert bucket("+Inf") == 5.0
        assert samples[("repro_request_wait_ms_count",
                        frozenset())] == 5.0
        assert samples[("repro_request_wait_ms_sum",
                        frozenset())] == pytest.approx(5_555.0)

    def test_label_escaping_survives_round_trip(self):
        reg = MetricsRegistry()
        family = reg.counter("odd_total", labelnames=("func",))
        nasty = 'we"ird\\name\nline2'
        family.labels(func=nasty).inc()
        _, samples = parse_prometheus(reg.render_prometheus())
        assert samples[("odd_total",
                        frozenset({("func", nasty)}))] == 1.0

    def test_special_float_values_render(self):
        reg = MetricsRegistry()
        reg.gauge("weird").set(math.inf)
        _, samples = parse_prometheus(reg.render_prometheus())
        assert samples[("weird", frozenset())] == math.inf

    def test_save_prometheus_writes_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        self.build().save_prometheus(path)
        text = path.read_text()
        assert "# TYPE repro_requests_total counter" in text
        assert text.endswith("\n")
