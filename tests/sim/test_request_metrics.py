"""Unit tests for request records and metric aggregation."""

import math

import numpy as np
import pytest

from repro.sim.metrics import MemorySample, MetricsCollector, SimulationResult
from repro.sim.request import Request, StartType


def done(func="fn", arrival=0.0, start=10.0, exec_ms=40.0,
         start_type=StartType.COLD):
    r = Request(func, arrival, exec_ms)
    r.start_ms = start
    r.end_ms = start + exec_ms
    r.start_type = start_type
    return r


class TestRequest:
    def test_wait_and_service(self):
        r = done(arrival=5.0, start=25.0, exec_ms=75.0)
        assert r.wait_ms == 20.0
        assert r.service_ms == 95.0
        assert r.completed

    def test_overhead_ratio(self):
        r = done(arrival=0.0, start=100.0, exec_ms=300.0)
        assert r.overhead_ratio == pytest.approx(0.25)

    def test_zero_duration_ratio(self):
        r = Request("fn", 0.0, 0.0)
        r.start_ms = 0.0
        r.end_ms = 0.0
        assert r.overhead_ratio == 0.0

    def test_unstarted_raises(self):
        r = Request("fn", 0.0, 1.0)
        with pytest.raises(ValueError):
            _ = r.wait_ms
        with pytest.raises(ValueError):
            _ = r.service_ms

    def test_negative_exec_rejected(self):
        with pytest.raises(ValueError):
            Request("fn", 0.0, -1.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="request 7: arrival_ms"):
            Request("fn", -1.0, 1.0, req_id=7)

    def test_nan_arrival_rejected(self):
        with pytest.raises(ValueError, match="request 7: arrival_ms"):
            Request("fn", math.nan, 1.0, req_id=7)

    def test_infinite_arrival_rejected(self):
        with pytest.raises(ValueError, match="request 7: arrival_ms"):
            Request("fn", math.inf, 1.0, req_id=7)


class TestSimulationResult:
    @pytest.fixture
    def result(self):
        requests = [
            done(start_type=StartType.WARM, start=0.0, exec_ms=100.0),
            done(start_type=StartType.WARM, start=0.0, exec_ms=100.0),
            done(start_type=StartType.DELAYED, start=50.0, exec_ms=50.0),
            done(start_type=StartType.COLD, start=300.0, exec_ms=100.0),
        ]
        return SimulationResult(requests)

    def test_ratios_sum_to_one(self, result):
        assert (result.cold_start_ratio + result.warm_start_ratio
                + result.delayed_start_ratio) == pytest.approx(1.0)
        assert result.cold_start_ratio == 0.25
        assert result.warm_start_ratio == 0.5
        assert result.delayed_start_ratio == 0.25

    def test_avg_overhead_ratio(self, result):
        # ratios: 0, 0, 0.5, 0.75
        assert result.avg_overhead_ratio == pytest.approx(0.3125)

    def test_avg_wait(self, result):
        assert result.avg_wait_ms == pytest.approx((0 + 0 + 50 + 300) / 4)

    def test_percentiles_monotone(self, result):
        assert result.wait_percentile(50) <= result.wait_percentile(99)
        assert result.service_percentile(10) <= result.service_percentile(90)

    def test_empty_result(self):
        empty = SimulationResult([])
        assert empty.total == 0
        assert empty.avg_overhead_ratio == 0.0
        assert empty.cold_start_ratio == 0.0
        assert empty.avg_memory_mb == 0.0

    def test_per_function_split(self):
        reqs = [done(func="a"), done(func="b"), done(func="a")]
        split = SimulationResult(reqs).per_function()
        assert split["a"].total == 2
        assert split["b"].total == 1

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in ("cold_ratio", "warm_ratio", "delayed_ratio",
                    "avg_overhead_ratio", "avg_wait_ms", "requests"):
            assert key in summary

    def test_empty_percentiles_are_zero(self):
        # Regression: np.percentile raised IndexError on empty runs.
        empty = SimulationResult([])
        assert empty.wait_percentile(50) == 0.0
        assert empty.wait_percentile(99) == 0.0
        assert empty.service_percentile(90) == 0.0

    def test_empty_summary(self):
        summary = SimulationResult([]).summary()
        assert summary["p50_wait_ms"] == 0.0
        assert summary["p99_wait_ms"] == 0.0
        assert summary["requests"] == 0.0

    def test_collector_roundtrip(self):
        collector = MetricsCollector()
        collector.record_request(done())
        collector.record_memory(0.0, 512.0)
        collector.cold_starts_begun = 3
        collector.wasted_cold_starts = 1
        result = collector.result()
        assert result.total == 1
        assert result.avg_memory_mb == 512.0
        assert result.peak_memory_mb == 512.0
        assert result.cold_starts_begun == 3
        assert result.wasted_cold_starts == 1


class TestAvgMemory:
    @staticmethod
    def result_for(points):
        return SimulationResult(
            [], memory_samples=[MemorySample(t, v) for t, v in points])

    def test_time_weighted_not_sample_weighted(self):
        # Regression: 100 MB held for 1000 ms then dropping to 0 over a
        # final 10 ms sliver must average near 100, not the unweighted
        # sample mean of ~66.7.
        res = self.result_for([(0.0, 100.0), (1000.0, 100.0), (1010.0, 0.0)])
        expected = (100.0 * 1000.0 + 50.0 * 10.0) / 1010.0
        assert res.avg_memory_mb == pytest.approx(expected)
        assert res.avg_memory_mb > 95.0

    def test_uniform_samples_match_trapezoid(self):
        # On a uniform grid the trapezoid mean is exactly
        # np.trapezoid / span, and for a linear ramp it equals the
        # plain sample mean — the old behaviour is preserved there.
        times = [0.0, 1000.0, 2000.0, 3000.0]
        values = [10.0, 30.0, 50.0, 70.0]
        res = self.result_for(zip(times, values))
        assert res.avg_memory_mb == pytest.approx(
            float(np.trapezoid(values, times)) / 3000.0)
        assert res.avg_memory_mb == pytest.approx(float(np.mean(values)))

    def test_constant_series_is_the_constant(self):
        res = self.result_for([(t, 42.0) for t in (0.0, 5.0, 1000.0)])
        assert res.avg_memory_mb == 42.0

    def test_degenerate_inputs(self):
        assert self.result_for([(5.0, 7.0)]).avg_memory_mb == 7.0
        # All samples at one instant: fall back to the plain mean.
        same_t = self.result_for([(1.0, 4.0), (1.0, 8.0)])
        assert same_t.avg_memory_mb == pytest.approx(6.0)
        assert self.result_for([]).avg_memory_mb == 0.0
