"""Tests for the trace schema, transforms, persistence and statistics."""

import numpy as np
import pytest

from repro.sim.function import FunctionSpec
from repro.sim.request import Request
from repro.traces.io import load_trace, save_trace
from repro.traces.schema import Trace
from repro.traces.stats import (cold_to_exec_ratios, concurrency_per_minute,
                                execution_time_cv, fraction_cold_dominated,
                                workload_stats)
from repro.traces.transforms import (scale_cold_start, scale_exec_time,
                                     scale_iat)


@pytest.fixture
def trace():
    functions = [
        FunctionSpec("a", memory_mb=1024, cold_start_ms=1000),
        FunctionSpec("b", memory_mb=512, cold_start_ms=200),
    ]
    requests = [
        Request("a", 0.0, 500.0),
        Request("a", 1_000.0, 500.0),
        Request("b", 2_000.0, 400.0),
        Request("b", 61_000.0, 400.0),
    ]
    return Trace("test", functions, requests)


class TestSchema:
    def test_basic_properties(self, trace):
        assert trace.num_functions == 2
        assert trace.num_requests == 4
        assert trace.duration_ms == 61_000.0
        assert trace.spec_of("a").memory_mb == 1024

    def test_requests_sorted_and_ids_assigned(self):
        t = Trace("t", [FunctionSpec("a", 1, 1)],
                  [Request("a", 5.0, 1.0), Request("a", 1.0, 1.0)])
        assert [r.arrival_ms for r in t.requests] == [1.0, 5.0]
        assert [r.req_id for r in t.requests] == [0, 1]

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            Trace("t", [FunctionSpec("a", 1, 1)],
                  [Request("ghost", 0.0, 1.0)])

    def test_unknown_function_names_request_index_and_function(self):
        """The index is the request's position as given, before the
        arrival sort."""
        with pytest.raises(ValueError,
                           match=r"trace 't': request 2 targets unknown "
                                 r"function 'ghost'"):
            Trace("t", [FunctionSpec("a", 1, 1)],
                  [Request("a", 9.0, 1.0), Request("a", 5.0, 1.0),
                   Request("ghost", 0.0, 1.0), Request("ghost", 1.0, 1.0)])

    def test_duplicate_function_name_rejected(self):
        with pytest.raises(ValueError,
                           match="trace 't': duplicate function name 'a'"):
            Trace("t", [FunctionSpec("a", 1, 1), FunctionSpec("b", 1, 1),
                        FunctionSpec("a", 2, 1)],
                  [Request("a", 0.0, 1.0)])

    def test_fresh_requests_are_copies(self, trace):
        fresh = trace.fresh_requests()
        fresh[0].start_ms = 123.0
        assert trace.requests[0].start_ms is None

    def test_subset(self, trace):
        sub = trace.subset(["a"])
        assert sub.num_functions == 1
        assert all(r.func == "a" for r in sub.requests)


class TestTransforms:
    def test_scale_iat_compresses(self, trace):
        fast = scale_iat(trace, 0.5)
        assert fast.duration_ms == pytest.approx(trace.duration_ms / 2)
        assert fast.num_requests == trace.num_requests
        # Execution times untouched.
        assert fast.requests[0].exec_ms == trace.requests[0].exec_ms

    def test_scale_exec(self, trace):
        slow = scale_exec_time(trace, 2.0)
        assert slow.requests[0].exec_ms \
            == pytest.approx(2 * trace.requests[0].exec_ms)
        assert slow.duration_ms == trace.duration_ms

    def test_scale_cold(self, trace):
        cheap = scale_cold_start(trace, 0.25)
        assert cheap.spec_of("a").cold_start_ms == pytest.approx(250.0)
        assert trace.spec_of("a").cold_start_ms == 1000.0  # untouched

    def test_invalid_factor(self, trace):
        for fn in (scale_iat, scale_exec_time, scale_cold_start):
            with pytest.raises(ValueError):
                fn(trace, 0.0)


class TestIO:
    def test_roundtrip(self, trace, tmp_path):
        save_trace(trace, tmp_path)
        loaded = load_trace(tmp_path, "test")
        assert loaded.name == trace.name
        assert loaded.num_functions == trace.num_functions
        assert loaded.num_requests == trace.num_requests
        for a, b in zip(loaded.requests, trace.requests):
            assert (a.func, a.arrival_ms, a.exec_ms) \
                == (b.func, b.arrival_ms, b.exec_ms)
        assert loaded.spec_of("a").cold_start_ms == 1000.0
        assert loaded.spec_of("a").runtime == "python3.8"

    @staticmethod
    def _corrupt(trace, tmp_path, lines):
        save_trace(trace, tmp_path)
        path = tmp_path / "test.requests.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("bad_row, complaint", [
        ("a,5.0,abc", "could not convert string to float: 'abc'"),
        ("nosuchfunc,5.0,1.0", "unknown function 'nosuchfunc'"),
        ("a,5.0", "must be a string or a real number"),
        ("a,nan,1.0", "arrival"),
    ])
    def test_bad_row_names_file_and_line(self, trace, tmp_path, bad_row,
                                         complaint):
        path = self._corrupt(trace, tmp_path, [
            "func,arrival_ms,exec_ms", "a,0.0,1.0", bad_row, "b,9.0,1.0"])
        with pytest.raises(ValueError) as excinfo:
            load_trace(tmp_path, "test")
        message = str(excinfo.value)
        assert message.startswith(f"{path}, line 3: ")
        assert complaint in message

    def test_missing_column_names_file_and_line(self, trace, tmp_path):
        path = self._corrupt(trace, tmp_path, [
            "func,arrival,exec_ms", "a,0.0,1.0"])
        with pytest.raises(KeyError) as excinfo:
            load_trace(tmp_path, "test")
        assert f"{path}, line 2: no 'arrival_ms' column" in str(excinfo.value)


class TestStats:
    def test_workload_stats(self, trace):
        stats = workload_stats(trace)
        assert stats.num_requests == 4
        assert stats.rps_max >= stats.rps_avg >= stats.rps_min
        assert stats.gbps_max >= stats.gbps_avg
        # Bucket 0 holds one request of 1 GB -> 1 GBps.
        assert stats.gbps_max == pytest.approx(1.0)
        assert stats.row()  # renders without error

    def test_concurrency_per_minute(self, trace):
        samples = concurrency_per_minute(trace)
        # Minutes are measured from each function's own first arrival:
        # a has 2 requests in its first minute, and so does b (2 000 and
        # 61 000 are 59 s apart).
        assert sorted(samples.tolist()) == [2.0, 2.0]

    def test_concurrency_separate_minutes(self):
        t = Trace("t", [FunctionSpec("a", 1, 1)],
                  [Request("a", 0.0, 1.0), Request("a", 90_000.0, 1.0)])
        assert sorted(concurrency_per_minute(t).tolist()) == [1.0, 1.0]

    def test_cold_to_exec_ratio(self, trace):
        ratios = cold_to_exec_ratios(trace)
        assert ratios[0] == pytest.approx(1000.0 / 500.0)
        estimated = cold_to_exec_ratios(trace, ms_per_mb=1.0)
        assert estimated[0] == pytest.approx(1024.0 / 500.0)

    def test_fraction_cold_dominated(self, trace):
        # a's ratio is 2.0 (>1), b's is 0.5 (<1): half dominated.
        assert fraction_cold_dominated(trace) == pytest.approx(0.5)

    def test_execution_cv(self):
        t = Trace("t", [FunctionSpec("a", 1, 1)],
                  [Request("a", 0.0, 100.0), Request("a", 1.0, 200.0),
                   Request("a", 2.0, 100.0)])
        cv = execution_time_cv(t)
        arr = np.array([100.0, 200.0, 100.0])
        assert cv["a"] == pytest.approx(arr.std(ddof=1) / arr.mean())

    def test_empty_trace_stats(self):
        t = Trace("empty", [FunctionSpec("a", 1, 1)], [])
        stats = workload_stats(t)
        assert stats.num_requests == 0
        assert len(concurrency_per_minute(t)) == 0
