"""Validation-surface tests for FunctionSpec, LayerStack and Request ids."""

import pytest

from repro.sim.function import DEFAULT_LAYERS, FunctionSpec, LayerStack
from repro.sim.request import Request, StartType
from repro.traces.schema import Trace


class TestFunctionSpecValidation:
    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            FunctionSpec("f", memory_mb=0.0, cold_start_ms=1.0)
        with pytest.raises(ValueError):
            FunctionSpec("f", memory_mb=-5.0, cold_start_ms=1.0)

    def test_rejects_negative_cold_start(self):
        with pytest.raises(ValueError):
            FunctionSpec("f", memory_mb=1.0, cold_start_ms=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_cold_start(self, bad):
        with pytest.raises(ValueError, match="cold_start_ms must be finite"):
            FunctionSpec("f", memory_mb=1.0, cold_start_ms=bad)

    def test_zero_cold_start_allowed(self):
        spec = FunctionSpec("f", memory_mb=1.0, cold_start_ms=0.0)
        assert spec.cold_start_ms == 0.0

    def test_frozen(self):
        spec = FunctionSpec("f", memory_mb=1.0, cold_start_ms=1.0)
        with pytest.raises(Exception):
            spec.memory_mb = 2.0


class TestLayerStackDefaults:
    def test_default_fractions_sum_to_one(self):
        for prefix in ("cost", "mem"):
            total = sum(getattr(DEFAULT_LAYERS, f"{l}_{prefix}_fraction")
                        for l in ("bare", "lang", "user"))
            assert total == pytest.approx(1.0)

    def test_user_layer_dominates_cost(self):
        """Calibration fact the RainbowCake comparison relies on: the
        private user layer carries the majority of the cold-start cost,
        bounding how much layer sharing can save."""
        assert DEFAULT_LAYERS.user_cost_fraction > 0.5

    def test_custom_stack_on_spec(self):
        stack = LayerStack(bare_cost_fraction=0.1, lang_cost_fraction=0.1,
                           user_cost_fraction=0.8,
                           bare_mem_fraction=0.2, lang_mem_fraction=0.2,
                           user_mem_fraction=0.6)
        spec = FunctionSpec("f", memory_mb=100.0, cold_start_ms=1000.0,
                            layers=stack)
        assert spec.layer_cost_ms("user") == pytest.approx(800.0)
        assert spec.layer_mem_mb("bare") == pytest.approx(20.0)


class TestRequestIds:
    def test_trace_assigns_sequential_ids(self):
        spec = FunctionSpec("f", 1.0, 1.0)
        trace = Trace("t", [spec],
                      [Request("f", 3.0, 1.0), Request("f", 1.0, 1.0),
                       Request("f", 2.0, 1.0)])
        assert [r.req_id for r in trace.requests] == [0, 1, 2]
        # Sorted by arrival, so id 0 is the earliest request.
        assert trace.requests[0].arrival_ms == 1.0

    def test_fresh_requests_preserve_ids(self):
        spec = FunctionSpec("f", 1.0, 1.0)
        trace = Trace("t", [spec], [Request("f", 1.0, 1.0)])
        fresh = trace.fresh_requests()
        assert fresh[0].req_id == trace.requests[0].req_id

    def test_start_type_enum_values(self):
        assert {t.value for t in StartType} \
            == {"warm", "delayed", "cold"}
