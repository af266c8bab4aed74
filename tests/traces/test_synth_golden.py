"""Golden digests of the synthetic trace generators.

Each case pins :func:`repro.experiments.parallel.trace_digest` (function
specs and every request's arrival and execution time, by ``repr``) of
one generator call. The two ``azure`` cases are the replay benchmark's
base traces; ``fc`` and ``fc_production`` are the generators' defaults.
A change to ``synth_trace`` that reorders a random draw, rounds a value
differently or hands out a numpy scalar where a ``float`` was (``repr``
differs) moves these digests; a pure speed-up must not.
"""

import pytest

from repro.experiments.parallel import trace_digest
from repro.traces.alibaba import fc_production_trace, fc_trace
from repro.traces.azure import azure_trace

HOUR_MS = 3_600_000.0

CASES = {
    "azure-seed7-20k-30m": (
        lambda: azure_trace(seed=7, total_requests=20_000,
                            duration_ms=0.5 * HOUR_MS),
        19_788,
        "a87d33b4d224e2a0769901ce9347d1f8b46fb9690152a2032f69ddf048ffd91e"),
    "azure-seed1-20k-8h": (
        lambda: azure_trace(seed=1, total_requests=20_000,
                            duration_ms=8 * HOUR_MS),
        18_896,
        "a1c5fc00376a87dab4ed0d2c2df7314c652a22eacdd61ec0828f0b0b92560fdf"),
    "fc": (
        fc_trace,
        47_786,
        "85d4e140f3517a21c0ee55099925aa1fb2390ea953e540dee0956e1dff91a1fd"),
    "fc_production": (
        fc_production_trace,
        49_669,
        "f6739e82c61b7a17523ab1f39e22b38022166855071786e787967b5e0eaa7ee1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_matches_golden(case):
    make, rows, digest = CASES[case]
    trace = make()
    assert trace.num_requests == rows
    assert trace_digest(trace) == digest
