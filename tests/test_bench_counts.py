"""The committed work-counter golden stays in step with BENCHMARK.json.

``scripts/ci_check.sh`` replays every benchmark workload traced and
compares its deterministic per-layer counts with
``scripts/bench_counts.json`` through ``bench/diff_counters.py``, which
only compares counters present in the golden. These checks need no
replay: they fail when a workload or a ``count`` metric is declared in
``BENCHMARK.json`` but missing from the golden, which would leave that
part of the gate silently vacuous.
"""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
GOLDEN = json.loads((REPO / "scripts" / "bench_counts.json").read_text())

COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] == "count"]


def test_golden_uses_the_combined_report_shape():
    assert GOLDEN["schema"] == "bench/report/v1"


def test_golden_lists_exactly_the_benchmark_workloads():
    assert sorted(GOLDEN["workloads"]) \
        == sorted(w["name"] for w in SPEC["workloads"])


def test_spec_declares_count_metrics():
    assert COUNT_METRICS


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
def test_golden_holds_every_count_metric(workload):
    counts = GOLDEN["workloads"][workload]["layers"]["counts"]
    missing = [name for name in COUNT_METRICS if name not in counts]
    assert missing == []
    assert all(isinstance(counts[name], int) for name in COUNT_METRICS)
