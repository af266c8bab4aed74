#!/usr/bin/env python
"""Writing a custom orchestration policy against the public API.

The simulator treats policies as plug-ins: subclass
:class:`repro.OrchestrationPolicy`, override the scaling decision and/or the
eviction priority, and run it through the same harness as the built-ins.
This example builds a "HYBRID" policy that:

* queues on busy containers only when the function's *average* execution
  time is short relative to its cold start (a static version of CIDRE's
  dynamic CSS gate);
* evicts by cost-weighted recency.

It is intentionally simple — the point is the extension surface, and that
even a crude concurrency-aware rule beats pure caching.

Run with::

    python examples/custom_policy.py
"""

from __future__ import annotations

from collections import defaultdict

from repro import (CIDREPolicy, FaasCachePolicy, OrchestrationPolicy,
                   SimulationConfig, simulate)
from repro.policies import ScalingDecision
from repro.traces import azure_trace


class HybridPolicy(OrchestrationPolicy):
    """Queue on busy containers iff executions look short; else cold start."""

    name = "HYBRID"

    def __init__(self, ratio_threshold: float = 0.5):
        super().__init__()
        self.ratio_threshold = ratio_threshold
        self._exec_sum = defaultdict(float)
        self._exec_count = defaultdict(int)

    # -- learn execution times as requests complete ---------------------

    def on_request_complete(self, container, request, now):
        super().on_request_complete(container, request, now)
        self._exec_sum[request.func] += request.exec_ms
        self._exec_count[request.func] += 1

    # -- scaling ---------------------------------------------------------

    def scale(self, request, worker, now) -> ScalingDecision:
        count = self._exec_count[request.func]
        if count == 0:
            return ScalingDecision.cold()
        avg_exec = self._exec_sum[request.func] / count
        cold = self.ctx.spec_of(request.func).cold_start_ms
        if avg_exec < self.ratio_threshold * cold:
            return ScalingDecision.queue()
        return ScalingDecision.cold()

    # -- eviction: cost-weighted recency ----------------------------------
    # priority = last_used_ms (the base order_key) + a per-function term;
    # supplying only that term lets REPLACE rank function groups.

    def group_offset(self, spec, worker, now) -> float:
        return spec.cold_start_ms


def main() -> None:
    trace = azure_trace(total_requests=15_000, n_functions=150)
    config = SimulationConfig(capacity_gb=50.0)
    print(f"workload: {trace.num_requests} requests, "
          f"{trace.num_functions} functions, 50 GB cache\n")
    for policy in (FaasCachePolicy(), HybridPolicy(), CIDREPolicy()):
        result = simulate(trace.functions, trace.fresh_requests(), policy,
                          config)
        print(f"{policy.name:<10} overhead={result.avg_overhead_ratio:.3f} "
              f"cold={result.cold_start_ratio:.2f} "
              f"delayed={result.delayed_start_ratio:.2f} "
              f"avg wait={result.avg_wait_ms:,.0f} ms")
    print("\nHYBRID sits between FaasCache and CIDRE: static "
          "concurrency-awareness\nhelps, adaptive speculative scaling "
          "helps more.")


if __name__ == "__main__":
    main()
