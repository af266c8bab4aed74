"""ENSURE — autonomous resource management for serverless [ACSOS '20].

ENSURE's FnScale autoscaler sizes each function's warm container pool from
its recent request traffic, reserving extra capacity ("burst buffers") for
demand spikes, and deactivates containers that the traffic no longer
justifies. The paper notes the weakness CIDRE exposes: proactively
reserving additional containers under high concurrency with a bounded
global memory budget is hard, so under pressure the reservations either
fail or displace other functions (§5.1).

Model (Little's-law pool sizing):

* every ``control_interval_ms`` the autoscaler computes per-function demand
  ``rate * avg_exec_time`` (expected concurrently busy containers) over a
  recent window and targets ``ceil(demand) + burst_buffer`` warm
  containers, pre-warming the shortfall while memory allows;
* idle containers above the target are deactivated;
* under direct pressure, eviction is LRU;
* scaling is cold-start-only (no busy-container reuse).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Tuple

from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.request import Request
    from repro.sim.worker import Worker


class EnsurePolicy(OrchestrationPolicy):
    """Traffic-driven autoscaling with burst buffers (FnScale-like).

    Parameters
    ----------
    window_ms:
        Traffic-estimation window.
    burst_buffer:
        Extra warm containers reserved on top of the Little's-law demand.
    max_reserved_fraction:
        The autoscaler stops pre-warming once the worker is this full,
        keeping room for reactive cold starts.
    """

    name = "ENSURE"

    def __init__(self, window_ms: float = 60_000.0, burst_buffer: int = 1,
                 control_interval_ms: float = 5_000.0,
                 max_reserved_fraction: float = 0.9):
        super().__init__()
        self.window_ms = window_ms
        self.burst_buffer = burst_buffer
        self.maintenance_interval_ms = control_interval_ms
        self.max_reserved_fraction = max_reserved_fraction
        #: (arrival time, exec time) samples per function.
        self._samples: Dict[str, Deque[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------

    def on_request_complete(self, container: "Container",
                            request: "Request", now: float) -> None:
        super().on_request_complete(container, request, now)
        samples = self._samples.setdefault(request.func, deque())
        samples.append((now, request.exec_ms))
        cutoff = now - self.window_ms
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def target_pool(self, func: str, now: float) -> int:
        """Little's law demand plus burst buffer."""
        samples = self._samples.get(func)
        if not samples:
            return 0
        cutoff = now - self.window_ms
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        if not samples:
            return 0
        rate_per_ms = len(samples) / self.window_ms
        avg_exec = sum(e for _, e in samples) / len(samples)
        demand = rate_per_ms * avg_exec
        return int(math.ceil(demand)) + self.burst_buffer

    # ------------------------------------------------------------------

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            funcs = set(worker.all_funcs()) | set(self._samples)
            # Sorted: scale-up order decides container creation order and
            # memory admission, so it must not follow set hash order.
            for func in sorted(funcs):
                target = self.target_pool(func, now)
                warm = worker.warm_count(func) \
                    + worker.provisioning_count(func)
                if warm < target:
                    self._scale_up(worker, func, target - warm, now)
                elif warm > target:
                    self._scale_down(worker, func, warm - target)

    def _scale_up(self, worker: "Worker", func: str, count: int,
                  now: float) -> None:
        assert self.ctx is not None
        spec = self.ctx.spec_of(func)
        for _ in range(count):
            budget = worker.capacity_mb * self.max_reserved_fraction
            if worker.used_mb + spec.memory_mb > budget:
                return  # reservation failed: memory too tight (§5.1)
            if not self.ctx.prewarm(spec, worker):
                return

    def _scale_down(self, worker: "Worker", func: str, count: int) -> None:
        assert self.ctx is not None
        idle = sorted(worker.idle_of(func), key=lambda c: c.last_used_ms)
        for container in idle[:count]:
            self.ctx.evict(container)
