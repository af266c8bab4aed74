"""Flame — centralized, skew-aware cache control [ASPLOS '23].

Flame observes that FaaS workloads are heavily skewed: a small set of hot
functions receives most invocations while a long tail of rarely invoked
("cold") functions wastes keep-alive memory. Its centralized cache
controller periodically reclaims containers of rarely invoked functions and
sizes each hot function's warm pool to its recent demand.

Model:

* a global controller runs every ``control_interval_ms``: it computes each
  function's invocation rate over a recent window, reclaims *all* idle
  containers of functions whose rate falls below ``cold_rate_per_min``, and
  trims hot functions' idle pools down to their observed peak concurrent
  demand;
* under direct memory pressure, victims are ranked by function rate (the
  skew signal) and recency within a function — rarely invoked functions go
  first;
* scaling is cold-start-only (Flame does not reuse busy containers), which
  is why it trails CIDRE "under high concurrency and high load" (§5.1).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict

from repro.core.window import MINUTES_MS
from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.request import Request
    from repro.sim.worker import Worker


class FlamePolicy(OrchestrationPolicy):
    """Centralized rate-based cache controller.

    Parameters
    ----------
    window_ms:
        Rate-estimation window for the controller.
    cold_rate_per_min:
        Functions invoked less often than this are treated as cold and
        their idle containers reclaimed by the controller.
    headroom:
        Idle containers kept per hot function on top of its observed peak
        in-window concurrency.
    """

    name = "Flame"

    def __init__(self, window_ms: float = 60_000.0,
                 cold_rate_per_min: float = 1.0,
                 headroom: int = 1,
                 control_interval_ms: float = 5_000.0):
        super().__init__()
        self.window_ms = window_ms
        self.cold_rate_per_min = cold_rate_per_min
        self.headroom = headroom
        self.maintenance_interval_ms = control_interval_ms
        #: Recent arrival timestamps per function.
        self._arrivals: Dict[str, Deque[float]] = {}
        #: Peak concurrent busy containers per function (in-window proxy).
        self._peak_busy: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        super().on_request_arrival(request, worker, now)
        arrivals = self._arrivals.setdefault(request.func, deque())
        arrivals.append(now)
        cutoff = now - self.window_ms
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        busy = worker.busy_count(request.func)
        if busy > self._peak_busy.get(request.func, 0):
            self._peak_busy[request.func] = busy

    def rate_per_min(self, func: str, now: float) -> float:
        arrivals = self._arrivals.get(func)
        if not arrivals:
            return 0.0
        cutoff = now - self.window_ms
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        return len(arrivals) / (self.window_ms / MINUTES_MS)

    # ------------------------------------------------------------------
    # Pressure eviction: rarely invoked functions go first

    def priority(self, container: "Container", now: float) -> float:
        rate = self.rate_per_min(container.spec.name, now)
        # Rate dominates; recency breaks ties within a function. The
        # recency term is scaled into [0, 1) so it never outweighs rate.
        recency = 1.0 / (1.0 + max(now - container.last_used_ms, 0.0))
        return rate + recency

    # ------------------------------------------------------------------
    # Controller

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            for func in list(worker.all_funcs()):
                idle = worker.idle_of(func)
                if not idle:
                    continue
                rate = self.rate_per_min(func, now)
                if rate < self.cold_rate_per_min:
                    for container in idle:
                        self.ctx.evict(container)
                    self._peak_busy.pop(func, None)
                    continue
                # Trim hot functions' idle pools to peak demand + headroom.
                allowed = self._peak_busy.get(func, 0) + self.headroom
                excess = len(idle) + worker.busy_count(func) - allowed
                if excess > 0:
                    victims = sorted(idle, key=lambda c: c.last_used_ms)
                    for container in victims[:excess]:
                        self.ctx.evict(container)
            # Peak concurrency decays each control round so pools shrink
            # after bursts pass.
            for func in list(self._peak_busy):
                self._peak_busy[func] = max(
                    worker.busy_count(func),
                    self._peak_busy[func] // 2)
