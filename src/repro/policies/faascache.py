"""FaasCache (GDSF) keep-alive and the paper's what-if variants.

FaasCache [Fuerst & Sharma, ASPLOS '21] treats function keep-alive as
Greedy-Dual-Size-Frequency caching. Each warm container carries a priority

    Priority(c) = Clock(c) + Freq(f) * Cost(f) / Size(f)          (Eq. 1)

where ``Clock`` is a logical clock capturing recency (set to the global
clock value each time the container is touched), ``Freq`` is the aggregate
number of invocations the function has received, ``Cost`` the provisioning
latency, and ``Size`` the memory footprint. On eviction the global clock is
raised to the victim's priority, so long-idle containers age out.

Two variants from the paper's motivation study (§2.4) live here too:

* :class:`FaasCacheCPolicy` — "FaasCache-C" (Fig. 8), which divides by the
  function's warm-container count ``K`` (Eq. 2), making functions hoarding
  many containers more evictable;
* :class:`BoundedQueueFaasCache` — the Fig. 7 what-if, which lets each busy
  warm container queue up to ``L`` outstanding requests (committed,
  per-container queues) before falling back to a cold start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.policies.base import (OrchestrationPolicy, ScalingDecision)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.function import FunctionSpec
    from repro.sim.request import Request
    from repro.sim.worker import Worker


class FaasCachePolicy(OrchestrationPolicy):
    """GDSF-based keep-alive (the FaasCache baseline)."""

    name = "FaasCache"

    def __init__(self) -> None:
        super().__init__()
        #: Global GDSF logical clock; raised to each victim's priority.
        self.global_clock = 0.0
        #: Aggregate invocation count per function (GDSF frequency).
        self.freq: Dict[str, int] = {}

    # -- frequency bookkeeping ------------------------------------------

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        super().on_request_arrival(request, worker, now)
        self.freq[request.func] = self.freq.get(request.func, 0) + 1

    # -- clock bookkeeping ----------------------------------------------

    def _touch(self, container: "Container") -> None:
        container.clock = self.global_clock

    def on_warm_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_warm_start(container, request, now)
        self._touch(container)

    def on_delayed_start(self, container: "Container", request: "Request",
                         now: float) -> None:
        super().on_delayed_start(container, request, now)
        self._touch(container)

    def on_cold_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_cold_start(container, request, now)
        self._touch(container)

    def on_provision_started(self, container: "Container",
                             now: float) -> None:
        super().on_provision_started(container, now)
        container.clock = self.global_clock

    def on_eviction(self, victims, now: float) -> None:
        super().on_eviction(victims, now)
        for victim in victims:
            self.global_clock = max(self.global_clock,
                                    self.priority(victim, now))

    # -- priority ---------------------------------------------------------

    order_key = "clock"

    def group_offset(self, spec: "FunctionSpec", worker: Optional["Worker"],
                     now: float) -> float:
        """Eq. 1's ``Freq * Cost / Size``."""
        return self.freq.get(spec.name, 1) * spec.cold_start_ms \
            / max(spec.memory_mb, 1e-9)


class FaasCacheCPolicy(FaasCachePolicy):
    """FaasCache-C (Eq. 2): GDSF with a concurrency-aware denominator.

    ``Priority = Clock + Freq * Cost / (Size * K)`` where ``K`` is the
    number of warm containers currently cached for the function. Functions
    with many containers become more evictable, producing the balanced
    evictions of Fig. 8.
    """

    name = "FaasCache-C"

    def group_offset(self, spec: "FunctionSpec", worker: Optional["Worker"],
                     now: float) -> float:
        k = max(worker.warm_count(spec.name), 1) if worker is not None else 1
        return self.freq.get(spec.name, 1) * spec.cold_start_ms \
            / (max(spec.memory_mb, 1e-9) * k)


class BoundedQueueFaasCache(FaasCachePolicy):
    """The Fig. 7 what-if: FaasCache with per-container request queues.

    ``queue_length = 0`` reproduces vanilla FaasCache (always cold start
    when no idle container). With ``queue_length = L``, a request missing
    idle capacity *commits* to the busy warm container with the fewest
    queued requests, as long as that container has fewer than ``L``
    outstanding; only when all busy containers' queues are full does the
    request fall back to a cold start.

    The committed (rather than work-conserving) queues are the point of the
    experiment: with ``L = 2`` a request can get stuck behind two long
    executions even though another container freed up earlier, which is why
    the paper finds ``L = 1`` helps but ``L = 2`` hurts.
    """

    def __init__(self, queue_length: int = 1):
        super().__init__()
        if queue_length < 0:
            raise ValueError("queue_length must be >= 0")
        self.queue_length = queue_length
        self.name = f"FaasCache-L{queue_length}"
        #: Outstanding committed requests per container id.
        self._qlen: Dict[int, int] = {}

    def scale(self, request: "Request", worker: "Worker",
              now: float) -> ScalingDecision:
        if self.queue_length == 0:
            return ScalingDecision.cold()
        best: Optional["Container"] = None
        best_q = self.queue_length  # must be strictly below to qualify
        for container in worker.busy_of(request.func):
            q = self._qlen.get(container.container_id, 0)
            if q < best_q:
                best, best_q = container, q
        if best is None:
            return ScalingDecision.cold()
        self._qlen[best.container_id] = best_q + 1
        return ScalingDecision.queue(target=best)

    def on_delayed_start(self, container: "Container", request: "Request",
                         now: float) -> None:
        super().on_delayed_start(container, request, now)
        queued = self._qlen.get(container.container_id, 0)
        if queued > 0:
            self._qlen[container.container_id] = queued - 1

    def on_eviction(self, victims, now: float) -> None:
        super().on_eviction(victims, now)
        for victim in victims:
            self._qlen.pop(victim.container_id, None)
