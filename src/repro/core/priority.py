"""Concurrency-informed priority (CIP) — the paper's Eq. 3/4.

CIP ranks warm containers by

    Priority(c) = Clock(c) + Freq(F(c)) * Cost(c) / (Size(c) * |F(c)|)

combining fine-grained container statistics (recency ``Clock``, provisioning
``Cost``, footprint ``Size``) with coarse-grained function-level concurrency
statistics:

* ``Freq(F(c)) = n_F / t`` (Eq. 4) — the function's average invocation rate
  per *minute over its whole lifetime*, which decays naturally when a
  function goes quiet (unlike GDSF's monotone reuse counts);
* ``|F(c)|`` — the function's current warm-container count, which makes
  functions hoarding many containers proportionally more evictable and
  yields the balanced evictions of Observation 2.

``Clock`` follows the paper's logical-clock discipline (§3.3): a container
created while the cache is not full starts at 0; a container created via
replacement inherits the largest priority among evicted containers (we keep
a global running maximum, which preserves the required monotonicity); and a
container serving a request — warm or delayed — sets its clock to its own
priority value before the other statistics are refreshed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.window import MINUTES_MS
from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.function import FunctionSpec
    from repro.sim.request import Request
    from repro.sim.worker import Worker


class CIPEvictionMixin(OrchestrationPolicy):
    """Eviction side of CIDRE. Combine with a scaling mixin."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Logical clock: running max of evicted priorities.
        self.cip_clock = 0.0
        #: Lifetime invocation count per function (n_F of Eq. 4).
        self._invocations: Dict[str, int] = {}
        #: First-arrival timestamp per function (t of Eq. 4).
        self._first_seen: Dict[str, float] = {}
        #: Memo of the last Freq computation per function, keyed by the
        #: inputs it depends on: (now, invocation count) -> freq. Exact —
        #: identical inputs always yield the identical quotient — so the
        #: cache cannot change any priority value. It collapses the many
        #: same-timestamp recomputations a single make_room / serve batch
        #: performs into one division per function.
        self._freq_cache: Dict[str, tuple] = {}

    # -- function-level statistics ----------------------------------------

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        super().on_request_arrival(request, worker, now)
        self._invocations[request.func] = \
            self._invocations.get(request.func, 0) + 1
        self._first_seen.setdefault(request.func, now)

    def freq_per_minute(self, func: str, now: float) -> float:
        """Eq. 4: lifetime invocations per minute."""
        count = self._invocations.get(func, 0)
        if count == 0:
            return 0.0
        cached = self._freq_cache.get(func)
        if cached is not None and cached[0] == now and cached[1] == count:
            return cached[2]
        elapsed_min = max((now - self._first_seen[func]) / MINUTES_MS,
                          1.0 / MINUTES_MS)  # clamp to >= 1 ms of history
        freq = count / elapsed_min
        self._freq_cache[func] = (now, count, freq)
        return freq

    # -- priority -----------------------------------------------------------

    order_key = "clock"

    def group_offset(self, spec: "FunctionSpec", worker: Optional["Worker"],
                     now: float) -> float:
        """Eq. 3's shared term, ``Freq(F) * Cost / (Size * |F|)``.

        ``Freq`` is function-global (Eq. 4), but ``|F(c)|`` counts warm
        containers on ``worker`` — same-function containers on different
        workers see different counts. A detached container (``worker`` is
        ``None``, e.g. a victim being accounted) counts 1.
        """
        freq = self.freq_per_minute(spec.name, now)
        k = max(worker.warm_count(spec.name), 1) if worker is not None else 1
        return freq * spec.cold_start_ms / (max(spec.memory_mb, 1e-9) * k)

    def priority_components(self, container: "Container",
                            now: float) -> Dict:
        """Eq. 3 term decomposition for one container (audit records)."""
        spec = container.spec
        worker = container.worker
        return {
            "priority": self.priority(container, now),
            "clock": container.clock,
            "freq_per_min": self.freq_per_minute(spec.name, now),
            "cost_ms": spec.cold_start_ms,
            "size_mb": spec.memory_mb,
            "warm_count": max(worker.warm_count(spec.name), 1)
            if worker is not None else 1,
        }

    # -- clock discipline ----------------------------------------------------

    def _touch(self, container: "Container", now: float) -> None:
        """Serve-time update: Clock(c) <- Priority(c) (pre-update value)."""
        container.clock = self.priority(container, now)

    def on_warm_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_warm_start(container, request, now)
        self._touch(container, now)

    def on_delayed_start(self, container: "Container", request: "Request",
                         now: float) -> None:
        super().on_delayed_start(container, request, now)
        self._touch(container, now)

    def on_cold_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_cold_start(container, request, now)
        self._touch(container, now)

    def on_provision_started(self, container: "Container",
                             now: float) -> None:
        super().on_provision_started(container, now)
        # New containers inherit the running max of evicted priorities,
        # guaranteeing monotonically increasing clocks (§3.3).
        container.clock = self.cip_clock

    def on_eviction(self, victims, now: float) -> None:
        super().on_eviction(victims, now)
        for victim in victims:
            self.cip_clock = max(self.cip_clock,
                                 self.priority(victim, now))
