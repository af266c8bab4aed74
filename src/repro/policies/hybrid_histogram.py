"""Hybrid histogram keep-alive — "Serverless in the Wild" [ATC '20].

An extension baseline (not part of the paper's comparison, but the
canonical production keep-alive policy from Shahrad et al., whose Azure
trace the paper evaluates on). The policy tracks each function's idle-time
(inter-arrival) distribution in a minute-granularity histogram and derives
a per-function *keep-alive window*:

* containers are kept warm until the histogram's ``keep_percentile``
  (default 99th) of idle times has passed since the last invocation, then
  released;
* once released, a container is *pre-warmed* again shortly before the next
  invocation is expected — at the histogram's ``prewarm_percentile``
  (default 5th) — so that predictable functions sleep through their idle
  gaps without paying cold starts;
* functions with too little history or too erratic a pattern fall back to
  a fixed TTL (the "out-of-bounds" path of the original system).

Like the paper's other caching-based baselines, it never reuses busy
containers, so heavy concurrency still forces cold starts — which is
exactly the gap CIDRE targets.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.request import Request
    from repro.sim.worker import Worker

MINUTE_MS = 60_000.0


class _IdleHistogram:
    """Minute-granularity histogram of one function's inter-arrival times."""

    __slots__ = ("bins", "count", "last_arrival_ms")

    def __init__(self, max_minutes: int):
        self.bins = [0] * (max_minutes + 1)
        self.count = 0
        self.last_arrival_ms: Optional[float] = None

    def observe(self, now: float) -> None:
        if self.last_arrival_ms is not None:
            minutes = int((now - self.last_arrival_ms) // MINUTE_MS)
            minutes = min(minutes, len(self.bins) - 1)
            self.bins[minutes] += 1
            self.count += 1
        self.last_arrival_ms = now

    def percentile_minutes(self, q: float) -> Optional[int]:
        """The ``q``-th percentile bin (None without samples)."""
        if self.count == 0:
            return None
        target = math.ceil(self.count * q / 100.0)
        running = 0
        for minute, hits in enumerate(self.bins):
            running += hits
            if running >= target:
                return minute
        return len(self.bins) - 1  # pragma: no cover - defensive

    def is_out_of_bounds(self) -> bool:
        """True when the tail bin dominates (unpredictable pattern)."""
        if self.count == 0:
            return True
        return self.bins[-1] / self.count > 0.5


class HybridHistogramPolicy(OrchestrationPolicy):
    """Histogram-driven keep-alive + pre-warming windows.

    Parameters
    ----------
    keep_percentile / prewarm_percentile:
        Histogram percentiles bounding the keep-alive window.
    min_samples:
        Below this many inter-arrival samples, fall back to the TTL.
    fallback_ttl_ms:
        Keep-alive used for unpredictable / young functions.
    max_minutes:
        Histogram range; longer idle times land in the overflow bin.
    """

    name = "HybridHistogram"

    def __init__(self, keep_percentile: float = 99.0,
                 prewarm_percentile: float = 5.0,
                 min_samples: int = 10,
                 fallback_ttl_ms: float = 10 * MINUTE_MS,
                 max_minutes: int = 240,
                 scan_interval_ms: float = 1_000.0):
        super().__init__()
        if not 0 < prewarm_percentile < keep_percentile <= 100:
            raise ValueError("need 0 < prewarm < keep <= 100 percentiles")
        self.keep_percentile = keep_percentile
        self.prewarm_percentile = prewarm_percentile
        self.min_samples = min_samples
        self.fallback_ttl_ms = fallback_ttl_ms
        self.max_minutes = max_minutes
        self.maintenance_interval_ms = scan_interval_ms
        self._hist: Dict[str, _IdleHistogram] = {}

    # ------------------------------------------------------------------

    def _histogram(self, func: str) -> _IdleHistogram:
        hist = self._hist.get(func)
        if hist is None:
            hist = self._hist[func] = _IdleHistogram(self.max_minutes)
        return hist

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        super().on_request_arrival(request, worker, now)
        self._histogram(request.func).observe(now)

    def keep_alive_ms(self, func: str) -> float:
        """Current keep-alive window for ``func``."""
        hist = self._hist.get(func)
        if (hist is None or hist.count < self.min_samples
                or hist.is_out_of_bounds()):
            return self.fallback_ttl_ms
        minutes = hist.percentile_minutes(self.keep_percentile)
        # Keep through the whole percentile bin (+1 minute margin, as the
        # original system pads its windows).
        return (minutes + 1) * MINUTE_MS

    def prewarm_at_ms(self, func: str) -> Optional[float]:
        """Absolute time to pre-warm ``func``, or ``None``.

        Pre-warming happens one histogram bin *before* the
        ``prewarm_percentile`` of the idle-time distribution, so the
        container is warm when the predicted arrival lands (the original
        system pads its windows the same way).
        """
        hist = self._hist.get(func)
        if (hist is None or hist.count < self.min_samples
                or hist.is_out_of_bounds()
                or hist.last_arrival_ms is None):
            return None
        minutes = hist.percentile_minutes(self.prewarm_percentile)
        if minutes is None or minutes < 2:
            return None   # short gaps: plain keep-alive already covers it
        return hist.last_arrival_ms + (minutes - 1) * MINUTE_MS

    def release_after_ms(self, func: str) -> float:
        """How long an idle container of ``func`` is kept before release.

        Predictable functions with multi-minute gaps sleep between the
        release point and the pre-warm point — that is the policy's whole
        memory saving; everything else keeps the full window.
        """
        if self.prewarm_at_ms(func) is not None:
            return MINUTE_MS
        return self.keep_alive_ms(func)

    # ------------------------------------------------------------------
    # Eviction order under direct pressure: shortest remaining window.

    def priority(self, container: "Container", now: float) -> float:
        window = self.keep_alive_ms(container.spec.name)
        return (container.last_used_ms + window) - now

    # ------------------------------------------------------------------

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            # Release containers whose keep-alive / release window expired.
            for container in list(worker.evictable()):
                window = self.release_after_ms(container.spec.name)
                if now - container.last_used_ms >= window:
                    self.ctx.evict(container)
            # Pre-warm functions approaching their predicted next call.
            for func, hist in self._hist.items():
                when = self.prewarm_at_ms(func)
                if when is None or not (when <= now
                                        <= when + 2
                                        * self.maintenance_interval_ms):
                    continue
                if worker.func_count(func):
                    continue  # already has a container (any state)
                self.ctx.prewarm(self.ctx.spec_of(func), worker)
