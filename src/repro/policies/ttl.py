"""TTL keep-alive — OpenLambda's default policy.

Containers are kept alive for a fixed period after their last use
(10 minutes by default, the paper's §4 setting) and reclaimed when the
lifespan expires. Under memory pressure TTL additionally falls back to
evicting the longest-idle containers so that new provisions are not starved
(capacity-triggered expiry), matching how TTL systems behave when the cache
is smaller than the working set.

TTL never reuses busy containers: every request that misses idle capacity
pays a full cold start.
"""

from __future__ import annotations

import math

from typing import Optional

from repro.policies.base import OrchestrationPolicy

TEN_MINUTES_MS = 10 * 60 * 1_000.0


class TTLPolicy(OrchestrationPolicy):
    """Fixed-lifespan keep-alive (OpenLambda default).

    Under pressure the base recency priority reclaims the container
    closest to expiry first.
    """

    name = "TTL"

    def __init__(self, ttl_ms: float = TEN_MINUTES_MS,
                 scan_interval_ms: float = 1_000.0):
        super().__init__()
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        self.ttl_ms = ttl_ms
        self.maintenance_interval_ms = scan_interval_ms

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            expired = [c for c in worker.evictable()
                       if now - c.last_used_ms >= self.ttl_ms]
            for container in expired:
                self.ctx.evict(container)

    def maintenance_horizon(self, now: float) -> Optional[float]:
        """First possible expiry: the scan evicts nothing until the oldest
        evictable container's lifespan runs out (an evictable container's
        recency is frozen — using it leaves the evictable set)."""
        if self.ctx is None:
            return None
        horizon = math.inf
        for worker in self.ctx.workers():
            oldest = worker.oldest_evictable_ms()
            if oldest is not None and oldest + self.ttl_ms < horizon:
                horizon = oldest + self.ttl_ms
        return horizon
