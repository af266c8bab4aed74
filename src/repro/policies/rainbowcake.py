"""RainbowCake — layer-wise container caching and sharing [ASPLOS '24].

RainbowCake splits a container into three stacked layers: ``bare`` (base OS,
shareable across all functions), ``lang`` (language runtime, shareable
across functions with the same runtime tag), and ``user`` (function code,
private). Instead of evicting whole containers, it *decays* them: on
keep-alive expiry or pressure the private user layer is dropped but the
lang/bare layers return to a shared warm-layer pool, so a later cold start
of any function with a matching runtime only pays for the layers it is
missing.

The model here keeps the essential behaviour the paper's comparison relies
on (§5.1, §5.4):

* low memory usage at low concurrency (shared layers amortize footprint);
* reduced cold-start *cost* whenever a matching warm layer is available;
* degraded behaviour under high concurrency: concurrent requests cannot
  find enough idle shared layers, so they pay (partial) provisioning and
  the layer pool stops helping — RainbowCake still never reuses a busy
  container.

Layer keep-alive uses per-kind TTLs (user < lang < bare), standing in for
RainbowCake's histogram-sized per-layer keep-alive windows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.function import FunctionSpec
    from repro.sim.worker import Worker


@dataclass
class _WarmLayer:
    """One warm layer waiting in the shared pool."""

    kind: Tuple[str, str]      # ("bare", "") or ("lang", runtime)
    mem_mb: float
    cost_ms: float
    cached_at: float


@dataclass
class _LayerPool:
    """Per-worker pool of decayed warm layers."""

    layers: List[_WarmLayer] = field(default_factory=list)

    def total_mb(self) -> float:
        return sum(layer.mem_mb for layer in self.layers)

    def take(self, kind: Tuple[str, str]) -> Optional[_WarmLayer]:
        for i, layer in enumerate(self.layers):
            if layer.kind == kind:
                return self.layers.pop(i)
        return None

    def drop_oldest(self) -> Optional[_WarmLayer]:
        if not self.layers:
            return None
        oldest = min(range(len(self.layers)),
                     key=lambda i: self.layers[i].cached_at)
        return self.layers.pop(oldest)

    def expire(self, now: float, ttl_by_kind) -> List[_WarmLayer]:
        expired = [l for l in self.layers
                   if now - l.cached_at >= ttl_by_kind(l.kind)]
        self.layers = [l for l in self.layers
                       if now - l.cached_at < ttl_by_kind(l.kind)]
        return expired


class RainbowCakePolicy(OrchestrationPolicy):
    """Layer-wise keep-alive and sharing.

    Parameters
    ----------
    user_ttl_ms / lang_ttl_ms / bare_ttl_ms:
        Keep-alive windows: the whole container (user layer on top) expires
        first, then its lang layer, then the bare layer.
    max_pool_fraction:
        Cap on the fraction of worker memory the shared layer pool may
        occupy; beyond it the oldest layers are dropped.
    """

    name = "RainbowCake"

    def __init__(self, user_ttl_ms: float = 60_000.0,
                 lang_ttl_ms: float = 300_000.0,
                 bare_ttl_ms: float = 600_000.0,
                 max_pool_fraction: float = 0.3,
                 scan_interval_ms: float = 1_000.0):
        super().__init__()
        self.user_ttl_ms = user_ttl_ms
        self.lang_ttl_ms = lang_ttl_ms
        self.bare_ttl_ms = bare_ttl_ms
        self.max_pool_fraction = max_pool_fraction
        self.maintenance_interval_ms = scan_interval_ms
        self._pools: Dict[int, _LayerPool] = {}

    # ------------------------------------------------------------------

    def _pool(self, worker: "Worker") -> _LayerPool:
        pool = self._pools.get(worker.worker_id)
        if pool is None:
            pool = self._pools[worker.worker_id] = _LayerPool()
        return pool

    def _ttl_of(self, kind: Tuple[str, str]) -> float:
        return self.bare_ttl_ms if kind[0] == "bare" else self.lang_ttl_ms

    def _sync_reservation(self, worker: "Worker") -> None:
        worker.reserve("rainbowcake-layers", self._pool(worker).total_mb())

    # ------------------------------------------------------------------
    # Cost model: pay only for missing layers

    def provision_cost_ms(self, spec: "FunctionSpec", worker: "Worker",
                          now: float) -> float:
        pool = self._pool(worker)
        cost = spec.layer_cost_ms("user")
        lang = pool.take(("lang", spec.runtime))
        if lang is None:
            cost += spec.layer_cost_ms("lang")
        bare = pool.take(("bare", ""))
        if bare is None:
            cost += spec.layer_cost_ms("bare")
        # Consumed layers become part of the container; stop reserving them.
        self._sync_reservation(worker)
        return cost

    # ------------------------------------------------------------------
    # Eviction: decay to layers instead of discarding everything

    def priority(self, container: "Container", now: float) -> float:
        return container.last_used_ms  # recency within the warm set

    def make_room(self, worker: "Worker", need_mb: float, now: float,
                  for_func: Optional[str] = None) -> bool:
        assert self.ctx is not None
        pool = self._pool(worker)
        # First shrink the shared pool (cheapest capacity to give back).
        while worker.free_mb < need_mb and pool.layers:
            pool.drop_oldest()
            self._sync_reservation(worker)
        if worker.free_mb >= need_mb:
            return True
        if worker.naive:
            victim_mb = sum(c.memory_mb for c in worker.evictable())
        else:
            victim_mb = worker.evictable_mb()
        if worker.free_mb + victim_mb < need_mb:
            return False  # even full eviction would not fit
        # Then decay idle containers, oldest first. Decay keeps shareable
        # layers warm when the pool has headroom — that is RainbowCake's
        # core trade: each decayed container frees only its user layer at
        # first, so more containers decay, but later cold starts get
        # cheaper. The pool shrink above reclaims layers when memory truly
        # runs out.
        if worker.naive:
            victims = sorted(worker.evictable(),
                             key=lambda c: self.priority(c, now))
            for victim in victims:
                self._decay(victim, worker, now, keep_layers=True)
                if worker.free_mb >= need_mb:
                    return True
        else:
            # (priority, container_id) min-heap popped as far as needed —
            # same victims/order as the reference's stable sort over
            # ascending-id candidates.
            ranked = [(self.priority(c, now), c.container_id, c)
                      for c in worker.evictable_items()]
            heapq.heapify(ranked)
            while ranked:
                _, _, victim = heapq.heappop(ranked)
                self._decay(victim, worker, now, keep_layers=True)
                if worker.free_mb >= need_mb:
                    return True
        # Last resort: give back pooled layers kept during this pass.
        while worker.free_mb < need_mb and pool.layers:
            pool.drop_oldest()
            self._sync_reservation(worker)
        return worker.free_mb >= need_mb

    def _decay(self, container: "Container", worker: "Worker", now: float,
               keep_layers: bool) -> None:
        """Evict ``container``; optionally keep its shareable layers warm.

        Pressure-driven decay (``keep_layers=False``) releases everything —
        RainbowCake cannot afford to keep layers when memory is needed
        immediately. TTL-driven decay keeps lang/bare warm in the pool
        subject to the pool-size cap.
        """
        assert self.ctx is not None
        spec = container.spec
        self.ctx.evict(container)
        if not keep_layers:
            return
        pool = self._pool(worker)
        cap = worker.capacity_mb * self.max_pool_fraction
        for kind, layer_name in ((("lang", spec.runtime), "lang"),
                                 (("bare", ""), "bare")):
            mem = spec.layer_mem_mb(layer_name)
            if pool.total_mb() + mem > cap:
                continue
            if mem > worker.free_mb:
                continue
            pool.layers.append(_WarmLayer(kind, mem,
                                          spec.layer_cost_ms(layer_name),
                                          now))
        self._sync_reservation(worker)

    # ------------------------------------------------------------------
    # Maintenance: per-layer TTL expiry

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            pool = self._pool(worker)
            pool.expire(now, self._ttl_of)
            self._sync_reservation(worker)
            expired = [c for c in worker.evictable()
                       if now - c.last_used_ms >= self.user_ttl_ms]
            for container in expired:
                self._decay(container, worker, now, keep_layers=True)
