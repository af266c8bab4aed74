"""Policy interfaces: scaling (cold vs delayed-warm) and eviction.

An :class:`OrchestrationPolicy` plugs into the simulator's control plane
(:mod:`repro.sim.orchestrator`) at two decision points:

1. **Scaling** — when a request finds no idle warm container, the policy
   chooses among:

   * ``COLD``      — provision a container bound to this request (the
     vanilla keep-alive behaviour: TTL, LRU, FaasCache, ...);
   * ``QUEUE``     — wait for a busy warm container (a delayed warm start),
     optionally committed to one specific container (the bounded-queue
     what-if of Fig. 7);
   * ``SPECULATE`` — do both simultaneously and take whichever becomes
     available first (CIDRE's speculative scaling, §3.2).

2. **Eviction** — when provisioning needs memory, :meth:`make_room` frees
   capacity. The default implementation evicts idle containers in
   ascending :meth:`priority` order (the paper's ``REPLACE`` subroutine);
   policies may override either the priority (GDSF, CIP, LRU, ...) or the
   whole procedure (CodeCrunch compresses instead of evicting).

Policies observe the container lifecycle through ``on_*`` hooks; they never
mutate simulator state directly except through the :class:`PolicyContext`
facade handed to them at bind time.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.function import FunctionSpec
    from repro.sim.request import Request
    from repro.sim.worker import Worker


class ScalingAction(enum.Enum):
    COLD = "cold"
    QUEUE = "queue"
    SPECULATE = "speculate"


@dataclass
class ScalingDecision:
    """Outcome of :meth:`OrchestrationPolicy.scale`.

    ``target`` commits a ``QUEUE`` decision to one specific busy container
    (per-container queues, Fig. 7); when ``None`` the request joins the
    work-conserving per-function FIFO and is served by whichever container
    of the function frees up first.
    """

    action: ScalingAction
    target: Optional["Container"] = None

    @classmethod
    def cold(cls) -> "ScalingDecision":
        return cls(ScalingAction.COLD)

    @classmethod
    def queue(cls, target: Optional["Container"] = None) -> "ScalingDecision":
        return cls(ScalingAction.QUEUE, target)

    @classmethod
    def speculate(cls) -> "ScalingDecision":
        return cls(ScalingAction.SPECULATE)


class PolicyContext(Protocol):
    """The orchestrator facade available to policies.

    Only maintenance-style actions are exposed; request routing stays with
    the orchestrator.
    """

    @property
    def now(self) -> float: ...

    def evict(self, container: "Container",
              decision_id: Optional[int] = None) -> None:
        """Reclaim an evictable container immediately.

        ``decision_id`` ties the eviction to its audited REPLACE decision
        (base ``make_room`` passes it through); policy-direct calls omit
        it and the orchestrator mints a ``scale_down`` audit record
        instead, so every eviction stays attributable."""

    def compress(self, container: "Container", mem_fraction: float) -> None:
        """Shrink an idle container to ``mem_fraction`` of its footprint."""

    def prewarm(self, spec: "FunctionSpec", worker: "Worker") -> bool:
        """Provision a container ahead of demand; returns False when memory
        cannot be freed."""

    def workers(self) -> List["Worker"]: ...

    def spec_of(self, func: str) -> "FunctionSpec": ...

    def outstanding_waiters(self, func: str) -> int:
        """Unserved queued requests of ``func`` (delayed-warm-start queue)."""

    def oldest_waiter_age_ms(self, func: str) -> float:
        """Age of the oldest unserved queued request of ``func`` (0 when
        the queue is empty) — the live delayed-warm-start cost signal."""

    def provisions_in_flight(self, func: str) -> int:
        """Containers of ``func`` currently provisioning or queued for
        memory to start provisioning."""

    def speculate_for(self, func: str) -> bool:
        """Provision one unbound speculative container for ``func``."""

    def waiting_functions(self) -> List[str]:
        """Functions that currently have unserved queued requests."""

    def take_changed_functions(self) -> Set[str]:
        """Functions whose unserved-waiter count or in-flight count
        (:meth:`provisions_in_flight`) changed since the previous call.
        The record then starts over, so one consumer owns it."""


class OrchestrationPolicy:
    """Base policy: always cold-start, evict by recency (LRU-like).

    Subclasses override the pieces they change; the defaults are chosen so
    that a bare ``OrchestrationPolicy`` behaves like a sane caching-based
    keep-alive system.
    """

    #: Human-readable name used in result tables.
    name = "base"

    #: Optional observability attachments (:mod:`repro.obs`), set by the
    #: orchestrator before :meth:`bind`. Strictly read-only: policies feed
    #: them but never consult them, so attaching either leaves runs
    #: bit-identical (pinned by ``tests/obs/test_audit_differential.py``).
    audit = None
    metrics = None

    #: Container ids the base ``make_room`` must never evict. Set only by
    #: counterfactual replays (:mod:`repro.analysis.attribution`) that
    #: suppress one audited eviction decision to measure its realized
    #: regret; ``None`` (the default) takes the unmodified hot path.
    #: Protecting containers that factually survived up to the pinned
    #: decision provably leaves every earlier REPLACE decision unchanged
    #: (a survivor is never in a chosen-victim prefix), so decision ids
    #: stay aligned between the factual and counterfactual replays.
    protected_cids = None

    def __init__(self) -> None:
        self.ctx: Optional[PolicyContext] = None

    # ------------------------------------------------------------------
    # Wiring

    def bind(self, ctx: PolicyContext) -> None:
        """Called once by the orchestrator before the run starts."""
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Scaling

    def scale(self, request: "Request", worker: "Worker",
              now: float) -> ScalingDecision:
        """Choose how to serve a request with no idle container available."""
        return ScalingDecision.cold()

    # ------------------------------------------------------------------
    # Eviction

    def priority(self, container: "Container", now: float) -> float:
        """Keep-alive priority; lower values are evicted first.

        The default is pure recency (LRU): the least recently used
        container has the lowest priority.
        """
        return container.last_used_ms

    def priorities(self, containers: List["Container"],
                   now: float) -> List[float]:
        """Batch priority computation (hot path of ``make_room``).

        The default delegates to :meth:`priority`; policies whose priority
        needs per-function aggregates (CIP's ``|F(c)|``, FaasCache-C's
        ``K``) override this to precompute them once per batch.
        """
        return [self.priority(c, now) for c in containers]

    def priority_components(self, container: "Container",
                            now: float) -> dict:
        """Decomposition of :meth:`priority` for audit records.

        The base policy's priority is a single recency term, so there is
        nothing to decompose; CIP overrides this with the full Eq. 3
        breakdown (``clock``, ``freq_per_min``, ``cost_ms``, ``size_mb``,
        ``warm_count``).
        """
        return {"priority": self.priority(container, now)}

    def make_room(self, worker: "Worker", need_mb: float, now: float,
                  for_func: Optional[str] = None) -> bool:
        """Free at least ``need_mb`` on ``worker``; returns success.

        Default: evict evictable containers in ascending priority order —
        the paper's ``REPLACE`` subroutine. ``for_func`` names the function
        being provisioned so policies can avoid evicting its own reusable
        containers.

        The fast path ranks victims through a min-heap keyed on
        ``(priority, container_id)`` and pops only until enough memory is
        freed, instead of fully sorting every candidate. This selects the
        exact same victims in the exact same order as the retained
        sort-based reference: the reference's ``sorted`` is stable over
        candidates listed in ascending container id, so its tie-break *is*
        ascending container id — precisely the heap's secondary key.
        """
        assert self.ctx is not None, "policy not bound"
        if worker.free_mb >= need_mb:
            return True
        if self.protected_cids:
            return self._make_room_filtered(worker, need_mb, now, for_func)
        if worker.naive:
            return self._make_room_reference(worker, need_mb, now, for_func)
        # O(1) infeasibility check before ranking anything: under a burst
        # most capacity is busy and reclaiming everything still would not
        # fit — skip the priority ranking entirely.
        if worker.free_mb + worker.evictable_mb() < need_mb:
            return False
        candidates = list(worker.evictable_items())
        ranked = self.priorities(candidates, now)
        heap = [(priority, c.container_id, c)
                for priority, c in zip(ranked, candidates)]
        heapq.heapify(heap)
        freed = worker.free_mb
        chosen: List["Container"] = []
        while freed < need_mb:
            _, _, victim = heapq.heappop(heap)
            chosen.append(victim)
            freed += victim.memory_mb
        did = None
        if self.audit is not None or self.metrics is not None:
            did = self._note_replace(worker, candidates, ranked, chosen,
                                     need_mb, now, for_func)
        for victim in chosen:
            self.ctx.evict(victim, decision_id=did)
        return True

    def _make_room_reference(self, worker: "Worker", need_mb: float,
                             now: float,
                             for_func: Optional[str] = None) -> bool:
        """Pre-index REPLACE: full stable sort of every candidate."""
        candidates = worker.evictable()
        if worker.free_mb + sum(c.memory_mb for c in candidates) < need_mb:
            return False
        priorities = self.priorities(candidates, now)
        ranked = sorted(zip(priorities, candidates),
                        key=lambda pair: pair[0])
        freed = worker.free_mb
        chosen: List["Container"] = []
        for _, victim in ranked:
            chosen.append(victim)
            freed += victim.memory_mb
            if freed >= need_mb:
                break
        if freed < need_mb:
            return False
        did = None
        if self.audit is not None or self.metrics is not None:
            did = self._note_replace(worker, candidates, priorities, chosen,
                                     need_mb, now, for_func)
        for victim in chosen:
            self.ctx.evict(victim, decision_id=did)
        return True

    def _make_room_filtered(self, worker: "Worker", need_mb: float,
                            now: float,
                            for_func: Optional[str] = None) -> bool:
        """REPLACE with :attr:`protected_cids` excluded from eviction.

        Counterfactual-only slow path shared by both replay modes: rank
        the unprotected candidates with an explicit
        ``(priority, container_id)`` sort — the exact victim order of
        both the heap hot path and the stable reference sort — and
        re-check feasibility on the filtered pool (the O(1)
        ``evictable_mb`` precheck would overcount protected memory).
        """
        protected = self.protected_cids
        pool = (worker.evictable() if worker.naive
                else list(worker.evictable_items()))
        candidates = [c for c in pool if c.container_id not in protected]
        if worker.free_mb + sum(c.memory_mb for c in candidates) < need_mb:
            return False
        priorities = self.priorities(candidates, now)
        ranked = sorted(zip(priorities, candidates),
                        key=lambda pair: (pair[0], pair[1].container_id))
        freed = worker.free_mb
        chosen: List["Container"] = []
        for _, victim in ranked:
            chosen.append(victim)
            freed += victim.memory_mb
            if freed >= need_mb:
                break
        did = None
        if self.audit is not None or self.metrics is not None:
            did = self._note_replace(worker, candidates, priorities, chosen,
                                     need_mb, now, for_func)
        for victim in chosen:
            self.ctx.evict(victim, decision_id=did)
        return True

    def _note_replace(self, worker: "Worker", candidates: List["Container"],
                      priorities: List[float], chosen: List["Container"],
                      need_mb: float, now: float,
                      for_func: Optional[str]) -> Optional[int]:
        """Feed metrics/audit for one REPLACE decision (read-only).
        Returns the audit ``decision_id`` (``None`` with no audit).

        Runs *before* the victims are evicted so the Eq. 3 components are
        the values the ranking actually used (eviction updates the running
        clock). Only the base ``make_room`` flows through here; policies
        that override the whole procedure (CodeCrunch's compression,
        RainbowCake's layer decay) do their reclaiming off-audit.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "repro_replace_decisions_total",
                "make_room REPLACE decisions that evicted containers").inc()
            self.metrics.counter(
                "repro_replace_victims_total",
                "Containers evicted by REPLACE decisions").inc(len(chosen))
        if self.audit is None:
            return None
        victims = []
        for victim in chosen:
            entry = {"cid": victim.container_id, "func": victim.spec.name,
                     "mem_mb": victim.memory_mb}
            entry.update(self.priority_components(victim, now))
            victims.append(entry)
        chosen_ids = {c.container_id for c in chosen}
        survivors = sorted(
            ({"cid": c.container_id, "func": c.spec.name, "priority": p}
             for p, c in zip(priorities, candidates)
             if c.container_id not in chosen_ids),
            key=lambda s: (s["priority"], s["cid"]))
        record = {
            "kind": "eviction_decision",
            "t": now,
            "wid": worker.worker_id,
            "need_mb": need_mb,
            "freed_mb": sum(v["mem_mb"] for v in victims),
            "victims": victims,
            "survivors": survivors,
        }
        if for_func is not None:
            record["for_func"] = for_func
        return self.audit.emit(record)

    # ------------------------------------------------------------------
    # Cost model

    def provision_cost_ms(self, spec: "FunctionSpec", worker: "Worker",
                          now: float) -> float:
        """Latency of provisioning a fresh container of ``spec``.

        Layer-aware policies (RainbowCake) override this to discount the
        cost when warm layers are already resident.
        """
        return spec.cold_start_ms

    # ------------------------------------------------------------------
    # Lifecycle hooks (no-ops by default)

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        """Every arrival, before routing."""

    def on_warm_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        """Request dispatched to an idle container with zero wait."""

    def on_delayed_start(self, container: "Container", request: "Request",
                         now: float) -> None:
        """Request served by a previously busy container after queuing."""

    def on_cold_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        """Request served by a freshly provisioned container."""

    def on_provision_started(self, container: "Container",
                             now: float) -> None:
        """A cold start began (memory charged, latency running)."""

    def on_container_ready(self, container: "Container", now: float) -> None:
        """Provisioning finished; the container is warm."""

    def on_request_complete(self, container: "Container",
                            request: "Request", now: float) -> None:
        """A request finished executing."""

    def on_eviction(self, victims: List["Container"], now: float) -> None:
        """Containers were reclaimed (capacity pressure or maintenance)."""

    def on_worker_crash(self, worker: "Worker", victims: List["Container"],
                        now: float) -> None:
        """A worker crashed (fault injection), destroying ``victims`` in
        every state — busy and provisioning included, unlike a normal
        eviction. Default: account them like evictions so priority
        bookkeeping (GDSF/CIP clocks, idle-window tracking) stays
        consistent; override for crash-specific behaviour."""
        if victims:
            self.on_eviction(victims, now)

    def on_worker_restart(self, worker: "Worker", now: float) -> None:
        """A crashed worker rejoined with an empty cache."""

    # ------------------------------------------------------------------
    # Periodic maintenance

    #: When not ``None``, :meth:`on_maintenance` runs every this many ms.
    maintenance_interval_ms: Optional[float] = None

    def on_maintenance(self, now: float) -> None:
        """Periodic housekeeping (TTL expiry, pre-warming, autoscaling)."""

    def maintenance_horizon(self, now: float) -> Optional[float]:
        """Earliest future time at which :meth:`on_maintenance` could have
        any observable effect, or ``None`` when unknown.

        Consulted by the idle fast-forward
        (``SimulationConfig.fast_forward``): maintenance ticks strictly
        before the horizon may be replayed as no-ops. The default
        ``None`` disables skipping entirely — only policies that can
        *prove* their maintenance inert over a gap override this.
        ``math.inf`` means inert until further notice; the horizon is
        re-queried at every skip opportunity, so it only needs to hold
        while no other event fires.
        """
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
