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
   ascending :meth:`priority` order (the paper's ``REPLACE`` subroutine).
   Policies give the priority as a per-container key plus a per-function
   :meth:`~OrchestrationPolicy.group_offset` (LRU, GDSF, CIP, ...),
   override :meth:`~OrchestrationPolicy.priority` outright (Flame, ...),
   or override the whole procedure (CodeCrunch compresses instead of
   evicting).

Policies observe the container lifecycle through ``on_*`` hooks; they never
mutate simulator state directly except through the :class:`PolicyContext`
facade handed to them at bind time.
"""

from __future__ import annotations

import enum
import functools
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Protocol, Set

from repro.records import SchemaFamily

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

    def any_waiting(self) -> bool:
        """Whether any function has an unserved queued request, in O(1)
        (``bool(waiting_functions())`` without building the list)."""

    def waiting_among(self, funcs: Iterable[str]) -> List[str]:
        """The functions of ``funcs`` that have unserved queued requests,
        in :meth:`waiting_functions` order."""

    def take_changed_functions(self) -> Set[str]:
        """Functions whose unserved-waiter count or in-flight count
        (:meth:`provisions_in_flight`) changed since the previous call.
        The record then starts over, so one consumer owns it."""


#: Keys of one ``survivors`` entry of an ``eviction_decision`` record.
SURVIVOR_KEYS = ("cid", "func", "priority")

#: Audit schemas of an ``eviction_decision`` record, with and without the
#: function the room was made for.
EVICTION_DECISION = SchemaFamily(
    "eviction_decision",
    ("t", "wid", "need_mb", "freed_mb", "victims", "survivors"),
    ("for_func",))


def _survivor_rank(row: tuple) -> tuple:
    """A survivor row's place in the record: ``(priority, cid)``."""
    return row[2], row[0]


def _push_run(push, run: list, key: str) -> None:
    """Offer a function group's next run of equal computed priority.

    ``run`` is ``[order, offset, start, pending]``: the group's sorted
    ``(key, container_id, container)`` entries, its shared offset, the
    first entry not offered yet, and how many offered entries the heap
    still holds.
    """
    order, offset, start = run[0], run[1], run[2]
    victim = order[start][2]
    head = getattr(victim, key) + offset
    push((head, victim.container_id, victim, run))
    end, size = start + 1, len(order)
    while end < size:
        victim = order[end][2]
        if getattr(victim, key) + offset != head:
            break
        push((head, victim.container_id, victim, run))
        end += 1
    run[2] = end
    run[3] = end - start


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

    #: Container attribute holding the per-container term of the
    #: priority: recency here, ``Clock(c)`` for the GDSF family and CIP.
    order_key = "last_used_ms"
    #: ``order_key`` when this class ranks by function group, else None
    #: (derived per subclass below; workers keep their groups ordered by
    #: it).
    group_key: Optional[str] = order_key

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A policy ranks by function group exactly when its priority is
        # the derived ``key + group_offset`` form below; overriding
        # priority() or priorities() opts out, from the class alone.
        cls.group_key = (
            cls.order_key
            if cls.priority is OrchestrationPolicy.priority
            and cls.priorities is OrchestrationPolicy.priorities
            else None)

    def group_offset(self, spec: "FunctionSpec", worker: Optional["Worker"],
                     now: float) -> float:
        """The part of the priority shared by every container of ``spec``
        on ``worker`` (``None`` for a detached container).

        Eq. 3 has this shape, ``Priority(c) = Clock(c) + offset(F)``: a
        policy that supplies :attr:`order_key` and this hook gets its
        :meth:`priority`, :meth:`priorities` and a REPLACE that scores
        only each function group's head. The default, 0, is LRU.
        """
        return 0.0

    def priority(self, container: "Container", now: float) -> float:
        """Keep-alive priority; lower values are evicted first.

        ``getattr(container, order_key) + group_offset(...)``. A policy
        whose priority does not have that shape overrides this, and then
        :meth:`make_room` ranks every candidate.
        """
        return (getattr(container, self.order_key)
                + self.group_offset(container.spec, container.worker, now))

    def priorities(self, containers: List["Container"],
                   now: float) -> List[float]:
        """Batch priority computation (the audit's survivor ranking and
        the full-ranking ``make_room``).

        Computes each ``(function, worker)`` group's offset once; for a
        policy that overrides :meth:`priority` it delegates to it.
        """
        key = self.group_key
        if key is None:
            return [self.priority(c, now) for c in containers]
        offsets = {}
        out = []
        for c in containers:
            worker = c.worker
            group = (c.spec.name, None if worker is None else worker.worker_id)
            offset = offsets.get(group)
            if offset is None:
                offset = offsets[group] = self.group_offset(c.spec, worker,
                                                            now)
            out.append(getattr(c, key) + offset)
        return out

    def priority_components(self, container: "Container",
                            now: float) -> dict:
        """Decomposition of :meth:`priority` for audit records.

        The base policy's priority is a single recency term, so there is
        nothing to decompose; CIP overrides this with the full Eq. 3
        breakdown (``clock``, ``freq_per_min``, ``cost_ms``, ``size_mb``,
        ``warm_count``). Every call returns the same keys in the same
        order: the audit stores one decision's victims as rows under one
        key tuple.
        """
        return {"priority": self.priority(container, now)}

    def make_room(self, worker: "Worker", need_mb: float, now: float,
                  for_func: Optional[str] = None) -> bool:
        """Free at least ``need_mb`` on ``worker``; returns success.

        Default: evict evictable containers in ascending priority order —
        the paper's ``REPLACE`` subroutine. ``for_func`` names the function
        being provisioned so policies can avoid evicting its own reusable
        containers.

        Victims come off a min-heap keyed on ``(priority, container_id)``,
        popped only until enough memory is freed. That is the order of the
        retained sort-based reference: its ``sorted`` is stable over
        candidates in ascending container id, so its tie-break *is*
        ascending container id. When the worker keeps its evictable
        containers ordered by this policy's :attr:`order_key`, the heap
        holds only function-group heads (:meth:`_select_grouped`);
        otherwise it holds every candidate.
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
        candidates = ranked = offsets = None
        key = self.group_key
        if key is not None and worker.order_key == key:
            chosen, offsets = self._select_grouped(worker, key, need_mb, now)
        else:
            candidates = list(worker.evictable_items())
            ranked = self.priorities(candidates, now)
            heap = [(priority, c.container_id, c)
                    for priority, c in zip(ranked, candidates)]
            heapq.heapify(heap)
            freed = worker.free_mb
            chosen = []
            while freed < need_mb:
                _, _, victim = heapq.heappop(heap)
                chosen.append(victim)
                freed += victim.memory_mb
        did = None
        if self.audit is not None or self.metrics is not None:
            did = self._note_replace(worker, chosen, need_mb, now, for_func,
                                     candidates, ranked, offsets)
        for victim in chosen:
            self.ctx.evict(victim, decision_id=did)
        return True

    def may_make_room(self, worker: "Worker", need_mb: float) -> bool:
        """Whether :meth:`make_room` could free ``need_mb`` on ``worker``
        now. False only when the call would surely fail, and then fail
        without side effects, so a blocked-provision retry can be
        skipped.

        Exact for the base REPLACE on the indexed path: it succeeds
        exactly when the free plus the evictable memory covers the need.
        For a policy that overrides :meth:`make_room`, and for the
        reference and counterfactual (``protected_cids``) paths, the
        answer is "maybe": True.
        """
        if worker.free_mb >= need_mb:
            return True
        if (type(self).make_room is not OrchestrationPolicy.make_room
                or self.protected_cids or worker.naive):
            return True
        return worker.free_mb + worker.evictable_mb() >= need_mb

    def _select_grouped(self, worker: "Worker", key: str, need_mb: float,
                        now: float) -> tuple:
        """REPLACE's victims, scoring function-group heads only, and each
        function's group offset (``{func: offset}``).

        Each group's evictable containers are in ``(key, container_id)``
        order, and every member shares the group's offset, so priority is
        monotone along a group: the group's cheapest member is at its
        front. Monotone is not strictly increasing, though: ``a < b`` only
        gives ``a + x <= b + x`` once rounded, and then the container id
        decides. So a group offers its whole leading run of equal
        computed priority, and its next run only once that run is popped.
        """
        heap: list = []
        offsets = {}
        for order in worker.ordered_groups():
            spec = order[0][2].spec
            offset = offsets[spec.name] = self.group_offset(spec, worker, now)
            _push_run(heap.append, [order, offset, 0, 0], key)
        heapq.heapify(heap)
        push = functools.partial(heapq.heappush, heap)
        freed = worker.free_mb
        chosen: List["Container"] = []
        while freed < need_mb:
            _, _, victim, run = heapq.heappop(heap)
            chosen.append(victim)
            freed += victim.memory_mb
            run[3] -= 1
            if not run[3] and run[2] < len(run[0]):
                _push_run(push, run, key)
        return chosen, offsets

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
            did = self._note_replace(worker, chosen, need_mb, now, for_func,
                                     candidates, priorities)
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
            did = self._note_replace(worker, chosen, need_mb, now, for_func,
                                     candidates, priorities)
        for victim in chosen:
            self.ctx.evict(victim, decision_id=did)
        return True

    def _note_replace(self, worker: "Worker", chosen: List["Container"],
                      need_mb: float, now: float, for_func: Optional[str],
                      candidates: Optional[List["Container"]] = None,
                      priorities: Optional[List[float]] = None,
                      offsets: Optional[dict] = None) -> Optional[int]:
        """Feed metrics/audit for one REPLACE decision (read-only).
        Returns the audit ``decision_id`` (``None`` with no audit).

        Runs *before* the victims are evicted so the Eq. 3 components are
        the values the ranking actually used (eviction updates the running
        clock). ``candidates``/``priorities`` is the ranked pool; when the
        selection scored group heads only, it passes each function's
        group ``offsets`` instead, and the audit ranks the worker's whole
        evictable set as ``getattr(c, group_key) + offset``, the value
        :meth:`priorities` would compute. Only the base ``make_room``
        flows through here; policies that override the whole procedure
        (CodeCrunch's compression, RainbowCake's layer decay) do their
        reclaiming off-audit.
        """
        if self.metrics is not None:
            self.metrics.counter_child(
                "repro_replace_decisions_total",
                "make_room REPLACE decisions that evicted containers").inc()
            self.metrics.counter_child(
                "repro_replace_victims_total",
                "Containers evicted by REPLACE decisions").inc(len(chosen))
        audit = self.audit
        if audit is None:
            return None
        if candidates is None:
            candidates = list(worker.evictable_items())
            key = self.group_key
            priorities = [getattr(c, key) + offsets[c.spec.name]
                          for c in candidates]
        victims = []
        freed_mb = 0
        components: dict = {}
        for victim in chosen:
            components = self.priority_components(victim, now)
            victims.append((victim.container_id, victim.spec.name,
                            victim.memory_mb, *components.values()))
            freed_mb += victim.memory_mb
        victim_keys = ("cid", "func", "mem_mb", *components)
        chosen_ids = {c.container_id for c in chosen}
        survivors = sorted(
            ((c.container_id, c.spec.name, p)
             for p, c in zip(priorities, candidates)
             if c.container_id not in chosen_ids),
            key=_survivor_rank)
        return audit.emit(*EVICTION_DECISION.pick(
            (now, worker.worker_id, need_mb, freed_mb,
             audit.table(victim_keys, victims),
             audit.table(SURVIVOR_KEYS, survivors)),
            (for_func,)))

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

        Under ``SimulationConfig.fast_forward`` this is asked on each
        maintenance tick that is not skipped (with ``now`` at the tick),
        so it should be cheap: a tick strictly before the horizon, and
        every later tick before the next other event, is advanced as a
        no-op. The default ``None`` disables skipping entirely — only
        policies that can *prove* their maintenance inert override this.
        ``math.inf`` means inert until further notice; the answer only
        needs to hold while no other event fires.
        """
        return None

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
