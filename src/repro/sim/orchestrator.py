"""The FaaS control plane: request routing, speculative scaling, eviction.

:class:`Orchestrator` wires together the event engine, the worker pool, a
pluggable :class:`~repro.policies.base.OrchestrationPolicy`, and the metric
collector. It implements the mechanism of the paper's Figure 11:

* arrivals are first matched against idle warm containers (true warm starts,
  Step 1a);
* requests that find none are routed by the policy's scaling decision
  (Step 1b): a bound cold start, the delayed-warm-start queue, or both
  simultaneously (speculative scaling);
* a per-function FIFO of *waiters* is drained work-conservingly by whichever
  execution slot becomes available first — a finishing busy container
  (Step 2a, a delayed warm start) or a completed provision (Step 2b, a cold
  start);
* provisioning claims memory up front; when the cache is full the policy's
  ``make_room`` evicts lowest-priority idle containers (Step 2c, the
  ``REPLACE`` subroutine), and provisions that still cannot fit wait in a
  pending queue retried whenever capacity may have freed.

The orchestrator is deliberately policy-agnostic: CIDRE, FaasCache, TTL and
every other baseline differ only in the policy object plugged in.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set

from repro.records import Schema
from repro.sim.config import SimulationConfig
from repro.sim.container import Container, ContainerState
from repro.sim.engine import Event, Simulator
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.function import FunctionSpec
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.sim.request import Request, StartType
from repro.sim.worker import Worker
from repro.policies.base import (OrchestrationPolicy, ScalingAction,
                                 ScalingDecision)

#: Audit schema of the ``scale_down`` record minted for a policy-direct
#: eviction.
SCALE_DOWN = Schema("scale_down", ("t", "wid", "cid", "func", "mem_mb",
                                   "idle_ms"))


@dataclass
class _Waiter:
    """A queued request waiting for an execution slot."""

    request: Request
    may_use_busy: bool
    #: Busy container this waiter committed to (bounded-queue what-if).
    committed: Optional[Container] = None
    #: Provisioning container dedicated to this waiter (vanilla cold start).
    bound: Optional[Container] = None
    served: bool = False


class _ClusterUsage:
    """Change signal for cluster-wide committed memory.

    Each :class:`~repro.sim.worker.Worker` raises ``dirty`` whenever its
    ``used_mb`` changes; the periodic memory sampler then re-sums the
    workers only on ticks where something actually moved and serves a
    cached total otherwise. The cache holds the *same* worker-order sum as
    the naive per-tick recomputation (never a delta-accumulated float), so
    sampled values are bit-identical between the two modes.
    """

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty = True


@dataclass
class _PendingProvision:
    """A provision that could not claim memory yet."""

    spec: FunctionSpec
    worker: Worker
    waiter: Optional[_Waiter]
    speculative: bool
    prewarm: bool = False


#: Orders ledgers by completion key (keys never tie: sequence numbers
#: are unique).
_LEDGER_KEY = attrgetter("key")


class _ExecProgress:
    """Progress ledger for one running execution (progress mode).

    ``remaining_ms`` is the work left in trace-time units as of
    ``settled_ms``; the execution completes at ``settled_ms +
    remaining_ms * slowdown``. ``key`` is that time with the engine
    sequence number drawn when it was last set, at the point a
    per-execution completion event would have been (re)scheduled. The
    key lives here, not in the heap: only the worker's earliest key is
    queued, on the worker's one completion event (see
    ``Orchestrator._place_head``). ``queued`` records whether the heap
    already holds an entry under this key, so the event can return to it
    without pushing a duplicate. Settlement is deferred while the rate is
    constant — progress accrues linearly, so settling only at rate
    changes is exact and keeps single-rate executions free of float
    re-derivations.
    """

    __slots__ = ("request", "container", "remaining_ms", "slowdown",
                 "settled_ms", "slowed", "key", "queued")

    def __init__(self, request: Request, container: Container,
                 slowdown: float, settled_ms: float, key: tuple,
                 queued: bool) -> None:
        self.request = request
        self.container = container
        self.remaining_ms = request.exec_ms
        self.slowdown = slowdown
        self.settled_ms = settled_ms
        self.key = key
        self.queued = queued
        #: Whether any rate other than exactly 1.0 ever applied — gates
        #: the EXEC_END slowdown annotation so inert models stay
        #: byte-identical to contention-free runs.
        self.slowed = slowdown != 1.0


class Orchestrator:
    """Simulates a FaaS cluster under one orchestration policy.

    Parameters
    ----------
    functions:
        The deployed functions (must cover every function in the trace).
    policy:
        The orchestration policy under test.
    config:
        Cluster shape and knobs.
    """

    def __init__(self, functions: Iterable[FunctionSpec],
                 policy: OrchestrationPolicy,
                 config: Optional[SimulationConfig] = None,
                 event_log: Optional["EventLog"] = None,
                 recorder=None, audit=None, metrics=None,
                 attribution=None):
        self.config = config or SimulationConfig()
        self.policy = policy
        #: Seeded RNG for stochastic policies (``ctx.rng``). The core
        #: mechanism never draws from it, so runs are deterministic
        #: functions of (trace, policy, config) with or without a seed.
        self.rng = random.Random(
            0 if self.config.seed is None else self.config.seed)
        #: Reference (scanning) implementations everywhere when True.
        self._naive = self.config.reference_impl
        self.sim = Simulator(naive=self._naive)
        self.metrics = MetricsCollector()
        self.event_log = event_log
        #: Optional :class:`repro.sim.telemetry.TimeSeriesRecorder` (any
        #: object with ``interval_ms``/``note_start``/``sample``/
        #: ``finish``). Strictly read-only observation: attaching one
        #: never changes simulation outcomes.
        self.recorder = recorder
        #: Optional :class:`repro.obs.DecisionAudit` /
        #: :class:`repro.obs.MetricsRegistry`. Like the recorder, strictly
        #: read-only: attaching either never changes simulation outcomes
        #: (pinned by ``tests/obs/test_audit_differential.py``).
        self.audit = audit
        self.metrics_registry = metrics
        #: Optional :class:`repro.obs.attribution.CauseTracker`. Stamps
        #: every PROVISION_START detail with its proximate cause
        #: (``first-invocation`` / ``eviction:<id>`` / ...). Read-only
        #: beyond that one detail suffix: attribution-off runs are
        #: byte-identical to a build without the tracker (pinned by
        #: ``tests/obs/test_attribution_differential.py``).
        self.attribution = attribution
        self._m_requests = self._m_starts = self._m_decisions = None
        self._m_evictions = self._m_provisions = self._m_blocked = None
        self._m_wait = self._m_used = None
        self._m_crashes = self._m_orphaned = None
        self._m_reassigned = self._m_failed = None
        self._m_slowdown = None
        if metrics is not None:
            self._instrument(metrics)
        self.specs: Dict[str, FunctionSpec] = {}
        for spec in functions:
            if spec.name in self.specs:
                raise ValueError(
                    f"duplicate function name {spec.name!r}: each deployed "
                    f"function needs its own name")
            self.specs[spec.name] = spec
        self._usage = _ClusterUsage()
        self._used_mb_cache = 0.0
        #: The fault schedule. No plan is the empty plan: it crashes
        #: nothing and every factor it yields is exactly 1.0, so the same
        #: code replays faults-off runs bit-identically.
        self._faults = faults = self.config.faults or FaultPlan()
        capacities = [faults.worker_capacity_mb(i, self.config.per_worker_mb)
                      for i in range(self.config.workers)]
        self._workers: List[Worker] = [
            Worker(i, capacities[i], naive=self._naive, usage=self._usage,
                   order_key=policy.group_key)
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            cls = faults.class_of(worker.worker_id)
            if cls is not None:
                worker.wclass = cls.name
        #: The online workers, in worker order.
        self._online: List[Worker] = list(self._workers)
        # Every function must fit every worker: crashes and dispatch
        # filtering mean any function can land on any (online) worker.
        floor_mb = min(capacities)
        for spec in self.specs.values():
            if spec.memory_mb > floor_mb:
                raise ValueError(
                    f"{spec.name} needs {spec.memory_mb} MB but each worker "
                    f"has only {floor_mb} MB")
        #: The CPU-contention model, or None. Contention-off runs keep the
        #: classic one-event-per-execution completion path.
        self._contention = self.config.contention
        #: Progress-based completions are needed whenever execution
        #: rates can change mid-flight: under a contention model, or
        #: under straggler windows that scale execution time (whose
        #: mid-window edges the sampled-once model silently ignored).
        self._progress = (self._contention is not None
                          or faults.has_exec_stragglers())
        #: req_id -> live progress ledger (progress mode only).
        self._execs: Dict[int, _ExecProgress] = {}
        #: worker_id -> {req_id -> ledger} of co-located executions, in
        #: start order (dict insertion order is the deterministic
        #: iteration order for retiming).
        self._worker_execs: Dict[int, Dict[int, _ExecProgress]] = {}
        #: worker_id -> the one completion event of a worker with running
        #: executions, queued under its earliest ledger key.
        self._heads: Dict[int, Event] = {}
        #: A completion's retime of its neighbours, put off to the next
        #: retime on that worker within the same handler (see
        #: :meth:`_defer_retime`): ``(worker_id, busy, rate, first_seq,
        #: count)``, or None.
        self._deferred: Optional[tuple] = None
        #: Functions whose contention slowdown comes from the model's
        #: table rather than its curve.
        overrides = (self._contention.table
                     if self._contention is not None else ())
        self._overridden = frozenset(name for name, _ in overrides)
        #: worker_id -> armed straggler-window boundary event.
        self._rate_events: Dict[int, object] = {}
        #: req_id -> in-flight execution event outside progress mode; lets
        #: a crash cancel the completions of destroyed containers in O(1).
        self._exec_events: Dict[int, object] = {}
        #: container_id -> (ready event, bound waiter) for provisions and
        #: restores in flight.
        self._provision_events: Dict[int, tuple] = {}
        #: Pending restart times of currently-offline workers.
        self._restart_times: List[float] = []
        self._waiters: Dict[str, Deque[_Waiter]] = {}
        self._unserved: Dict[str, int] = {}
        #: func -> its position in ``_unserved``, fixed when the function
        #: first queues a waiter (entries are never deleted), so ordering
        #: by rank is :meth:`waiting_functions` order.
        self._rank: Dict[str, int] = {}
        #: Functions whose ``_unserved`` count is non-zero.
        self._n_waiting = 0
        self._committed: Dict[int, Deque[_Waiter]] = {}
        #: Blocked provisions in FIFO order; retry passes consume the head.
        self._pending: Deque[_PendingProvision] = deque()
        self._pending_by_func: Dict[str, int] = {}
        self._retry_scheduled = False
        #: Functions whose unserved-waiter or in-flight count changed
        #: since the policy last took them (:meth:`take_changed_functions`).
        self._changed: Set[str] = set()
        #: Packed-trace replay state (set by :meth:`run`).
        self._packed = None
        self._materialized: List[Request] = []
        if audit is not None:
            policy.audit = audit
        if metrics is not None:
            policy.metrics = metrics
        policy.bind(self)

    def _instrument(self, metrics) -> None:
        """Pre-register the orchestrator's instruments (hot-path handles)."""
        self._m_requests = metrics.counter(
            "repro_requests_total", "Requests replayed")
        self._m_starts = metrics.counter(
            "repro_starts_total", "Execution starts by start type",
            labelnames=("type",))
        self._m_decisions = metrics.counter(
            "repro_scale_decisions_total",
            "Validated scaling decisions (excludes the warm-start and "
            "compressed-restore fast paths)", labelnames=("action",))
        self._m_evictions = metrics.counter(
            "repro_evictions_total", "Evictions by function",
            labelnames=("func",))
        self._m_provisions = metrics.counter(
            "repro_provision_starts_total",
            "Provisions begun, by kind", labelnames=("kind",))
        self._m_blocked = metrics.counter(
            "repro_blocked_provisions_total",
            "Provisions deferred because make_room could not free memory")
        self._m_wait = metrics.histogram(
            "repro_request_wait_ms",
            "Per-request wait between arrival and execution start")
        self._m_used = metrics.gauge(
            "repro_used_mb", "Cluster committed memory at the last sample")
        self._m_crashes = metrics.counter(
            "repro_worker_crashes_total",
            "Injected worker crashes (fault layer)")
        self._m_orphaned = metrics.counter(
            "repro_requests_orphaned_total",
            "In-flight requests orphaned by worker crashes")
        self._m_reassigned = metrics.counter(
            "repro_requests_reassigned_total",
            "Requests re-dispatched after losing their worker")
        self._m_failed = metrics.counter(
            "repro_requests_failed_total",
            "Requests dropped with the crash-retry budget exhausted")
        self._m_slowdown = metrics.histogram(
            "repro_contention_slowdown",
            "Realized execution slowdown (wall time over trace exec_ms) "
            "under the CPU-contention model",
            buckets=(1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0))

    # ==================================================================
    # PolicyContext facade

    @property
    def now(self) -> float:
        return self.sim.now

    def workers(self) -> List[Worker]:
        return self._workers

    def spec_of(self, func: str) -> FunctionSpec:
        return self.specs[func]

    def outstanding_waiters(self, func: str) -> int:
        return self._unserved.get(func, 0)

    def waiting_functions(self) -> List[str]:
        """Functions with at least one unserved queued request."""
        if not self._n_waiting:
            return []
        return [func for func, count in self._unserved.items() if count]

    def any_waiting(self) -> bool:
        """Whether any function has an unserved queued request; O(1)."""
        return self._n_waiting > 0

    def waiting_among(self, funcs: Iterable[str]) -> List[str]:
        """The functions of ``funcs`` with at least one unserved queued
        request, in :meth:`waiting_functions` order. Costs O(k log k) in
        the k functions asked about, not a scan of every function."""
        unserved = self._unserved
        return sorted([func for func in funcs if unserved.get(func, 0)],
                      key=self._rank.__getitem__)

    def provisions_in_flight(self, func: str) -> int:
        """Containers of ``func`` being provisioned *or* waiting for memory
        to start provisioning. The scaling policies use this to avoid
        re-provisioning for a backlog that is already covered."""
        if self._naive:
            started = sum(len(w.provisioning_of(func))
                          for w in self._workers)
        else:
            started = sum(w.provisioning_count(func) for w in self._workers)
        return started + self._pending_by_func.get(func, 0)

    def take_changed_functions(self) -> Set[str]:
        """Functions whose unserved-waiter count or in-flight count
        (:meth:`provisions_in_flight`) changed since the previous call."""
        changed = self._changed
        self._changed = set()
        return changed

    def speculate_for(self, func: str) -> bool:
        """Provision one unbound speculative container for ``func``.

        Used by CSS's queue re-evaluation (§4: the policy evaluates the
        outstanding request at the head of the channel and may decide to
        start a container for it after all). Returns False when the
        provision had to be deferred for memory.
        """
        if not self._online:
            return False
        worker = self._dispatch(func)
        container = self._provision(self.specs[func], worker, waiter=None,
                                    speculative=True)
        return container is not None

    def oldest_waiter_age_ms(self, func: str) -> float:
        queue = self._waiters.get(func)
        if not queue:
            return 0.0
        while queue and queue[0].served:
            queue.popleft()
        for waiter in queue:
            if not waiter.served:
                return self.sim.now - waiter.request.arrival_ms
        return 0.0

    def evict(self, container: Container,
              decision_id: Optional[int] = None) -> None:
        """Reclaim an evictable container (policy-triggered or REPLACE).

        ``decision_id`` carries the audited REPLACE decision the eviction
        belongs to (``make_room`` passes it through). Policy-direct
        evictions — TTL expiry, keep-alive decay, prewarm reclaim — come
        in without one; when an audit is attached the orchestrator mints
        a ``scale_down`` record so attribution can blame them too.
        """
        worker = container.worker
        if worker is None:
            return
        cause_kind = "eviction" if decision_id is not None else "scale-down"
        if decision_id is None and self.audit is not None:
            decision_id = self.audit.emit(SCALE_DOWN, (
                self.sim.now, worker.worker_id, container.container_id,
                container.spec.name, container.memory_mb,
                self.sim.now - container.last_idle_ms))
        if container.speculative and not container.served_any:
            self.metrics.wasted_cold_starts += 1
        worker.remove(container)
        # Drop any bounded-queue commitments against the dead container —
        # the waiters themselves stay in their function FIFO.
        self._committed.pop(container.container_id, None)
        self.metrics.evictions += 1
        if self._m_evictions is not None:
            self._m_evictions.child(container.spec.name).inc()
        if self.attribution is not None:
            self.attribution.note_removal(container.spec.name, cause_kind,
                                          decision_id)
        self._log(EventKind.EVICTION, container.spec.name,
                  container_id=container.container_id,
                  worker_id=worker.worker_id)
        self.policy.on_eviction([container], self.sim.now)

    def compress(self, container: Container, mem_fraction: float) -> None:
        """CodeCrunch-style: shrink an idle container instead of evicting."""
        worker = container.worker
        old_mb = container.memory_mb
        container.compress(mem_fraction)
        worker.recharge(container, old_mb)
        self._log(EventKind.COMPRESSION, container.spec.name,
                  container_id=container.container_id,
                  worker_id=worker.worker_id if worker else None)

    def prewarm(self, spec: FunctionSpec, worker: Worker) -> bool:
        """Provision a container ahead of demand (IceBreaker / ENSURE)."""
        if not worker.online:
            return False
        if not self.policy.make_room(worker, spec.memory_mb, self.sim.now,
                                     for_func=spec.name):
            return False
        self._begin_provision(spec, worker, waiter=None, speculative=False,
                              prewarm=True)
        return True

    # ==================================================================
    # Public driver

    def run(self, requests) -> SimulationResult:
        """Replay a workload and return the result.

        ``requests`` is either a sequence of :class:`Request` objects or a
        :class:`~repro.traces.packed.PackedTrace`. A packed trace streams
        its arrivals straight off the flat columns (one heap event per
        *dynamic* event only) and materializes request records lazily at
        dispatch; under ``reference_impl`` it is materialized up front and
        replayed through the classic all-events-scheduled path instead.
        Both paths are bit-identical (pinned by the differential tests).
        """
        packed = requests if getattr(requests, "is_packed", False) else None
        if packed is not None and not self._naive:
            for name in packed.func_names:
                if name not in self.specs:
                    raise KeyError(
                        f"request targets unknown function {name}")
            self._packed = packed
            # Filled in arrival order by _dispatch_batch; rows share
            # req_id == row index, so this ends up identical to the
            # classic path's ``ordered`` list.
            ordered = self._materialized = []
            self.sim.bind_stream(packed.arrival_ms, self._dispatch_batch)
        else:
            if packed is not None:
                requests = packed.materialize_all()
            ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.req_id))
            for i, req in enumerate(ordered):
                if req.req_id < 0:
                    req.req_id = i
                if req.func not in self.specs:
                    raise KeyError(
                        f"request targets unknown function {req.func}")
                self.sim.at(req.arrival_ms, self._on_arrival, req)
        for crash in self._faults.crashes_sorted():
            self.sim.at(crash.at_ms, self._on_worker_crash, crash)
        sampler = maintenance = None
        if self.config.memory_sample_interval_ms > 0:
            sampler = self.sim.every(self.config.memory_sample_interval_ms,
                                     self._sample_memory, start_delay=0.0)
        if self.policy.maintenance_interval_ms:
            maintenance = self.sim.every(self.policy.maintenance_interval_ms,
                                         self._run_maintenance)
        if self.recorder is not None:
            self.sim.every(self.recorder.interval_ms,
                           self.recorder.sample, self, start_delay=0.0)
        if (maintenance is not None and self.config.fast_forward
                and not self._naive
                and type(self.policy).maintenance_horizon
                is not OrchestrationPolicy.maintenance_horizon):
            maintenance.horizon = self._maintenance_horizon
        self.sim.run()
        self._finalize(ordered)
        return self.metrics.result()

    def _dispatch_batch(self, lo: int, hi: int) -> None:
        """Arrival-stream dispatch: materialize and admit rows [lo, hi).

        Called by the engine with the clock already at the rows' shared
        arrival time; per-row processing is exactly :meth:`_on_arrival`,
        so the replay is step-for-step identical to the classic path.
        """
        packed = self._packed
        materialized = self._materialized
        on_arrival = self._on_arrival
        for i in range(lo, hi):
            request = packed.materialize(i)
            materialized.append(request)
            on_arrival(request)

    def _maintenance_horizon(self) -> Optional[float]:
        """The maintenance handle's horizon under fast-forward: the time
        before which a tick provably does nothing. A tick with blocked
        provisions waiting may schedule a retry pass, so none is inert
        then; otherwise the policy's own proof decides."""
        if self._pending:
            return None
        return self.policy.maintenance_horizon(self.sim.now)

    # ==================================================================
    # Arrival path

    def _on_arrival(self, request: Request) -> None:
        if not self._online:
            self._defer_or_fail(request, self._on_arrival)
            return
        now = self.sim.now
        worker = self._dispatch(request.func)
        self._log(EventKind.ARRIVAL, request.func, req_id=request.req_id,
                  worker_id=worker.worker_id)
        if self._m_requests is not None:
            self._m_requests.inc()
        self.policy.on_request_arrival(request, worker, now)
        self._route(request, worker)

    def _route(self, request: Request, worker: Worker) -> None:
        """Match ``request`` against warm capacity or the scaling policy
        (shared by fresh arrivals and crash reassignments)."""
        now = self.sim.now
        # Step 1a: true warm start on an idle container / free slot.
        candidate = worker.slot_available(request.func)
        if candidate is not None:
            self._start_exec(candidate, request, StartType.WARM)
            return

        # CodeCrunch path: restore a compressed container of this function
        # at a fraction of the cold-start cost.
        if getattr(self.policy, "reuse_compressed", False):
            compressed = worker.compressed_of(request.func)
            if compressed:
                target = max(compressed, key=lambda c: c.last_used_ms)
                if self._begin_restore(target, request, worker):
                    return

        # Step 1b: no idle capacity — consult the scaling policy.
        decision = self.policy.scale(request, worker, now)
        decision = self._validate_decision(decision, request, worker)
        if self._m_decisions is not None:
            self._m_decisions.child(decision.action.value).inc()
        waiter = _Waiter(request,
                         may_use_busy=decision.action is not ScalingAction.COLD,
                         committed=decision.target)
        self._enqueue_waiter(waiter)
        if decision.target is not None:
            self._committed.setdefault(
                decision.target.container_id, deque()).append(waiter)

        if decision.action in (ScalingAction.COLD, ScalingAction.SPECULATE):
            speculative = decision.action is ScalingAction.SPECULATE
            bound = None if speculative else waiter
            self._provision(self.specs[request.func], worker,
                            waiter=bound, speculative=speculative)

    def _validate_decision(self, decision: ScalingDecision, request: Request,
                           worker: Worker) -> ScalingDecision:
        """Queue-only decisions need someone to eventually serve the waiter;
        otherwise escalate to a cold start."""
        if decision.action is not ScalingAction.QUEUE:
            return decision
        func = request.func
        if self._naive:
            has_supply = (bool(worker.busy_of(func))
                          or bool(worker.provisioning_of(func)))
        else:
            has_supply = (worker.busy_count(func) > 0
                          or worker.provisioning_count(func) > 0)
        if not has_supply:
            return ScalingDecision.cold()
        if decision.target is not None and not decision.target.is_busy:
            return ScalingDecision.queue()
        return decision

    # ==================================================================
    # Fault injection

    def _next_restart(self) -> Optional[float]:
        return min(self._restart_times) if self._restart_times else None

    def _defer_or_fail(self, request: Request, callback) -> None:
        """Nothing is online: park ``request`` until the next restart, or
        fail it when no worker will ever come back."""
        restart_at = self._next_restart()
        if restart_at is None:
            self._fail_request(request, "no-online-workers")
        else:
            # The restart event was scheduled at crash time, so it holds
            # an earlier sequence number and fires first at restart_at.
            self.sim.at(restart_at, callback, request)

    def _fail_request(self, request: Request, detail: str,
                      worker_id: Optional[int] = None) -> None:
        request.failed = True
        self._log(EventKind.REQUEST_ORPHANED, request.func,
                  req_id=request.req_id, detail=detail, worker_id=worker_id)
        self.metrics.record_failed(request)
        if self._m_failed is not None:
            self._m_failed.inc()

    def _on_worker_crash(self, crash: CrashSpec) -> None:
        worker = self._workers[crash.worker_id]
        if not worker.online:
            return  # plan crashed a worker that is already down
        now = self.sim.now
        self._log(EventKind.WORKER_CRASH, "", worker_id=worker.worker_id,
                  detail=f"containers={len(worker.containers)}")
        self.metrics.worker_crashes += 1
        if self._m_crashes is not None:
            self._m_crashes.inc()
        if crash.restart_delay_ms is not None:
            restart_at = now + crash.restart_delay_ms
            self._restart_times.append(restart_at)
            self.sim.at(restart_at, self._on_worker_restart, worker)
        victims = worker.crash()
        self._online.remove(worker)
        # Provisions died with the worker and blocked ones may move:
        # every function's in-flight count is suspect.
        self._changed.update(self.specs)
        self.metrics.crash_destroyed += len(victims)
        if self.attribution is not None:
            self.attribution.note_crash(c.spec.name for c in victims)
        orphans: List[Request] = []
        rebind: List[_Waiter] = []
        for container in victims:
            if container.speculative and not container.served_any:
                self.metrics.wasted_cold_starts += 1
            orphans.extend(container.destroy())
            entry = self._provision_events.pop(container.container_id, None)
            if entry is not None:
                event, waiter = entry
                event.cancel()
                if waiter is not None and not waiter.served:
                    waiter.bound = None
                    rebind.append(waiter)
            committed = self._committed.pop(container.container_id, None)
            if committed is not None:
                for waiter in committed:
                    waiter.committed = None
        self.policy.on_worker_crash(worker, victims, now)
        retry = self._faults.retry
        for request in orphans:
            event = self._exec_events.pop(request.req_id, None)
            if event is not None:
                event.cancel()
            self.metrics.orphaned_requests += 1
            if self._m_orphaned is not None:
                self._m_orphaned.inc()
            if request.retries < retry.max_retries:
                request.retries += 1
                request.start_ms = None
                request.start_type = None
                request.container_id = None
                self._log(EventKind.REQUEST_ORPHANED, request.func,
                          req_id=request.req_id, worker_id=worker.worker_id,
                          detail="exec:retry")
                self.sim.schedule(retry.retry_delay_ms, self._on_reassigned,
                                  request)
            else:
                self._fail_request(request, "exec:exhausted",
                                   worker_id=worker.worker_id)
        self._drop_progress_worker(worker.worker_id)
        for waiter in rebind:
            self._rebind_waiter(waiter)
        if self._online:
            self._move_stranded_provisions()
        self._rescue_starved()

    def _on_worker_restart(self, worker: Worker) -> None:
        now = self.sim.now
        self._restart_times.remove(now)
        worker.restart()
        self._online = [w for w in self._workers if w.online]
        self._log(EventKind.WORKER_RESTART, "", worker_id=worker.worker_id)
        self.policy.on_worker_restart(worker, now)
        if self._pending:
            self._move_stranded_provisions()
            self._schedule_retry()

    def _move_stranded_provisions(self) -> None:
        """Move blocked provisions aimed at an offline worker to a live
        one. A crash moves them when anything is still online; those
        stranded by a total outage move at the first restart, since
        their worker may never come back."""
        for pend in self._pending:
            if not pend.worker.online:
                pend.worker = self._dispatch(pend.spec.name)

    def _on_reassigned(self, request: Request) -> None:
        """Re-dispatch an orphaned (or starved) request as a fresh demand
        signal on a surviving worker."""
        if request.failed:  # pragma: no cover - defensive
            return
        if not self._online:
            self._defer_or_fail(request, self._on_reassigned)
            return
        now = self.sim.now
        worker = self._dispatch(request.func)
        self._log(EventKind.REQUEST_REASSIGNED, request.func,
                  req_id=request.req_id, worker_id=worker.worker_id,
                  detail=f"attempt{request.retries}")
        self.metrics.reassigned_requests += 1
        if self._m_reassigned is not None:
            self._m_reassigned.inc()
        # A reassignment is a new arrival from the policy's perspective:
        # frequency/popularity statistics should see the extra demand.
        self.policy.on_request_arrival(request, worker, now)
        self._route(request, worker)

    def _rebind_waiter(self, waiter: _Waiter) -> None:
        """Restart the cold start for a waiter whose bound provisioning
        container died with its worker (no retry budget consumed — the
        request never began executing)."""
        if waiter.served:  # pragma: no cover - defensive
            return
        request = waiter.request
        if not self._online:
            restart_at = self._next_restart()
            if restart_at is None:
                waiter.served = True
                self._unserve(request.func)
                self._fail_request(request, "no-online-workers")
            else:
                self.sim.at(restart_at, self._rebind_waiter, waiter)
            return
        worker = self._dispatch(request.func)
        self._log(EventKind.REQUEST_REASSIGNED, request.func,
                  req_id=request.req_id, worker_id=worker.worker_id,
                  detail="provision")
        self.metrics.reassigned_requests += 1
        if self._m_reassigned is not None:
            self._m_reassigned.inc()
        self._provision(self.specs[request.func], worker, waiter=waiter,
                        speculative=False)

    def _supply_of(self, func: str) -> int:
        """Execution-slot sources that can still serve ``func`` waiters:
        blocked + in-flight provisions and busy containers on online
        workers."""
        count = self._pending_by_func.get(func, 0)
        for worker in self._online:
            if self._naive:
                count += (len(worker.busy_of(func))
                          + len(worker.provisioning_of(func)))
            else:
                count += (worker.busy_count(func)
                          + worker.provisioning_count(func))
        return count

    def _rescue_starved(self) -> None:
        """Re-route queued waiters whose entire supply died in the crash.

        A QUEUE-decision waiter relies on busy/provisioning containers of
        its function; when the crash destroyed the last of them nothing
        will ever drain the FIFO. Such waiters are marked served and
        re-enter through the reassignment path (no retry budget consumed).
        """
        for func in sorted(self.waiting_functions()):
            if self._supply_of(func) > 0:
                continue
            queue = self._waiters.get(func)
            if not queue:
                continue
            for waiter in list(queue):
                if waiter.served or waiter.bound is not None:
                    continue
                waiter.served = True
                self._unserve(func)
                self.sim.schedule(0.0, self._on_reassigned, waiter.request)

    # ==================================================================
    # Provisioning path

    def _provision(self, spec: FunctionSpec, worker: Worker,
                   waiter: Optional[_Waiter], speculative: bool,
                   prewarm: bool = False) -> Optional[Container]:
        if not self.policy.make_room(worker, spec.memory_mb, self.sim.now,
                                     for_func=spec.name):
            self._pending.append(_PendingProvision(
                spec, worker, waiter, speculative, prewarm))
            self._pending_by_func[spec.name] = \
                self._pending_by_func.get(spec.name, 0) + 1
            self._touch(spec.name)
            if self._m_blocked is not None:
                self._m_blocked.inc()
            return None
        return self._begin_provision(spec, worker, waiter, speculative,
                                     prewarm)

    def _begin_provision(self, spec: FunctionSpec, worker: Worker,
                         waiter: Optional[_Waiter], speculative: bool,
                         prewarm: bool) -> Container:
        now = self.sim.now
        cost = self.policy.provision_cost_ms(spec, worker, now)
        container = Container(spec, now,
                              threads=self.config.threads_per_container,
                              speculative=speculative)
        worker.add(container)
        self._touch(spec.name)
        if waiter is not None:
            waiter.bound = container
        if prewarm:
            self.metrics.prewarm_starts += 1
        else:
            self.metrics.cold_starts_begun += 1
        self.metrics.provisioned_mb += container.memory_mb
        kind = "prewarm" if prewarm \
            else ("speculative" if speculative else "bound")
        detail = kind
        if self.attribution is not None:
            cause = self.attribution.begin_provision(spec.name)
            detail = f"{kind} cause={cause}"
        self._log(EventKind.PROVISION_START, spec.name,
                  container_id=container.container_id, detail=detail,
                  worker_id=worker.worker_id)
        if self._m_provisions is not None:
            self._m_provisions.child(kind).inc()
        self.policy.on_provision_started(container, now)
        self._schedule_ready(container, worker, waiter, cost)
        return container

    def _begin_restore(self, container: Container, request: Request,
                       worker: Worker) -> bool:
        """Decompress ``container`` to serve ``request`` (CodeCrunch).

        Returns False (leaving the container compressed) when the extra
        memory for the full footprint cannot be freed.
        """
        now = self.sim.now
        old_mb = container.memory_mb
        delta = container.spec.memory_mb - old_mb
        container.begin_restore(now)  # not evictable while we make room
        self._touch(request.func)  # in flight now, and again if aborted
        if not self.policy.make_room(worker, delta, now,
                                     for_func=request.func):
            container.abort_restore(old_mb / container.spec.memory_mb)
            return False
        worker.recharge(container, old_mb)
        self._log(EventKind.RESTORE_START, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, worker_id=worker.worker_id)
        waiter = _Waiter(request, may_use_busy=False, bound=container)
        self._enqueue_waiter(waiter)
        self.metrics.restores += 1
        self._schedule_ready(container, worker, waiter,
                             self.policy.restore_cost_ms(container.spec))
        return True

    def _schedule_ready(self, container: Container, worker: Worker,
                        waiter: Optional[_Waiter], cost: float) -> None:
        """Schedule ``container``'s ready event after ``cost`` ms of
        provisioning or restore work on ``worker``.

        The cold rate is integrated across straggler-window edges instead
        of freezing the factor sampled now: a window that ends (or
        begins) mid-provision changes the remaining wall time. With no
        edge straddled this is the single sampled multiply, bit-for-bit.
        """
        event = self.sim.at(
            self._faults.cold_finish_ms(worker.worker_id, self.sim.now, cost),
            self._on_ready, container, waiter)
        self._provision_events[container.container_id] = (event, waiter)

    def _on_ready(self, container: Container,
                  waiter: Optional[_Waiter]) -> None:
        self._provision_events.pop(container.container_id, None)
        if container.state is ContainerState.EVICTED:  # pragma: no cover
            return
        now = self.sim.now
        container.mark_ready(now)
        self._touch(container.spec.name)
        self._log(EventKind.CONTAINER_READY, container.spec.name,
                  container_id=container.container_id,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        self.policy.on_container_ready(container, now)
        if waiter is not None and not waiter.served:
            self._serve(container, waiter, StartType.COLD)
        # Unbound (speculative / prewarmed) containers pick up the oldest
        # queued request of their function; with multi-slot containers a
        # fresh container can absorb several.
        while container.free_slots > 0:
            pending = self._next_unbound_waiter(container.spec.name)
            if pending is None:
                break
            self._serve(container, pending, StartType.COLD)
        # A container that comes up idle is newly *evictable* memory —
        # the provisioning -> ready transition is the only evictability
        # change without a retry hook, and a blocked provision could
        # otherwise stay stuck forever once arrivals stop.
        if self._pending:
            self._schedule_retry()

    # ==================================================================
    # Execution path

    def _enqueue_waiter(self, waiter: _Waiter) -> None:
        func = waiter.request.func
        self._waiters.setdefault(func, deque()).append(waiter)
        count = self._unserved.get(func, 0) + 1
        if count == 1:
            self._n_waiting += 1
            if func not in self._rank:
                self._rank[func] = len(self._rank)
        self._unserved[func] = count
        self._touch(func)

    def _unserve(self, func: str) -> None:
        """One waiter of ``func`` was served or dropped."""
        count = self._unserved[func] - 1
        self._unserved[func] = count
        if not count:
            self._n_waiting -= 1
        self._touch(func)

    def _serve(self, container: Container, waiter: _Waiter,
               start_type: StartType) -> None:
        func = waiter.request.func
        waiter.served = True
        self._unserve(func)
        if (waiter.committed is not None
                and waiter.committed is not container):
            # Served elsewhere: trim dead references from the ends of the
            # committed deque so long bounded-queue runs do not accumulate
            # served waiters (popping served entries never changes what
            # ``_next_waiter_for`` returns — it skips them anyway).
            self._trim_committed(waiter.committed.container_id)
        self._start_exec(container, waiter.request, start_type)

    def _trim_committed(self, container_id: int) -> None:
        queue = self._committed.get(container_id)
        if queue is None:
            return
        while queue and queue[0].served:
            queue.popleft()
        while queue and queue[-1].served:
            queue.pop()
        if not queue:
            del self._committed[container_id]

    def _start_exec(self, container: Container, request: Request,
                    start_type: StartType) -> None:
        now = self.sim.now
        request.start_ms = now
        request.start_type = start_type
        request.container_id = container.container_id
        label = start_type.value
        self._log(EventKind.EXEC_START, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, detail=label,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        if self.recorder is not None:
            self.recorder.note_start(request.func, label, now)
        if self._m_starts is not None:
            self._m_starts.child(label).inc()
        container.start_request(request, now)
        if start_type is StartType.WARM:
            self.policy.on_warm_start(container, request, now)
        elif start_type is StartType.DELAYED:
            self.policy.on_delayed_start(container, request, now)
        else:
            self.policy.on_cold_start(container, request, now)
        if self._progress and container.worker is not None:
            self._begin_progress_exec(container, request)
            return
        exec_ms = request.exec_ms
        if container.worker is not None:
            exec_ms = exec_ms * self._faults.exec_multiplier(
                container.worker.worker_id, now)
        self._exec_events[request.req_id] = self.sim.schedule(
            exec_ms, self._on_complete, container, request)

    def _on_complete(self, container: Container, request: Request) -> None:
        now = self.sim.now
        self._exec_events.pop(request.req_id, None)
        state = self._finish_progress_exec(request, container)
        container.finish_request(request, now)
        request.end_ms = now
        detail = ""
        if self._contention is not None:
            realized = ((now - request.start_ms) / request.exec_ms
                        if request.exec_ms > 0 else 1.0)
            if self._m_slowdown is not None:
                self._m_slowdown.observe(realized)
            if state is not None and state.slowed:
                # float(): the clock may run on numpy scalars, whose
                # repr would leak into the detail as np.float64(...).
                detail = f"slowdown={float(realized)!r}"
        self._log(EventKind.EXEC_END, request.func,
                  container_id=container.container_id,
                  req_id=request.req_id, detail=detail,
                  worker_id=container.worker.worker_id
                  if container.worker else None)
        self.metrics.record_request(request)
        if self._m_wait is not None:
            self._m_wait.observe(request.wait_ms)
        self.policy.on_request_complete(container, request, now)
        # Step 2a: the vacant slot serves queued waiters — first those
        # committed to this container, then the function's FIFO.
        while container.free_slots > 0:
            waiter = self._next_waiter_for(container)
            if waiter is None:
                break
            self._serve(container, waiter, StartType.DELAYED)
        if self._deferred is not None:
            # No start took over the neighbours' retime: run it now.
            worker_id = self._deferred[0]
            table = self._worker_execs[worker_id]
            self._place_head(worker_id, self._retime_worker(
                worker_id, table, len(table), now))
        # Memory may now be reclaimable: retry blocked provisions.
        if self._pending:
            self._schedule_retry()

    # ==================================================================
    # Progress-based execution (contention / rate-varying stragglers)

    def _slowdown(self, worker_id: int, func: Optional[str], busy: int,
                  now: float) -> float:
        """Execution-rate factor for one execution of ``func`` sharing
        its worker with ``busy`` total in-flight executions at ``now``.
        ``func=None`` prices every function the contention table does not
        name: the straggler multiplier is per worker and the curve is the
        same for all of them."""
        contention = self._contention
        if contention is None:
            factor = 1.0
        elif func in self._overridden:
            factor = contention.slowdown(busy, func)
        else:
            factor = contention.curve(busy)
        return factor * self._faults.exec_multiplier(worker_id, now)

    def _finish_ms(self, request: Request, worker_id: int, busy: int,
                   now: float, work_ms: float, slowdown: float) -> float:
        """When ``work_ms`` of ``request``'s execution, running from
        ``now`` at ``slowdown``, would end if the rate held.

        That is ``now + work_ms * slowdown``, unless a huge straggler
        multiplier overflows the product to inf. The work is then
        integrated across the straggler-window edges ahead, as
        :meth:`FaultPlan.cold_finish_ms` does for provisions; the first
        edge retimes the execution anyway, so this only keeps its key
        finite and in order. Inputs that do not overflow take the single
        multiplication, bit for bit.
        """
        time = now + work_ms * slowdown
        while time == inf:
            edge = self._faults.next_exec_boundary(worker_id, now)
            if edge is None:
                raise ValueError(
                    f"request {request.req_id} ({request.func}) on worker "
                    f"{worker_id}: {work_ms!r} ms of execution at slowdown "
                    f"{slowdown!r} would end at an infinite time")
            work_ms -= (edge - now) / slowdown
            now = edge
            slowdown = self._slowdown(worker_id, request.func, busy, now)
            time = now + work_ms * slowdown
        return time

    def _begin_progress_exec(self, container: Container,
                             request: Request) -> None:
        sim = self.sim
        now = sim.now
        worker_id = container.worker.worker_id
        table = self._worker_execs.setdefault(worker_id, {})
        busy = len(table) + 1
        # Settle the neighbours first: their rates change the instant
        # this execution joins the worker.
        head = self._retime_worker(worker_id, table, busy, now)
        slowdown = self._slowdown(worker_id, request.func, busy, now)
        time = self._finish_ms(request, worker_id, busy, now, request.exec_ms,
                               slowdown)
        if head is None:
            # The worker's first execution: its key is the one ``at``
            # draws for the worker's completion event.
            event = sim.at(time, self._on_complete, container, request)
            self._heads[worker_id] = event
            state = _ExecProgress(request, container, slowdown, now,
                                  (time, event.seq), True)
        else:
            state = _ExecProgress(request, container, slowdown, now,
                                  (time, sim.draw_seq(time)), False)
            self._place_head(worker_id,
                             state if state.key < head.key else head)
        table[request.req_id] = state
        self._execs[request.req_id] = state
        self._arm_rate_boundary(worker_id)

    def _retime_worker(self, worker_id: int,
                       table: Dict[int, _ExecProgress], busy: int,
                       now: float) -> Optional[_ExecProgress]:
        """Settle progress and re-key the completion of every running
        execution in ``table`` under the worker's new concurrency
        ``busy``. Returns the ledger with the earliest key, or None for
        an idle worker; the caller moves the completion event there.

        When a completion on this worker deferred its own retime
        (:meth:`_defer_retime`), this one pass applies both
        transitions, leaving each ledger as the two passes in a row
        would: settled once, at the rate it ran at until ``now``; timed
        at its final rate; keyed with a sequence number from the block
        of the last transition that changed its rate. A ledger only the
        completion moved takes its number from the block drawn back
        then, in table order, just as that pass would have.
        """
        if not table:
            return None
        rate = self._slowdown(worker_id, None, busy, now)
        overridden = self._overridden
        deferred = self._deferred
        if deferred is not None and deferred[0] == worker_id:
            self._deferred = None
            _, busy1, rate1, seq1, count1 = deferred
        else:
            busy1 = rate1 = None
            seq1 = count1 = 0
        end1 = seq1 + count1
        # The ledgers this transition re-keys take consecutive sequence
        # numbers in table order, from the next one: nothing else draws
        # during the pass, so drawing them as one block afterwards gives
        # the values per-ledger draw_seq calls would have drawn.
        sim = self.sim
        seq = block = sim.draw_seqs(0)
        for state in table.values():
            old = state.slowdown
            if overridden and state.request.func in overridden:
                func = state.request.func
                slowdown = self._slowdown(worker_id, func, busy, now)
                first = (old if busy1 is None
                         else self._slowdown(worker_id, func, busy1, now))
            else:
                slowdown = rate
                first = old if rate1 is None else rate1
            # ``first`` is the rate after the deferred completion (the
            # current one when there is none). Unchanged rates keep
            # settlement deferred and the key.
            if first == old and slowdown == old:
                continue
            remaining = state.remaining_ms
            elapsed = now - state.settled_ms
            if elapsed > 0.0:
                remaining = remaining - elapsed / old
                remaining = state.remaining_ms = (remaining if remaining > 0.0
                                                  else 0.0)
            state.settled_ms = now
            state.slowdown = slowdown
            if first != 1.0 or slowdown != 1.0:
                state.slowed = True
            time = self._finish_ms(state.request, worker_id, busy, now,
                                   remaining, slowdown)
            if not now <= time < inf:
                raise ValueError(sim._bad_time("draw a key", time))
            state.queued = False
            if slowdown != first:
                state.key = (time, seq)
                seq += 1
                if first != old:
                    seq1 += 1  # drawn for the completion's key, now replaced
            else:
                # Only the completion changed this rate.
                state.key = (time, seq1)
                seq1 += 1
        if seq1 != end1:
            raise RuntimeError(
                f"worker {worker_id}: the completion's retime re-keyed "
                f"{count1 - (end1 - seq1)} executions, not the {count1} "
                f"it drew sequence numbers for")
        if seq != block:
            sim.draw_seqs(seq - block)
        return min(table.values(), key=_LEDGER_KEY)

    def _place_head(self, worker_id: int, state: _ExecProgress) -> None:
        """Queue ``worker_id``'s completion event under ``state``'s key,
        naming its execution. An entry under that key may still sit in
        the heap from an earlier turn as the head; it is revived rather
        than pushed again, or the completion would fire twice."""
        time, seq = state.key
        self.sim.queue_at(self._heads[worker_id], time, seq,
                          (state.container, state.request),
                          push=not state.queued)
        state.queued = True

    def _finish_progress_exec(self, request: Request,
                              container: Container) -> Optional[_ExecProgress]:
        """Retire a completed execution's ledger, retime its (now
        less-contended) neighbours and move the completion event to the
        earliest of them."""
        state = self._execs.pop(request.req_id, None)
        if state is None:  # pragma: no cover - defensive
            return None
        worker = container.worker
        if worker is not None:
            worker_id = worker.worker_id
            table = self._worker_execs.get(worker_id)
            if table is not None:
                table.pop(request.req_id, None)
                if not table:
                    del self._heads[worker_id]
                    self._disarm_rate_boundary(worker_id)
                else:
                    self._defer_retime(worker_id, table)
        return state

    def _defer_retime(self, worker_id: int,
                      table: Dict[int, _ExecProgress]) -> None:
        """Put off the neighbours' retime after a completion.

        The freed slot usually goes straight to a queued request on the
        same worker, whose start moves the concurrency back, so the next
        :meth:`_retime_worker` call on this worker does both transitions
        in one pass (``_on_complete`` makes that call itself if no start
        follows). Only the sequence numbers this retime would draw are
        drawn now, so every later number stays as it was. Without a
        per-function table every execution on a worker runs at the
        worker's one rate, so counting them is O(1).
        """
        now = self.sim.now
        busy = len(table)
        rate = self._slowdown(worker_id, None, busy, now)
        overridden = self._overridden
        if not overridden:
            count = (busy if rate != next(iter(table.values())).slowdown
                     else 0)
        else:
            count = 0
            for state in table.values():
                func = state.request.func
                slowdown = (self._slowdown(worker_id, func, busy, now)
                            if func in overridden else rate)
                if slowdown != state.slowdown:
                    count += 1
        seq = self.sim.draw_seqs(count) if count else 0
        self._deferred = (worker_id, busy, rate, seq, count)

    def _arm_rate_boundary(self, worker_id: int) -> None:
        """Wake up at the next straggler-window edge that changes
        ``worker_id``'s execution rate. Armed only while executions are
        running there — an edge over an idle worker affects nothing
        until the next start samples the rate fresh."""
        if worker_id in self._rate_events:
            return
        edge = self._faults.next_exec_boundary(worker_id, self.sim.now)
        if edge is None:
            return
        self._rate_events[worker_id] = self.sim.at(
            edge, self._on_rate_boundary, worker_id)

    def _on_rate_boundary(self, worker_id: int) -> None:
        self._rate_events.pop(worker_id, None)
        table = self._worker_execs.get(worker_id)
        if table:
            self._place_head(worker_id, self._retime_worker(
                worker_id, table, len(table), self.sim.now))
            self._arm_rate_boundary(worker_id)

    def _disarm_rate_boundary(self, worker_id: int) -> None:
        event = self._rate_events.pop(worker_id, None)
        if event is not None:
            event.cancel()

    def _drop_progress_worker(self, worker_id: int) -> None:
        """Forget progress state for a crashed worker and cancel its
        completion event."""
        table = self._worker_execs.pop(worker_id, None)
        if table:
            for req_id in table:
                self._execs.pop(req_id, None)
        head = self._heads.pop(worker_id, None)
        if head is not None:
            head.cancel()
        self._disarm_rate_boundary(worker_id)

    # ==================================================================
    # Waiter queues

    def _next_waiter_for(self, container: Container) -> Optional[_Waiter]:
        """Oldest unserved waiter this vacant container may serve."""
        committed = self._committed.get(container.container_id)
        if committed is not None:
            while committed:
                waiter = committed.popleft()
                if not waiter.served:
                    return waiter
            del self._committed[container.container_id]
        return self._next_unbound_waiter(container.spec.name)

    def _next_unbound_waiter(self, func: str) -> Optional[_Waiter]:
        """Oldest unserved, uncommitted waiter allowed to use any slot."""
        queue = self._waiters.get(func)
        if not queue:
            return None
        # Trim served waiters off the front to keep scans short.
        while queue and queue[0].served:
            queue.popleft()
        for waiter in queue:
            if (not waiter.served and waiter.may_use_busy
                    and waiter.committed is None and waiter.bound is None):
                return waiter
        return None

    # ==================================================================
    # Change tracking (event-driven maintenance and retries)

    def _touch(self, func: str) -> None:
        """Record that ``func``'s unserved-waiter or in-flight count
        moved (or may have)."""
        self._changed.add(func)

    # ==================================================================
    # Blocked provisions

    def _schedule_retry(self) -> None:
        """Arrange a retry pass at the current time, unless it provably
        does nothing: nothing else is due at this instant, so the pass
        would run next, in the present state, and a dry run of its loop
        in that state finds nothing to drop or start."""
        if self._retry_scheduled:
            return
        sim = self.sim
        if sim.next_time() > sim.now and not self._retry_would_act():
            return
        self._retry_scheduled = True
        sim.schedule(0.0, self._retry_pending)

    def _retry_would_act(self) -> bool:
        """Dry run of :meth:`_retry_pending`'s loop, free of side effects:
        whether some blocked provision would be dropped or could start.

        It walks the FIFO as the pass does, skipping offline and stuck
        workers. A pass that acts on nothing changes nothing, so every
        step sees the state the first one saw. Starting is judged by
        :meth:`OrchestrationPolicy.may_make_room`, which may answer
        "maybe" (True) but never says no to a call that would succeed.
        """
        may_make_room = self.policy.may_make_room
        online = len(self._online)
        stuck: set = set()
        for pend in self._pending:
            if len(stuck) >= online:
                break
            worker = pend.worker
            if not worker.online or worker.worker_id in stuck:
                continue
            if (self._should_abandon(pend)
                    or may_make_room(worker, pend.spec.memory_mb)):
                return True
            stuck.add(worker.worker_id)
        return False

    def _retry_pending(self) -> None:
        self._retry_scheduled = False
        pending = self._pending
        # Once a worker fails to free memory, stop hammering it this round:
        # later (FIFO) provisions are no more likely to fit, and probing
        # each pending entry would make retries quadratic under a burst.
        # Entries skipped this way are re-checked for abandonment on a
        # later retry. When every online worker is stuck, the rest of the
        # queue stays as it is.
        stuck_workers: set = set()
        kept: List[_PendingProvision] = []
        while pending and len(stuck_workers) < len(self._online):
            pend = pending.popleft()
            if not pend.worker.online:
                kept.append(pend)
                continue
            if pend.worker.worker_id in stuck_workers:
                kept.append(pend)
                continue
            if self._should_abandon(pend):
                self._pending_by_func[pend.spec.name] -= 1
                self._touch(pend.spec.name)
                continue
            if self.policy.make_room(pend.worker, pend.spec.memory_mb,
                                     self.sim.now, for_func=pend.spec.name):
                self._pending_by_func[pend.spec.name] -= 1
                self._begin_provision(pend.spec, pend.worker, pend.waiter,
                                      pend.speculative, pend.prewarm)
            else:
                stuck_workers.add(pend.worker.worker_id)
                kept.append(pend)
        pending.extendleft(reversed(kept))

    def _should_abandon(self, pend: _PendingProvision) -> bool:
        """Skip blocked provisions that no longer have anyone to serve."""
        if pend.prewarm:
            return True  # stale prewarm: demand has moved on
        if pend.waiter is not None:
            return pend.waiter.served
        # Speculative: only useful while unserved waiters remain.
        return self.outstanding_waiters(pend.spec.name) == 0

    # ==================================================================
    # Misc plumbing

    def _log(self, kind: EventKind, func: str,
             container_id: Optional[int] = None,
             req_id: Optional[int] = None, detail: str = "",
             worker_id: Optional[int] = None) -> None:
        if self.event_log is not None:
            self.event_log.record(self.sim.now, kind, func, container_id,
                                  req_id, detail, worker_id)

    def _dispatch(self, func: str) -> Worker:
        workers = self._online  # callers handle a total outage first
        if len(workers) == 1 or self.config.dispatch == "single":
            return workers[0]
        if self.config.dispatch == "hash":
            idx = zlib.crc32(func.encode()) % len(workers)
            return workers[idx]
        return min(workers, key=lambda w: w.used_mb)

    def _sample_memory(self) -> None:
        if self._naive:
            used = sum(w.used_mb for w in self._workers)
        else:
            if self._usage.dirty:
                self._used_mb_cache = sum(w.used_mb for w in self._workers)
                self._usage.dirty = False
            used = self._used_mb_cache
        self.metrics.record_memory(self.sim.now, used)
        if self._m_used is not None:
            self._m_used.set(used)

    def _run_maintenance(self) -> None:
        self.policy.on_maintenance(self.sim.now)
        if self._pending:
            self._schedule_retry()

    def _finalize(self, requests: Sequence[Request]) -> None:
        # Under fault injection, requests may end accounted-failed instead
        # of completed; anything in neither state is a genuine deadlock.
        unfinished = [r for r in requests if not r.completed and not r.failed]
        if unfinished:
            head = self.sim.head_event()
            head_name = ("empty" if head is None else getattr(
                head.callback, "__name__", repr(head.callback)))
            # An integer count, so its summation order cannot matter.
            waiting = sum(self._unserved.values())  # repro-lint: disable=FPX002
            raise RuntimeError(
                f"{len(unfinished)} requests never completed "
                f"(first: {unfinished[0]!r}); this indicates a scheduling "
                f"deadlock or an over-constrained configuration: "
                f"{len(self._pending)} provisions blocked for memory, "
                f"{waiting} queued requests unserved, engine heap head: "
                f"{head_name}")
        # Count speculative containers that are still alive but were never
        # reused — wasted cold starts in hindsight (§3.2).
        for worker in self._workers:
            for c in worker.containers.values():
                if c.speculative and not c.served_any:
                    self.metrics.wasted_cold_starts += 1
        if self.recorder is not None:
            self.recorder.finish(self)


def simulate(functions: Iterable[FunctionSpec],
             requests: Sequence[Request],
             policy: OrchestrationPolicy,
             config: Optional[SimulationConfig] = None) -> SimulationResult:
    """One-shot convenience wrapper: build an orchestrator and run it."""
    return Orchestrator(functions, policy, config).run(requests)
