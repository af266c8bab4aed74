"""Structured event logging for simulation runs.

An :class:`EventLog` records the control-plane's lifecycle decisions —
arrivals, provision starts/completions, execution starts/ends, evictions —
as typed, timestamped records. It exists for observability: debugging a
policy, tracing one function's containers through a run, or explaining a
single request's latency (``explain_request``).

Logging is opt-in (``Orchestrator(..., event_log=EventLog())``) and adds
one append per event when enabled, nothing when not. For runs too large
to hold in memory, the log can be bounded (``capacity``) and/or fanned
out to streaming :mod:`repro.sim.telemetry` sinks (``sinks``): every
event still reaches each attached sink, while the in-memory buffer keeps
only the newest ``capacity`` events.

An :class:`Event` is a named tuple, so recording one costs a tuple
allocation and a deque append; with no sinks attached,
:meth:`EventLog.record` does nothing else.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterable, List, NamedTuple, Optional, Sequence


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    PROVISION_START = "provision_start"
    CONTAINER_READY = "container_ready"
    EXEC_START = "exec_start"
    EXEC_END = "exec_end"
    EVICTION = "eviction"
    COMPRESSION = "compression"
    RESTORE_START = "restore_start"
    # Fault-injection events (repro.sim.faults); only emitted when the
    # FaultPlan schedules crashes.
    WORKER_CRASH = "worker_crash"
    WORKER_RESTART = "worker_restart"
    REQUEST_ORPHANED = "request_orphaned"
    REQUEST_REASSIGNED = "request_reassigned"


#: Causal ordering of lifecycle events that share a timestamp: a request
#: arrives before anything is provisioned for it, a container becomes
#: ready before it executes, execution ends before the container can be
#: compressed or evicted. Alphabetical ``kind.value`` order (the old sort
#: key) violates this — ``eviction`` sorts before ``exec_end`` — which
#: garbles same-tick latency stories.
LIFECYCLE_RANK = {
    EventKind.ARRIVAL: 0,
    EventKind.PROVISION_START: 1,
    EventKind.RESTORE_START: 2,
    EventKind.CONTAINER_READY: 3,
    EventKind.EXEC_START: 4,
    # Fault events slot between a started execution and its (never
    # reached) completion: a crash orphans running work, the orphan is
    # reassigned, the worker restarts. Same-tick retry chains that loop
    # back into provisioning are inherently cyclic; within one tick the
    # log's append order stays the causal ground truth (sorted() is
    # stable, so equal keys preserve it).
    EventKind.WORKER_CRASH: 4.1,
    EventKind.REQUEST_ORPHANED: 4.2,
    EventKind.REQUEST_REASSIGNED: 4.3,
    EventKind.WORKER_RESTART: 4.4,
    EventKind.EXEC_END: 5,
    EventKind.COMPRESSION: 6,
    EventKind.EVICTION: 7,
}


#: The five proximate-cause classes a ``PROVISION_START`` may carry when
#: causal attribution (:mod:`repro.obs.attribution`) is attached. The
#: ``eviction`` / ``scale-down`` classes append the responsible audit
#: ``decision_id`` after a colon (``eviction:17``).
CAUSE_CLASSES = ("first-invocation", "eviction", "scale-down", "crash",
                 "capacity-blocked")


def split_cause(detail: str) -> tuple:
    """Split a stamped ``PROVISION_START`` detail into (kind, cause).

    ``"bound cause=eviction:17"`` -> ``("bound", "eviction:17")``;
    an unstamped detail returns ``(detail, "")``. The stamp grammar is a
    single appended ``" cause=<label>"`` token, so unattributed runs and
    attributed runs differ only by this suffix.
    """
    kind, sep, cause = detail.partition(" cause=")
    if sep:
        return kind, cause
    return detail, ""


def cause_class(cause: str) -> str:
    """The cause class of a full label (``"eviction:17"`` -> ``"eviction"``)."""
    return cause.partition(":")[0]


def cause_decision_id(cause: str) -> Optional[int]:
    """The audit ``decision_id`` a cause label blames, or ``None``.

    Only ``eviction:<id>`` / ``scale-down:<id>`` labels carry one (and a
    ``scale-down`` with no audit attached is minted without an id).
    """
    _, sep, did = cause.partition(":")
    if sep and did:
        return int(did)
    return None


class Event(NamedTuple):
    """One control-plane event (an immutable, tuple-backed record)."""

    time_ms: float
    kind: EventKind
    func: str
    container_id: Optional[int] = None
    req_id: Optional[int] = None
    detail: str = ""
    worker_id: Optional[int] = None

    def __str__(self) -> str:
        parts = [f"{self.time_ms:12.3f}", self.kind.value, self.func]
        if self.worker_id is not None:
            parts.append(f"w{self.worker_id}")
        if self.container_id is not None:
            parts.append(f"c{self.container_id}")
        if self.req_id is not None:
            parts.append(f"r{self.req_id}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


class EventLog:
    """Accumulates :class:`Event` records during a run.

    :meth:`record` is the probe entry point the orchestrator calls once
    per event: it builds one tuple-backed :class:`Event`, appends it to
    the (optionally bounded) buffer and, only when sinks are attached,
    hands it to each sink. The orchestrator looks ``record`` up on the
    log at every call and never keeps the bound method, so a wrapper
    installed on the instance (the benchmark's tracer) sees every event.
    """

    def __init__(self, capacity: Optional[int] = None,
                 sinks: Sequence = ()):
        """``capacity`` bounds memory: the oldest events are dropped one
        by one beyond it (None = unbounded). ``sinks`` are telemetry
        sinks (any object with ``emit(event)``) that receive **every**
        event, including the ones the bounded buffer later drops."""
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 (or None); 0 keeps "
                             "nothing in memory (sink-only logging)")
        self.capacity = capacity
        self.events = deque(maxlen=capacity)
        #: Events evicted from the bounded in-memory buffer. Counts every
        #: individual dropped event (sinks still saw them all).
        self.dropped = 0
        #: Total events ever recorded (== len(events) + dropped).
        self.recorded = 0
        self._sinks = tuple(sinks)

    def attach(self, sink) -> None:
        """Add a telemetry sink; it receives events recorded from now on."""
        self._sinks += (sink,)

    @property
    def sinks(self) -> tuple:
        return self._sinks

    def record(self, time_ms: float, kind: EventKind, func: str,
               container_id: Optional[int] = None,
               req_id: Optional[int] = None, detail: str = "",
               worker_id: Optional[int] = None) -> None:
        events = self.events
        if self.capacity is not None and len(events) == self.capacity:
            self.dropped += 1          # deque(maxlen) evicts the oldest
        event = Event(time_ms, kind, func, container_id, req_id, detail,
                      worker_id)
        events.append(event)
        self.recorded += 1
        if self._sinks:
            for sink in self._sinks:
                sink.emit(event)

    def close(self) -> None:
        """Close every attached sink (flushes streaming file sinks)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------
    # Queries

    def of_kind(self, kind: EventKind) -> List[Event]:
        return [e for e in self.events if e.kind is kind]

    def of_func(self, func: str) -> List[Event]:
        return [e for e in self.events if e.func == func]

    def of_container(self, container_id: int) -> List[Event]:
        return [e for e in self.events
                if e.container_id == container_id]

    def explain_request(self, req_id: int) -> List[Event]:
        """All events involving one request plus its serving container's
        provisioning history — the latency story of that request."""
        mine = [e for e in self.events if e.req_id == req_id]
        containers = {e.container_id for e in mine
                      if e.container_id is not None}
        related = [e for e in self.events
                   if e.req_id is None and e.container_id in containers
                   and e.kind in (EventKind.PROVISION_START,
                                  EventKind.CONTAINER_READY,
                                  EventKind.EVICTION)]
        merged = sorted(mine + related,
                        key=lambda e: (e.time_ms, LIFECYCLE_RANK[e.kind]))
        return merged

    def cold_start_of(self, req_id: int) -> Optional[Event]:
        """The ``PROVISION_START`` behind one request's cold start.

        Returns the provisioning event of the container that served
        ``req_id`` when the request cold-started (its ``detail`` carries
        the cause stamp under attribution), or ``None`` for warm/delayed
        starts and unknown requests. Restores (CodeCrunch) are not
        provision events and return ``None``.
        """
        serving_cid = None
        for e in self.events:
            if (e.kind is EventKind.EXEC_START and e.req_id == req_id
                    and e.detail == "cold"):
                serving_cid = e.container_id
                break
        if serving_cid is None:
            return None
        provision = None
        for e in self.events:
            if (e.kind is EventKind.PROVISION_START
                    and e.container_id == serving_cid):
                provision = e  # last one before exec wins (restores aside)
            elif (e.kind is EventKind.EXEC_START and e.req_id == req_id):
                break
        return provision

    def render(self, events: Optional[Iterable[Event]] = None) -> str:
        """Human-readable dump (of a query result or everything)."""
        chosen = list(events) if events is not None else list(self.events)
        return "\n".join(str(e) for e in chosen)
