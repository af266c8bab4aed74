"""Decision-outcome resolver: what did each eviction actually cost?

The audit (:mod:`repro.obs.audit`) records *why* a decision was taken
and attribution (:mod:`repro.obs.attribution`) stamps *which* decision
each cold start blames. This module closes the loop: an
:class:`OutcomeResolver` streams over the joined audit-record / event
timeline and settles every eviction-class decision at a fixed horizon,
turning intent into measured outcome:

eviction regret
    The cold-start penalty actually paid for the victims' functions
    within ``horizon_ms`` of the decision — the summed realized
    provision durations (``CONTAINER_READY`` − ``PROVISION_START``) of
    every provision stamped ``cause=eviction:<did>`` /
    ``cause=scale-down:<did>`` — minus a memory credit,
    ``credit_ms_per_mb_ms`` × the memory-ms the decision reclaimed
    (each victim's footprint, held until the first blamed re-provision
    of its function or the horizon, whichever comes first). The default
    credit rate is ``0.0``, so out of the box ``regret_ms`` *is* the
    realized cold-start penalty — the quantity the pinned-decision
    counterfactual (:mod:`repro.analysis.attribution`) validates — and
    ``reclaimed_mb_ms`` is reported alongside for callers pricing
    memory themselves.

keep-warm waste
    The flip side, charged to decisions that waited too long: when an
    evicted container's terminal idle stretch ends (its ``EVICTION``
    event arrives), the resolver emits a :class:`ContainerWaste` with
    the idle memory-ms the container consumed without serving anything
    — ``idle_ms`` × ``mem_mb`` — and whether it *ever* served
    (``never_used`` marks pure provisioning waste).

With a :class:`~repro.obs.metrics.MetricsRegistry` attached the
resolver owns two instrument families (the orchestrator deliberately
does not double-count them): ``repro_coldstart_cause_total{cause=...}``
counting every stamped provision by cause class, and
``repro_eviction_regret_ms`` observing each settled decision's regret.

The resolver is a sink on both streams — attach the same instance with
``audit.attach(resolver)`` *and* ``event_log.attach(resolver)`` for
live resolution, or replay offline with :func:`resolve`. At equal
timestamps audit records sort before events (decision before effect),
matching live emission order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.sim.eventlog import (Event, EventKind, cause_class,
                                cause_decision_id, split_cause)

__all__ = ["ContainerWaste", "DecisionOutcome", "OutcomeResolver",
           "resolve"]

#: Default settlement horizon: a decision's consequences are tallied
#: for this long after it fires. Long enough to catch the re-provision
#: wave an eviction triggers, short enough that regret stays local.
DEFAULT_HORIZON_MS = 60_000.0


@dataclass(frozen=True)
class DecisionOutcome:
    """One settled eviction-class decision."""

    did: int                      #: audit decision id
    kind: str                     #: "eviction" (REPLACE) or "scale-down"
    t_ms: float                   #: when the decision fired
    settled_ms: float             #: when the resolver settled it
    horizon_ms: float
    victims: Tuple[Tuple[int, str, float], ...]  #: (cid, func, mem_mb)
    provisions: int               #: blamed provisions that completed
    penalty_ms: float             #: realized cold-start time caused
    reclaimed_mb_ms: float        #: memory-ms actually freed
    regret_ms: float              #: penalty - credit_rate * reclaimed


@dataclass(frozen=True)
class ContainerWaste:
    """Terminal idle stretch of one evicted container."""

    cid: int
    func: str
    evicted_ms: float
    idle_ms: float                #: length of the terminal idle stretch
    mem_mb: float
    waste_mb_ms: float            #: idle_ms * mem_mb
    never_used: bool              #: True = never served any request
    did: Optional[int]            #: the decision that evicted it


@dataclass
class _OpenDecision:
    """Working state of a decision still inside its horizon."""

    did: int
    kind: str
    t_ms: float
    deadline_ms: float
    victims: List[Tuple[int, str, float]] = field(default_factory=list)
    penalty_ms: float = 0.0
    provisions: int = 0
    in_flight: int = 0            #: blamed provisions awaiting READY
    reprovisioned: Dict[str, float] = field(default_factory=dict)


class OutcomeResolver:
    """Streaming joiner over audit records and lifecycle events.

    Feed it the merged timeline via :meth:`emit` (dicts are audit
    records, :class:`~repro.sim.eventlog.Event` instances are events);
    call :meth:`finish` once the run ends to settle decisions whose
    horizon had not yet elapsed. Settled outcomes accumulate in
    :attr:`outcomes`, keep-warm waste in :attr:`wastes`, cause-class
    counts in :attr:`causes`.
    """

    def __init__(self, horizon_ms: float = DEFAULT_HORIZON_MS,
                 credit_ms_per_mb_ms: float = 0.0,
                 metrics=None):
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        self.horizon_ms = horizon_ms
        self.credit_ms_per_mb_ms = credit_ms_per_mb_ms
        self.outcomes: List[DecisionOutcome] = []
        self.wastes: List[ContainerWaste] = []
        #: cause class -> stamped provisions seen.
        self.causes: Dict[str, int] = {}
        self._now = 0.0
        self._finished = False
        #: did -> open decision state, insertion (= time) ordered.
        self._open: Dict[int, _OpenDecision] = {}
        #: victim cid -> (did, func, mem_mb) awaiting its EVICTION event.
        self._victim_of: Dict[int, Tuple[Optional[int], str, float]] = {}
        #: cid -> exact terminal idle_ms from its scale_down record.
        self._scale_idle: Dict[int, float] = {}
        #: cid -> (blamed did or None, provision start time).
        self._provisioning: Dict[int, Tuple[Optional[int], float]] = {}
        self._active: Dict[int, int] = {}       #: cid -> running execs
        self._idle_since: Dict[int, float] = {}
        self._served: Dict[int, bool] = {}
        self._m_causes = None
        self._m_regret = None
        if metrics is not None:
            self._m_causes = metrics.counter(
                "repro_coldstart_cause_total",
                "Cold starts (PROVISION_START) by proximate cause class",
                labelnames=("cause",))
            self._m_regret = metrics.histogram(
                "repro_eviction_regret_ms",
                "Settled eviction-decision regret (realized cold-start "
                "penalty minus memory credit)")

    # -- sink protocol --------------------------------------------------

    def emit(self, item: Union[Dict, Event]) -> None:
        """One timeline element: an audit record dict or an Event."""
        if isinstance(item, dict):
            self._on_record(item)
        else:
            self._on_event(item)

    def close(self) -> None:
        """Sink teardown: settle whatever is still open (idempotent)."""
        self.finish()

    # -- audit records --------------------------------------------------

    def _on_record(self, record: Dict) -> None:
        kind = record.get("kind")
        if kind == "eviction_decision":
            victims = [(v["cid"], v["func"], v["mem_mb"])
                       for v in record["victims"]]
            self._open_decision(record, "eviction", victims)
        elif kind == "scale_down":
            victims = [(record["cid"], record["func"], record["mem_mb"])]
            self._scale_idle[record["cid"]] = record["idle_ms"]
            self._open_decision(record, "scale-down", victims)

    def _open_decision(self, record: Dict, kind: str,
                       victims: List[Tuple[int, str, float]]) -> None:
        did = record["did"]
        t = record["t"]
        state = _OpenDecision(did=did, kind=kind, t_ms=t,
                              deadline_ms=t + self.horizon_ms,
                              victims=victims)
        self._open[did] = state
        for cid, func, mem_mb in victims:
            self._victim_of[cid] = (did, func, mem_mb)

    # -- lifecycle events -----------------------------------------------

    def _on_event(self, event: Event) -> None:
        t = event.time_ms
        self._now = t
        kind = event.kind
        cid = event.container_id
        if kind is EventKind.PROVISION_START:
            self._on_provision(event, t, cid)
        elif kind is EventKind.RESTORE_START:
            # A decompression pays restore latency, not a cold start:
            # mark the cid in-flight unblamed so READY skips it.
            self._provisioning[cid] = (None, t)
        elif kind is EventKind.CONTAINER_READY:
            self._on_ready(t, cid)
        elif kind is EventKind.EXEC_START:
            self._active[cid] = self._active.get(cid, 0) + 1
            self._served[cid] = True
        elif kind is EventKind.EXEC_END:
            left = self._active.get(cid, 1) - 1
            self._active[cid] = left
            if left <= 0:
                self._idle_since[cid] = t
        elif kind is EventKind.EVICTION:
            self._on_eviction(t, cid)
        self._settle_due()

    def _on_provision(self, event: Event, t: float,
                      cid: Optional[int]) -> None:
        _, cause = split_cause(event.detail)
        if not cause:
            # Unattributed run: nothing to blame, nothing to count.
            self._provisioning[cid] = (None, t)
            return
        cls = cause_class(cause)
        self.causes[cls] = self.causes.get(cls, 0) + 1
        if self._m_causes is not None:
            self._m_causes.child(cls).inc()
        did = cause_decision_id(cause)
        state = self._open.get(did) if did is not None else None
        if state is not None:
            state.in_flight += 1
            state.reprovisioned.setdefault(event.func, t)
            self._provisioning[cid] = (did, t)
        else:
            self._provisioning[cid] = (None, t)

    def _on_ready(self, t: float, cid: Optional[int]) -> None:
        blamed = self._provisioning.pop(cid, None)
        if blamed is not None:
            did, started = blamed
            state = self._open.get(did) if did is not None else None
            if state is not None:
                state.penalty_ms += t - started
                state.provisions += 1
                state.in_flight -= 1
        self._active[cid] = 0
        self._idle_since[cid] = t
        self._served.setdefault(cid, False)

    def _on_eviction(self, t: float, cid: Optional[int]) -> None:
        joined = self._victim_of.pop(cid, None)
        idle_exact = self._scale_idle.pop(cid, None)
        if joined is not None:
            did, func, mem_mb = joined
            if idle_exact is not None:
                idle_ms = idle_exact
            else:
                idle_ms = t - self._idle_since.get(cid, t)
            self.wastes.append(ContainerWaste(
                cid=cid, func=func, evicted_ms=t, idle_ms=idle_ms,
                mem_mb=mem_mb, waste_mb_ms=idle_ms * mem_mb,
                never_used=not self._served.get(cid, False), did=did))
        self._active.pop(cid, None)
        self._idle_since.pop(cid, None)
        self._served.pop(cid, None)

    # -- settlement -----------------------------------------------------

    def _settle_due(self) -> None:
        now = self._now
        due = [state for state in self._open.values()
               if now > state.deadline_ms and state.in_flight == 0]
        for state in due:
            self._settle(state, credit_cap_ms=self.horizon_ms)

    def _settle(self, state: _OpenDecision, credit_cap_ms: float) -> None:
        reclaimed = 0.0
        reprov = state.reprovisioned
        for _cid, func, mem_mb in state.victims:
            held_ms = reprov.get(func)
            if held_ms is None:
                held_ms = state.t_ms + credit_cap_ms
            duration_ms = held_ms - state.t_ms
            if duration_ms < 0.0:
                duration_ms = 0.0
            elif duration_ms > credit_cap_ms:
                duration_ms = credit_cap_ms
            reclaimed += mem_mb * duration_ms
        regret_ms = (state.penalty_ms
                     - self.credit_ms_per_mb_ms * reclaimed)
        outcome = DecisionOutcome(
            did=state.did, kind=state.kind, t_ms=state.t_ms,
            settled_ms=self._now, horizon_ms=self.horizon_ms,
            victims=tuple(state.victims), provisions=state.provisions,
            penalty_ms=state.penalty_ms, reclaimed_mb_ms=reclaimed,
            regret_ms=regret_ms)
        self.outcomes.append(outcome)
        if self._m_regret is not None:
            self._m_regret.observe(regret_ms)
        self._open.pop(state.did, None)

    def finish(self) -> None:
        """Settle every still-open decision at end of stream.

        Decisions whose horizon had not elapsed get their memory credit
        capped at the time actually observed; blamed provisions still
        in flight contribute nothing (their READY never arrived).
        """
        if self._finished:
            return
        self._finished = True
        for state in list(self._open.values()):
            cap = self._now - state.t_ms
            if cap < 0.0:
                cap = 0.0
            elif cap > self.horizon_ms:
                cap = self.horizon_ms
            self._settle(state, credit_cap_ms=cap)

    # -- summaries ------------------------------------------------------

    def outcome_of(self, did: int) -> Optional[DecisionOutcome]:
        """The settled outcome for one decision id, if settled."""
        for outcome in self.outcomes:
            if outcome.did == did:
                return outcome
        return None

    def waste_by_func(self) -> Dict[str, float]:
        """Total keep-warm waste (mb-ms) per function."""
        totals: Dict[str, float] = {}
        for waste in self.wastes:
            totals[waste.func] = (totals.get(waste.func, 0.0)
                                  + waste.waste_mb_ms)
        return totals

    def penalty_by_func(self) -> Dict[str, float]:
        """Realized eviction-caused cold-start penalty (ms) per function.

        Charges each settled decision's penalty to its victims'
        functions (split evenly across distinct victim functions when a
        REPLACE evicted several)."""
        totals: Dict[str, float] = {}
        for outcome in self.outcomes:
            funcs = sorted({func for _cid, func, _mb in outcome.victims})
            if not funcs:
                continue
            share_ms = outcome.penalty_ms / len(funcs)
            for func in funcs:
                totals[func] = totals.get(func, 0.0) + share_ms
        return totals


def resolve(records: Iterable[Dict], events: Iterable[Event],
            horizon_ms: float = DEFAULT_HORIZON_MS,
            credit_ms_per_mb_ms: float = 0.0,
            metrics=None) -> OutcomeResolver:
    """Offline resolution: merge and replay a finished run's streams.

    ``records`` is a :class:`~repro.obs.audit.DecisionAudit`'s records
    (or a parsed sidecar), ``events`` an
    :class:`~repro.sim.eventlog.EventLog`'s events, each in time order
    (as a run emits them). The streams are merged lazily, one element of
    each held at a time, and records go before events at equal
    timestamps, reproducing live emission order (a decision precedes
    the evictions it causes).
    """
    resolver = OutcomeResolver(horizon_ms=horizon_ms,
                               credit_ms_per_mb_ms=credit_ms_per_mb_ms,
                               metrics=metrics)
    emit = resolver.emit
    for _, item in heapq.merge(
            _in_time_order("records", ((r["t"], r) for r in records)),
            _in_time_order("events", ((e.time_ms, e) for e in events)),
            key=itemgetter(0)):
        emit(item)
    resolver.finish()
    return resolver


def _in_time_order(name: str, timed: Iterable[Tuple[float, object]]):
    """Pass ``(t, item)`` pairs through, refusing a stream that goes back
    in time: the lazy merge would order it wrongly without a word."""
    last = float("-inf")
    for position, (t, item) in enumerate(timed):
        if t < last:
            raise ValueError(
                f"resolve: {name}[{position}] at t={t!r} precedes the one "
                f"before it at t={last!r}; streams must be in time order")
        last = t
        yield t, item
