"""Structured event logging for simulation runs.

An :class:`EventLog` records the control-plane's lifecycle decisions —
arrivals, provision starts/completions, execution starts/ends, evictions —
as typed, timestamped records. It exists for observability: debugging a
policy, tracing one function's containers through a run, or explaining a
single request's latency (``explain_request``).

Logging is opt-in (``Orchestrator(..., event_log=EventLog())``) and adds
one row per event when enabled, nothing when not. For runs too large
to hold in memory, the log can be bounded (``capacity``) and/or fanned
out to streaming :mod:`repro.sim.telemetry` sinks (``sinks``): every
event still reaches each attached sink, while the in-memory buffer keeps
only the newest ``capacity`` events.

The log stores columns of numbers, not objects: times in an
``array('d')``, each kind as a one-byte code, ``func`` and ``detail`` as
``array('i')`` codes into per-log :class:`StringTable`\\ s (a detail
string is kept once however many events carry it), and the three ids in
``array('i')`` columns with the int32 minimum for ``None``; the id
columns widen to ``array('q')`` the first time an id leaves the int32
range. An event costs about 33 bytes, its share of the string tables
included, where string references and ``array('q')`` ids cost about 58
and an ``Event`` tuple with its boxed fields about 130, measured on the
``observed`` benchmark input. Readers see :class:`Event` named
tuples, built on access: :attr:`EventLog.events` is a read-only sequence
view in recording order, and the queries filter on the columns before
they build anything. A :class:`Event` is also what every sink receives;
with no sinks attached :meth:`EventLog.record` builds none.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections.abc import Sequence as SequenceABC
from itertools import chain, islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence


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


#: ``EventKind`` members by column code; each member's ``code`` is its
#: index here (definition order), so recording one reads an attribute.
KINDS = tuple(EventKind)
for _code, _kind in enumerate(KINDS):
    _kind.code = _code
del _code, _kind


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


#: The id columns' ``None``: the int32 minimum, which no id takes.
NO_ID = -(1 << 31)


class StringTable(dict):
    """Codes for strings, assigned in first-seen order.

    ``table[value]`` is ``value``'s code (a new value gets the next one)
    and ``table.strings[code]`` the value, so a column of codes keeps each
    distinct string once.
    """

    __slots__ = ("strings",)

    def __init__(self):
        super().__init__()
        self.strings: List[str] = []

    def __missing__(self, value) -> int:
        code = self[value] = len(self.strings)
        self.strings.append(value)
        return code


class RingView(SequenceABC):
    """Read-only sequence view of a ring store, oldest row first.

    A ring store appends rows until it holds ``capacity`` of them and
    then overwrites the oldest in place: row ``n`` (counting every row
    ever stored) sits in slot ``n % capacity``, and an unbounded store
    is the ring that never wraps. The store supplies ``len()``,
    iteration, its ``dropped`` count and ``_row(slot, number)``, which
    builds the row stored under ``number`` in ``slot``. Indexing
    (negative indexes too) builds one row; a slice returns a list.
    """

    __slots__ = ("_store",)

    def __init__(self, store):
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator:
        return iter(self._store)

    def __getitem__(self, index):
        store = self._store
        size = len(store)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(size))]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("ring view index out of range")
        number = store.dropped + index
        return store._row(number % size, number)


def ring_slots(size: int, dropped: int) -> Iterator[tuple]:
    """``(number, slot)`` of every row a ring store holds, oldest first.

    ``size`` rows are held and ``dropped`` were overwritten, so the
    oldest held row is number ``dropped``, in slot ``dropped % size``.
    """
    if not size:
        return iter(())
    first = dropped % size
    return zip(range(dropped, dropped + size),
               chain(range(first, size), range(first)))


class EventLog:
    """Accumulates control-plane events during a run, as columns.

    :meth:`record` is the probe entry point the orchestrator calls once
    per event: it appends one row to the columns (or, once a bounded
    log is full, overwrites its oldest row) and, only when sinks are
    attached, builds one :class:`Event` and hands it to each sink. The
    orchestrator looks ``record`` up on the log at every call and never
    keeps the bound method, so a wrapper installed on the instance (the
    benchmark's tracer) sees every event.
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
        self._bound = sys.maxsize if capacity is None else capacity
        #: Total events ever recorded (== len(self) + dropped).
        self.recorded = 0
        self._times = array("d")
        self._kinds = array("B")
        self._func_table = StringTable()
        self._detail_table = StringTable()
        self._funcs = array("i")
        self._details = array("i")
        self._cids = array("i")
        self._rids = array("i")
        self._wids = array("i")
        self._sinks = tuple(sinks)

    def attach(self, sink) -> None:
        """Add a telemetry sink; it receives events recorded from now on."""
        self._sinks += (sink,)

    @property
    def sinks(self) -> tuple:
        return self._sinks

    @property
    def dropped(self) -> int:
        """Events rotated out of the bounded in-memory buffer (sinks
        still saw them all)."""
        return self.recorded - len(self._times)

    @property
    def events(self) -> RingView:
        """The held events, oldest first, as a read-only sequence."""
        return RingView(self)

    def record(self, time_ms: float, kind: EventKind, func: str,
               container_id: Optional[int] = None,
               req_id: Optional[int] = None, detail: str = "",
               worker_id: Optional[int] = None) -> None:
        number = self.recorded
        self.recorded = number + 1
        cid = NO_ID if container_id is None else container_id
        rid = NO_ID if req_id is None else req_id
        wid = NO_ID if worker_id is None else worker_id
        # ``get`` first: a hit is the common case, and ``table[key]``
        # on a dict subclass takes the slow lookup path.
        fcode = self._func_table.get(func)
        if fcode is None:
            fcode = self._func_table[func]
        dcode = self._detail_table.get(detail)
        if dcode is None:
            dcode = self._detail_table[detail]
        if number < self._bound:
            try:
                self._cids.append(cid)
                self._rids.append(rid)
                self._wids.append(wid)
            except OverflowError:
                self._widen()
                self._cids.append(cid)
                self._rids.append(rid)
                self._wids.append(wid)
            self._times.append(time_ms)
            self._kinds.append(kind.code)
            self._funcs.append(fcode)
            self._details.append(dcode)
        elif self._bound:
            slot = number % self._bound
            try:
                self._cids[slot] = cid
                self._rids[slot] = rid
                self._wids[slot] = wid
            except OverflowError:
                self._widen()
                self._cids[slot] = cid
                self._rids[slot] = rid
                self._wids[slot] = wid
            self._times[slot] = time_ms
            self._kinds[slot] = kind.code
            self._funcs[slot] = fcode
            self._details[slot] = dcode
        if self._sinks:
            event = Event(time_ms, kind, func, container_id, req_id, detail,
                          worker_id)
            for sink in self._sinks:
                sink.emit(event)

    def _widen(self) -> None:
        """Move the id columns to 64-bit storage, keeping the rows every
        column holds (an append that overflowed may have landed in some
        id columns and not in others)."""
        size = len(self._times)
        self._cids, self._rids, self._wids = (
            array("q", column[:size])
            for column in (self._cids, self._rids, self._wids))

    def close(self) -> None:
        """Close every attached sink (flushes streaming file sinks)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Event]:
        size = len(self._times)
        first = self.dropped % size if size else 0
        columns = [chain(islice(column, first, None), islice(column, first))
                   for column in (self._times, self._kinds, self._funcs,
                                  self._cids, self._rids, self._details,
                                  self._wids)]
        new = tuple.__new__
        funcs, details = self._func_table.strings, self._detail_table.strings
        for t, k, f, c, r, d, w in zip(*columns):
            yield new(Event, (t, KINDS[k], funcs[f],
                              None if c == NO_ID else c,
                              None if r == NO_ID else r, details[d],
                              None if w == NO_ID else w))

    def _row(self, slot: int, number: int = 0) -> Event:
        """The event held in ``slot``."""
        cid, rid, wid = self._cids[slot], self._rids[slot], self._wids[slot]
        return tuple.__new__(Event, (
            self._times[slot], KINDS[self._kinds[slot]],
            self._func_table.strings[self._funcs[slot]],
            None if cid == NO_ID else cid, None if rid == NO_ID else rid,
            self._detail_table.strings[self._details[slot]],
            None if wid == NO_ID else wid))

    def _slots(self) -> Iterator[int]:
        """Slots of the held events, oldest first."""
        return (slot for _, slot in ring_slots(len(self._times),
                                               self.dropped))

    def _where(self, column, value) -> List[Event]:
        """The held events whose ``column`` entry equals ``value``."""
        return [self._row(slot) for slot in self._slots()
                if column[slot] == value]

    # ------------------------------------------------------------------
    # Queries (each filters a column before building any event)

    def of_kind(self, kind: EventKind) -> List[Event]:
        return self._where(self._kinds, kind.code)

    def of_func(self, func: str) -> List[Event]:
        code = self._func_table.get(func)
        return [] if code is None else self._where(self._funcs, code)

    def of_container(self, container_id: Optional[int]) -> List[Event]:
        return self._where(self._cids, NO_ID if container_id is None
                           else container_id)

    def explain_request(self, req_id: int) -> List[Event]:
        """All events involving one request plus its serving container's
        provisioning history — the latency story of that request."""
        mine = self._where(self._rids, req_id)
        containers = {e.container_id for e in mine
                      if e.container_id is not None}
        codes = {EventKind.PROVISION_START.code,
                 EventKind.CONTAINER_READY.code, EventKind.EVICTION.code}
        cids, rids, kinds = self._cids, self._rids, self._kinds
        related = [self._row(slot) for slot in self._slots()
                   if rids[slot] == NO_ID and cids[slot] in containers
                   and kinds[slot] in codes]
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
        start = EventKind.EXEC_START.code
        provision_code = EventKind.PROVISION_START.code
        kinds, rids, cids = self._kinds, self._rids, self._cids
        cold = self._detail_table.get("cold")
        serving_cid = NO_ID
        for slot in self._slots():
            if (kinds[slot] == start and rids[slot] == req_id
                    and self._details[slot] == cold):
                serving_cid = cids[slot]
                break
        if serving_cid == NO_ID:
            return None
        provision = None
        for slot in self._slots():
            if kinds[slot] == provision_code and cids[slot] == serving_cid:
                provision = slot  # last one before exec wins (restores aside)
            elif kinds[slot] == start and rids[slot] == req_id:
                break
        return None if provision is None else self._row(provision)

    def render(self, events: Optional[Iterable[Event]] = None) -> str:
        """Human-readable dump (of a query result or everything)."""
        chosen = self if events is None else events
        return "\n".join(str(e) for e in chosen)
