"""Discrete-event simulation engine.

A minimal, deterministic event loop built on a binary heap. All components of
the FaaS simulator (:mod:`repro.sim.orchestrator`, policies with periodic
maintenance, metric samplers) schedule work through a single
:class:`Simulator` instance, which owns the virtual clock.

Time is measured in **milliseconds** of virtual time throughout the library.

Determinism: events that fire at the same timestamp are executed in the order
they were scheduled (a monotonically increasing sequence number breaks ties),
so a simulation with the same inputs always produces the same outputs.

Liveness bookkeeping: the simulator keeps live counters of queued events —
total non-cancelled (:meth:`Simulator.pending`) and non-cancelled
*non-periodic* ones (``_has_real_events``) — updated on push, cancel and pop.
Both queries are therefore O(1) instead of O(heap); without the counters a
periodic tick (memory sampling, policy maintenance) over a trace whose
arrivals are all scheduled up front degrades to a quadratic scan. The
counter-free scanning implementations are retained behind ``naive=True`` for
differential testing.

Arrival stream (the packed-trace fast path): instead of scheduling every
trace arrival as its own heap event up front, :meth:`Simulator.bind_stream`
attaches a sorted timestamp column replayed *outside* the heap. The run
loop merges the stream against the heap top with two documented rules that
make the merged order bit-identical to the classic all-events-up-front
schedule:

* a stream arrival fires **before** any heap event carrying the same
  timestamp — in classic mode arrivals are scheduled first and therefore
  hold the smallest sequence numbers, winning every same-time tie;
* consecutive stream entries with an identical timestamp dispatch as
  **one batch** (a single dispatch callback per distinct timestamp), in
  row order — exactly the (time, seq) order the classic schedule yields.

The heap then only ever holds the *dynamic* events (completions, readies,
retries, crashes, periodic ticks) — typically a few hundred entries
instead of one per trace row — so every push/pop is cheaper and the
up-front O(n) scheduling pass disappears. Remaining stream rows count as
real events for liveness, keeping periodic-tick self-termination
identical.

Inert periodic ticks (see ``SimulationConfig.fast_forward``): a periodic
handle may carry a ``horizon`` callable, returning the time before which
its ticks are provably no-ops, or ``None`` when that is unknown. When the
run loop pops such a tick below the horizon while real events remain, it
hands the run to :meth:`Simulator.advance_periodic`, which advances that
tick and every later tick of the handle before the next other event in
one step, drawing sequence numbers, counting ``processed`` and leaving
the heap exactly as if each tick had fired.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf, nextafter
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events are created via :meth:`Simulator.schedule` / :meth:`Simulator.at`
    and may be cancelled before they fire. Cancelled events stay in the heap
    but are skipped when popped (lazy deletion), which keeps cancellation
    O(1). :meth:`Simulator.reschedule` and :meth:`Simulator.queue_at`
    move a queued event the same way: the old heap entry stays behind as
    a *stale* entry (its stored sequence number no longer matches
    ``event.seq``) and is skipped on pop.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "real",
                 "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Non-periodic ("real") — cached at creation so the pop path
        #: avoids an isinstance check per event.
        self.real = True
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call multiple times."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._on_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} {name}{state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    ``naive=True`` switches :meth:`pending` and ``_has_real_events`` back to
    full-heap scans (the pre-index reference behaviour) while the counters
    keep being maintained, so the two implementations can be compared.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self, start_time: float = 0.0, naive: bool = False):
        self._now = float(start_time)
        # Heap entries are (time, seq, Event) tuples: ordering is
        # resolved by C-level tuple comparison (seq is unique, so the
        # Event itself is never compared), which keeps the per-event
        # heap cost free of Python-level __lt__ calls.
        self._heap: list = []
        self._seq = itertools.count()
        self._running = False
        self.naive = naive
        #: Non-cancelled events still queued (heap only; the arrival
        #: stream is accounted separately so heap-scan cross-checks stay
        #: valid).
        self._live = 0
        #: Non-cancelled, non-periodic ("real") events still queued.
        self._real = 0
        #: Events executed so far (throughput accounting; stream
        #: arrivals and analytically advanced periodic ticks count one
        #: each, exactly as their classic heap-event counterparts).
        self.processed = 0
        #: Optional arrival stream (see :meth:`bind_stream`).
        self._stream_times = None
        self._stream_dispatch = None
        self._stream_pos = 0
        self._stream_len = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.at(self._now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any],
           *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if not self._now <= time < inf:
            raise ValueError(self._bad_time("schedule", time))
        event = Event(time, next(self._seq), callback, args)
        event._sim = self
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        if isinstance(callback, _Periodic):
            event.real = False
        else:
            self._real += 1
        return event

    def _bad_time(self, verb: str, time: float) -> str:
        if time < self._now:
            return f"cannot {verb} at {time} before now={self._now}"
        return (f"cannot {verb} at non-finite time {time}: the replay "
                f"would never reach it")

    def every(self, interval: float, callback: Callable[..., Any],
              *args: Any,
              start_delay: Optional[float] = None) -> "_PeriodicHandle":
        """Schedule ``callback`` to run every ``interval`` ms.

        The callback keeps rescheduling itself for as long as other (non
        periodic) events remain pending, so periodic maintenance never keeps
        a simulation alive on its own. Returns a handle whose ``cancel()``
        stops the whole chain. The owner may set the handle's
        ``horizon`` afterwards (see :meth:`run`).
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        handle = _PeriodicHandle(self, interval, callback, args)
        first_delay = interval if start_delay is None else start_delay
        handle.event = self.schedule(first_delay, handle)
        return handle

    def bind_stream(self, times, dispatch: Callable[[int, int], Any],
                    start: int = 0) -> None:
        """Attach a sorted arrival stream replayed outside the heap.

        ``times`` is an indexable column of non-decreasing timestamps
        (typically a packed trace's ``arrival_ms`` array);
        ``dispatch(lo, hi)`` is invoked with the clock already advanced
        to ``times[lo]`` and must process rows ``[lo, hi)`` — a maximal
        run of identical timestamps — in row order. Stream rows count as
        real events for liveness and ``processed``. See the module
        docstring for the merge rules that keep the replay bit-identical
        to scheduling every arrival up front.
        """
        if self._running:
            raise RuntimeError("cannot bind a stream while running")
        n = len(times)
        if n > start:
            prev = times[start]
            if not self._now <= prev < inf:
                if prev < self._now:
                    raise ValueError("stream starts in the past")
                raise ValueError(
                    f"stream row {start} has non-finite time {prev}")
            for i in range(start + 1, n):
                t = times[i]
                # One chained compare rejects both a step back and a
                # non-finite time (NaN fails every comparison).
                if not prev <= t < inf:
                    if t < prev:
                        raise ValueError(
                            f"stream timestamps must be non-decreasing "
                            f"(row {i}: {t} after {prev})")
                    raise ValueError(
                        f"stream row {i} has non-finite time {t}")
                prev = t
        self._stream_times = times
        self._stream_dispatch = dispatch
        self._stream_pos = start
        self._stream_len = n

    def reschedule(self, event: Event, time: float) -> None:
        """Move a queued (uncancelled, unfired) event to absolute ``time``.

        Heap entries are immutable ``(time, seq, Event)`` tuples, so the
        event cannot be moved in place: a fresh entry is pushed with a
        fresh sequence number — burning one seq, exactly like a
        fired-and-rescheduled tick — and the old entry becomes *stale*
        (its stored seq no longer equals ``event.seq``), to be skipped on
        pop like a cancelled entry. The liveness counters are untouched:
        logically the event was queued before and is queued after.
        """
        if event.cancelled:
            raise ValueError("cannot reschedule a cancelled event")
        if event._sim is not self:
            raise ValueError("event is not queued on this simulator")
        if not self._now <= time < inf:
            raise ValueError(self._bad_time("reschedule", time))
        event.time = time
        event.seq = next(self._seq)
        heapq.heappush(self._heap, (time, event.seq, event))

    def draw_seq(self, time: float) -> int:
        """Draw the next sequence number for a key at ``time`` without
        queueing anything.

        A caller that keeps event keys outside the heap (the
        orchestrator's per-worker completion head, which queues only
        the earliest of a worker's running executions) draws each key
        at the moment a :meth:`schedule`/:meth:`reschedule` call would
        have, so queueing it later with :meth:`queue_at` ties exactly
        as that call would have. ``time`` is checked as :meth:`at`
        checks it: a key the replay could never reach fails here, even
        if it is never queued.
        """
        if not self._now <= time < inf:
            raise ValueError(self._bad_time("draw a key", time))
        return next(self._seq)

    def draw_seqs(self, n: int) -> int:
        """Draw ``n`` consecutive sequence numbers at once and return the
        first. Equivalent to ``n`` :meth:`draw_seq` calls, minus their
        time checks, which the caller makes itself."""
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        return first

    def queue_at(self, event: Event, time: float, seq: int,
                 args: Optional[tuple] = None, push: bool = True) -> None:
        """Queue ``event`` under the key ``(time, seq)`` drawn earlier
        with :meth:`draw_seq`, replacing its arguments when ``args`` is
        given.

        The event may be queued already (it moves, and any entry under
        its old key turns stale, as with :meth:`reschedule`) or may have
        fired (it is re-attached and counts as live again).
        ``push=False`` means the heap still holds an entry under exactly
        this key, left there while the event was pointed elsewhere;
        pointing the event back revives that entry, and pushing a second
        one would make the event fire twice.
        """
        if event.cancelled:
            raise ValueError("cannot queue a cancelled event")
        if not self._now <= time < inf:
            raise ValueError(self._bad_time("queue", time))
        if event._sim is None:
            event._sim = self
            self._live += 1
            if event.real:
                self._real += 1
        elif event._sim is not self:
            raise ValueError("event is queued on another simulator")
        event.time = time
        event.seq = seq
        if args is not None:
            event.args = args
        if push:
            heapq.heappush(self._heap, (time, seq, event))

    def next_time(self) -> float:
        """Earliest time at which anything queued may fire: the heap
        head or the next stream row, ``inf`` when both are empty. A
        cancelled or stale heap head still counts, so this is a lower
        bound on the next event's time."""
        head = self._heap[0][0] if self._heap else inf
        if self._stream_pos < self._stream_len:
            row = self._stream_times[self._stream_pos]
            if row < head:
                return row
        return head

    def head_event(self) -> Optional[Event]:
        """The live heap event that would fire next (arrival-stream rows
        aside), or None. Cancelled and stale entries are skipped, not
        removed; O(n), for diagnostics."""
        live = [entry for entry in self._heap
                if not entry[2].cancelled and entry[1] == entry[2].seq]
        return min(live)[2] if live else None

    def _stream_remaining(self) -> int:
        return self._stream_len - self._stream_pos

    def pending(self) -> int:
        """Number of (non-cancelled) events still queued. O(1).

        Includes undispatched arrival-stream rows: each is one future
        event, exactly as if it had been scheduled up front.
        """
        if self.naive:
            return (sum(1 for _, s, e in self._heap
                        if not e.cancelled and s == e.seq)
                    + self._stream_remaining())
        return self._live + self._stream_remaining()

    def _on_cancel(self, event: Event) -> None:
        """Counter bookkeeping for a freshly cancelled queued event."""
        self._live -= 1
        if event.real:
            self._real -= 1

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queues drain or virtual time passes ``until``.

        Only "real" events count toward liveness: periodic events scheduled
        via :meth:`every` stop rescheduling once they are the only thing
        left, so ``run()`` terminates.

        When an arrival stream is bound (:meth:`bind_stream`) the loop
        merges it against the heap: a stream row wins every same-timestamp
        tie, and equal-timestamp rows dispatch as one batch in row order
        (see the module docstring for why this is bit-identical to the
        classic all-events-up-front schedule).

        A live periodic tick whose handle has a ``horizon`` is offered to
        it while real events remain. When the tick lies strictly before
        the horizon it returns, the loop hands the run to
        :meth:`advance_periodic`, bounded by that horizon, the next
        stream row and ``until``; each advanced tick is one the classic
        loop would have fired as a no-op.
        """
        self._running = True
        heap = self._heap
        stop = inf if until is None else nextafter(until, inf)
        try:
            while True:
                si = self._stream_pos
                if si < self._stream_len:
                    times = self._stream_times
                    t_arr = times[si]
                    if not heap or t_arr <= heap[0][0]:
                        # Stream arrival(s) fire next.
                        if until is not None and t_arr > until:
                            self._now = until
                            return
                        n = self._stream_len
                        j = si + 1
                        while j < n and times[j] == t_arr:
                            j += 1
                        self._stream_pos = j
                        self._now = t_arr
                        self.processed += j - si
                        self._stream_dispatch(si, j)
                        continue
                if not heap:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled or entry[1] != event.seq:
                    # Cancelled (counters were adjusted when cancel()
                    # ran) or stale, left behind by reschedule()/
                    # queue_at(): the event lives on under its newer key.
                    heapq.heappop(heap)
                    continue
                time = entry[0]
                if time >= stop:
                    # Past ``until``: the event stays queued for a later
                    # resume, so the counters are untouched.
                    self._now = until
                    return
                if not event.real:
                    handle = event.callback
                    if (handle.horizon is not None and not handle.stopped
                            and self._has_real_events()):
                        self._now = time
                        horizon = handle.horizon()
                        if horizon is not None and time < horizon:
                            boundary = horizon if horizon < stop else stop
                            if si < self._stream_len:
                                t_arr = self._stream_times[si]
                                if t_arr < boundary:
                                    boundary = t_arr
                            self.advance_periodic(boundary, {handle: None})
                            continue
                heapq.heappop(heap)
                if time < self._now:  # pragma: no cover - invariant
                    raise RuntimeError("event time went backwards")
                self._live -= 1
                if event.real:
                    self._real -= 1
                # Detach so a late cancel() of an already-fired event (e.g.
                # a periodic handle cancelled after its last tick) cannot
                # decrement the counters a second time.
                event._sim = None
                self._now = time
                self.processed += 1
                event.callback(*event.args)
        finally:
            self._running = False

    def advance_periodic(self, boundary: float, replay: dict) -> int:
        """Advance periodic ticks strictly before ``boundary`` in closed
        form.

        ``replay`` maps each :class:`_PeriodicHandle` whose ticks are
        provably no-ops before ``boundary`` to ``None``. The caller
        guarantees that nothing else fires before ``boundary``: no stream
        row precedes it, and real events remain queued throughout, so
        the classic loop would fire and re-arm every one of those ticks.

        While the live heap head is a tick of a mapped handle before
        ``boundary``, the run of that handle's ticks up to the next other
        heap event is advanced in one step. A tick that ties that event
        goes after it: its sequence number, drawn by the tick before it,
        is newer than any already queued. The run's times come from
        repeated float addition, exactly as each tick re-arms at
        ``now + interval``; the clock ends on the last advanced tick,
        ``processed`` and the sequence counter move by the run's length,
        and the handle's event is pushed once, under the key the last
        tick would have drawn. A stopped handle's tick is popped without
        re-arming, as the classic loop fires it. Cancelled and stale
        entries before ``boundary`` are dropped as the loop would drop
        them. Heap contents and every future ``(time, seq)`` tie-break
        therefore stay bit-identical to firing each tick.

        Returns the number of ticks advanced.
        """
        heap = self._heap
        advanced = 0
        while heap:
            time0, seq0, event = heap[0]
            if event.cancelled or seq0 != event.seq:
                # Dropped as the run loop would drop it. A dead entry at
                # or past the boundary stays: whatever fires there may
                # revive it (queue_at with push=False).
                if time0 >= boundary:
                    break
                heapq.heappop(heap)
                continue
            if time0 >= boundary:
                break
            handle = event.callback
            if event.real or handle not in replay:
                break
            heapq.heappop(heap)
            if handle.stopped:
                # The classic pop of a stopped-but-uncancelled tick: it
                # fires as a no-op and does not re-arm.
                self._now = time0
                self.processed += 1
                advanced += 1
                self._live -= 1
                event._sim = None
                continue
            # The run ends before the next live heap entry; drop the
            # dead entries below the boundary ahead of it first.
            limit = boundary
            while heap:
                head_time, head_seq, head = heap[0]
                if head_time >= limit:
                    break
                if head.cancelled or head_seq != head.seq:
                    heapq.heappop(heap)
                    continue
                limit = head_time
                break
            interval = handle.interval
            time = time0
            n = 1
            after = time + interval
            while after < limit:
                time = after
                n += 1
                after = time + interval
            self._now = time
            self.processed += n
            advanced += n
            # Re-arm by reusing the popped entry: net counter change is
            # zero, as for n classic pop/push pairs.
            event.time = after
            event.seq = self.draw_seqs(n) + n - 1
            heapq.heappush(heap, (after, event.seq, event))
            handle.event = event
        return advanced

    def _has_real_events(self) -> bool:
        # Undispatched stream rows are future real events: periodic
        # self-termination must not kick in while arrivals remain.
        if self._stream_pos < self._stream_len:
            return True
        if self.naive:
            return any(not e.cancelled and s == e.seq
                       and not isinstance(e.callback, _Periodic)
                       for _, s, e in self._heap)
        return self._real > 0

    def _scan_counts(self) -> tuple:
        """(live, real) recomputed by scanning — test/debug cross-check.

        Stale entries left behind by :meth:`reschedule` and
        :meth:`queue_at` are excluded: like cancelled entries they
        occupy heap slots but no longer represent a queued event.
        """
        live = sum(1 for _, s, e in self._heap
                   if not e.cancelled and s == e.seq)
        real = sum(1 for _, s, e in self._heap
                   if not e.cancelled and s == e.seq
                   and not isinstance(e.callback, _Periodic))
        return live, real


class _Periodic:
    """Marker type for periodic callbacks (see Simulator._has_real_events)."""


class _PeriodicHandle(_Periodic):
    """Self-rescheduling wrapper created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "callback", "args", "event", "stopped",
                 "horizon")

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[..., Any], args: tuple):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.event: Optional[Event] = None
        self.stopped = False
        #: Optional ``() -> float | None``: the time before which this
        #: handle's ticks are provably no-ops in the current state, or
        #: ``None`` when unknown (see :meth:`Simulator.run`).
        self.horizon: Optional[Callable[[], Optional[float]]] = None

    @property
    def __name__(self) -> str:  # pragma: no cover - debug aid
        return f"periodic:{getattr(self.callback, '__name__', '?')}"

    def cancel(self) -> None:
        """Stop the periodic chain; pending firings are dropped."""
        self.stopped = True
        if self.event is not None:
            self.event.cancel()

    def __call__(self) -> None:
        if self.stopped:
            return
        # Run (and reschedule) only while non-periodic work remains;
        # otherwise a periodic task would keep the simulation alive forever
        # and tick past the end of the workload.
        if not self.sim._has_real_events():
            return
        self.callback(*self.args)
        self.event = self.sim.schedule(self.interval, self)
