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
identical. :meth:`Simulator.advance_periodic` additionally lets the
orchestrator's idle fast-forward replay runs of periodic ticks
analytically (see ``SimulationConfig.fast_forward``) while burning
sequence numbers and heap order exactly as if each tick had fired.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
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
        #: Optional idle fast-forward hook, called with the next stream
        #: arrival time when only periodic ticks precede it; returns the
        #: number of ticks it advanced analytically (0 = run normally).
        self.fast_forward_hook: Optional[Callable[[float], int]] = None

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
        stops the whole chain.
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
        """
        self._running = True
        heap = self._heap
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
                    # Heap events strictly precede the next arrival. If
                    # they are all periodic ticks, offer the gap to the
                    # fast-forward hook; a zero return means the hook
                    # declined and the ticks run normally below.
                    if (self.fast_forward_hook is not None
                            and until is None and self._real == 0
                            and self.fast_forward_hook(t_arr)):
                        continue
                if not heap:
                    break
                entry = heapq.heappop(heap)
                event = entry[2]
                if event.cancelled:
                    # Counters were adjusted when cancel() ran.
                    continue
                if entry[1] != event.seq:
                    # Stale entry left behind by reschedule()/queue_at():
                    # the event lives on under its newer (time, seq) key.
                    continue
                if until is not None and event.time > until:
                    # Put it back: the caller may resume later. The event
                    # stays queued, so the counters are untouched.
                    heapq.heappush(heap, entry)
                    self._now = until
                    return
                if event.time < self._now:  # pragma: no cover - invariant
                    raise RuntimeError("event time went backwards")
                self._live -= 1
                if event.real:
                    self._real -= 1
                # Detach so a late cancel() of an already-fired event (e.g.
                # a periodic handle cancelled after its last tick) cannot
                # decrement the counters a second time.
                event._sim = None
                self._now = event.time
                self.processed += 1
                event.callback(*event.args)
        finally:
            self._running = False

    def advance_periodic(self, boundary: float, replay: dict) -> int:
        """Replay periodic ticks strictly before ``boundary`` analytically.

        The caller (the orchestrator's idle fast-forward hook) guarantees
        that every live heap event before ``boundary`` is a periodic tick
        whose :class:`_PeriodicHandle` is a key of ``replay``. Each mapped
        value is either ``None`` — the tick is provably a no-op over the
        gap — or a cheap callable invoked in its place (it must not
        schedule events). Per tick the clock, ``processed`` counter and
        one sequence number are advanced exactly as if the tick had fired
        through :meth:`run`, and the handle's next tick is rescheduled at
        ``time + interval`` by reusing the popped entry — so heap contents
        and every future (time, seq) tie-break stay bit-identical to the
        classic run. A tick scheduled exactly at ``boundary`` is left to
        fire normally. Encountering an event whose callback is not in
        ``replay`` aborts the skip; the run loop then proceeds normally.

        Returns the number of ticks advanced.
        """
        heap = self._heap
        advanced = 0
        while heap and heap[0][0] < boundary:
            time0, seq0, event = heap[0]
            if event.cancelled or seq0 != event.seq:
                # Cancelled or stale-after-reschedule: lazy-deleted here
                # exactly as the run loop would.
                heapq.heappop(heap)
                continue
            handle = event.callback
            if handle not in replay:
                break
            heapq.heappop(heap)
            self._now = time0
            self.processed += 1
            advanced += 1
            if handle.stopped:
                # Mirrors the classic pop of a stopped-but-uncancelled
                # tick: it fires as a no-op and does not reschedule.
                self._live -= 1
                event._sim = None
                continue
            fn = replay[handle]
            if fn is not None:
                fn()
            # Reschedule by reusing the popped entry: net counter change
            # is zero (one pop, one push), matching the classic tick.
            event.time = time0 + handle.interval
            event.seq = next(self._seq)
            heapq.heappush(heap, (event.time, event.seq, event))
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

    __slots__ = ("sim", "interval", "callback", "args", "event", "stopped")

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[..., Any], args: tuple):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.event: Optional[Event] = None
        self.stopped = False

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
