"""Outside-in per-layer tracing of one replay.

:meth:`Tracer.install` wraps, on one fresh orchestrator before ``run()``,
the calls into each layer's public functions: engine callback
registration (``at``/``every``/``bind_stream``, so every engine ->
orchestrator dispatch is timed by callback name), ``advance_periodic``
and ``reschedule``, the policy's decision points and ``on_*`` hooks, the
``PolicyContext`` facade, ``Worker.slot_available`` and the probes'
entry points. Wrappers are instance attributes of objects that live for
one replay only. The metrics instruments are the exception: their
children are created lazily, so :func:`counting_instruments` patches the
instrument classes for the duration of one replay and restores them.

Spans nest. A span's self time is its duration minus its children's;
``engine.self_s`` is the ``Simulator.run`` wall time not covered by a
top-level span from another layer. Counts are deterministic and must
repeat exactly; times are loose.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List

from repro.obs import metrics as obs_metrics

#: Engine callback ``__name__`` -> span key. Anything else is reported
#: under ``orchestrator.other`` with its name listed.
CALLBACKS = {
    "_dispatch_batch": "orchestrator.arrival",
    "_on_arrival": "orchestrator.arrival",
    "_on_complete": "orchestrator.completion",
    "_on_ready": "orchestrator.ready",
    "_sample_memory": "orchestrator.sample",
    "_retry_pending": "orchestrator.retry",
    "_run_maintenance": "orchestrator.maintenance",
    "sample": "obs.recorder_tick",
}

#: Span keys of the policy's own decision points.
POLICY_SPANS = {
    "scale": "policy.scale",
    "make_room": "policy.make_room",
    "priorities": "policy.priorities",
    "on_maintenance": "policy.maintenance",
    "maintenance_horizon": "policy.horizon",
}

#: Every span key other than the per-hook ones, created up front so each
#: replay reports the same keys whether or not a span fired.
SPANS = (*CALLBACKS.values(), "orchestrator.other", *POLICY_SPANS.values(),
         "orchestrator.provisions_in_flight", "orchestrator.evict",
         "engine.ff", "obs.event_log", "obs.audit", "obs.attribution",
         "obs.recorder_start")

#: Plain counters (no time).
TALLIES = ("engine.scheduled", "engine.reschedules",
           "engine.ff_ticks_skipped", "orchestrator.retry_useful",
           "orchestrator.maintenance_useful",
           "orchestrator.waiting_functions_scanned",
           "orchestrator.speculate_calls", "orchestrator.speculate_ok",
           "policy.make_room_ok", "policy.candidates_ranked",
           "worker.slot_probes", "worker.slot_hits", "obs.metrics_updates")

#: Span keys whose call count has a name of its own.
CALL_NAMES = {"orchestrator.retry": "orchestrator.retry_passes",
              "orchestrator.maintenance": "orchestrator.maintenance_ticks",
              "engine.ff": "engine.ff_calls"}

#: Every per-layer metric a traced run reports, with its unit.
UNITS: Dict[str, str] = {
    "traces.generate_s": "s", "traces.pack_s": "s", "traces.rows": "count",
    "engine.self_s": "s", "engine.events": "count",
    "engine.events_per_request": "ratio", "engine.scheduled": "count",
    "engine.reschedules": "count", "engine.periodic_ticks": "count",
    "engine.ff_calls": "count", "engine.ff_ticks_skipped": "count",
    "engine.ff_s": "s",
    "orchestrator.arrival_s": "s", "orchestrator.arrival_calls": "count",
    "orchestrator.completion_s": "s",
    "orchestrator.completion_calls": "count",
    "orchestrator.ready_s": "s", "orchestrator.ready_calls": "count",
    "orchestrator.sample_s": "s", "orchestrator.sample_calls": "count",
    "orchestrator.other_s": "s", "orchestrator.other_calls": "count",
    "orchestrator.retry_s": "s", "orchestrator.retry_passes": "count",
    "orchestrator.retry_useful_ratio": "ratio",
    "orchestrator.maintenance_s": "s",
    "orchestrator.maintenance_ticks": "count",
    "orchestrator.maintenance_useful_ratio": "ratio",
    "orchestrator.provisions_in_flight_calls": "count",
    "orchestrator.provisions_in_flight_s": "s",
    "orchestrator.waiting_functions_scanned": "count",
    "orchestrator.speculate_calls": "count",
    "orchestrator.speculate_ok_ratio": "ratio",
    "orchestrator.evict_calls": "count", "orchestrator.evict_s": "s",
    "orchestrator.retry_maintenance_share": "ratio",
    "policy.scale_calls": "count", "policy.scale_s": "s",
    "policy.make_room_calls": "count", "policy.make_room_s": "s",
    "policy.make_room_ok_ratio": "ratio",
    "policy.priorities_calls": "count", "policy.priorities_s": "s",
    "policy.candidates_ranked": "count",
    "policy.maintenance_calls": "count", "policy.maintenance_s": "s",
    "policy.horizon_calls": "count",
    "policy.hooks_calls": "count", "policy.hooks_s": "s",
    "worker.slot_probes": "count", "worker.warm_hit_ratio": "ratio",
    "obs.event_log_calls": "count", "obs.event_log_s": "s",
    "obs.audit_calls": "count", "obs.audit_s": "s",
    "obs.attribution_calls": "count", "obs.attribution_s": "s",
    "obs.recorder_calls": "count", "obs.recorder_s": "s",
    "obs.metrics_updates": "count",
    "trace.overhead": "ratio", "obs.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span and count accumulator for one replay."""

    def __init__(self) -> None:
        #: span key -> [calls, self ns]
        self.spans: Dict[str, List[int]] = {key: [0, 0] for key in SPANS}
        #: counter name -> [count]
        self.tally: Dict[str, List[int]] = {key: [0] for key in TALLIES}
        self.other_names: set = set()
        self.run_ns = 0
        self._sim = None
        self._stack: List[int] = []
        #: [ns covered by top-level spans of layers other than the engine]
        self._top = [0]
        self._handle_types: set = set()
        self._in_every = False
        self._callbacks: Dict[Callable, Callable] = {}

    # -- wrapper factories ---------------------------------------------

    def span(self, key: str, fn: Callable, engine: bool = False) -> Callable:
        """``fn`` timed as span ``key``; an engine span never counts as
        top-level time taken away from the engine."""
        cell = self.spans.setdefault(key, [0, 0])
        stack = self._stack
        top = self._top
        clock = perf_counter_ns

        def wrapped(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += 1
                cell[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                elif not engine:
                    top[0] += dt

        wrapped.__name__ = getattr(fn, "__name__", key)
        return wrapped

    def _useful(self, key: str, fn: Callable, *probes: List[int]) -> Callable:
        """Span ``key`` that also counts, under ``<key>_useful``, the calls
        during which any of ``probes`` moved."""
        inner = self.span(key, fn)
        useful = self.tally[key + "_useful"]

        def wrapped(*args):
            before = sum(p[0] for p in probes)
            inner(*args)
            if sum(p[0] for p in probes) != before:
                useful[0] += 1

        wrapped.__name__ = inner.__name__
        return wrapped

    def _callback(self, callback: Callable) -> Callable:
        wrapped = self._callbacks.get(callback)
        if wrapped is None:
            name = getattr(callback, "__name__", repr(callback))
            key = CALLBACKS.get(name)
            if key is None:
                key = "orchestrator.other"
                self.other_names.add(name)
            if key == "orchestrator.retry":
                wrapped = self._useful(key, callback,
                                       self.tally["policy.make_room_ok"])
            elif key == "orchestrator.maintenance":
                wrapped = self._useful(
                    key, callback,
                    self.spans.setdefault("policy.on_provision_started",
                                          [0, 0]),
                    self.spans["orchestrator.evict"])
            else:
                wrapped = self.span(key, callback)
            self._callbacks[callback] = wrapped
        return wrapped

    # -- installation --------------------------------------------------

    def install(self, orch) -> None:
        """Wrap every traced entry point of a fresh, not-yet-run ``orch``."""
        self._install_engine(orch.sim)
        self._install_policy(orch.policy)
        self._install_facade(orch)
        for worker in orch.workers():
            self._install_worker(worker)
        self._install_probes(orch)

    def _install_engine(self, sim) -> None:
        scheduled = self.tally["engine.scheduled"]
        reschedules = self.tally["engine.reschedules"]
        skipped = self.tally["engine.ff_ticks_skipped"]
        orig_at, orig_every = sim.at, sim.every
        orig_bind, orig_run = sim.bind_stream, sim.run
        orig_reschedule = sim.reschedule
        handle_types = self._handle_types

        def at(time, callback, *args):
            scheduled[0] += 1
            # Periodic handles re-arm themselves through at(); they stay
            # unwrapped so the engine still classifies them as periodic.
            if not self._in_every and type(callback) not in handle_types:
                callback = self._callback(callback)
            return orig_at(time, callback, *args)

        def every(interval, callback, *args, start_delay=None):
            wrapped = self._callback(callback)
            self._in_every = True
            try:
                handle = orig_every(interval, wrapped, *args,
                                    start_delay=start_delay)
            finally:
                self._in_every = False
            handle_types.add(type(handle))
            return handle

        def bind_stream(times, dispatch, start=0):
            return orig_bind(times, self._callback(dispatch), start)

        def reschedule(event, time):
            reschedules[0] += 1
            return orig_reschedule(event, time)

        advance = self.span("engine.ff", sim.advance_periodic, engine=True)

        def advance_periodic(boundary, replay):
            ticks = advance(boundary, replay)
            skipped[0] += ticks
            return ticks

        def run(until=None):
            t0 = perf_counter_ns()
            try:
                return orig_run(until)
            finally:
                self.run_ns += perf_counter_ns() - t0

        sim.at, sim.every, sim.bind_stream = at, every, bind_stream
        sim.reschedule, sim.advance_periodic, sim.run = (
            reschedule, advance_periodic, run)
        self._sim = sim

    def _install_policy(self, policy) -> None:
        for name, key in POLICY_SPANS.items():
            setattr(policy, name, self.span(key, getattr(policy, name)))
        for name in dir(policy):
            if name.startswith("on_") and name != "on_maintenance":
                setattr(policy, name,
                        self.span("policy." + name, getattr(policy, name)))
        make_room, priorities = policy.make_room, policy.priorities
        ok = self.tally["policy.make_room_ok"]
        ranked = self.tally["policy.candidates_ranked"]

        def counted_make_room(*args, **kwargs):
            success = make_room(*args, **kwargs)
            if success:
                ok[0] += 1
            return success

        def counted_priorities(containers, now):
            ranked[0] += len(containers)
            return priorities(containers, now)

        policy.make_room = counted_make_room
        policy.priorities = counted_priorities

    def _install_facade(self, orch) -> None:
        orch.provisions_in_flight = self.span(
            "orchestrator.provisions_in_flight", orch.provisions_in_flight)
        orch.evict = self.span("orchestrator.evict", orch.evict)
        waiting, speculate = orch.waiting_functions, orch.speculate_for
        scanned = self.tally["orchestrator.waiting_functions_scanned"]
        calls = self.tally["orchestrator.speculate_calls"]
        ok = self.tally["orchestrator.speculate_ok"]

        def waiting_functions():
            funcs = waiting()
            scanned[0] += len(funcs)
            return funcs

        def speculate_for(func):
            calls[0] += 1
            success = speculate(func)
            if success:
                ok[0] += 1
            return success

        orch.waiting_functions = waiting_functions
        orch.speculate_for = speculate_for

    def _install_worker(self, worker) -> None:
        probes = self.tally["worker.slot_probes"]
        hits = self.tally["worker.slot_hits"]
        slot_available = worker.slot_available

        def probe(func):
            probes[0] += 1
            container = slot_available(func)
            if container is not None:
                hits[0] += 1
            return container

        worker.slot_available = probe

    def _install_probes(self, orch) -> None:
        if orch.event_log is not None:
            orch.event_log.record = self.span("obs.event_log",
                                              orch.event_log.record)
        if orch.audit is not None:
            orch.audit.emit = self.span("obs.audit", orch.audit.emit)
        if orch.recorder is not None:
            orch.recorder.note_start = self.span("obs.recorder_start",
                                                 orch.recorder.note_start)
        tracker = orch.attribution
        if tracker is not None:
            for name in ("begin_provision", "note_removal", "note_crash"):
                setattr(tracker, name,
                        self.span("obs.attribution", getattr(tracker, name)))

    # -- results -------------------------------------------------------

    def report(self, rows: int) -> Dict[str, Dict[str, float]]:
        """Counts (exact) and self times (seconds) of the finished replay:
        ``<span>_calls`` and ``<span>_s`` for every span, every tally, and
        the per-layer totals built from them."""
        counts = {key: cell[0] for key, cell in self.tally.items()}
        times: Dict[str, float] = {}
        for key, (calls, ns) in self.spans.items():
            counts[CALL_NAMES.get(key, key + "_calls")] = calls
            times[key + "_s"] = ns / 1e9
        hooks = [k for k in self.spans if k.startswith("policy.on_")]
        counts.update({
            "traces.rows": rows,
            "engine.events": self._sim.processed,
            "engine.periodic_ticks": (counts["orchestrator.sample_calls"]
                                      + counts["orchestrator.maintenance_ticks"]
                                      + counts["obs.recorder_tick_calls"]),
            "policy.hooks_calls": sum(self.spans[k][0] for k in hooks),
            "obs.recorder_calls": (counts["obs.recorder_tick_calls"]
                                   + counts["obs.recorder_start_calls"]),
        })
        run_s = self.run_ns / 1e9
        times.update({
            "engine.replay_s": run_s,
            "engine.self_s": run_s - self._top[0] / 1e9,
            "policy.hooks_s": sum(self.spans[k][1] for k in hooks) / 1e9,
            "obs.recorder_s": (times["obs.recorder_tick_s"]
                               + times["obs.recorder_start_s"]),
        })
        return {"counts": counts, "times_s": times}


def ratios(counts: Dict[str, int], times: Dict[str, float]
           ) -> Dict[str, float]:
    """Derived per-layer ratios, each with its base in ``counts``."""
    backlog_s = (times["orchestrator.retry_s"]
                 + times["orchestrator.maintenance_s"]
                 + times["policy.maintenance_s"]
                 + times["orchestrator.provisions_in_flight_s"])
    return {
        "engine.events_per_request": _ratio(counts["engine.events"],
                                            counts["traces.rows"]),
        "orchestrator.retry_useful_ratio": _ratio(
            counts["orchestrator.retry_useful"],
            counts["orchestrator.retry_passes"]),
        "orchestrator.maintenance_useful_ratio": _ratio(
            counts["orchestrator.maintenance_useful"],
            counts["orchestrator.maintenance_ticks"]),
        "orchestrator.speculate_ok_ratio": _ratio(
            counts["orchestrator.speculate_ok"],
            counts["orchestrator.speculate_calls"]),
        "orchestrator.retry_maintenance_share": _ratio(
            backlog_s, times["engine.replay_s"]),
        "policy.make_room_ok_ratio": _ratio(
            counts["policy.make_room_ok"], counts["policy.make_room_calls"]),
        "worker.warm_hit_ratio": _ratio(counts["worker.slot_hits"],
                                        counts["worker.slot_probes"]),
    }


@contextmanager
def counting_instruments(tracer: Tracer) -> Iterator[None]:
    """Count every metrics-instrument update while the block runs.

    Instrument children are slotted and created lazily, so the count is
    taken by patching the instrument classes; they are restored on exit.
    """
    updates = tracer.tally["obs.metrics_updates"]
    patched = [(cls, name, getattr(cls, name))
               for cls, names in ((obs_metrics.Counter, ("inc",)),
                                  (obs_metrics.Gauge, ("set", "inc", "dec")),
                                  (obs_metrics.Histogram, ("observe",)))
               for name in names]

    def counted(method):
        def wrapped(self, *args):
            updates[0] += 1
            return method(self, *args)
        return wrapped

    try:
        for cls, name, method in patched:
            setattr(cls, name, counted(method))
        yield
    finally:
        for cls, name, method in patched:
            setattr(cls, name, method)
