"""Runtime sim-sanitizer: write barrier + consistency assertions.

The static purity rules (``PUR0xx`` in :mod:`repro.lint`) catch direct
writes through sim-owned parameters inside observer modules, but a
probe can still mutate the simulation through aliases the intra-function
taint walk cannot see. The :class:`SimSanitizer` is the dynamic twin:
an **opt-in write barrier** around every probe callback window.

While installed on an orchestrator it

* patches ``__setattr__``/``__delattr__`` on the simulation state
  classes (:class:`Container`, :class:`Worker`, :class:`Simulator`,
  engine :class:`Event`, :class:`Orchestrator`,
  :class:`MetricsCollector`, :class:`Request`, ``_ClusterUsage``) so
  that any attribute write performed *while a probe callback is on the
  stack* raises :class:`SanitizerError` naming the attribute and the
  offending callback (e.g. ``MutSink.emit``);
* wraps every event-log sink, the time-series recorder and the decision
  audit in delegating proxies that open that barrier window around
  their callback methods;
* every ``check_interval`` recorded events — and once more at run end —
  cross-checks each worker's incremental indexes against a full scan
  (:meth:`Worker.check_integrity`), the engine's live/real event
  counters against a heap scan, the heap invariant itself, the
  orchestrator's waiting-function count and online-worker list against
  scans, and, in
  progress mode, each busy worker's single completion event against
  its executions' ledger keys (a worker whose completion handler has
  put off its neighbours' retime is exempt until the handler places
  the event, which it must do before returning), and, under CSS, that
  every waiting function is covered, on the maintenance worklist or in
  the orchestrator's pending change set.

Outside probe windows the barrier costs one truthiness test per
attribute write, so a sanitized run executes the *same* simulation: the
differential test (``tests/sim/test_sanitizer.py``) pins sanitized and
unsanitized golden-trace runs bit-identical.

Deliberate probe-visible caches are allowlisted: reading
``Worker.evictable_mb()`` from a probe may lazily refresh
``_evictable_mb_cache``/``_evictable_mb_gen``, which is observationally
pure (the recomputed total is order-pinned; see ``sim/worker.py``).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.core.scaling import CSSScalingMixin
from repro.sim.container import Container
from repro.sim.engine import Event, Simulator
from repro.sim.eventlog import EventLog
from repro.sim.metrics import MetricsCollector
from repro.sim.orchestrator import Orchestrator, _ClusterUsage
from repro.sim.request import Request
from repro.sim.worker import Worker


class SanitizerError(AssertionError):
    """A probe mutated simulation state, or a consistency check failed."""


#: Stack of active probe-callback labels ("SinkClass.method"). Module
#: level so the patched ``__setattr__`` closures can test it without a
#: per-instance indirection; non-empty means "a probe is on the stack".
_ACTIVE: List[str] = []

#: (class, attribute) writes that are allowed inside a probe window:
#: observationally-pure lazy caches refreshed by read accessors.
_ALLOWED_WRITES = frozenset({
    (Worker, "_evictable_mb_cache"),
    (Worker, "_evictable_mb_gen"),
})

#: Classes whose instances the barrier protects.
GUARDED_CLASSES: Tuple[type, ...] = (
    Container, Worker, Simulator, Event, Orchestrator, MetricsCollector,
    Request, _ClusterUsage,
)

#: class -> (original __setattr__, original __delattr__, refcount).
_PATCH_STATE: Dict[type, list] = {}


def _patch_class(cls: type) -> None:
    state = _PATCH_STATE.get(cls)
    if state is not None:
        state[2] += 1
        return
    orig_set = cls.__setattr__
    orig_del = cls.__delattr__

    def guarded_setattr(self, name, value,
                        _orig=orig_set, _cls=cls):
        if _ACTIVE and (_cls, name) not in _ALLOWED_WRITES:
            raise SanitizerError(
                f"probe `{_ACTIVE[-1]}` mutated simulation state: "
                f"wrote {type(self).__name__}.{name}; observer "
                f"callbacks must be strictly read-only")
        _orig(self, name, value)

    def guarded_delattr(self, name, _orig=orig_del, _cls=cls):
        if _ACTIVE and (_cls, name) not in _ALLOWED_WRITES:
            raise SanitizerError(
                f"probe `{_ACTIVE[-1]}` mutated simulation state: "
                f"deleted {type(self).__name__}.{name}; observer "
                f"callbacks must be strictly read-only")
        _orig(self, name)

    _PATCH_STATE[cls] = [orig_set, orig_del, 1]
    cls.__setattr__ = guarded_setattr
    cls.__delattr__ = guarded_delattr


def _unpatch_class(cls: type) -> None:
    state = _PATCH_STATE.get(cls)
    if state is None:
        return
    state[2] -= 1
    if state[2] <= 0:
        cls.__setattr__ = state[0]
        cls.__delattr__ = state[1]
        del _PATCH_STATE[cls]


class _Barrier:
    """Context manager pushing a probe label onto the active stack."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        _ACTIVE.append(self.label)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False


class _GuardedProbe:
    """Delegating proxy opening the write barrier around callbacks.

    Non-callable attributes (``interval_ms``, ``records`` ...) pass
    straight through, so the proxy is drop-in wherever the inner probe
    was usable.
    """

    def __init__(self, inner, methods: Tuple[str, ...]):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_methods", frozenset(methods))

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in self._methods and callable(attr):
            label = f"{type(self._inner).__name__}.{name}"

            def guarded(*args, _attr=attr, _label=label, **kwargs):
                with _Barrier(_label):
                    return _attr(*args, **kwargs)

            return guarded
        return attr

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def __repr__(self):
        return f"<sanitized {self._inner!r}>"


_SINK_METHODS = ("emit", "close")
_RECORDER_METHODS = ("sample", "note_start", "finish")
_AUDIT_METHODS = ("emit", "close")


class SimSanitizer:
    """Opt-in runtime guard for one orchestrator run.

    Usage (what ``run_one(..., sanitizer=...)`` does)::

        sanitizer = SimSanitizer()
        sanitizer.install(orchestrator)
        try:
            result = orchestrator.run(trace)
            sanitizer.finalize(orchestrator)
        finally:
            sanitizer.uninstall(orchestrator)
    """

    def __init__(self, check_interval: int = 256):
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.check_interval = int(check_interval)
        #: Events that flowed through the wrapped EventLog.record.
        self.events_seen = 0
        #: Consistency sweeps executed (periodic + final).
        self.checks_run = 0
        self._installed_on: Optional[Orchestrator] = None
        self._original_sinks: Optional[tuple] = None
        self._original_recorder = None
        self._original_audit = None
        self._owns_event_log = False

    # -- lifecycle -----------------------------------------------------

    def install(self, orchestrator: Orchestrator) -> None:
        """Arm the barrier and checks on ``orchestrator`` (pre-run)."""
        if self._installed_on is not None:
            raise RuntimeError("sanitizer already installed")
        self._installed_on = orchestrator
        for cls in GUARDED_CLASSES:
            _patch_class(cls)

        log = orchestrator.event_log
        if log is None:
            # A capacity-0 log keeps nothing in memory and changes no
            # results (pinned by the telemetry differential tests); it
            # gives the sanitizer its periodic check hook.
            log = EventLog(capacity=0)
            orchestrator.event_log = log
            self._owns_event_log = True
        self._original_sinks = log.sinks
        log._sinks = tuple(_GuardedProbe(sink, _SINK_METHODS)
                           for sink in log.sinks)

        sanitizer = self
        inner_record = type(log).record

        def counting_record(*args, **kwargs):
            inner_record(log, *args, **kwargs)
            sanitizer.events_seen += 1
            if sanitizer.events_seen % sanitizer.check_interval == 0:
                sanitizer.run_checks(orchestrator)

        log.record = counting_record

        on_complete = orchestrator._on_complete

        def checked_on_complete(*args):
            on_complete(*args)
            if orchestrator._deferred is not None:
                raise SanitizerError(
                    f"a completion handler returned with worker "
                    f"{orchestrator._deferred[0]}'s retime still pending")

        # Scheduled through ``self``, so the instance attribute is what
        # every completion event calls.
        orchestrator._on_complete = checked_on_complete

        if orchestrator.recorder is not None:
            self._original_recorder = orchestrator.recorder
            orchestrator.recorder = _GuardedProbe(
                orchestrator.recorder, _RECORDER_METHODS)
        if orchestrator.audit is not None:
            self._original_audit = orchestrator.audit
            orchestrator.audit = _GuardedProbe(
                orchestrator.audit, _AUDIT_METHODS)

    def finalize(self, orchestrator: Orchestrator) -> None:
        """Run the closing consistency sweep (post-run, pre-uninstall)."""
        if orchestrator._deferred is not None:
            raise SanitizerError(
                f"the run ended with worker {orchestrator._deferred[0]}'s "
                f"retime still pending")
        self.run_checks(orchestrator)

    def uninstall(self, orchestrator: Orchestrator) -> None:
        """Remove every hook; safe to call once, even after an error."""
        if self._installed_on is not orchestrator:
            return
        self._installed_on = None
        orchestrator.__dict__.pop("_on_complete", None)
        log = orchestrator.event_log
        if log is not None:
            log.__dict__.pop("record", None)
            if self._original_sinks is not None:
                log._sinks = self._original_sinks
        if self._owns_event_log:
            orchestrator.event_log = None
        if self._original_recorder is not None:
            orchestrator.recorder = self._original_recorder
        if self._original_audit is not None:
            orchestrator.audit = self._original_audit
        for cls in GUARDED_CLASSES:
            _unpatch_class(cls)

    # -- consistency checks --------------------------------------------

    def run_checks(self, orchestrator: Orchestrator) -> None:
        """Worker-index, engine-counter, heap-invariant, waiting-count,
        online-list and completion-head assertions."""
        self.checks_run += 1
        for worker in orchestrator.workers():
            try:
                worker.check_integrity()
            except AssertionError as exc:
                raise SanitizerError(
                    f"worker {worker.worker_id} index inconsistency: "
                    f"{exc}") from exc
        sim = orchestrator.sim
        live, real = sim._scan_counts()
        if (live, real) != (sim._live, sim._real):
            raise SanitizerError(
                f"engine event counters diverged from heap scan: "
                f"counters live={sim._live} real={sim._real}, "
                f"scan live={live} real={real}")
        heap = sim._heap
        for i in range(1, len(heap)):
            parent = (i - 1) >> 1
            if heap[i][:2] < heap[parent][:2]:
                raise SanitizerError(
                    f"engine heap invariant violated at index {i}: "
                    f"{heap[i][:2]} < parent {heap[parent][:2]}")
        # An integer count, so its summation order cannot matter.
        counts = orchestrator._unserved
        waiting = sum(1 for c in counts.values() if c)  # repro-lint: disable=FPX002
        if waiting != orchestrator._n_waiting:
            raise SanitizerError(
                f"waiting-function count {orchestrator._n_waiting} "
                f"diverged from scan {waiting}")
        online = [w for w in orchestrator.workers() if w.online]
        if orchestrator._online != online:
            raise SanitizerError(
                f"online-worker list "
                f"{[w.worker_id for w in orchestrator._online]} diverged "
                f"from scan {[w.worker_id for w in online]}")
        self._check_completion_heads(orchestrator)
        self._check_worklist(orchestrator)

    @staticmethod
    def _check_completion_heads(orchestrator: Orchestrator) -> None:
        """Progress mode queues one completion event per busy worker: it
        must be live, keyed at the earliest of the worker's ledger keys,
        and name that ledger's execution. (A live event with no heap
        entry under its key already fails the counter check.) The one
        exception is the worker whose completion handler is running with
        the neighbours' retime put off: its event is placed before the
        handler returns (checked around every completion)."""
        deferred = orchestrator._deferred
        pending = deferred[0] if deferred is not None else None
        busy = [(worker_id, table) for worker_id, table
                in orchestrator._worker_execs.items()
                if table and worker_id != pending]
        if not busy:
            return
        sim = orchestrator.sim
        for worker_id, table in busy:
            head = orchestrator._heads.get(worker_id)
            if head is None or head.cancelled or head._sim is not sim:
                raise SanitizerError(
                    f"worker {worker_id} runs {len(table)} executions "
                    f"but its completion event is not queued")
            first = min(table.values(), key=lambda state: state.key)
            key = (head.time, head.seq)
            if key != first.key:
                raise SanitizerError(
                    f"worker {worker_id}'s completion event is keyed "
                    f"{key}, not at its earliest execution's {first.key}")
            if head.args[1] is not first.request:
                raise SanitizerError(
                    f"worker {worker_id}'s completion event names request "
                    f"{head.args[1].req_id}, not request "
                    f"{first.request.req_id} whose key it carries")

    @staticmethod
    def _check_worklist(orchestrator: Orchestrator) -> None:
        """CSS maintenance visits only its worklist and the functions
        changed since the last tick; a waiting function in neither must
        be covered, or a tick would wrongly pass it over."""
        policy = orchestrator.policy
        if not isinstance(policy, CSSScalingMixin):
            return
        changed = orchestrator._changed
        for func, count in orchestrator._unserved.items():
            if (count and func not in policy._covered
                    and func not in policy._worklist
                    and func not in changed):
                raise SanitizerError(
                    f"waiting function {func!r} is neither covered, on "
                    f"the CSS maintenance worklist nor marked changed")

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict:
        return {"events_seen": self.events_seen,
                "checks_run": self.checks_run,
                "check_interval": self.check_interval}

    def report(self, stream=sys.stderr) -> None:
        """One-line summary (stderr by default so stdout stays
        byte-comparable between sanitized and plain runs)."""
        print(f"sanitizer: ok — {self.events_seen} events guarded, "
              f"{self.checks_run} consistency sweeps "
              f"(every {self.check_interval} events)", file=stream)
