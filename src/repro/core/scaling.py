"""Speculative scaling — BSS and CSS (the paper's §3.2 / Algorithm 1).

**Basic speculative scaling (BSS)** races the two ways of obtaining an
execution slot: the request joins the delayed-warm-start queue *and* a new
container starts provisioning; whichever frees up first serves the request.
BSS therefore guarantees an invocation overhead no worse than a cold start,
without predicting volatile execution times.

**Conditional speculative scaling (CSS)** adds a per-function cost/benefit
gate that can disable the cold-start path when recent history suggests the
speculative container would be wasted, and re-enable it when delayed warm
starts start costing more than a cold start. The gate compares four
sliding-window statistics (15-minute horizon by default):

* ``T_i`` — idle time of the last cold-started container before its first
  reuse (a large ``T_i`` means the last speculative cold start was
  unnecessary);
* ``T_e`` — the function's estimated execution time (median by default;
  the Fig. 17 sensitivity study sweeps mean/p25/p50/p75);
* ``T_d`` — the most recent delayed-warm-start waiting time;
* ``T_p`` — the estimated (median) cold-start latency.

Algorithm 1::

    if BSS enabled:
        if T_i > T_e:  disable BSS; delayed warm start only
        else:          speculate (race both paths)
    else:
        if T_d > T_p:  re-enable BSS; speculate
        else:          delayed warm start only
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.window import MINUTES_MS, SlidingWindow
from repro.policies.base import (OrchestrationPolicy, PolicyContext,
                                 ScalingDecision)
from repro.records import Schema, SchemaFamily

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.request import Request
    from repro.sim.worker import Worker


#: Audit schemas of the ``css_scale`` and ``gate_flip`` records. A window
#: statistic, the demand check and the backlog projection appear in a
#: ``css_scale`` record only when they were evaluated.
CSS_SCALE = SchemaFamily(
    "css_scale", ("t", "func", "rid", "branch", "decision", "bss_enabled"),
    ("t_i", "t_e", "t_d", "t_p", "demand_exceeds_pool", "projection"))
GATE_FLIP = Schema("gate_flip", ("t", "func", "enabled", "reason",
                                 "trigger"))


class BSSScalingMixin(OrchestrationPolicy):
    """Basic speculative scaling: always race cold start vs delayed reuse."""

    def scale(self, request: "Request", worker: "Worker",
              now: float) -> ScalingDecision:
        return ScalingDecision.speculate()


@dataclass
class _LastCreated:
    """Tracks the most recent cold-started container of one function, to
    measure its pre-reuse idling time ``T_i``."""

    container_id: int
    ready_ms: float
    reused: bool = False


class CSSScalingMixin(OrchestrationPolicy):
    """Conditional speculative scaling (Algorithm 1).

    Parameters
    ----------
    window_ms:
        Sliding-window horizon for the historical statistics; ``None``
        keeps all history (Fig. 18 sweeps 5/10/15 minutes and "all").
    exec_estimator:
        Estimator for ``T_e`` — ``"median"`` (default), ``"mean"``,
        ``"p25"``, ``"p75"`` (Fig. 17).
    """

    def __init__(self, *args,
                 window_ms: Optional[float] = 15 * MINUTES_MS,
                 exec_estimator: str = "median",
                 live_delay_signal: bool = True,
                 cover_backlog: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.window_ms = window_ms
        self.exec_estimator = exec_estimator
        #: Fold the live age of the oldest queued request (and the queue
        #: geometry projection) into ``T_d``. Disabling reverts to the
        #: literal last-recorded-sample reading of Algorithm 1 (ablation).
        self.live_delay_signal = live_delay_signal
        #: Provision for the whole queued backlog when the cold path
        #: re-opens, mirroring §4's per-queued-request channel evaluation.
        self.cover_backlog = cover_backlog
        self._bss_enabled: Dict[str, bool] = {}
        self._exec_window: Dict[str, SlidingWindow] = {}
        self._cold_window: Dict[str, SlidingWindow] = {}
        self._delay_window: Dict[str, SlidingWindow] = {}
        self._idle_window: Dict[str, SlidingWindow] = {}
        self._last_created: Dict[str, _LastCreated] = {}
        #: Open-gate functions whose last maintenance-time backlog cover
        #: found nothing to provision, with no count change since.
        self._covered: Set[str] = set()
        #: Functions the next tick must look at besides those changed
        #: since the last one: every waiting function that is not
        #: covered is here or changed (see :meth:`on_maintenance`).
        self._worklist: Set[str] = set()

    def bind(self, ctx: PolicyContext) -> None:
        super().bind(ctx)
        # Change records are per orchestrator.
        self._covered.clear()
        self._worklist.clear()

    # ------------------------------------------------------------------
    # Window helpers

    def _window(self, table: Dict[str, SlidingWindow],
                func: str) -> SlidingWindow:
        window = table.get(func)
        if window is None:
            window = table[func] = SlidingWindow(self.window_ms)
        return window

    def estimated_exec_ms(self, func: str, now: float) -> Optional[float]:
        """``T_e``: the function's estimated execution time."""
        return self._window(self._exec_window, func).estimate(
            now, self.exec_estimator)

    def estimated_cold_ms(self, func: str, now: float) -> Optional[float]:
        """``T_p``: median historical cold-start latency."""
        return self._window(self._cold_window, func).median(now)

    def last_delay_ms(self, func: str, now: float) -> Optional[float]:
        """``T_d``: the delayed-warm-start cost signal.

        The paper defines ``T_d`` as "the duration that CIDRE waits to find
        an idle container since the last request arrives". We take the max
        of the most recent *completed* delayed-warm-start wait and the
        *live* age of the oldest still-queued request — without the live
        term a long queue would keep the cold-start path disabled until the
        backlog drains, exactly the thrashing Algorithm 1 line 11 exists to
        stop.
        """
        recorded = self._window(self._delay_window, func).last(now)
        live = None
        if self.ctx is not None and self.live_delay_signal:
            age = self.ctx.oldest_waiter_age_ms(func)
            if age > 0:
                live = age
        if recorded is None:
            return live
        if live is None:
            return recorded
        return max(recorded, live)

    def last_idle_ms(self, func: str, now: float) -> Optional[float]:
        """``T_i``: pre-reuse idling of the last cold-started container.

        If that container is still idle and unused, its idling is *ongoing*
        and measured up to ``now``; once reused (or evicted unused) the
        recorded sample from the idle window is used.
        """
        last = self._last_created.get(func)
        if last is not None and not last.reused:
            return now - last.ready_ms
        return self._window(self._idle_window, func).last(now)

    def bss_enabled(self, func: str) -> bool:
        return self._bss_enabled.get(func, True)

    # ------------------------------------------------------------------
    # Algorithm 1

    def scale(self, request: "Request", worker: "Worker",
              now: float) -> ScalingDecision:
        func = request.func
        t_e = self.estimated_exec_ms(func, now)
        t_p = self.estimated_cold_ms(func, now)
        t_i = self.last_idle_ms(func, now)
        t_d = self.last_delay_ms(func, now)
        observing = self.audit is not None or self.metrics is not None

        if self.bss_enabled(func):
            demand = None
            if t_i is not None and t_e is not None and t_i > t_e:
                demand = self._demand_exceeds_pool(request, worker)
                if not demand:
                    # The last speculative cold start sat idle longer than
                    # one execution: it was wasteful. Disable the
                    # cold-start path.
                    self._set_bss(func, False, now, "T_i>T_e", "scale")
                    if observing:
                        self._note_scale(func, request, now, "disable",
                                         "queue", t_i, t_e, t_d, t_p, demand)
                    return ScalingDecision.queue()
            if observing:
                self._note_scale(func, request, now, "speculate",
                                 "speculate", t_i, t_e, t_d, t_p, demand)
            return ScalingDecision.speculate()

        # The queued backlog foreshadows this request's delayed cost: with
        # W waiters ahead over B busy containers, it must wait roughly
        # ceil((W+1)/B) executions. Fold that into T_d so the cold path
        # reopens as soon as the queue outgrows the pool, instead of only
        # after some request has already suffered a full T_p of waiting.
        projection = None
        if t_e is not None and self.live_delay_signal \
                and self.ctx is not None:
            waiting = self.ctx.outstanding_waiters(func)
            busy = max(worker.busy_count(func), 1)
            projected = math.ceil((waiting + 1) / busy) * t_e
            if self.audit is not None:
                projection = {"waiting": waiting, "busy": busy,
                              "projected_ms": projected}
            t_d = projected if t_d is None else max(t_d, projected)
        if t_d is not None and t_p is not None and t_d > t_p:
            # Delayed warm starts now cost more than a cold start: the
            # function needs more containers. Fall back to BSS and cover
            # the backlog that accumulated while the cold path was off.
            self._set_bss(func, True, now, "T_d>T_p", "scale")
            if observing:
                # Audit the decision before covering the backlog so the
                # eviction records it may trigger follow their cause.
                self._note_scale(func, request, now, "reopen", "speculate",
                                 t_i, t_e, t_d, t_p, projection=projection)
            self._cover_backlog(func)
            return ScalingDecision.speculate()
        if observing:
            self._note_scale(func, request, now, "stay_queued", "queue",
                             t_i, t_e, t_d, t_p, projection=projection)
        return ScalingDecision.queue()

    # ------------------------------------------------------------------
    # Gate transitions and decision audit

    def _set_bss(self, func: str, enabled: bool, now: float, reason: str,
                 trigger: str) -> None:
        """Flip the per-function gate, noting the transition."""
        self._bss_enabled[func] = enabled
        if not enabled:
            # A closed gate needs a visit on every tick: its window
            # statistics age with time, not with count changes.
            self._covered.discard(func)
            self._worklist.add(func)
        if self.metrics is not None:
            self.metrics.counter_child(
                "repro_bss_gate_flips_total",
                "CSS gate transitions (Algorithm 1 lines 5 and 11)",
                ("func", "to"), (func, "on" if enabled else "off")).inc()
        if self.audit is not None:
            self.audit.emit(GATE_FLIP, (now, func, enabled, reason, trigger))

    def _note_scale(self, func: str, request: "Request", now: float,
                    branch: str, decision: str, t_i, t_e, t_d, t_p,
                    demand: Optional[bool] = None,
                    projection: Optional[dict] = None) -> None:
        """One ``css_scale`` record / branch counter per scale() call;
        ``demand`` and ``projection`` are ``None`` when not evaluated."""
        if self.metrics is not None:
            self.metrics.counter_child(
                "repro_css_scale_total",
                "CSS scale() calls by Algorithm 1 branch", ("branch",),
                (branch,)).inc()
        if self.audit is None:
            return
        self.audit.emit(*CSS_SCALE.pick(
            (now, func, request.req_id, branch, decision,
             self.bss_enabled(func)),
            (t_i, t_e, t_d, t_p, demand, projection)))

    def _cover_backlog(self, func: str) -> bool:
        """Provision speculative containers for queued requests that no
        in-flight provision is going to serve.

        Returns True when there was nothing to provision: another call
        does nothing too until ``func``'s unserved-waiter or in-flight
        count changes.
        """
        if self.ctx is None or not self.cover_backlog:
            return True
        backlog = self.ctx.outstanding_waiters(func)
        if backlog <= 0:
            return True  # in-flight count is irrelevant; skip its worker sum
        in_flight = self.ctx.provisions_in_flight(func)
        if backlog <= in_flight:
            return True
        for _ in range(backlog - in_flight):
            if not self.ctx.speculate_for(func):
                break
        return False

    def _demand_exceeds_pool(self, request: "Request",
                             worker: "Worker") -> bool:
        """Whether queued demand already saturates the busy warm pool.

        The wasted-cold-start hint (``T_i > T_e``) describes the *previous*
        lull; when the current queue is deeper than the number of busy
        containers, every one of those containers must finish at least one
        queued request before this one runs — the opposite of "sufficient
        warm containers", so the cold path must stay on.
        """
        if self.ctx is None:
            return False
        waiting = self.ctx.outstanding_waiters(request.func)
        busy = worker.busy_count(request.func)
        return waiting >= busy

    # ------------------------------------------------------------------
    # Queue re-evaluation (§4's channel-head evaluation)

    #: How often queued requests are re-evaluated against Algorithm 1.
    maintenance_interval_ms: float = 100.0

    def on_maintenance(self, now: float) -> None:
        """Re-run the CSS gate for functions with queued requests.

        The OpenLambda implementation evaluates the outstanding request at
        the head of each function's channel continuously, so a backlog
        that formed while the cold-start path was disabled gets containers
        as soon as ``T_d`` exceeds ``T_p`` — not merely one container per
        *new* arrival. Without this, disabling BSS would strand queued
        requests behind however many busy containers happen to exist.

        Waiting functions are visited in ``waiting_functions()`` order,
        except that an open-gate function whose last cover here found
        nothing to provision is *covered*: it is passed over until the
        orchestrator reports a change to its unserved-waiter or in-flight
        count, since the cover reads only those two counts and would find
        nothing again. A tick therefore visits only the waiting functions
        on its worklist (last tick's uncovered visits and every function
        whose gate closed since) or changed since the last tick, instead
        of scanning every waiting function.
        """
        super().on_maintenance(now)
        assert self.ctx is not None
        covered, worklist = self._covered, self._worklist
        changed = self.ctx.take_changed_functions()
        covered.difference_update(changed)
        worklist.update(changed)
        visits = self.ctx.waiting_among(worklist)
        if len(visits) < len(worklist):
            # Not waiting: queueing again is a change, so they come back.
            worklist.intersection_update(visits)
        for func in visits:
            # The T_d/T_p statistics only gate the *disabled* branch, so
            # they are computed lazily: when the gate is already open the
            # window queries (and their pruning) are deferred to the next
            # consumer, which observes the same surviving sample multiset
            # either way — SlidingWindow caps and prunes oldest-first.
            if not self.bss_enabled(func):
                t_d = self.last_delay_ms(func, now)
                t_p = self.estimated_cold_ms(func, now)
                if t_d is None or t_p is None or t_d <= t_p:
                    continue
                self._set_bss(func, True, now, "T_d>T_p", "maintenance")
            # BSS (re-)enabled: cover the backlog with speculative
            # provisions, one per queued request not already matched by an
            # in-flight provision.
            if self._cover_backlog(func):
                covered.add(func)
                worklist.discard(func)

    def maintenance_horizon(self, now: float) -> Optional[float]:
        """Queue re-evaluation is a provable no-op while nothing is queued:
        the maintenance loop iterates waiting functions only. Asked on
        each tick under fast-forward; the empty check is O(1)."""
        if self.ctx is None or self.ctx.any_waiting():
            return None
        return math.inf

    # ------------------------------------------------------------------
    # Statistic collection hooks

    def on_request_complete(self, container: "Container",
                            request: "Request", now: float) -> None:
        super().on_request_complete(container, request, now)
        self._window(self._exec_window, request.func).add(
            now, request.exec_ms)

    def on_container_ready(self, container: "Container", now: float) -> None:
        super().on_container_ready(container, now)
        func = container.spec.name
        self._window(self._cold_window, func).add(
            now, now - container.created_ms)
        self._last_created[func] = _LastCreated(container.container_id, now)

    def on_delayed_start(self, container: "Container", request: "Request",
                         now: float) -> None:
        super().on_delayed_start(container, request, now)
        self._window(self._delay_window, request.func).add(
            now, now - request.arrival_ms)
        self._note_reuse(container, now)

    def on_warm_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_warm_start(container, request, now)
        self._note_reuse(container, now)

    def on_cold_start(self, container: "Container", request: "Request",
                      now: float) -> None:
        super().on_cold_start(container, request, now)
        self._note_reuse(container, now)

    def on_eviction(self, victims, now: float) -> None:
        super().on_eviction(victims, now)
        for victim in victims:
            func = victim.spec.name
            last = self._last_created.get(func)
            if (last is not None and not last.reused
                    and last.container_id == victim.container_id):
                # Evicted without ever being reused: its whole lifetime was
                # wasted idling.
                ready = victim.ready_ms if victim.ready_ms is not None \
                    else victim.created_ms
                self._window(self._idle_window, func).add(now, now - ready)
                last.reused = True

    def _note_reuse(self, container: "Container", now: float) -> None:
        """Finalize ``T_i`` when the tracked container gets its first use."""
        func = container.spec.name
        last = self._last_created.get(func)
        if (last is None or last.reused
                or last.container_id != container.container_id):
            return
        last.reused = True
        ready = container.ready_ms if container.ready_ms is not None \
            else container.created_ms
        self._window(self._idle_window, func).add(now, now - ready)
