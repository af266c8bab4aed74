"""One neighbour retime per slot hand-off.

When a completion frees a slot and a queued request starts on the same
worker in the same handler, the worker's concurrency goes n -> n-1 -> n.
The orchestrator settles and re-keys the co-running executions once for
both transitions instead of once per transition. These tests hold that
single pass to the two-step rule, written out here as
:func:`two_step_retime`: every ledger ends with the same remaining work,
rate, settlement time, ``slowed`` flag and completion key, completions
fire in the same order, and the engine's sequence counter ends at the
same value.

A ledger can be moved by neither transition, by the completion only, by
the start only, or by both. In a replay the start only ever restores
the rate the completion changed, so the seeded random cases below also
build stale rates (as a straggler-window edge at the completion instant
leaves them) to reach all four.
"""

import copy
import random
from collections import Counter

import pytest

from repro.experiments.suites import policy_factories
from repro.policies.lru import LRUPolicy
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.eventlog import EventKind, EventLog
from repro.sim.faults import FaultPlan, StragglerSpec
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator, _ExecProgress
from repro.sim.request import Request
from repro.traces.azure import azure_trace


def two_step_retime(orch, worker_id, table, busy, now):
    """One concurrency transition, on its own: settle every ledger whose
    rate changes at the rate it ran at, time it at its new rate and key
    it with a sequence number from one block drawn in table order.
    Returns the ledger with the earliest key (None for an empty table)."""
    moved = []
    for state in table.values():
        slowdown = orch._slowdown(worker_id, state.request.func, busy, now)
        if slowdown == state.slowdown:
            continue
        elapsed = now - state.settled_ms
        if elapsed > 0.0:
            remaining = state.remaining_ms - elapsed / state.slowdown
            state.remaining_ms = remaining if remaining > 0.0 else 0.0
        state.settled_ms = now
        state.slowdown = slowdown
        if slowdown != 1.0:
            state.slowed = True
        state.queued = False
        moved.append((state, now + state.remaining_ms * slowdown))
    if moved:
        seq = orch.sim.draw_seqs(len(moved))
        for offset, (state, time) in enumerate(moved):
            state.key = (time, seq + offset)
    return min(table.values(), key=lambda state: state.key, default=None)


def ledger_state(table, queued=True):
    """Every ledger's fields. ``queued`` is heap bookkeeping: the
    two-step path queues the head between its steps, which can leave a
    ledger marked as having an entry where the single pass pushes anew
    later, so whole-replay comparisons leave it out."""
    return [(req_id, s.remaining_ms, s.slowdown, s.settled_ms, s.slowed,
             s.key) + ((s.queued,) if queued else ())
            for req_id, s in table.items()]


# ----------------------------------------------------------------------
# Seeded random transitions

#: ``t3`` speeds up past two co-runners, so a hand-off can slow it and
#: then restore its unit rate within one instant: it must end ``slowed``.
TABLE = (("t1", (1.0, 1.0, 1.5, 3.0)), ("t2", (1.0, 2.0, 2.0)),
         ("t3", (1.0, 2.0, 1.0)))
WINDOW = StragglerSpec(0, 4_000.0, 6_000.0, exec_multiplier=3.0)
MODELS = {
    "table": ContentionModel(cores=2, table=TABLE),
    "uniform": ContentionModel(cores=2),
}
FUNCS = {"table": ("t1", "t2", "t3", "p"), "uniform": ("p",)}


def fresh_orchestrator(model):
    functions = [FunctionSpec(name, memory_mb=128.0, cold_start_ms=100.0)
                 for name in ("t1", "t2", "t3", "p")]
    config = SimulationConfig(capacity_gb=2.0, contention=model,
                              faults=FaultPlan(stragglers=(WINDOW,)))
    return Orchestrator(functions, LRUPolicy(), config)


def ledger(func, slowdown, settled, remaining, seq, queued=False):
    return _ExecProgress(Request(func, 0.0, remaining), None, slowdown,
                         settled, (settled + remaining * slowdown, seq),
                         queued)


def random_table(rng, orch, funcs, now, seq_floor):
    """Ledgers as they stand when a completion leaves ``n`` running.

    Rates are drawn from what the worker could have priced them at, at
    this or another concurrency, inside or outside the window. The
    functions the table does not name share one rate, as every retime
    leaves them."""
    def some_rate(func):
        return orch._slowdown(0, func, rng.randint(1, 6),
                              rng.choice((1_000.0, 5_000.0)))

    plain = some_rate("p")
    n = rng.randint(1, 6)
    seqs = rng.sample(range(seq_floor), n)
    table = {}
    for req_id in range(n):
        func = rng.choice(funcs)
        table[req_id] = ledger(
            func, plain if func == "p" else some_rate(func),
            now - rng.choice((0.0, rng.uniform(0.0, 400.0))),
            rng.choice((0.0, rng.uniform(0.0, 900.0))), seqs[req_id],
            queued=rng.random() < 0.5)
    return table


@pytest.mark.parametrize("model", sorted(MODELS))
def test_single_pass_matches_two_steps(model):
    rng = random.Random(2024)
    cases = Counter()
    for _ in range(400):
        fused, reference = (fresh_orchestrator(MODELS[model])
                            for _ in range(2))
        now = rng.choice((1_000.0, 4_000.0, 5_000.0))
        floor = rng.randint(50, 80)
        for orch in (fused, reference):
            orch.sim._now = now
            orch.sim.draw_seqs(floor)
        table = random_table(rng, fused, FUNCS[model], now, floor)
        ref_table = {req_id: copy.copy(state)
                     for req_id, state in table.items()}
        n = len(table)
        start = rng.random() < 0.7
        final = n + 1 if start else n
        hook_draws = rng.randint(0, 2)
        for state in table.values():
            s0 = state.slowdown
            s1 = fused._slowdown(0, state.request.func, n, now)
            s2 = fused._slowdown(0, state.request.func, final, now)
            cases[(s1 != s0, start and s2 != s1)] += 1

        fused._defer_retime(0, table)
        for _ in range(hook_draws):  # a policy hook scheduling an event
            fused.sim.draw_seq(now)
        head = fused._retime_worker(0, table, final, now)
        assert fused._deferred is None

        ref_head = two_step_retime(reference, 0, ref_table, n, now)
        for _ in range(hook_draws):
            reference.sim.draw_seq(now)
        if start:
            ref_head = two_step_retime(reference, 0, ref_table, final, now)

        assert ledger_state(table) == ledger_state(ref_table)
        assert head.request is ref_head.request
        assert next(fused.sim._seq) == next(reference.sim._seq)
    assert set(cases) == {(False, False), (True, False),
                          (False, True), (True, True)}, cases


def test_miscounted_completion_block_is_refused():
    """The completion draws its block from an O(1) count when no table
    is configured; a ledger that breaks the one-rate-per-worker rule
    makes the single pass fail loudly rather than reuse a number."""
    orch = fresh_orchestrator(MODELS["uniform"])
    orch.sim._now = 1_000.0
    orch.sim.draw_seqs(10)
    rate = orch._slowdown(0, "p", 3, 1_000.0)
    table = {0: ledger("p", rate, 900.0, 500.0, 1),
             1: ledger("p", rate * 2.0, 900.0, 500.0, 2),
             2: ledger("p", rate * 2.0, 900.0, 500.0, 3)}
    orch._defer_retime(0, table)
    with pytest.raises(RuntimeError, match="drew sequence numbers"):
        orch._retime_worker(0, table, 4, 1_000.0)


# ----------------------------------------------------------------------
# Whole replays against the two-step path

STRAGGLERS = (StragglerSpec(0, 20_000.0, 70_000.0, exec_multiplier=3.0),
              StragglerSpec(0, 90_000.0, 150_000.0, exec_multiplier=0.5))
REPLAYS = {
    "uniform": dict(capacity_gb=4.0, contention=ContentionModel(cores=4)),
    "table": dict(capacity_gb=4.0,
                  contention=ContentionModel(cores=2, table=(
                      ("fn-0040", (1.0, 1.0, 1.25)), ("fn-0098", (1.0,)),
                      ("fn-0078", (1.5, 1.5, 2.0, 3.0)))),
                  faults=FaultPlan(stragglers=STRAGGLERS)),
}


def traced_replay(trace, case, two_step):
    log = EventLog()
    orch = Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
                        SimulationConfig(**REPLAYS[case]), event_log=log)
    seen = Counter()
    if two_step:
        orch._retime_worker = lambda worker_id, table, busy, now: \
            two_step_retime(orch, worker_id, table, busy, now)

        def retime_now(worker_id, table):
            orch._place_head(worker_id, two_step_retime(
                orch, worker_id, table, len(table), orch.sim.now))

        orch._defer_retime = retime_now
    else:
        retime = orch._retime_worker

        def counted_retime(worker_id, table, busy, now):
            deferred = orch._deferred
            if deferred is not None and deferred[0] == worker_id:
                seen["start" if busy > deferred[1] else "no start"] += 1
            return retime(worker_id, table, busy, now)

        orch._retime_worker = counted_retime
    snapshots = []
    on_complete = orch._on_complete

    def snapshot_after(*args):
        on_complete(*args)
        snapshots.append([ledger_state(table, queued=False) for _, table
                          in sorted(orch._worker_execs.items())])

    orch._on_complete = snapshot_after
    result = orch.run(trace.packed())
    ends = [(e.time_ms, e.req_id) for e in log if e.kind is EventKind.EXEC_END]
    # Container ids come from a process-global counter: rebase them.
    base = min(e.container_id for e in log if e.container_id is not None)
    events = [(e.time_ms, e.kind, e.func, e.req_id, e.detail, e.worker_id,
               None if e.container_id is None else e.container_id - base)
              for e in log]
    return {"ends": ends, "ledgers": snapshots, "events": events,
            "final_seq": next(orch.sim._seq),
            "end_ms": [r.end_ms for r in result.requests], "seen": seen}


@pytest.mark.parametrize("case", sorted(REPLAYS))
def test_replay_matches_two_step_path(case):
    trace = azure_trace(seed=7, total_requests=2_000, duration_ms=180_000)
    fused = traced_replay(trace, case, two_step=False)
    reference = traced_replay(trace, case, two_step=True)
    seen = fused.pop("seen")
    assert seen["start"] > 0, "no start took over a completion's retime"
    assert seen["no start"] > 0, "every completion handed its slot on"
    reference.pop("seen")
    # Completion order and times, every ledger after every completion,
    # the event stream, the engine's sequence counter, every end time.
    for what in fused:
        assert fused[what] == reference[what], what
