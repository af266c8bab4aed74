"""Single-run replay throughput benchmarks (events/sec, wall-clock).

The replay hot path (state indexes, lazy eviction ranking, O(1) engine
liveness) is a performance feature, so it gets a performance harness: a
small suite of named scenarios replayed single-run, timed with
``time.perf_counter`` and reported as events/sec and requests/sec next to
the headline simulation outputs (cold ratio, evictions) that prove the
run exercised the intended regime.

Scenarios
---------
``ci-smoke``
    A few seconds of memory-pressured replay; cheap enough to run on
    every CI pass (see ``scripts/ci_check.sh``).
``pressure-20k`` / ``pressure-100k``
    Synthetic memory-pressure traces (Azure-like generator at small cache
    sizes). ``pressure-100k`` is the acceptance scenario of the indexing
    work: ~100k requests over an hour at 8 GB, ~46k evictions under
    CIDRE.
``azure-preset``
    The unpressured Azure preset — guards the common no-eviction regime
    against regressions hiding behind eviction-path wins.
``resilience``
    A 2-worker replay under a seeded chaos plan (``repro.sim.faults``):
    worker crashes with orphan reassignment, straggler slowdowns, and a
    heterogeneous worker class — times the fault layer's teardown paths.
``contention``
    A memory-pressured replay under a 4-core ``ContentionModel``
    (``repro.sim.contention``) — times the progress-based completion
    path: per-concurrency-transition retiming of every co-running
    execution's ledger, and the move of the worker's one queued
    completion event to the earliest of them.

Use
---
Programmatic: :func:`run_suite` returns a JSON-ready payload;
:func:`check_regression` compares two payloads and reports scenarios
whose events/sec fell below ``baseline / factor``. Command line:
``cidre-sim bench-throughput`` or ``benchmarks/bench_replay_throughput.py``.
The committed ``BENCH_throughput.json`` at the repo root is the reference
trajectory point CI compares against.

Timing notes: trace generation is excluded from the timed region; each
policy replays fresh copies of the requests. ``reference=True`` replays
every scenario a second time with ``SimulationConfig(reference_impl=True)``
(the pre-index scan-and-sort implementations), giving a side-by-side
speedup column — results are bit-identical by construction, and
:func:`run_suite` asserts the summaries match.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.config import SimulationConfig
from repro.sim.orchestrator import Orchestrator
from repro.traces.schema import Trace

#: v2: records gained ``fast_forward``; the payload gained a ``history``
#: trajectory (one entry per saved run: commit + per-cell events/sec).
#: v1 payloads still load — they simply lack both.
SCHEMA = "repro/bench-throughput/v2"
ACCEPTED_SCHEMAS = ("repro/bench-throughput/v1", SCHEMA)

#: Cap on retained history entries in a saved payload.
HISTORY_LIMIT = 50

THIRTY_MINUTES_MS = 30 * 60 * 1000.0
ONE_HOUR_MS = 60 * 60 * 1000.0


@dataclass(frozen=True)
class BenchScenario:
    """One named (trace, capacity, policy roster) benchmark cell."""

    name: str
    description: str
    preset: str = "azure"
    seed: int = 1
    total_requests: int = 20_000
    duration_ms: Optional[float] = None
    capacity_gb: float = 8.0
    policies: Tuple[str, ...] = ("CIDRE",)
    workers: int = 1
    #: When set, the cell replays under a seeded random fault plan
    #: (worker crashes, stragglers, heterogeneity) — the crash-teardown
    #: and orphan-retry paths get a timed regime of their own.
    chaos_seed: Optional[int] = None
    #: Replay with the analytic idle fast-forward enabled
    #: (``SimulationConfig.fast_forward``); bit-identical outcomes, so
    #: paired plain/ff scenarios time the mechanism itself.
    fast_forward: bool = False
    #: When set, the cell replays under a ``ContentionModel`` with this
    #: many cores per worker (default fair-share curve) — times the
    #: progress-based completion path: per-transition retiming and the
    #: per-worker completion event it moves.
    contention_cores: Optional[int] = None

    def build_trace(self) -> Trace:
        if self.preset == "azure":
            from repro.traces.azure import azure_trace as build
        elif self.preset == "fc":
            from repro.traces.alibaba import fc_trace as build
        else:  # pragma: no cover - config error
            raise ValueError(f"unknown preset {self.preset!r}")
        kwargs = {"seed": self.seed, "total_requests": self.total_requests}
        if self.duration_ms is not None:
            kwargs["duration_ms"] = self.duration_ms
        return build(**kwargs)

    def config(self, reference_impl: bool = False) -> SimulationConfig:
        faults = None
        if self.chaos_seed is not None:
            from repro.sim.faults import random_plan
            horizon = self.duration_ms or THIRTY_MINUTES_MS
            faults = random_plan(self.chaos_seed, workers=self.workers,
                                 horizon_ms=horizon)
        contention = None
        if self.contention_cores is not None:
            from repro.sim.contention import ContentionModel
            contention = ContentionModel(cores=self.contention_cores)
        return SimulationConfig(capacity_gb=self.capacity_gb,
                                workers=self.workers,
                                reference_impl=reference_impl,
                                faults=faults,
                                contention=contention,
                                fast_forward=(self.fast_forward
                                              and not reference_impl))


#: The standard suite, in run order.
SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        name="ci-smoke",
        description="small memory-pressure replay for per-PR CI smoke",
        seed=3, total_requests=6_000, capacity_gb=2.0,
        policies=("CIDRE",)),
    BenchScenario(
        name="pressure-20k",
        description="20k-request synthetic memory-pressure trace at 4 GB",
        seed=7, total_requests=20_000, capacity_gb=4.0,
        policies=("TTL", "FaasCache", "CIDRE")),
    BenchScenario(
        name="pressure-100k",
        description="100k-request, 1-hour memory-pressure trace at 8 GB "
                    "(acceptance scenario of the state-index work)",
        seed=11, total_requests=100_000, duration_ms=ONE_HOUR_MS,
        capacity_gb=8.0, policies=("CIDRE",)),
    BenchScenario(
        name="azure-preset",
        description="unpressured Azure preset (no-eviction regime guard)",
        seed=1, total_requests=20_000, capacity_gb=100.0,
        policies=("TTL", "FaasCache", "CIDRE")),
    BenchScenario(
        name="azure-preset-ff",
        description="azure-preset with the idle fast-forward enabled "
                    "(dense arrivals: measures the mechanism's overhead "
                    "when there is little idle time to skip)",
        seed=1, total_requests=20_000, capacity_gb=100.0,
        policies=("TTL", "FaasCache", "CIDRE"), fast_forward=True),
    BenchScenario(
        name="sparse-8h",
        description="azure arrivals stretched over 8 hours (idle-gap "
                    "regime: periodic ticks dominate the event count)",
        seed=1, total_requests=20_000,
        duration_ms=8 * ONE_HOUR_MS, capacity_gb=100.0,
        policies=("TTL", "CIDRE")),
    BenchScenario(
        name="sparse-8h-ff",
        description="sparse-8h with the idle fast-forward enabled "
                    "(the mechanism's target regime)",
        seed=1, total_requests=20_000,
        duration_ms=8 * ONE_HOUR_MS, capacity_gb=100.0,
        policies=("TTL", "CIDRE"), fast_forward=True),
    BenchScenario(
        name="contention",
        description="memory-pressured replay under a 4-core contention "
                    "model: times the progress-based completion path "
                    "(per-transition ledger retiming, one queued "
                    "completion per worker)",
        seed=7, total_requests=20_000, capacity_gb=4.0,
        policies=("TTL", "CIDRE"), contention_cores=4),
    BenchScenario(
        name="resilience",
        description="2-worker replay under a seeded chaos plan (crashes, "
                    "stragglers, heterogeneity): times the fault layer's "
                    "crash-teardown and orphan-retry paths",
        seed=3, total_requests=20_000, capacity_gb=4.0, workers=2,
        chaos_seed=7, policies=("CIDRE",)),
)


def scenario_by_name(name: str) -> BenchScenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown scenario {name!r}; choose from: "
                   f"{', '.join(s.name for s in SCENARIOS)}")


@dataclass
class BenchRecord:
    """One timed replay."""

    scenario: str
    policy: str
    reference_impl: bool
    wall_s: float
    events: int
    events_per_sec: float
    requests: int
    requests_per_sec: float
    cold_ratio: float
    evictions: float
    fast_forward: bool = False

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)

    @property
    def impl(self) -> str:
        if self.reference_impl:
            return "reference"
        return "indexed+ff" if self.fast_forward else "indexed"

    def row(self) -> List[object]:
        return [self.scenario, self.policy, self.impl,
                f"{self.wall_s:.2f}", f"{self.events_per_sec:,.0f}",
                f"{self.requests_per_sec:,.0f}",
                f"{self.cold_ratio:.3f}", f"{self.evictions:.0f}"]


def measure(trace: Trace, policy_name: str, config: SimulationConfig,
            scenario_name: str = "") -> BenchRecord:
    """Time one single-run replay of ``policy_name`` over ``trace``.

    The indexed path replays from the packed (compiled) trace — the
    compile itself is excluded from the timed region, like trace
    generation. The reference path replays a fresh request list through
    the classic schedule-everything-up-front loop, as it always did.
    """
    from repro.experiments.suites import policy_factories

    policy = policy_factories()[policy_name](trace)
    orchestrator = Orchestrator(trace.functions, policy, config)
    if config.reference_impl:
        workload = trace.fresh_requests()
    else:
        workload = trace.packed()
    start = perf_counter()
    result = orchestrator.run(workload)
    wall_s = perf_counter() - start
    events = orchestrator.sim.processed
    summary = result.summary()
    return BenchRecord(
        scenario=scenario_name, policy=policy_name,
        reference_impl=config.reference_impl,
        wall_s=wall_s, events=events,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        requests=trace.num_requests,
        requests_per_sec=trace.num_requests / wall_s if wall_s > 0 else 0.0,
        cold_ratio=summary["cold_ratio"],
        evictions=summary["evictions"],
        fast_forward=config.fast_forward)


def run_scenario(scenario: BenchScenario,
                 reference: bool = False) -> List[BenchRecord]:
    """Run every policy of ``scenario``; optionally also the reference.

    With ``reference=True`` each policy is replayed twice — indexed then
    ``reference_impl=True`` — and their simulation outputs are asserted
    equal (the bit-identity contract; see tests/sim/test_differential_golden
    for the exhaustive version).
    """
    trace = scenario.build_trace()
    records: List[BenchRecord] = []
    for policy_name in scenario.policies:
        fast = measure(trace, policy_name, scenario.config(),
                       scenario_name=scenario.name)
        records.append(fast)
        if reference:
            slow = measure(trace, policy_name,
                           scenario.config(reference_impl=True),
                           scenario_name=scenario.name)
            records.append(slow)
            if (fast.cold_ratio, fast.evictions) != (slow.cold_ratio,
                                                     slow.evictions):
                raise AssertionError(
                    f"indexed vs reference diverged on "
                    f"{scenario.name}/{policy_name}: "
                    f"cold {fast.cold_ratio} vs {slow.cold_ratio}, "
                    f"evictions {fast.evictions} vs {slow.evictions}")
    return records


def run_suite(names: Optional[Sequence[str]] = None,
              reference: bool = False,
              fast_forward: Optional[bool] = None,
              progress=None) -> Dict[str, object]:
    """Run the named scenarios (default: all) into a JSON-ready payload.

    ``fast_forward=True`` forces the idle fast-forward on for every
    scenario (``False`` forces it off); ``None`` leaves each scenario's
    own setting in place.
    """
    scenarios = (SCENARIOS if names is None
                 else [scenario_by_name(n) for n in names])
    if fast_forward is not None:
        scenarios = [replace(s, fast_forward=fast_forward)
                     for s in scenarios]
    payload: Dict[str, object] = {"schema": SCHEMA, "scenarios": {}}
    for scenario in scenarios:
        records = run_scenario(scenario, reference=reference)
        payload["scenarios"][scenario.name] = {
            "description": scenario.description,
            "capacity_gb": scenario.capacity_gb,
            "results": [r.to_dict() for r in records],
        }
        if progress is not None:
            for record in records:
                progress(record)
    return payload


def current_commit() -> Optional[str]:
    """Short git commit hash of the working tree, or ``None``."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def append_history(payload: Dict[str, object],
                   previous: Optional[Dict[str, object]] = None,
                   commit: Optional[str] = None) -> Dict[str, object]:
    """Attach the per-run throughput trajectory to ``payload``.

    Carries ``previous``'s history forward (capped at
    ``HISTORY_LIMIT``) and appends one entry for this run: the commit
    hash and every indexed cell's events/sec. Saved baselines therefore
    record how replay throughput moved across commits, not just the
    latest point.
    """
    history: List[Dict[str, object]] = []
    if previous:
        history = list(previous.get("history", ()))
    entry = {
        "commit": commit if commit is not None else current_commit(),
        "events_per_sec": {
            f"{scenario}/{policy}": round(rec["events_per_sec"], 1)
            for (scenario, policy), rec
            in sorted(_indexed_results(payload).items())},
    }
    history.append(entry)
    payload["history"] = history[-HISTORY_LIMIT:]
    return payload


def _indexed_results(payload: Dict[str, object]
                     ) -> Dict[Tuple[str, str], Dict[str, object]]:
    out = {}
    for name, cell in payload.get("scenarios", {}).items():
        for record in cell.get("results", ()):
            if not record.get("reference_impl"):
                out[(name, record["policy"])] = record
    return out


def check_regression(current: Dict[str, object],
                     baseline: Dict[str, object],
                     factor: float = 2.0,
                     two_sided: bool = False) -> List[str]:
    """Compare two payloads; report cells outside the allowed band.

    A cell fails when its events/sec fall below ``baseline / factor``
    — and, with ``two_sided=True``, also when they exceed
    ``baseline * factor``: a large unexplained speedup means the
    committed baseline is stale (or the cell's workload silently
    shrank) and should be regenerated, otherwise it stops guarding
    anything.

    Only (scenario, policy) cells present in *both* payloads are
    compared, so a smoke run of one scenario can be checked against the
    committed full-suite baseline. Returns a list of human-readable
    failure strings (empty = pass).
    """
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    failures: List[str] = []
    base = _indexed_results(baseline)
    for key, record in sorted(_indexed_results(current).items()):
        ref = base.get(key)
        if ref is None:
            continue
        floor = ref["events_per_sec"] / factor
        ceiling = ref["events_per_sec"] * factor
        eps = record["events_per_sec"]
        if eps < floor:
            failures.append(
                f"{key[0]}/{key[1]}: {eps:,.0f} events/s < baseline "
                f"{ref['events_per_sec']:,.0f} / {factor:g} = "
                f"{floor:,.0f}")
        elif two_sided and eps > ceiling:
            failures.append(
                f"{key[0]}/{key[1]}: {eps:,.0f} events/s > baseline "
                f"{ref['events_per_sec']:,.0f} * {factor:g} = "
                f"{ceiling:,.0f} — stale baseline? regenerate it")
    return failures


def compare_payloads(current: Dict[str, object],
                     baseline: Dict[str, object]) -> List[List[object]]:
    """Per-cell delta table between two payloads (indexed cells only).

    Rows are ``[scenario, policy, baseline events/s, current events/s,
    delta %]`` sorted by cell; cells missing from the baseline show
    ``-`` (new cell), cells missing from the current run are omitted.
    """
    rows: List[List[object]] = []
    base = _indexed_results(baseline)
    for key, record in sorted(_indexed_results(current).items()):
        ref = base.get(key)
        eps = record["events_per_sec"]
        if ref is None:
            rows.append([key[0], key[1], "-", f"{eps:,.0f}", "new"])
            continue
        ref_eps = ref["events_per_sec"]
        delta = (eps - ref_eps) / ref_eps * 100.0 if ref_eps else 0.0
        rows.append([key[0], key[1], f"{ref_eps:,.0f}", f"{eps:,.0f}",
                     f"{delta:+.1f}%"])
    return rows


def load_payload(path: str) -> Dict[str, object]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") not in ACCEPTED_SCHEMAS:
        raise ValueError(
            f"{path}: unexpected schema {payload.get('schema')!r} "
            f"(want one of {', '.join(map(repr, ACCEPTED_SCHEMAS))})")
    return payload


def save_payload(payload: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
