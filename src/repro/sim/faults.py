"""Deterministic fault injection: crashes, stragglers, heterogeneity.

A :class:`FaultPlan` is a *schedule*, not a random process: every crash,
straggler window and worker class is pinned to concrete times and worker
ids before the simulation starts. Randomness lives entirely in
:func:`random_plan`, which expands a seed into such a schedule with a
dedicated ``random.Random(seed)`` — so a chaos run is a deterministic
function of (trace, policy, config, plan) and replays bit-identically.

Fault model
-----------
* **Worker crash** (:class:`CrashSpec`): at ``at_ms`` the worker drops
  offline and every hosted container — idle, busy, provisioning or
  compressed — is destroyed. In-flight requests are *orphaned* and
  re-dispatched to surviving workers under the plan's
  :class:`RetryPolicy`; requests whose retry budget is exhausted are
  accounted as failed (never silently lost). The worker rejoins with an
  empty cache after ``restart_delay_ms`` (``None`` = never rejoins).
  A crash scheduled while the worker is already down is ignored.
* **Straggler** (:class:`StragglerSpec`): inside ``[start_ms, end_ms)``
  the worker's execution and cold-start latencies are multiplied.
  Multipliers apply at *scheduling* time (when the execution or
  provision starts), mirroring how a slow machine stretches whatever
  work lands on it; overlapping windows multiply together.
* **Worker class** (:class:`WorkerClassSpec`): static heterogeneity —
  per-class memory capacity and a cold-start multiplier, so the cluster
  need not be uniform.

Determinism contract
--------------------
There is one fault-layer code path. The orchestrator runs
``SimulationConfig(faults=None)`` as the empty ``FaultPlan()``, which
crashes nothing and whose every multiplier is exactly 1.0, so such a
run takes the same decisions and emits the same event stream as one
without faults (pinned by ``tests/sim/test_faults_differential.py``).

Every spec checks its fields at construction: a negative, NaN or
infinite time, delay, capacity or multiplier, or a worker id that is not
a non-negative integer, raises :class:`ValueError` naming the field and
the value, so a hostile plan fails before the replay starts.
:meth:`FaultPlan.from_dict` prefixes the entry (``stragglers[0]: ...``).

All specs are frozen dataclasses over tuples: hashable (so
``SimulationConfig`` stays hashable), picklable (so fault plans travel
to parallel sweep workers), and JSON round-trippable via
:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from math import inf
from numbers import Integral
from typing import Dict, List, Optional, Tuple

#: Schema tag written by :meth:`FaultPlan.to_dict`.
PLAN_SCHEMA = "repro/fault-plan/v1"


def check_count(name: str, value, low: int = 0) -> None:
    """Reject ``value`` unless it is an integer ``>= low``."""
    if not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_finite(name: str, value: float, low: float = 0.0,
                 strict: bool = False) -> None:
    """Reject ``value`` unless ``low <= value < inf`` (``low < value``
    when ``strict``). NaN fails both comparisons, so it is rejected
    too."""
    if not (low < value < inf if strict else low <= value < inf):
        bound = ">" if strict else ">="
        raise ValueError(
            f"{name} must be finite and {bound} {low!r}, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """What happens to requests orphaned by a worker crash.

    Parameters
    ----------
    max_retries:
        How many times one request may be re-dispatched after losing its
        container to a crash. ``0`` fails a request on its first orphaning.
    retry_delay_ms:
        Delay between orphaning and re-dispatch (detection + rescheduling
        cost of a real control plane).
    """

    max_retries: int = 2
    retry_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        check_count("max_retries", self.max_retries)
        check_finite("retry_delay_ms", self.retry_delay_ms)


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled worker crash (and optional restart)."""

    worker_id: int
    at_ms: float
    #: ``None`` = the worker never rejoins.
    restart_delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        check_count("worker_id", self.worker_id)
        check_finite("at_ms", self.at_ms)
        if self.restart_delay_ms is not None:
            check_finite("restart_delay_ms", self.restart_delay_ms)


@dataclass(frozen=True)
class StragglerSpec:
    """A per-worker slowdown window ``[start_ms, end_ms)``."""

    worker_id: int
    start_ms: float
    end_ms: float
    exec_multiplier: float = 1.0
    cold_multiplier: float = 1.0

    def __post_init__(self) -> None:
        check_count("worker_id", self.worker_id)
        check_finite("start_ms", self.start_ms)
        if not self.start_ms < self.end_ms < inf:
            raise ValueError(
                f"end_ms must be finite and > start_ms "
                f"({self.start_ms!r}), got {self.end_ms!r}")
        check_finite("exec_multiplier", self.exec_multiplier, strict=True)
        check_finite("cold_multiplier", self.cold_multiplier, strict=True)

    def covers(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms


@dataclass(frozen=True)
class WorkerClassSpec:
    """A static worker class: capacity override + cold-start multiplier."""

    name: str
    workers: Tuple[int, ...]
    #: Per-worker capacity; ``None`` keeps the even capacity split.
    memory_mb: Optional[float] = None
    cold_start_multiplier: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.name:
            raise ValueError("worker class needs a name")
        if not self.workers:
            raise ValueError(f"class {self.name!r} lists no workers")
        try:
            for i, wid in enumerate(self.workers):
                check_count(f"workers[{i}]", wid)
            if self.memory_mb is not None:
                check_finite("memory_mb", self.memory_mb, strict=True)
            check_finite("cold_start_multiplier", self.cold_start_multiplier,
                         strict=True)
        except ValueError as exc:
            raise ValueError(f"class {self.name!r}: {exc}") from None


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one run. Empty plans are inert."""

    crashes: Tuple[CrashSpec, ...] = ()
    stragglers: Tuple[StragglerSpec, ...] = ()
    worker_classes: Tuple[WorkerClassSpec, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "worker_classes",
                           tuple(self.worker_classes))
        claimed: Dict[int, str] = {}
        for cls in self.worker_classes:
            for wid in cls.workers:
                if wid in claimed:
                    raise ValueError(
                        f"worker {wid} in classes {claimed[wid]!r} "
                        f"and {cls.name!r}")
                claimed[wid] = cls.name

    # ------------------------------------------------------------------
    # Validation against a concrete cluster

    def validate(self, workers: int) -> None:
        """Check every worker id fits a ``workers``-sized cluster."""
        for crash in self.crashes:
            if crash.worker_id >= workers:
                raise ValueError(
                    f"crash targets worker {crash.worker_id} but the "
                    f"cluster has {workers}")
        for straggler in self.stragglers:
            if straggler.worker_id >= workers:
                raise ValueError(
                    f"straggler targets worker {straggler.worker_id} but "
                    f"the cluster has {workers}")
        for cls in self.worker_classes:
            for wid in cls.workers:
                if wid >= workers:
                    raise ValueError(
                        f"class {cls.name!r} lists worker {wid} but the "
                        f"cluster has {workers}")

    # ------------------------------------------------------------------
    # Queries the orchestrator consults

    def class_of(self, worker_id: int) -> Optional[WorkerClassSpec]:
        for cls in self.worker_classes:
            if worker_id in cls.workers:
                return cls
        return None

    def worker_capacity_mb(self, worker_id: int, default_mb: float) -> float:
        cls = self.class_of(worker_id)
        if cls is not None and cls.memory_mb is not None:
            return cls.memory_mb
        return default_mb

    def exec_multiplier(self, worker_id: int, now: float) -> float:
        """Execution-time factor on ``worker_id`` at ``now`` (>= plan
        order product of covering straggler windows)."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.worker_id == worker_id and straggler.covers(now):
                factor *= straggler.exec_multiplier
        return factor

    def cold_multiplier(self, worker_id: int, now: float) -> float:
        """Provision/restore-cost factor: worker class times any covering
        straggler windows."""
        factor = 1.0
        cls = self.class_of(worker_id)
        if cls is not None:
            factor *= cls.cold_start_multiplier
        for straggler in self.stragglers:
            if straggler.worker_id == worker_id and straggler.covers(now):
                factor *= straggler.cold_multiplier
        return factor

    def has_exec_stragglers(self) -> bool:
        """True when any straggler window changes execution rates — the
        plan then needs the progress-based execution model so a window
        edge mid-execution changes the remaining wall time."""
        return any(s.exec_multiplier != 1.0 for s in self.stragglers)

    def next_exec_boundary(self, worker_id: int,
                           now: float) -> Optional[float]:
        """Earliest straggler-window edge after ``now`` that can change
        ``worker_id``'s execution-rate factor (windows whose
        ``exec_multiplier`` is 1 never change the rate)."""
        best = None
        for s in self.stragglers:
            if s.worker_id != worker_id or s.exec_multiplier == 1.0:
                continue
            for edge in (s.start_ms, s.end_ms):
                if edge > now and (best is None or edge < best):
                    best = edge
        return best

    def cold_finish_ms(self, worker_id: int, start_ms: float,
                       cost_ms: float) -> float:
        """Wall-clock completion time of ``cost_ms`` of provisioning
        work starting at ``start_ms`` on ``worker_id``.

        The cold-rate factor is piecewise constant (worker class times
        the straggler windows covering each instant), so the finish time
        integrates the work across every window edge instead of freezing
        the factor sampled at ``start_ms`` — a window that ends (or
        begins) mid-provision changes the remaining wall time. With no
        edge inside the provision this reduces to the single
        multiplication ``start_ms + cost_ms * factor`` of the
        sampled-once model, bit-for-bit.
        """
        now = start_ms
        remaining = cost_ms
        while remaining > 0.0:
            factor = self.cold_multiplier(worker_id, now)
            edge = None
            for s in self.stragglers:
                if s.worker_id != worker_id or s.cold_multiplier == 1.0:
                    continue
                for candidate in (s.start_ms, s.end_ms):
                    if candidate > now and (edge is None
                                            or candidate < edge):
                        edge = candidate
            finish = now + remaining * factor
            if edge is None or finish <= edge:
                return finish
            # Work done up to the edge, at this segment's rate.
            remaining = remaining - (edge - now) / factor
            now = edge
        return now

    def crashes_sorted(self) -> List[CrashSpec]:
        return sorted(self.crashes, key=lambda c: (c.at_ms, c.worker_id))

    # ------------------------------------------------------------------
    # JSON round trip

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "retry": {"max_retries": self.retry.max_retries,
                      "retry_delay_ms": self.retry.retry_delay_ms},
            "crashes": [
                {"worker_id": c.worker_id, "at_ms": c.at_ms,
                 "restart_delay_ms": c.restart_delay_ms}
                for c in self.crashes],
            "stragglers": [
                {"worker_id": s.worker_id, "start_ms": s.start_ms,
                 "end_ms": s.end_ms, "exec_multiplier": s.exec_multiplier,
                 "cold_multiplier": s.cold_multiplier}
                for s in self.stragglers],
            "worker_classes": [
                {"name": k.name, "workers": list(k.workers),
                 "memory_mb": k.memory_mb,
                 "cold_start_multiplier": k.cold_start_multiplier}
                for k in self.worker_classes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        schema = payload.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ValueError(f"unknown fault-plan schema {schema!r}")
        def build(where: str, spec_cls, entry: dict):
            try:
                return spec_cls(**entry)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc

        def build_all(key: str, spec_cls) -> tuple:
            return tuple(build(f"{key}[{i}]", spec_cls, entry)
                         for i, entry in enumerate(payload.get(key, [])))

        return cls(build_all("crashes", CrashSpec),
                   build_all("stragglers", StragglerSpec),
                   build_all("worker_classes", WorkerClassSpec),
                   build("retry", RetryPolicy, payload.get("retry", {})))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_retry(self, retry: RetryPolicy) -> "FaultPlan":
        return replace(self, retry=retry)


def random_plan(seed: int, workers: int, horizon_ms: float,
                crashes: int = 2, stragglers: int = 2,
                heterogeneity: bool = True,
                retry: Optional[RetryPolicy] = None) -> FaultPlan:
    """Expand a chaos seed into a concrete :class:`FaultPlan`.

    Crashes land in the first 85% of the horizon and always schedule a
    restart (5-15% of the horizon later), so a generated plan exercises
    churn without starving the tail of the trace of capacity. Worker
    classes only carry cold-start multipliers — capacity overrides are an
    explicit, hand-written choice because they interact with the
    function-footprint feasibility check.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rng = random.Random(seed)
    horizon = max(float(horizon_ms), 1_000.0)
    crash_specs = []
    for _ in range(crashes):
        crash_specs.append(CrashSpec(
            worker_id=rng.randrange(workers),
            at_ms=rng.uniform(0.10, 0.85) * horizon,
            restart_delay_ms=rng.uniform(0.05, 0.15) * horizon))
    straggler_specs = []
    for _ in range(stragglers):
        start = rng.uniform(0.0, 0.8) * horizon
        straggler_specs.append(StragglerSpec(
            worker_id=rng.randrange(workers),
            start_ms=start,
            end_ms=start + rng.uniform(0.05, 0.3) * horizon,
            exec_multiplier=rng.uniform(1.2, 3.0),
            cold_multiplier=rng.uniform(1.0, 2.0)))
    classes: Tuple[WorkerClassSpec, ...] = ()
    if heterogeneity and workers > 1:
        slow = tuple(sorted(rng.sample(range(workers), workers // 2)))
        classes = (WorkerClassSpec(
            "slow", workers=slow,
            cold_start_multiplier=rng.uniform(1.2, 2.5)),)
    return FaultPlan(
        crashes=tuple(sorted(crash_specs,
                             key=lambda c: (c.at_ms, c.worker_id))),
        stragglers=tuple(straggler_specs),
        worker_classes=classes,
        retry=retry if retry is not None else RetryPolicy())
