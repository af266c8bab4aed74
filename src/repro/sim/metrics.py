"""Metric collection and aggregate results.

The orchestrator records every completed request plus periodic memory-usage
samples into a :class:`MetricsCollector`; :class:`SimulationResult` wraps the
raw records with the aggregate statistics reported in the paper:

* cold / warm / delayed start ratios (Fig. 12(b,d), Table 2),
* average overhead ratio (Fig. 12(a,c), Figs 15, 17, 18, 21),
* invocation-overhead and E2E-service-time distributions (Fig. 13, 14, 19),
* average memory usage (Fig. 16),
* wasted speculative cold starts (§3.2's CSS motivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.sim.request import Request, StartType


@dataclass(slots=True)
class MemorySample:
    """One cluster memory sample; slotted, as a run keeps one per tick."""

    time_ms: float
    used_mb: float


class MetricsCollector:
    """Accumulates per-request and per-sample records during a run."""

    def __init__(self) -> None:
        self.requests: List[Request] = []
        self.memory_samples: List[MemorySample] = []
        self.cold_starts_begun = 0
        self.wasted_cold_starts = 0   # speculative containers never reused
        self.evictions = 0
        self.prewarm_starts = 0
        self.restores = 0   # compressed-container restores (CodeCrunch)
        #: Total memory of all containers provisioned over the run (the
        #: Fig. 16 "memory usage" metric — it can exceed the cache size).
        self.provisioned_mb = 0.0
        # Fault-injection accounting (all stay 0 without a FaultPlan).
        self.worker_crashes = 0
        self.crash_destroyed = 0      # containers destroyed by crashes
        self.orphaned_requests = 0    # in-flight executions lost to crashes
        self.reassigned_requests = 0  # re-dispatches (retries + re-routes)
        self.failed_requests: List[Request] = []

    def record_request(self, request: Request) -> None:
        self.requests.append(request)

    def record_failed(self, request: Request) -> None:
        self.failed_requests.append(request)

    def record_memory(self, time_ms: float, used_mb: float) -> None:
        self.memory_samples.append(MemorySample(time_ms, used_mb))

    def result(self) -> "SimulationResult":
        return SimulationResult(
            requests=self.requests,
            memory_samples=self.memory_samples,
            cold_starts_begun=self.cold_starts_begun,
            wasted_cold_starts=self.wasted_cold_starts,
            evictions=self.evictions,
            prewarm_starts=self.prewarm_starts,
            restores=self.restores,
            provisioned_mb=self.provisioned_mb,
            worker_crashes=self.worker_crashes,
            crash_destroyed=self.crash_destroyed,
            orphaned_requests=self.orphaned_requests,
            reassigned_requests=self.reassigned_requests,
            failed_requests=self.failed_requests,
        )


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    requests: List[Request]
    memory_samples: List[MemorySample] = field(default_factory=list)
    cold_starts_begun: int = 0
    wasted_cold_starts: int = 0
    evictions: int = 0
    prewarm_starts: int = 0
    restores: int = 0
    provisioned_mb: float = 0.0
    # Fault-injection outcomes. ``requests`` holds only *completed*
    # requests; under a FaultPlan the arrivals partition into
    # ``requests`` + ``failed_requests`` (no silent loss).
    worker_crashes: int = 0
    crash_destroyed: int = 0
    orphaned_requests: int = 0
    reassigned_requests: int = 0
    failed_requests: List[Request] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Counts

    def count(self, start_type: StartType) -> int:
        return sum(1 for r in self.requests if r.start_type is start_type)

    @property
    def total(self) -> int:
        return len(self.requests)

    def ratio(self, start_type: StartType) -> float:
        """Fraction of requests served with ``start_type`` starts."""
        if not self.requests:
            return 0.0
        return self.count(start_type) / self.total

    @property
    def cold_start_ratio(self) -> float:
        return self.ratio(StartType.COLD)

    @property
    def warm_start_ratio(self) -> float:
        return self.ratio(StartType.WARM)

    @property
    def delayed_start_ratio(self) -> float:
        return self.ratio(StartType.DELAYED)

    # ------------------------------------------------------------------
    # Latency metrics

    def waits_ms(self) -> np.ndarray:
        """Invocation overhead (ms) for every request."""
        return np.array([r.wait_ms for r in self.requests])

    def service_times_ms(self) -> np.ndarray:
        """End-to-end service time (ms) for every request."""
        return np.array([r.service_ms for r in self.requests])

    def overhead_ratios(self) -> np.ndarray:
        return np.array([r.overhead_ratio for r in self.requests])

    @property
    def avg_overhead_ratio(self) -> float:
        """The paper's headline metric: mean of per-request
        ``wait / (wait + exec)`` (§2.4)."""
        if not self.requests:
            return 0.0
        return float(self.overhead_ratios().mean())

    @property
    def avg_wait_ms(self) -> float:
        if not self.requests:
            return 0.0
        return float(self.waits_ms().mean())

    def wait_percentile(self, q: float) -> float:
        """``q``-th percentile (0-100) of invocation overhead.

        Returns 0.0 on an empty run, like every sibling accessor."""
        if not self.requests:
            return 0.0
        return float(np.percentile(self.waits_ms(), q))

    def service_percentile(self, q: float) -> float:
        if not self.requests:
            return 0.0
        return float(np.percentile(self.service_times_ms(), q))

    # ------------------------------------------------------------------
    # Memory

    @property
    def avg_memory_mb(self) -> float:
        """Time-average of the sampled committed memory (Fig. 16).

        Trapezoidal integration over the sample timestamps, so the value
        is weighted by how long each level was held — an unweighted
        sample mean over-counts whatever level happens to be sampled
        more densely (the sampler's cadence is irregular near run end).
        Degenerate inputs (one sample, or all samples at one instant)
        fall back to the plain mean.
        """
        if not self.memory_samples:
            return 0.0
        values = [s.used_mb for s in self.memory_samples]
        if len(values) == 1:
            return float(values[0])
        times = [s.time_ms for s in self.memory_samples]
        span = times[-1] - times[0]
        if span <= 0:
            return float(np.mean(values))
        return float(np.trapezoid(values, times) / span)

    @property
    def peak_memory_mb(self) -> float:
        if not self.memory_samples:
            return 0.0
        return float(max(s.used_mb for s in self.memory_samples))

    # ------------------------------------------------------------------

    def per_function(self) -> Dict[str, "SimulationResult"]:
        """Split the result by function (keeps only request records)."""
        split: Dict[str, List[Request]] = {}
        for r in self.requests:
            split.setdefault(r.func, []).append(r)
        return {f: SimulationResult(reqs) for f, reqs in split.items()}

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers, handy for tables."""
        return {
            "requests": float(self.total),
            "cold_ratio": self.cold_start_ratio,
            "warm_ratio": self.warm_start_ratio,
            "delayed_ratio": self.delayed_start_ratio,
            "avg_overhead_ratio": self.avg_overhead_ratio,
            "avg_wait_ms": self.avg_wait_ms,
            "p50_wait_ms": self.wait_percentile(50),
            "p99_wait_ms": self.wait_percentile(99),
            "avg_memory_mb": self.avg_memory_mb,
            "wasted_cold_starts": float(self.wasted_cold_starts),
            "evictions": float(self.evictions),
            "worker_crashes": float(self.worker_crashes),
            "orphaned_requests": float(self.orphaned_requests),
            "reassigned_requests": float(self.reassigned_requests),
            "failed_requests": float(len(self.failed_requests)),
        }
