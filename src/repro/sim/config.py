"""Simulation configuration.

One :class:`SimulationConfig` object captures every knob the paper's
evaluation turns: cache capacity (Fig. 12), intra-container threads
(Fig. 21), worker count (the §5.2 production setup), and bookkeeping
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.contention import ContentionModel
from repro.sim.faults import FaultPlan

MB_PER_GB = 1024.0


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one simulation run.

    Parameters
    ----------
    capacity_gb:
        Total function-cache memory across all workers. The paper sweeps
        80-160 GB (Fig. 12) with 100 GB as the default (§5.5).
    workers:
        Number of servers sharing the capacity evenly. The paper's testbed
        has 3 servers; a single worker models the aggregate cache, which is
        how the paper's simulator-based analyses (§2.4) treat it.
    threads_per_container:
        Execution slots per container (Fig. 21); default 1.
    memory_sample_interval_ms:
        Period of the memory-usage sampler (Fig. 16's GB series).
    dispatch:
        ``"single"`` (one logical cache) or ``"hash"`` (requests of one
        function stick to one worker) or ``"least-loaded"``.
    seed:
        Seed for the orchestrator's :class:`random.Random` instance,
        available to stochastic policies via ``ctx.rng``. The core
        simulator never draws from it, so replays stay deterministic
        either way; ``None`` behaves like ``0``. The parallel experiment
        runner derives a distinct per-cell seed from its base ``--seed``
        so a sweep is reproducible cell-by-cell regardless of worker
        count or scheduling order.
    reference_impl:
        Run with the naive scanning reference implementations (full-heap
        liveness scans, per-call container list rebuilding, sort-based
        eviction ranking) instead of the incrementally maintained indexes.
        Results are bit-identical either way — the flag exists for the
        differential tests and for benchmarking the index speedup.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan`: scheduled worker
        crashes/restarts, straggler windows and heterogeneous worker
        classes. ``None`` (the default) keeps the fault layer provably
        inert — the event stream is bit-identical to a faults-free build.
    fast_forward:
        Skip idle gaps analytically on the packed-trace replay path: when
        nothing but periodic ticks (memory sampling, policy maintenance)
        precedes the next arrival and the policy proves its maintenance
        inert over the gap (:meth:`~repro.policies.base.
        OrchestrationPolicy.maintenance_horizon`), the ticks are replayed
        in closed form instead of through the event loop. Results are
        bit-identical either way (pinned by the differential tests); the
        flag only trades replay fidelity mechanisms for speed on sparse
        traces. Ignored under ``reference_impl`` and whenever a
        time-series recorder is attached.
    contention:
        Optional :class:`~repro.sim.contention.ContentionModel`: each
        worker gets a CPU core budget and co-located in-flight
        executions slow each other down, with completions tracked as
        remaining work re-keyed on every concurrency transition
        (progress-based execution). ``None`` (the default) keeps the
        contention layer provably inert — the event stream is
        bit-identical to a contention-free build.
    """

    capacity_gb: float = 100.0
    workers: int = 1
    threads_per_container: int = 1
    memory_sample_interval_ms: float = 1_000.0
    dispatch: str = "hash"
    seed: Optional[int] = None
    reference_impl: bool = False
    faults: Optional[FaultPlan] = None
    fast_forward: bool = False
    contention: Optional[ContentionModel] = None

    def __post_init__(self) -> None:
        if self.capacity_gb <= 0:
            raise ValueError("capacity_gb must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.threads_per_container < 1:
            raise ValueError("threads_per_container must be >= 1")
        if self.dispatch not in ("single", "hash", "least-loaded"):
            raise ValueError(f"unknown dispatch policy {self.dispatch!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ValueError("seed must be an int or None")
        if self.faults is not None:
            self.faults.validate(self.workers)
        if (self.contention is not None
                and not isinstance(self.contention, ContentionModel)):
            raise ValueError("contention must be a ContentionModel or None")

    @property
    def capacity_mb(self) -> float:
        return self.capacity_gb * MB_PER_GB

    @property
    def per_worker_mb(self) -> float:
        return self.capacity_mb / self.workers
