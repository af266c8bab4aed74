"""Synthetic workload generation primitives.

The paper evaluates on production traces from Azure Functions and Alibaba
Cloud FC that are not redistributable (the Azure 2019 dataset is public but
not shipped here; the FC trace is internal). This module provides the
statistical machinery to synthesize workloads that match the papers'
published *distributional shape*, which is what the policy comparison
depends on:

* heavy-tailed function popularity (a few hot functions dominate);
* batch ("burst") arrivals producing the concurrency CDF of Fig. 3;
* lognormal execution times with the high per-function variance of §2.6;
* memory footprints drawn from the discrete sizes cloud FaaS offers;
* cold-start costs proportional to memory (Fig. 2's 1-3 ms/MB estimate)
  or drawn from an FC-like latency distribution.

Everything draws from a caller-supplied ``numpy`` generator so that traces
are fully reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.function import FunctionSpec
from repro.sim.request import Request
from repro.traces.schema import Trace

#: Common FaaS memory tiers (MB) and Azure-like selection weights.
MEMORY_TIERS_MB: Tuple[float, ...] = (128, 192, 256, 384, 512, 1024, 1536)
MEMORY_TIER_WEIGHTS: Tuple[float, ...] = (0.30, 0.15, 0.22, 0.10, 0.13,
                                          0.07, 0.03)


@dataclass
class FunctionPopulation:
    """Distributional knobs for a synthetic function population.

    Parameters
    ----------
    popularity_alpha:
        Zipf-like exponent for per-function request share: share of
        function ``i`` (1-indexed by rank) is proportional to
        ``rank ** -popularity_alpha``. Azure's workload is famously skewed
        (alpha around 1).
    exec_median_ms_log_mu / exec_median_ms_log_sigma:
        Lognormal hyper-prior for each function's *median* execution time.
    exec_cv:
        Per-request coefficient of variation around the function's median —
        §2.6 reports most functions vary by ~25%.
    cold_ms_per_mb:
        Cold-start cost per MB of memory (Fig. 2 estimates 1-3 ms/MB).
    cold_noise_cv:
        Lognormal noise on the per-function cold-start cost.
    """

    popularity_alpha: float = 1.0
    exec_median_ms_log_mu: float = math.log(250.0)
    exec_median_ms_log_sigma: float = 1.0
    exec_cv: float = 0.25
    cold_ms_per_mb: float = 1.0
    cold_noise_cv: float = 0.3
    memory_tiers_mb: Sequence[float] = MEMORY_TIERS_MB
    memory_weights: Sequence[float] = MEMORY_TIER_WEIGHTS
    runtimes: Sequence[str] = ("python3.8", "nodejs14", "dotnet6", "java11")
    runtime_weights: Sequence[float] = (0.45, 0.30, 0.15, 0.10)


@dataclass
class ArrivalModel:
    """Burst-arrival knobs shaping the concurrency distribution (Fig. 3).

    Requests arrive in *bursts*: burst epochs follow a Poisson process per
    function and each burst carries a geometric/heavy-tailed number of
    near-simultaneous requests, jittered over ``burst_spread_ms``. A burst
    of size 40 within a second is exactly the "concurrency-driven scaling"
    the paper studies.

    Parameters
    ----------
    burst_size_p:
        Geometric parameter for the common case (mean burst 1/p).
    heavy_tail_prob / heavy_tail_pareto_alpha / heavy_tail_scale:
        With small probability a burst instead draws from a Pareto tail,
        producing the 99th-percentile concurrency spikes of Fig. 3.
    burst_spread_ms:
        Requests of one burst spread uniformly over this window.
    """

    burst_size_p: float = 0.6
    heavy_tail_prob: float = 0.02
    heavy_tail_pareto_alpha: float = 1.3
    heavy_tail_scale: float = 8.0
    max_burst: int = 2_000
    burst_spread_ms: float = 250.0
    #: Temporal clustering: bursts of one function arrive inside ON
    #: windows rather than uniformly over the trace (FaaS demand is
    #: episodic — a function is hot for a while, then quiet). Set
    #: ``bursts_per_window`` to 0 to disable clustering.
    bursts_per_window: float = 20.0
    on_window_ms: float = 120_000.0
    #: Fraction of a function's requests arriving as a *steady* stream of
    #: singletons inside its ON windows (timer/HTTP trickle traffic)
    #: rather than as concurrent bursts. A steady component keeps
    #: completions flowing between bursts, which is what makes the §2.5
    #: opportunity space insensitive to execution-time scaling (Fig. 10).
    steady_fraction: float = 0.35


def zipf_shares(n: int, alpha: float) -> np.ndarray:
    """Normalized Zipf popularity shares for ``n`` ranks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def draw_burst_sizes(rng: np.random.Generator, count: int,
                     model: ArrivalModel) -> np.ndarray:
    """Draw ``count`` burst sizes from the mixed geometric/Pareto model."""
    if count == 0:
        return np.zeros(0, dtype=int)
    sizes = rng.geometric(model.burst_size_p, size=count)
    heavy = rng.random(count) < model.heavy_tail_prob
    n_heavy = int(heavy.sum())
    if n_heavy:
        tail = (model.heavy_tail_scale
                * (1.0 + rng.pareto(model.heavy_tail_pareto_alpha,
                                    size=n_heavy)))
        sizes[heavy] = np.ceil(tail).astype(int)
    return np.clip(sizes, 1, model.max_burst)


def synth_functions(rng: np.random.Generator, n: int,
                    population: FunctionPopulation,
                    prefix: str = "fn") -> List[FunctionSpec]:
    """Draw ``n`` function specs from the population hyper-priors."""
    memory = rng.choice(population.memory_tiers_mb, size=n,
                        p=np.asarray(population.memory_weights)
                        / np.sum(population.memory_weights))
    runtimes = rng.choice(population.runtimes, size=n,
                          p=np.asarray(population.runtime_weights)
                          / np.sum(population.runtime_weights))
    cold_noise = rng.lognormal(mean=0.0, sigma=population.cold_noise_cv,
                               size=n)
    specs = []
    for i in range(n):
        cold = float(memory[i]) * population.cold_ms_per_mb * cold_noise[i]
        specs.append(FunctionSpec(
            name=f"{prefix}-{i:04d}",
            memory_mb=float(memory[i]),
            cold_start_ms=max(cold, 1.0),
            runtime=str(runtimes[i]),
        ))
    return specs


def synth_trace(name: str,
                rng: np.random.Generator,
                n_functions: int,
                duration_ms: float,
                total_requests: int,
                population: Optional[FunctionPopulation] = None,
                arrivals: Optional[ArrivalModel] = None) -> Trace:
    """Generate a complete synthetic trace.

    ``total_requests`` is a target — the realized count differs slightly
    because requests arrive in integer-sized bursts.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if total_requests < 1:
        raise ValueError("total_requests must be >= 1")
    population = population or FunctionPopulation()
    arrivals = arrivals or ArrivalModel()
    specs = synth_functions(rng, n_functions, population)

    shares = zipf_shares(n_functions, population.popularity_alpha)
    # Shuffle so rank is independent of memory/cold-cost draws.
    rng.shuffle(shares)

    # Per-function median execution time (volatile per request, §2.6).
    exec_medians = rng.lognormal(population.exec_median_ms_log_mu,
                                 population.exec_median_ms_log_sigma,
                                 size=n_functions)

    mean_burst = _mean_burst_size(arrivals)
    requests: List[Request] = []
    exec_sigma = _cv_to_sigma(population.exec_cv)
    for i, spec in enumerate(specs):
        fn_requests = shares[i] * total_requests
        steady_requests = fn_requests * arrivals.steady_fraction
        burst_requests = fn_requests - steady_requests
        n_bursts = max(int(round(burst_requests / mean_burst)), 0)
        if n_bursts == 0 and rng.random() < burst_requests / mean_burst:
            n_bursts = 1
        n_steady = int(round(steady_requests))
        if n_bursts == 0 and n_steady == 0:
            continue
        # Bursts and the steady trickle share the function's ON windows.
        centers = _window_centers(rng, n_bursts + n_steady, duration_ms,
                                  arrivals)
        epochs = _epochs_in_windows(rng, centers, n_bursts, duration_ms,
                                    arrivals)
        sizes = draw_burst_sizes(rng, n_bursts, arrivals)
        if n_steady:
            epochs = np.concatenate([
                epochs,
                _epochs_in_windows(rng, centers, n_steady, duration_ms,
                                   arrivals)])
            sizes = np.concatenate([sizes,
                                    np.ones(n_steady, dtype=int)])
        # Two draws per burst, in stream order; ``uniform(0, s)`` is
        # ``s * random()`` bit for bit, so the arithmetic can run on the
        # function's draws at once (in place, to keep the peak low).
        jitter = np.empty(int(sizes.sum()))
        execs = np.empty_like(jitter)
        end = 0
        for size in sizes.tolist():
            start, end = end, end + size
            rng.random(out=jitter[start:end])
            execs[start:end] = rng.lognormal(0.0, exec_sigma, size=size)
        jitter *= arrivals.burst_spread_ms
        arrival = np.repeat(epochs, sizes)
        arrival += jitter
        del jitter
        execs *= exec_medians[i]
        np.maximum(execs, 1.0, out=execs)
        requests.extend(map(Request, repeat(spec.name), arrival.tolist(),
                            execs.tolist()))
    if not requests:
        raise RuntimeError("generated an empty trace; raise total_requests")
    return Trace(name, specs, requests)


def _window_centers(rng: np.random.Generator, n_epochs: int,
                    duration_ms: float,
                    model: ArrivalModel) -> np.ndarray:
    """ON-window centers for a function with ``n_epochs`` burst/steady
    epochs. Episodic demand is what makes keep-alive (and CSS's
    wasted-cold-start hints) meaningful: a function's containers see
    sustained reuse while it is ON.
    """
    if model.bursts_per_window <= 0:
        return np.zeros(0)
    n_windows = max(int(math.ceil(n_epochs / model.bursts_per_window)), 1)
    return rng.uniform(0.0, duration_ms, size=n_windows)


def _epochs_in_windows(rng: np.random.Generator, centers: np.ndarray,
                       n: int, duration_ms: float,
                       model: ArrivalModel) -> np.ndarray:
    """Draw ``n`` epochs uniformly inside the given ON windows (or over
    the whole trace when clustering is disabled)."""
    if n == 0:
        return np.zeros(0)
    if centers.size == 0:
        return rng.uniform(0.0, duration_ms, size=n)
    which = rng.integers(0, centers.size, size=n)
    offsets = rng.uniform(-model.on_window_ms / 2.0,
                          model.on_window_ms / 2.0, size=n)
    return np.clip(centers[which] + offsets, 0.0, duration_ms)


def _mean_burst_size(model: ArrivalModel) -> float:
    geometric_mean = 1.0 / model.burst_size_p
    if model.heavy_tail_pareto_alpha > 1.0:
        tail_mean = (model.heavy_tail_scale
                     * model.heavy_tail_pareto_alpha
                     / (model.heavy_tail_pareto_alpha - 1.0))
    else:  # undefined mean; use a pragmatic proxy
        tail_mean = model.heavy_tail_scale * 10.0
    return ((1.0 - model.heavy_tail_prob) * geometric_mean
            + model.heavy_tail_prob * tail_mean)


def _cv_to_sigma(cv: float) -> float:
    """Lognormal sigma achieving coefficient of variation ``cv``."""
    return math.sqrt(math.log(1.0 + cv * cv))
