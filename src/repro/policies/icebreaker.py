"""IceBreaker — prediction-based function pre-warming [ASPLOS '22].

IceBreaker predicts each function's next invocation (the original uses a
Fourier-based time-series model over per-minute counts) and warms a
container shortly before the predicted arrival; functions predicted to stay
quiet are deactivated to save keep-alive cost. The original additionally
splits the warm pool across heterogeneous (cheap/expensive) servers; the
paper's controlled comparison runs it on a homogeneous cluster, which is
what this model reflects (§5.1 notes the homogeneous setting diminishes
IceBreaker's optimizer).

The predictor here is an exponentially weighted moving average (EWMA) over
inter-arrival times — the standard lightweight stand-in for the Fourier
model, with the same qualitative behaviour: periodic/steady functions are
predicted well and get prewarmed; bursty concurrent arrivals are not
captured, so concurrency spikes still pay cold starts (the weakness the
paper exploits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.policies.base import OrchestrationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.container import Container
    from repro.sim.request import Request
    from repro.sim.worker import Worker


@dataclass
class _ArrivalModel:
    """EWMA inter-arrival predictor for one function."""

    alpha: float
    last_arrival_ms: Optional[float] = None
    ewma_iat_ms: Optional[float] = None

    def observe(self, now: float) -> None:
        if self.last_arrival_ms is not None:
            iat = now - self.last_arrival_ms
            if self.ewma_iat_ms is None:
                self.ewma_iat_ms = iat
            else:
                self.ewma_iat_ms = (self.alpha * iat
                                    + (1 - self.alpha) * self.ewma_iat_ms)
        self.last_arrival_ms = now

    def predicted_next_ms(self) -> Optional[float]:
        if self.last_arrival_ms is None or self.ewma_iat_ms is None:
            return None
        return self.last_arrival_ms + self.ewma_iat_ms


class IceBreakerPolicy(OrchestrationPolicy):
    """EWMA-driven pre-warming and deactivation.

    Parameters
    ----------
    alpha:
        EWMA smoothing weight for inter-arrival times.
    horizon_ms:
        Pre-warm when the predicted next arrival falls within this lookahead
        and the cold start would not finish in time otherwise.
    deactivate_factor:
        Evict an idle container once it has been idle longer than
        ``deactivate_factor`` times the function's predicted inter-arrival.
    """

    name = "IceBreaker"

    def __init__(self, alpha: float = 0.3, horizon_ms: float = 3_000.0,
                 deactivate_factor: float = 8.0,
                 scan_interval_ms: float = 1_000.0):
        super().__init__()
        self.alpha = alpha
        self.horizon_ms = horizon_ms
        self.deactivate_factor = deactivate_factor
        self.maintenance_interval_ms = scan_interval_ms
        self._models: Dict[str, _ArrivalModel] = {}
        #: GDSF-style frequency for pressure eviction ordering.
        self._freq: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def _model(self, func: str) -> _ArrivalModel:
        model = self._models.get(func)
        if model is None:
            model = self._models[func] = _ArrivalModel(self.alpha)
        return model

    def on_request_arrival(self, request: "Request", worker: "Worker",
                           now: float) -> None:
        super().on_request_arrival(request, worker, now)
        self._model(request.func).observe(now)
        self._freq[request.func] = self._freq.get(request.func, 0) + 1

    # ------------------------------------------------------------------
    # Pressure eviction: benefit-per-byte (cost-aware, GDSF-flavoured)

    def priority(self, container: "Container", now: float) -> float:
        spec = container.spec
        freq = self._freq.get(spec.name, 1)
        idle_ms = max(now - container.last_used_ms, 1.0)
        return freq * spec.cold_start_ms / (spec.memory_mb * idle_ms)

    # ------------------------------------------------------------------
    # Maintenance: prewarm predicted-hot, deactivate predicted-cold

    def on_maintenance(self, now: float) -> None:
        assert self.ctx is not None
        for worker in self.ctx.workers():
            self._deactivate(worker, now)
            self._prewarm(worker, now)

    def _deactivate(self, worker: "Worker", now: float) -> None:
        assert self.ctx is not None
        for container in list(worker.evictable()):
            model = self._models.get(container.spec.name)
            if model is None or model.ewma_iat_ms is None:
                continue
            threshold = self.deactivate_factor * model.ewma_iat_ms
            if now - container.last_used_ms > threshold:
                self.ctx.evict(container)

    def _prewarm(self, worker: "Worker", now: float) -> None:
        assert self.ctx is not None
        for func in list(worker.all_funcs()):
            self._maybe_prewarm(worker, func, now)
        # Also consider functions with history but no containers at all.
        for func, model in self._models.items():
            if not worker.func_count(func):
                self._maybe_prewarm(worker, func, now)

    def _maybe_prewarm(self, worker: "Worker", func: str,
                       now: float) -> None:
        assert self.ctx is not None
        model = self._models.get(func)
        if model is None:
            return
        predicted = model.predicted_next_ms()
        if predicted is None or not (now <= predicted <= now
                                     + self.horizon_ms):
            return
        if worker.idle_count(func) or worker.provisioning_count(func):
            return  # already warm or warming
        spec = self.ctx.spec_of(func)
        # Only prewarm when the container can plausibly be ready in time.
        if predicted - now < spec.cold_start_ms * 0.1:
            return
        self.ctx.prewarm(spec, worker)
