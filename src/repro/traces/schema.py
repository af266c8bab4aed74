"""Trace schema: a workload is functions + timestamped invocation requests.

A :class:`Trace` bundles the deployed :class:`~repro.sim.function.FunctionSpec`
set with the invocation :class:`~repro.sim.request.Request` list and carries
the metadata the analysis and bench layers need (name, duration). Traces are
value objects: transforms (:mod:`repro.traces.transforms`) return new traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.sim.function import FunctionSpec
from repro.sim.request import Request


@dataclass
class Trace:
    """One replayable FaaS workload."""

    name: str
    functions: List[FunctionSpec]
    requests: List[Request]

    def __post_init__(self) -> None:
        known = {f.name for f in self.functions}
        if len(known) != len(self.functions):
            seen = set()
            for spec in self.functions:
                if spec.name in seen:
                    raise ValueError(
                        f"trace {self.name!r}: duplicate function name "
                        f"{spec.name!r}")
                seen.add(spec.name)
        for req in self.requests:
            if req.func not in known:
                index = next(i for i, r in enumerate(self.requests)
                             if r is req)
                raise ValueError(
                    f"trace {self.name!r}: request {index} targets "
                    f"unknown function {req.func!r}")
        self.requests.sort(key=lambda r: r.arrival_ms)
        for i, req in enumerate(self.requests):
            req.req_id = i

    # ------------------------------------------------------------------

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def duration_ms(self) -> float:
        """Span from the first arrival to the last completion-relevant
        arrival (0 for an empty trace)."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_ms - self.requests[0].arrival_ms

    def spec_of(self, func: str) -> FunctionSpec:
        return self._spec_index()[func]

    def _spec_index(self) -> Dict[str, FunctionSpec]:
        index = getattr(self, "_index", None)
        if index is None:
            index = {f.name: f for f in self.functions}
            object.__setattr__(self, "_index", index)
        return index

    # ------------------------------------------------------------------

    def packed(self):
        """The trace compiled into flat parallel arrays, cached.

        Returns a :class:`repro.traces.packed.PackedTrace`; the replay
        hot path streams arrivals straight off its columns and
        materializes request records lazily. Traces are value objects,
        so the compiled form is computed once and reused (mutating a
        trace after packing is a caller error, exactly as for the
        content digest).
        """
        packed = getattr(self, "_packed", None)
        if packed is None:
            from repro.traces.packed import pack_trace
            packed = pack_trace(self)
            object.__setattr__(self, "_packed", packed)
        return packed

    def fresh_requests(self) -> List[Request]:
        """A deep-enough copy of the request list for one simulation run.

        Simulations mutate outcome fields on requests, so each run must
        replay its own copies.
        """
        return [Request(r.func, r.arrival_ms, r.exec_ms, req_id=r.req_id)
                for r in self.requests]

    def subset(self, funcs: Iterable[str], name: str = "") -> "Trace":
        """Restrict the trace to ``funcs``."""
        keep = set(funcs)
        return Trace(
            name or f"{self.name}-subset",
            [f for f in self.functions if f.name in keep],
            [Request(r.func, r.arrival_ms, r.exec_ms)
             for r in self.requests if r.func in keep],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Trace {self.name!r}: {self.num_functions} functions, "
                f"{self.num_requests} requests, "
                f"{self.duration_ms / 60000:.1f} min>")
