"""Deterministic CPU-contention model (the paper's motivating interaction).

The source paper's premise is that concurrency changes performance:
co-located busy containers contend for CPU and inflate execution time,
which is why orchestration must be "concurrency-informed". A
:class:`ContentionModel` makes that interaction part of the simulation
input: each worker has a core budget, and every running execution is
slowed by a factor derived from the number of co-located in-flight
executions on its worker.

Slowdown curves
---------------
With ``busy`` in-flight executions sharing a worker of ``cores`` cores,
the default curve is::

    slowdown(busy) = max(1, busy / cores) ** alpha

``alpha = 1`` is proportional-share scheduling (perfect fair-share CPU
division once the cores are oversubscribed); ``alpha = 0`` is provably
inert (every slowdown is exactly 1.0); intermediate/overshooting alphas
model sub-linear cache pressure or super-linear thrashing. A per-function
``table`` overrides the curve: function ``f`` at concurrency ``k`` uses
``table[f][k - 1]`` (clamped to the last entry), which is how measured
interference profiles plug in.

Execution model
---------------
Orchestrator executions become *progress-based* when a model is attached
(see ``Orchestrator``): each running execution tracks remaining work, and
every concurrency transition on the worker (an execution starting or
finishing, a straggler-window boundary) settles accrued progress at the
old rate and gives the execution a new completion key ``(time, seq)``.
The keys live in the executions' ledgers; the engine heap holds one
completion event per worker, queued under the earliest key, so a
transition costs one heap push however many executions it retimes. A
crash cancels that one event. Straggler ``exec_multiplier`` windows
(:mod:`repro.sim.faults`) multiply into the same rate, so a
mid-execution window edge changes the remaining wall time exactly
instead of being ignored.

Determinism contract
--------------------
``SimulationConfig(contention=None)`` is *inert*: the orchestrator takes
byte-identical decisions and emits a byte-identical event stream to a
build without this module. A fixed model replays bit-identically,
including under ``reference_impl=True``, the sanitizer, and the
packed/fast-forward replay (pinned by ``tests/sim/test_contention.py``).

Like :class:`~repro.sim.faults.FaultPlan`, the model is a frozen
dataclass over tuples: hashable, picklable, and JSON round-trippable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.faults import check_count, check_finite

#: Schema tag written by :meth:`ContentionModel.to_dict`.
MODEL_SCHEMA = "repro/contention-model/v1"


@dataclass(frozen=True)
class ContentionModel:
    """Per-worker CPU-contention slowdown model.

    Parameters
    ----------
    cores:
        Core budget of each worker. Up to ``cores`` concurrent
        executions run at full speed; beyond that the curve kicks in.
    alpha:
        Exponent of the default curve ``max(1, busy/cores) ** alpha``.
        ``0`` makes the model inert, ``1`` is proportional share.
    table:
        Optional per-function overrides as ``((func, (s1, s2, ...)),
        ...)``: function ``func`` at concurrency ``k`` is slowed by the
        ``k``-th factor (1-based, clamped to the last entry), replacing
        the curve entirely for that function.
    """

    cores: int = 4
    alpha: float = 1.0
    table: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(
            (name, tuple(factors)) for name, factors in self.table))
        check_count("cores", self.cores, low=1)
        check_finite("alpha", self.alpha)
        seen: Dict[str, bool] = {}
        for name, factors in self.table:
            if not name:
                raise ValueError("table entries need a function name")
            if name in seen:
                raise ValueError(f"duplicate table entry for {name!r}")
            seen[name] = True
            if not factors:
                raise ValueError(f"table entry {name!r} lists no factors")
            for i, factor in enumerate(factors):
                check_finite(f"table entry {name!r} factor {i}", factor,
                             strict=True)
        # Lookup cache (not a field: equality/hash/pickle use the tuple).
        object.__setattr__(self, "_lookup", dict(self.table))

    # ------------------------------------------------------------------
    # The query the orchestrator consults on every concurrency transition

    def slowdown(self, busy: int, func: str) -> float:
        """Execution-time factor for ``func`` with ``busy`` in-flight
        executions sharing the worker (``busy`` includes the execution
        being priced; always >= 1)."""
        factors = self._lookup.get(func)
        if factors is not None:
            index = busy - 1
            if index >= len(factors):
                index = len(factors) - 1
            return factors[index]
        return self.curve(busy)

    def curve(self, busy: int) -> float:
        """The default curve at ``busy``: the slowdown of every function
        that ``table`` does not name, so one call prices a whole worker."""
        if busy <= self.cores:
            return 1.0
        return (busy / self.cores) ** self.alpha

    # ------------------------------------------------------------------
    # JSON round trip (mirrors FaultPlan)

    def to_dict(self) -> dict:
        return {
            "schema": MODEL_SCHEMA,
            "cores": self.cores,
            "alpha": self.alpha,
            "table": {name: list(factors) for name, factors in self.table},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ContentionModel":
        schema = payload.get("schema", MODEL_SCHEMA)
        if schema != MODEL_SCHEMA:
            raise ValueError(f"unknown contention-model schema {schema!r}")
        table = payload.get("table", {})
        return cls(cores=payload.get("cores", 4),
                   alpha=payload.get("alpha", 1.0),
                   table=tuple((name, tuple(table[name]))
                               for name in sorted(table)))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "ContentionModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
