"""Packed traces: a :class:`Trace` compiled into flat parallel arrays.

Replaying a 100k-request trace through per-request :class:`Request`
objects built up front costs two things before the simulation even
starts: ~100k object allocations and ~100k heap pushes to schedule every
arrival as its own engine event. A :class:`PackedTrace` compiles the
request list once into three parallel ``array`` columns —

* ``arrival_ms`` (``'d'``) — non-decreasing arrival timestamps,
* ``exec_ms``    (``'d'``) — execution times,
* ``func_idx``   (``'H'``/``'I'``) — index into the interned function
  table (one entry per distinct :class:`FunctionSpec`, in the trace's
  declared function order).

The orchestrator replays the columns through the engine's arrival
*stream* (:meth:`repro.sim.engine.Simulator.bind_stream`): request
records are materialized lazily — one slotted :class:`Request` per
arrival, at dispatch time — instead of as an up-front object graph, and
same-timestamp bursts dispatch as one batch.

Digest stability: :func:`packed_digest` hashes exactly the bytes that
:func:`repro.experiments.parallel.trace_digest` hashes, so compiling a
trace never changes its content digest and the on-disk sweep cache keys
stay valid across the packed/classic boundary (pinned by
``tests/traces/test_packed.py``).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import List, Optional, Sequence

from repro.sim.function import FunctionSpec
from repro.sim.request import Request


class PackedTrace:
    """Flat-array form of one replayable workload.

    Build via :func:`pack_trace` (or the cached
    :meth:`repro.traces.schema.Trace.packed`). Instances are immutable
    value objects in spirit: the arrays are never mutated after
    construction, and simulations materialize fresh request records per
    run, so one packed trace can back any number of replays.
    """

    #: Duck-type marker the orchestrator dispatches on (avoids a
    #: sim -> traces import cycle).
    is_packed = True

    __slots__ = ("name", "functions", "func_names", "arrival_ms",
                 "exec_ms", "func_idx", "_digest")

    def __init__(self, name: str, functions: Sequence[FunctionSpec],
                 arrival_ms: array, exec_ms: array, func_idx: array,
                 digest: Optional[str] = None):
        n = len(arrival_ms)
        if not (len(exec_ms) == len(func_idx) == n):
            raise ValueError("packed columns must have equal length")
        self.name = name
        self.functions: List[FunctionSpec] = list(functions)
        #: Interned name table: ``func_names[func_idx[i]]`` is request
        #: ``i``'s function. One shared str per function, not per request.
        self.func_names: List[str] = [f.name for f in self.functions]
        self.arrival_ms = arrival_ms
        self.exec_ms = exec_ms
        self.func_idx = func_idx
        self._digest = digest

    # ------------------------------------------------------------------

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    @property
    def num_requests(self) -> int:
        return len(self.arrival_ms)

    @property
    def duration_ms(self) -> float:
        if not len(self.arrival_ms):
            return 0.0
        return self.arrival_ms[-1] - self.arrival_ms[0]

    def digest(self) -> str:
        """Content hash, identical to the source trace's digest."""
        if self._digest is None:
            self._digest = packed_digest(self)
        return self._digest

    # ------------------------------------------------------------------
    # Lazy request materialization

    def materialize(self, i: int) -> Request:
        """Build the slotted request record for arrival ``i``.

        Called by the orchestrator at dispatch time; ``req_id`` is the
        packed row index (identical to the classic path, where
        :class:`~repro.traces.schema.Trace` assigns ids in arrival
        order).
        """
        return Request(self.func_names[self.func_idx[i]],
                       self.arrival_ms[i], self.exec_ms[i], req_id=i)

    def materialize_all(self) -> List[Request]:
        """Fresh request records for one classic (non-stream) replay."""
        names = self.func_names
        idx = self.func_idx
        arrivals = self.arrival_ms
        execs = self.exec_ms
        return [Request(names[idx[i]], arrivals[i], execs[i], req_id=i)
                for i in range(len(arrivals))]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PackedTrace {self.name!r}: {self.num_functions} "
                f"functions, {self.num_requests} requests>")


def pack_trace(trace) -> PackedTrace:
    """Compile a :class:`~repro.traces.schema.Trace` into flat columns.

    The trace's request list is already sorted by arrival with
    ``req_id == index`` (enforced by ``Trace.__post_init__``), so row
    ``i`` of every column corresponds to request id ``i``.
    """
    functions = list(trace.functions)
    index = {f.name: i for i, f in enumerate(functions)}
    typecode = "H" if len(functions) <= 0xFFFF else "I"
    requests = trace.requests
    arrival = array("d", (r.arrival_ms for r in requests))
    execs = array("d", (r.exec_ms for r in requests))
    try:
        fidx = array(typecode, (index[r.func] for r in requests))
    except KeyError:
        row = next(i for i, r in enumerate(requests) if r.func not in index)
        raise ValueError(
            f"trace {trace.name!r}: row {row} targets unknown function "
            f"{requests[row].func!r}") from None
    for i in range(1, len(arrival)):
        if arrival[i] < arrival[i - 1]:
            raise ValueError(
                f"trace {trace.name!r}: arrivals must be non-decreasing, "
                f"but row {i} arrives at {arrival[i]!r} ms, before row "
                f"{i - 1} at {arrival[i - 1]!r} ms")
    digest = getattr(trace, "_content_digest", None)
    return PackedTrace(trace.name, functions, arrival, execs, fidx,
                       digest=digest)


def packed_digest(packed: PackedTrace) -> str:
    """Content hash over the packed columns.

    Byte-for-byte the same hash stream as
    :func:`repro.experiments.parallel.trace_digest` feeds from the
    object form: sorted function specs, then ``(func, arrival, exec)``
    per request in row order. ``array('d')`` stores IEEE-754 doubles —
    i.e. exactly the ``float`` objects the classic path hashes — so the
    ``repr`` round trip is lossless.
    """
    h = hashlib.sha256()
    for f in sorted(packed.functions, key=lambda f: f.name):
        h.update(repr((f.name, f.memory_mb, f.cold_start_ms, f.runtime,
                       getattr(f, "app", ""))).encode())
    names = packed.func_names
    idx = packed.func_idx
    arrivals = packed.arrival_ms
    execs = packed.exec_ms
    for i in range(len(arrivals)):
        h.update(repr((names[idx[i]], arrivals[i], execs[i])).encode())
    return h.hexdigest()
