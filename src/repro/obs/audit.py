"""Decision-audit probe: structured records explaining policy choices.

A :class:`DecisionAudit` attached to a run receives one record per
policy decision worth explaining:

``css_scale``
    Every :meth:`CSSScalingMixin.scale` call — the four window stats
    ``T_i/T_e/T_d/T_p`` behind Algorithm 1, the branch taken
    (``speculate`` / ``disable`` / ``reopen`` / ``stay_queued``), the
    post-call ``bss_enabled`` state, and (when evaluated) the
    backlog-projection inputs.

``gate_flip``
    Each per-function ``bss_enabled`` transition, with timestamp, the
    comparison that caused it (``T_i>T_e`` or ``T_d>T_p``) and whether
    it fired from ``scale()`` or maintenance.

``eviction_decision``
    Each base ``make_room`` REPLACE decision — every victim's Eq. 3
    decomposition (``clock``, ``freq_per_min``, ``cost_ms``,
    ``size_mb``, ``warm_count`` = ``|F(c)|``, final ``priority``) plus
    a ranking snapshot of the surviving candidates.

Records are plain dicts (JSON-ready, compact keys mirroring
``event_to_dict``) kept in an in-memory ring and optionally streamed to
:class:`AuditSink`\\ s — the JSONL sidecar sink mirrors
:class:`repro.sim.telemetry.JsonlSink`.

The ring stores compact rows, not the dicts: one tuple of values per
record under an interned tuple of its keys (its schema), and each nested
list of same-keyed dicts (an eviction's ``victims`` and ``survivors``)
as a :class:`Rows` value built at the emit site with
:meth:`DecisionAudit.table`. A record's ``did`` is its position in the
stream and is not stored. :attr:`DecisionAudit.records` is a read-only
sequence view that builds the dicts on access, with the same keys in the
same order and the same JSON bytes as the records emitted; sinks receive
such a dict, built only when a sink is attached. The audit is strictly
read-only: attaching one leaves runs bit-identical to unaudited runs
(pinned by ``tests/obs/test_audit_differential.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.sim.eventlog import RingView, ring_slots

__all__ = ["AuditSink", "AuditJsonlSink", "DecisionAudit",
           "RECORD_KINDS", "Rows", "read_audit_jsonl"]

#: Every record kind a :class:`DecisionAudit` can emit. ``scale_down``
#: records are minted by the orchestrator for policy-direct evictions
#: (TTL expiry, keep-alive decay) so cold-start attribution can blame
#: them by ``decision_id`` like any REPLACE decision.
RECORD_KINDS = ("css_scale", "gate_flip", "eviction_decision",
                "scale_down")


class AuditSink:
    """Receives audit records as they are emitted.

    Same contract as :class:`repro.sim.telemetry.EventSink`, but for
    decision records (plain dicts) instead of lifecycle events.
    """

    def emit(self, record: Dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "AuditSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AuditJsonlSink(AuditSink):
    """Streams audit records to a JSONL sidecar file, one per line."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self.emitted = 0

    def emit(self, record: Dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_audit_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Load the records written by :class:`AuditJsonlSink`."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class Rows(tuple):
    """A nested list of same-keyed dicts, stored as ``(keys, rows)``: one
    tuple of key names and one tuple of values per dict. Build one with
    :meth:`DecisionAudit.table`; readers see :meth:`dicts`."""

    __slots__ = ()

    def dicts(self) -> List[Dict]:
        keys, rows = self
        return [dict(zip(keys, row)) for row in rows]


def _decode(keys: tuple, row: tuple, did: int) -> Dict:
    """The record dict stored as ``row`` under ``keys``, stamped ``did``."""
    record = dict(zip(keys, row))
    for key, value in record.items():
        if type(value) is Rows:
            record[key] = value.dicts()
    record["did"] = did
    return record


class DecisionAudit:
    """In-memory record ring + sink fan-out for policy decisions.

    ``capacity=None`` keeps every record; a finite capacity keeps the
    most recent ones (sinks still see the full stream, like
    ``EventLog``'s ring/sink split). The ring holds one row per record
    (see the module docstring); :attr:`records` reads it back as dicts.
    """

    def __init__(self, sinks: Sequence[AuditSink] = (),
                 capacity: Optional[int] = None):
        self.capacity = capacity
        self._bound = sys.maxsize if capacity is None else capacity
        self.recorded = 0
        #: Per held record, its interned key tuple and its value tuple.
        self._keys: List[tuple] = []
        self._rows: List[tuple] = []
        #: key tuple -> the one instance of it every record shares.
        self._schemas: Dict[tuple, tuple] = {}
        self._sinks: List[AuditSink] = list(sinks)

    @property
    def sinks(self) -> Sequence[AuditSink]:
        return tuple(self._sinks)

    @property
    def records(self) -> RingView:
        """The held records, oldest first, as a read-only sequence of
        dicts built on access."""
        return RingView(self)

    def attach(self, sink: AuditSink) -> AuditSink:
        self._sinks.append(sink)
        return sink

    def table(self, keys: tuple, rows: Iterable[tuple]) -> Rows:
        """A nested record list for :meth:`emit`: ``rows`` are value
        tuples in ``keys`` order; readers see ``[dict(zip(keys, row))
        for row in rows]``."""
        return Rows((self._schemas.setdefault(keys, keys), tuple(rows)))

    def emit(self, record: Dict) -> int:
        """Record one decision; returns its stable ``decision_id``.

        Decision ids are assigned monotonically from 0 in emission order
        — the audit stream's line number — so sidecar files, the
        in-memory ring and cause stamps (``eviction:<id>``) all agree.
        The caller's dict is never mutated or kept: the ring stores its
        keys and values, and readers and sinks see a copy stamped with
        the ``did`` key.
        """
        did = self.recorded
        self.recorded = did + 1
        keys = tuple(record)
        keys = self._schemas.setdefault(keys, keys)
        row = tuple(record.values())
        if did < self._bound:
            self._keys.append(keys)
            self._rows.append(row)
        elif self._bound:
            slot = did % self._bound
            self._keys[slot] = keys
            self._rows[slot] = row
        if self._sinks:
            stamped = _decode(keys, row, did)
            for sink in self._sinks:
                sink.emit(stamped)
        return did

    @property
    def dropped(self) -> int:
        """Records rotated out of a bounded ring (sinks saw them all)."""
        return self.recorded - len(self._rows)

    def _row(self, slot: int, did: int) -> Dict:
        """The record held in ``slot``, stamped with its ``did``."""
        return _decode(self._keys[slot], self._rows[slot], did)

    def of_kind(self, kind: str) -> List[Dict]:
        """The held records of one kind (filtered before decoding)."""
        keys, rows = self._keys, self._rows
        out = []
        for did, slot in ring_slots(len(rows), self.dropped):
            schema = keys[slot]
            if "kind" in schema and rows[slot][schema.index("kind")] == kind:
                out.append(self._row(slot, did))
        return out

    def record_by_id(self, did: int) -> Optional[Dict]:
        """The record with decision id ``did`` still held in the ring.

        O(1): ids are stream positions, so on a bounded ring the oldest
        records rotate out and return ``None``.
        """
        size = len(self._rows)
        if 0 <= did - self.dropped < size:
            return self._row(did % size, did)
        return None

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict]:
        keys, rows = self._keys, self._rows
        for did, slot in ring_slots(len(rows), self.dropped):
            yield _decode(keys[slot], rows[slot], did)
