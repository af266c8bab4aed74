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

Emit sites pass a :class:`~repro.records.Schema` (the record's kind and
key order) and a tuple of values; a plain dict is accepted too. The ring
stores numbers, not the dicts: one block of columns per schema, with
floats in an ``array('d')`` (an ``np.float64`` reads back as ``float``,
with the same JSON), ints in an
``array('q')``, bools in a byte column, strings as codes into a string
table the audit shares, and references only for other values (``None``,
the backlog ``projection`` dict). A column given a value its type cannot
hold exactly (an int ``0`` after floats) turns into references, so
every value reads back with its type and JSON bytes. A nested list of
same-keyed dicts (an eviction's ``victims`` and ``survivors``), built at
the emit site with :meth:`DecisionAudit.table`, goes into its own
block's columns, and the parent row stores where its rows start and how
many there are. A block buffers up to 64 value tuples and moves them
into its columns in one bulk append per column, or sooner when a
reader asks. A record's ``kind`` is implied by its block and its
``did`` by its position in the stream. On the ``observed`` benchmark
input a record costs about 125 bytes, where one value tuple per record
cost about 440. :attr:`DecisionAudit.records` is a read-only sequence
view that builds the dicts on access, with the same keys in the same
order and the same JSON bytes as the records emitted; sinks receive
such a dict, built from the emitted values only when a sink is
attached. The audit is strictly read-only: attaching one leaves runs
bit-identical to unaudited runs
(pinned by ``tests/obs/test_audit_differential.py``).
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.records import Schema, SchemaFamily
from repro.sim.eventlog import RingView, StringTable, ring_slots

__all__ = ["AuditSink", "AuditJsonlSink", "DecisionAudit",
           "RECORD_KINDS", "Rows", "Schema", "SchemaFamily",
           "read_audit_jsonl"]

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


#: Column code -> the value types it stores exactly, and its array
#: typecode.
_TYPED = {"d": (frozenset({float, np.float64}), "d"),
          "q": (frozenset({int}), "q"), "?": (frozenset({bool}), "B"),
          "s": (frozenset({str}), "I"), "t": (frozenset({Rows}), "q")}

#: Rows a block buffers before moving them into its columns.
_BATCH = 64


def _code_of(value) -> str:
    """The column code a column first given ``value`` takes (``r``, a
    list of references, for a type no typed column holds)."""
    cls = type(value)
    for code, (accepts, _) in _TYPED.items():
        if cls in accepts:
            return code
    return "r"


class _Column:
    """One key's values across the rows of a block.

    ``data`` is an ``array`` for typed codes (``d`` float, ``q`` int,
    ``?`` bool, ``s`` a code into the audit's ``strings`` table) and a
    list of references for ``r``. A table column (``t``) keeps each
    row's nested rows in a child block it owns: ``data`` holds the first
    child row's number, ``counts`` how many rows, and ``which`` the
    index of the child block in ``children`` (one per distinct key
    tuple, found by ``child_of``). A column given a value it cannot hold
    exactly turns into references (:meth:`to_refs`) and stays so.
    """

    __slots__ = ("code", "strings", "data", "counts", "which", "children",
                 "child_of")

    def __init__(self, code: str, strings: StringTable):
        self.code = code
        self.strings = strings
        self.data = [] if code == "r" else array(_TYPED[code][1])
        table = code == "t"
        self.counts = array("q") if table else None
        self.which = array("H") if table else None
        self.children: Optional[List[_Block]] = [] if table else None
        self.child_of: Optional[Dict[tuple, int]] = {} if table else None

    def extend(self, values: list) -> None:
        """Append ``values``, in bulk when every one fits exactly."""
        code = self.code
        if code == "r":
            self.data.extend(values)
            return
        if code == "t":
            for value in values:
                # An earlier value may have turned the column into
                # references.
                if type(value) is Rows and self.code == "t":
                    self.append_table(value)
                else:
                    self.append(value)
            return
        if set(map(type, values)) <= _TYPED[code][0]:
            if code == "s":
                values = list(map(self.strings.__getitem__, values))
            try:
                self.data.fromlist(values)  # all or nothing
                return
            except OverflowError:  # an int beyond int64
                pass
        for value in values:
            self.append(value)

    def append(self, value) -> None:
        """Append one value, turning the column into references first
        when it cannot hold ``value`` exactly."""
        code = self.code
        if code != "r" and type(value) in _TYPED[code][0]:
            if code == "t":
                self.append_table(value)
                return
            try:
                self.data.append(self.strings[value] if code == "s"
                                 else value)
                return
            except OverflowError:  # an int beyond int64
                pass
        self.to_refs()
        self.data.append(value)

    def append_table(self, value: Rows) -> None:
        keys, rows = value
        if not rows:
            self.data.append(0)
            self.which.append(0)
            self.counts.append(0)
            return
        which = self.child_of.get(keys)
        if which is None:
            which = self.child_of[keys] = len(self.children)
            self.children.append(_Block(Schema(None, keys), rows[0],
                                        self.strings))
        child = self.children[which]
        self.data.append(child.end)
        self.which.append(which)
        self.counts.append(len(rows))
        child.extend(rows)

    def to_refs(self) -> None:
        """Hold references to the values read back so far instead."""
        if self.code == "r":
            return
        if self.code == "t":
            for child in self.children:
                child.flush()
        self.data = [self.stored(i) for i in range(len(self.data))]
        self.code = "r"
        self.counts = self.which = self.children = self.child_of = None

    def read(self, i: int):
        """Held entry ``i`` as readers see it."""
        code, value = self.code, self.data[i]
        if code == "d" or code == "q":
            return value
        if code == "s":
            return self.strings.strings[value]
        if code == "?":
            return value == 1
        if code == "t":
            count = self.counts[i]
            if not count:
                return []
            child = self.children[self.which[i]]
            start = value - child.base
            return [child.fields(j) for j in range(start, start + count)]
        return value.dicts() if type(value) is Rows else value

    def stored(self, i: int):
        """Held entry ``i`` as the value that was emitted (a table entry
        as :class:`Rows`)."""
        if self.code != "t":
            return self.read(i)
        count = self.counts[i]
        if not count:
            return Rows(((), ()))
        child = self.children[self.which[i]]
        start = self.data[i] - child.base
        return Rows((child.schema.keys, tuple(
            tuple(column.stored(j) for column in child.columns)
            for j in range(start, start + count))))

    def drop(self, count: int) -> None:
        """Drop the ``count`` oldest held entries, nested rows included."""
        if self.code == "t":
            for i in range(count):
                if self.counts[i]:
                    self.children[self.which[i]].drop(self.counts[i])
            del self.counts[:count]
            del self.which[:count]
        del self.data[:count]


class _Block:
    """Every held row of one schema, as one column per key.

    Rows are numbered from 0 in append order; ``base`` is the number of
    the first row still held (a bounded audit drops rows from the front)
    and ``end`` the number the next row gets. An appended row waits in
    ``pending`` until :data:`_BATCH` rows have gathered or a reader asks
    (:meth:`flush`), and then each column takes its values in one bulk
    append.
    """

    __slots__ = ("schema", "index", "columns", "pending", "base", "end",
                 "kind_at")

    def __init__(self, schema: Schema, values: tuple, strings: StringTable,
                 index: int = 0):
        self.schema = schema
        self.index = index
        self.columns = [_Column(_code_of(value), strings) for value in values]
        self.pending: List[tuple] = []
        self.base = 0
        self.end = 0
        #: Position of a stored ``kind`` key, for schemas that have none.
        self.kind_at = (schema.keys.index("kind")
                        if schema.kind is None and "kind" in schema.keys
                        else -1)

    def append(self, values: tuple) -> int:
        """Append one row of ``values``; returns its number."""
        pending = self.pending
        pending.append(values)
        if len(pending) >= _BATCH:
            self.flush()
        row = self.end
        self.end = row + 1
        return row

    def extend(self, rows: tuple) -> None:
        """Append rows of values."""
        self.pending.extend(rows)
        self.end += len(rows)
        if len(self.pending) >= _BATCH:
            self.flush()

    def flush(self) -> None:
        """Move the pending rows into the columns, nested rows included."""
        rows = self.pending
        if rows:
            self.pending = []
            for at, column in enumerate(self.columns):
                column.extend([row[at] for row in rows])
        for column in self.columns:
            if column.code == "t":
                for child in column.children:
                    child.flush()

    def fields(self, i: int) -> Dict:
        """Held row ``i`` (counted from the front) as a dict."""
        schema = self.schema
        record = {} if schema.kind is None else {"kind": schema.kind}
        for key, column in zip(schema.keys, self.columns):
            record[key] = column.read(i)
        return record

    def kind(self, i: int):
        """The ``kind`` of held row ``i``."""
        if self.kind_at < 0:
            return self.schema.kind
        return self.columns[self.kind_at].read(i)

    def drop(self, count: int) -> None:
        """Drop the ``count`` oldest held rows (a bounded ring drops its
        records oldest first, so they are always at the front)."""
        for column in self.columns:
            column.drop(count)
        self.base += count


def _stamp(schema: Schema, values: tuple, did: int) -> Dict:
    """The record ``values`` under ``schema`` as readers see it."""
    record = {} if schema.kind is None else {"kind": schema.kind}
    record.update(zip(schema.keys, values))
    for key, value in record.items():
        if type(value) is Rows:
            record[key] = value.dicts()
    record["did"] = did
    return record


class DecisionAudit:
    """In-memory record ring + sink fan-out for policy decisions.

    ``capacity=None`` keeps every record; a finite capacity keeps the
    most recent ones (sinks still see the full stream, like
    ``EventLog``'s ring/sink split). The ring holds typed columns (see
    the module docstring); :attr:`records` reads it back as dicts.
    """

    def __init__(self, sinks: Sequence[AuditSink] = (),
                 capacity: Optional[int] = None):
        self.capacity = capacity
        self._bound = sys.maxsize if capacity is None else capacity
        self.recorded = 0
        #: One block per schema, in order of first use.
        self._blocks: List[_Block] = []
        self._block_of: Dict[Schema, _Block] = {}
        #: Per held record (by ring slot), its block and row number.
        self._held_block = array("H")
        self._held_row = array("q")
        #: Whether a block may hold rows not yet in its columns.
        self._buffered = False
        self._strings = StringTable()
        #: ``(kind, keys)`` of a dict record -> its schema; key tuple of
        #: a nested table -> the one instance of it every table shares.
        self._dict_schemas: Dict[tuple, Schema] = {}
        self._table_keys: Dict[tuple, tuple] = {}
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
        rows = tuple(rows)
        if set(map(len, rows)) - {len(keys)}:
            raise ValueError(f"every row of a {keys!r} table needs "
                             f"{len(keys)} values")
        return Rows((self._table_keys.setdefault(keys, keys), rows))

    def emit(self, record: Union[Dict, Schema],
             values: Optional[tuple] = None) -> int:
        """Record one decision; returns its stable ``decision_id``.

        Emit sites pass a :class:`Schema` and the value tuple in its key
        order; a plain dict record is accepted too. Decision ids are
        assigned monotonically from 0 in emission order — the audit
        stream's line number — so sidecar files, the in-memory ring and
        cause stamps (``eviction:<id>``) all agree. The caller's dict is
        never mutated or kept; a value tuple waits in its block's buffer
        until the typed columns take its values (a reference only for a
        value no column type holds). Readers and sinks see a dict
        stamped with the ``did`` key.
        """
        did = self.recorded
        self.recorded = did + 1
        if values is None:
            schema, values = self._split(record)
        else:
            schema = record
            if len(values) != len(schema.keys):
                raise ValueError(f"{schema!r} has {len(schema.keys)} keys, "
                                 f"got {len(values)} values")
        if did < self._bound:
            block = self._block_of.get(schema)
            if block is None:
                block = self._new_block(schema, values)
            self._held_row.append(block.append(values))
            self._held_block.append(block.index)
            self._buffered = True
        elif self._bound:
            self._flush()
            slot = did % self._bound
            self._blocks[self._held_block[slot]].drop(1)
            block = self._block_of.get(schema)
            if block is None:
                block = self._new_block(schema, values)
            self._held_row[slot] = block.append(values)
            self._held_block[slot] = block.index
            self._buffered = True
        if self._sinks:
            stamped = _stamp(schema, values, did)
            for sink in self._sinks:
                sink.emit(stamped)
        return did

    def _split(self, record: Dict) -> Tuple[Schema, tuple]:
        """The schema and value tuple of a dict record: a leading string
        ``kind`` becomes the schema's kind."""
        keys, values = tuple(record), tuple(record.values())
        kind = None
        if keys and keys[0] == "kind" and type(values[0]) is str:
            kind, keys, values = values[0], keys[1:], values[1:]
        schema = self._dict_schemas.get((kind, keys))
        if schema is None:
            schema = self._dict_schemas[kind, keys] = Schema(kind, keys)
        return schema, values

    def _new_block(self, schema: Schema, values: tuple) -> _Block:
        block = self._block_of[schema] = _Block(
            schema, values, self._strings, len(self._blocks))
        self._blocks.append(block)
        return block

    def _flush(self) -> None:
        """Move every buffered row into its columns (before a read)."""
        if self._buffered:
            self._buffered = False
            for block in self._blocks:
                block.flush()

    @property
    def dropped(self) -> int:
        """Records rotated out of a bounded ring (sinks saw them all)."""
        return self.recorded - len(self._held_row)

    def _row(self, slot: int, did: int) -> Dict:
        """The record held in ``slot``, stamped with its ``did``."""
        self._flush()
        block = self._blocks[self._held_block[slot]]
        record = block.fields(self._held_row[slot] - block.base)
        record["did"] = did
        return record

    def of_kind(self, kind: str) -> List[Dict]:
        """The held records of one kind (filtered before decoding)."""
        self._flush()
        blocks, held_block, held_row = (self._blocks, self._held_block,
                                        self._held_row)
        out = []
        for did, slot in ring_slots(len(self), self.dropped):
            block = blocks[held_block[slot]]
            if block.kind(held_row[slot] - block.base) == kind:
                out.append(self._row(slot, did))
        return out

    def record_by_id(self, did: int) -> Optional[Dict]:
        """The record with decision id ``did`` still held in the ring.

        O(1): ids are stream positions, so on a bounded ring the oldest
        records rotate out and return ``None``.
        """
        size = len(self)
        if 0 <= did - self.dropped < size:
            return self._row(did % size, did)
        return None

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __len__(self) -> int:
        return len(self._held_row)

    def __iter__(self) -> Iterator[Dict]:
        for did, slot in ring_slots(len(self), self.dropped):
            yield self._row(slot, did)
