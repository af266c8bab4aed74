"""Record schemas: the fixed shapes of the decision audit's records.

An emit site builds its :class:`Schema`\\ s once, at import, and hands
one to :meth:`repro.obs.audit.DecisionAudit.emit` with each value tuple,
so no per-record dict is built. The module imports nothing from the
package: policies, the orchestrator and the audit all import it.
"""

from __future__ import annotations

from itertools import compress
from types import NoneType
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["Schema", "SchemaFamily"]


class Schema:
    """The shape of one kind of audit record: its ``kind`` and the keys
    that follow it, in order.

    An emit site builds its schemas once and passes one with each value
    tuple (:meth:`DecisionAudit.emit`); the record reads back as
    ``{"kind": kind, **dict(zip(keys, values)), "did": did}`` (no
    ``kind`` key when ``kind`` is ``None``). Schemas compare by identity.
    """

    __slots__ = ("kind", "keys")

    def __init__(self, kind: Optional[str], keys: Sequence[str]):
        self.kind = kind
        self.keys = tuple(keys)

    def __repr__(self) -> str:
        return f"Schema({self.kind!r}, {self.keys!r})"


class SchemaFamily:
    """The schemas of one record kind whose trailing ``optional`` keys
    each appear only when their value is not ``None``."""

    __slots__ = ("kind", "keys", "optional", "_shapes", "_schemas")

    def __init__(self, kind: str, keys: Sequence[str],
                 optional: Sequence[str]):
        self.kind = kind
        self.keys = tuple(keys)
        self.optional = tuple(optional)
        #: Presence flags of the optional keys -> their schema, and the
        #: types of the optional values -> that schema and those flags.
        self._shapes: Dict[tuple, Schema] = {}
        self._schemas: Dict[tuple, Tuple[Schema, tuple]] = {}

    def pick(self, values: tuple, optional: tuple) -> Tuple[Schema, tuple]:
        """The schema and value tuple of one record: ``values`` for the
        fixed keys, then each of ``optional`` that is not ``None``."""
        types = tuple(map(type, optional))
        picked = self._schemas.get(types)
        if picked is None:
            present = tuple(cls is not NoneType for cls in types)
            schema = self._shapes.get(present)
            if schema is None:
                schema = self._shapes[present] = Schema(
                    self.kind, self.keys + tuple(compress(self.optional,
                                                          present)))
            picked = self._schemas[types] = (schema, present)
        schema, present = picked
        return schema, values + tuple(compress(optional, present))
