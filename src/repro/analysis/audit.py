"""Analytics over decision-audit records (:mod:`repro.obs`).

Everything here consumes the plain record dicts a
:class:`~repro.obs.DecisionAudit` collects (or that
:func:`~repro.obs.read_audit_jsonl` loads back from a sidecar file) and
reduces them to the three views the ``repro audit`` CLI verb prints:

* the per-function **gate-flip timeline** — every ``bss_enabled``
  transition with the comparison that caused it;
* the **eviction balance** — victims per function across all
  ``eviction_decision`` records, with the max per-function share. This is
  the paper's Observation 2 metric (CIP spreads evictions across
  functions instead of thrashing one), computed from decision provenance
  alone rather than from the event log;
* the **most expensive decisions** — decisions ranked by the latency
  they plausibly cost: eviction decisions by the summed cold-start cost
  of their victims (what re-provisioning the evicted capacity costs),
  queue decisions by the delayed-start signal ``T_d`` they accepted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["EvictionBalance", "eviction_balance", "expensive_decisions",
           "gate_flip_rows", "gate_flip_timeline", "gate_flips"]


def gate_flips(records: Iterable[dict]) -> List[dict]:
    """The ``gate_flip`` records, in stream order."""
    return [r for r in records if r.get("kind") == "gate_flip"]


def gate_flip_timeline(records: Iterable[dict]
                       ) -> Dict[str, List[Tuple[float, bool, str]]]:
    """Per-function ``(t, enabled, reason)`` transitions, in time order."""
    timeline: Dict[str, List[Tuple[float, bool, str]]] = {}
    for flip in gate_flips(records):
        timeline.setdefault(flip["func"], []).append(
            (flip["t"], flip["enabled"], flip.get("reason", "")))
    return timeline


def gate_flip_rows(records: Iterable[dict],
                   limit: int = 0) -> List[List[object]]:
    """Table rows ``[t, func, transition, reason, trigger]`` for the CLI.

    ``limit`` keeps only the last N flips (0 = all).
    """
    rows = [[flip["t"], flip["func"],
             "off->on" if flip["enabled"] else "on->off",
             flip.get("reason", ""), flip.get("trigger", "")]
            for flip in gate_flips(records)]
    if limit and len(rows) > limit:
        rows = rows[-limit:]
    return rows


@dataclass
class EvictionBalance:
    """Observation 2's imbalance view, from audit records alone."""

    #: Victims per function, over every ``eviction_decision`` record.
    counts: Dict[str, int]
    #: Number of REPLACE decisions (one record may evict several).
    decisions: int
    #: Total victims.
    total: int

    @property
    def max_share(self) -> float:
        """Largest per-function share of all evictions (1.0 = one
        function absorbs everything — maximally imbalanced)."""
        if not self.total:
            return 0.0
        return max(self.counts.values()) / self.total

    def rows(self) -> List[List[object]]:
        """Table rows ``[func, evictions, share]``, most-evicted first."""
        return [[func, count, count / self.total]
                for func, count in sorted(self.counts.items(),
                                          key=lambda kv: (-kv[1], kv[0]))]


def eviction_balance(records: Iterable[dict]) -> EvictionBalance:
    """Count victims per function across ``eviction_decision`` records."""
    counts: Dict[str, int] = {}
    decisions = 0
    total = 0
    for record in records:
        if record.get("kind") != "eviction_decision":
            continue
        decisions += 1
        for victim in record["victims"]:
            counts[victim["func"]] = counts.get(victim["func"], 0) + 1
            total += 1
    return EvictionBalance(counts, decisions, total)


def expensive_decisions(records: Iterable[dict],
                        k: int = 10) -> List[Tuple[float, dict]]:
    """Top-``k`` decisions by estimated latency cost.

    Eviction decisions cost the summed ``cost_ms`` of their victims (the
    cold starts needed to win that capacity back); ``css_scale`` records
    that kept a request queued cost the ``T_d`` delayed-start signal the
    gate accepted. Returns ``(cost_ms, record)`` pairs, most expensive
    first (ties broken by time, earliest first).
    """
    def scored() -> Iterator[Tuple[float, float, int, dict]]:
        for i, record in enumerate(records):
            kind = record.get("kind")
            if kind == "eviction_decision":
                cost = sum(v.get("cost_ms", 0.0) for v in record["victims"])
            elif kind == "css_scale" and record.get("decision") == "queue" \
                    and record.get("t_d") is not None:
                cost = record["t_d"]
            else:
                continue
            yield -cost, record.get("t", 0.0), i, record

    # Only the k best are held: ``records`` may be a streaming view.
    top = heapq.nsmallest(k, scored(), key=lambda item: item[:3])
    return [(-neg_cost, record) for neg_cost, _, _, record in top]
