"""Invocation requests and their lifecycle records.

A :class:`Request` enters the simulator at ``arrival_ms``, possibly waits
(for a cold start to finish provisioning, for a busy warm container to free
up, or for memory pressure to resolve), executes for ``exec_ms``, and
completes. The simulator fills in the outcome fields (``start_ms``,
``end_ms``, ``start_type``), from which all of the paper's metrics derive:

* invocation overhead  = ``start_ms - arrival_ms`` (wait before execution);
* overhead ratio       = ``wait / (wait + exec)`` (§2.4);
* end-to-end service time = ``end_ms - arrival_ms`` (Fig. 13).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional


class StartType(enum.Enum):
    """How a request's execution slot was obtained (§2.3).

    * ``WARM`` — a true warm start: dispatched immediately to an idle warm
      container (a cache *hit*).
    * ``DELAYED`` — a delayed warm start: served by a previously busy warm
      container after a queuing delay (the paper's new intermediate state).
    * ``COLD`` — served by a newly provisioned container (a cache *miss*).
    """

    WARM = "warm"
    DELAYED = "delayed"
    COLD = "cold"


@dataclass(slots=True)
class Request:
    """One function invocation.

    The first three fields come from the workload trace; the rest are
    outcome fields populated by the simulator. The class is slotted:
    request records are materialized per arrival on the packed-trace
    replay path, so per-instance dict overhead would be paid once per
    trace row per run.
    """

    func: str
    arrival_ms: float
    exec_ms: float
    req_id: int = -1

    start_ms: Optional[float] = field(default=None, compare=False)
    end_ms: Optional[float] = field(default=None, compare=False)
    start_type: Optional[StartType] = field(default=None, compare=False)
    container_id: Optional[int] = field(default=None, compare=False)
    #: Times this request was re-dispatched after a worker crash orphaned
    #: its in-flight execution (fault injection only; always 0 otherwise).
    retries: int = field(default=0, compare=False)
    #: True when the request was dropped with its retry budget exhausted
    #: (or no worker will ever come back online) — accounted, not lost.
    failed: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        # Negated so that NaN, which fails every comparison, is rejected.
        if not 0 <= self.arrival_ms < math.inf:
            raise ValueError(f"request {self.req_id}: arrival_ms must be "
                             f"finite and >= 0, got {self.arrival_ms}")
        if not self.exec_ms >= 0:
            raise ValueError(f"request {self.req_id}: exec_ms must be "
                             f">= 0, got {self.exec_ms}")
        if self.exec_ms == math.inf:
            raise ValueError(f"request {self.req_id}: non-finite exec_ms "
                             f"{self.exec_ms}; the execution would never "
                             f"complete")

    # Derived metrics ----------------------------------------------------

    @property
    def completed(self) -> bool:
        """Whether the request finished executing."""
        return self.end_ms is not None

    @property
    def wait_ms(self) -> float:
        """Invocation overhead: time between arrival and execution start."""
        if self.start_ms is None:
            raise ValueError(f"request {self.req_id} never started")
        return self.start_ms - self.arrival_ms

    @property
    def service_ms(self) -> float:
        """End-to-end service time (arrival to completion, Fig. 13)."""
        if self.end_ms is None:
            raise ValueError(f"request {self.req_id} never completed")
        return self.end_ms - self.arrival_ms

    @property
    def overhead_ratio(self) -> float:
        """``wait / (wait + exec)`` — the paper's §2.4 overhead ratio.

        Zero-duration requests with zero wait have ratio 0 by convention.
        """
        wait = self.wait_ms
        denom = wait + self.exec_ms
        if denom == 0:
            return 0.0
        return wait / denom
