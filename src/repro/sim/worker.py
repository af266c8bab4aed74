"""Worker (server) model: memory accounting and container registry.

A worker hosts function containers inside a fixed memory capacity — the
"function cache" of the paper. Containers occupy memory from the moment
provisioning starts until they are evicted. Policies may additionally hold
named reservations (e.g. RainbowCake's shared warm layers) that count
against the same capacity.

State queries are served from **incrementally maintained indexes**: each
function keeps per-state container dicts (idle/busy/provisioning/compressed)
plus a "slotted" dict of warm containers with a free execution slot, and the
worker keeps a running evictable set, evictable-memory total and per-state
memory totals. Indexes are updated by the container state transitions in
:mod:`repro.sim.container` (which notify ``_on_container_event``), so the
hot-path queries — ``slot_available``, ``warm_count``, ``evictable_mb``,
the ``*_count`` helpers — are O(1) or O(warm-of-function) instead of
rebuilding lists by scanning every container on every call.

For a policy that ranks function groups (``order_key``), each function
also keeps its evictable containers sorted by ``(key, container_id)``,
and the worker keeps the non-empty groups (:meth:`Worker.ordered_groups`)
for ``make_room`` to merge.

Ordering contract: ``containers`` (and each per-function registry) iterates
in **ascending container id** — container ids are globally monotone and a
container is admitted exactly once, right after creation. All list-returning
queries preserve that order, so priority ties in ``make_room`` break by
ascending container id in both the indexed and the naive reference path.

The pre-index scanning implementations are retained behind ``naive=True``
for differential testing; index maintenance always runs, so the two modes
answer every query identically.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.container import Container, ContainerState

#: States a warm-start candidate may be in.
_WARM_STATES = (ContainerState.IDLE, ContainerState.BUSY)
#: Capacity below which integral running memory totals stay exact. Each
#: total is at most the hosted footprint, which stays within capacity;
#: 2**52 keeps a factor of two below 2**53, where float addition of
#: integers stops being exact.
_EXACT_LIMIT = 2.0 ** 52


class _FuncIndex:
    """Per-function container registry plus per-state sub-indexes."""

    __slots__ = ("members", "idle", "busy", "provisioning", "compressed",
                 "slotted", "order", "filed")

    def __init__(self) -> None:
        #: All hosted containers of the function, ascending container id.
        self.members: Dict[int, Container] = {}
        self.idle: Dict[int, Container] = {}
        self.busy: Dict[int, Container] = {}
        self.provisioning: Dict[int, Container] = {}
        self.compressed: Dict[int, Container] = {}
        #: Warm containers with at least one free execution slot.
        self.slotted: Dict[int, Container] = {}
        #: Evictable containers as ``(key, container_id, container)``
        #: entries in ascending order, when the worker has an order key.
        self.order: List[Tuple[float, int, Container]] = []
        #: Each ordered container's entry, as filed (removal looks it up
        #: by this stored key, never by the live attribute).
        self.filed: Dict[int, Tuple[float, int, Container]] = {}

    def state_dict(self, state: ContainerState
                   ) -> Optional[Dict[int, Container]]:
        if state is ContainerState.IDLE:
            return self.idle
        if state is ContainerState.BUSY:
            return self.busy
        if state is ContainerState.PROVISIONING:
            return self.provisioning
        if state is ContainerState.COMPRESSED:
            return self.compressed
        return None  # EVICTED is tracked nowhere


_memory_mb = attrgetter("memory_mb")


def _in_id_order(index: Dict[int, Container]) -> List[Container]:
    """Materialize a per-state dict in ascending container-id order."""
    return [index[cid] for cid in sorted(index)]


class Worker:
    """One server in the cluster, holding warm containers in memory.

    ``usage`` is an optional shared change signal (any object with a
    ``dirty`` attribute) raised whenever this worker's ``used_mb`` changes,
    letting the orchestrator cache the cluster-wide committed-memory sum
    between changes. ``naive=True`` switches queries to the scanning
    reference implementations.

    ``order_key`` names the container attribute that orders each
    function's evictable containers (:meth:`ordered_groups`), for a policy
    whose REPLACE ranks function groups; ``None`` keeps no order.
    """

    def __init__(self, worker_id: int, capacity_mb: float,
                 naive: bool = False, usage=None,
                 order_key: Optional[str] = None):
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.worker_id = worker_id
        self.capacity_mb = float(capacity_mb)
        self.naive = naive
        self._usage = usage
        self.order_key = order_key
        #: Functions with at least one ordered evictable container, to
        #: their ``_FuncIndex.order`` lists.
        self._groups: Dict[str, list] = {}
        #: False while crashed (fault injection); offline workers host
        #: nothing and receive no dispatches.
        self.online = True
        #: Worker-class name when a FaultPlan declares heterogeneity.
        self.wclass: Optional[str] = None
        self._used_mb = 0.0
        self.containers: Dict[int, Container] = {}
        self._by_func: Dict[str, _FuncIndex] = {}
        self._reservations: Dict[str, float] = {}
        #: All evictable (idle or compressed) containers, any function.
        self._evictable: Dict[int, Container] = {}
        # Generation-cached evictable-memory total. A running +=/-= float
        # would drift by ULPs from the reference's fresh ascending-id sum
        # and flip exact-boundary infeasibility checks in make_room, so the
        # total is instead *recomputed in the reference's exact summation
        # order* on the first query after a mutation and served O(1) from
        # the cache until the evictable set changes again. While every
        # footprint ever filed here is integral (see ``_integral``), the
        # running totals are exact and serve the query directly.
        self._evictable_gen = 0
        self._evictable_mb_gen = -1
        self._evictable_mb_cache = 0.0
        self._oldest_evictable_gen = -1
        self._oldest_evictable_cache: Optional[float] = None
        #: Running memory total per container state, keyed by the
        #: state's value string: ``Enum.__hash__`` is Python-level, and
        #: these totals move on every container transition.
        self._state_mb: Dict[str, float] = {
            state._value_: 0.0 for state in ContainerState}
        #: True while every footprint filed on this worker has been an
        #: integer and the capacity is below ``_EXACT_LIMIT``. Each
        #: running total in ``_state_mb`` is then a sum of integers below
        #: 2**53, which float addition computes exactly, in any order.
        #: Sticky: one fractional footprint turns it off for good.
        self._integral = self.capacity_mb < _EXACT_LIMIT

    # ------------------------------------------------------------------
    # Memory accounting

    @property
    def used_mb(self) -> float:
        """Memory currently committed (containers + reservations)."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self._used_mb

    def _charge(self, delta_mb: float) -> None:
        self._used_mb += delta_mb
        if self._usage is not None:
            self._usage.dirty = True

    def reserve(self, tag: str, mb: float) -> None:
        """Hold ``mb`` of memory under ``tag`` (replaces a previous hold).

        Used by layer-aware policies to account for shared warm layers that
        are not whole containers. Raises if the new total would exceed
        capacity.
        """
        if mb < 0:
            raise ValueError("reservation must be >= 0")
        delta = mb - self._reservations.get(tag, 0.0)
        if delta > self.free_mb + 1e-9:
            raise MemoryError(
                f"worker {self.worker_id}: reservation {tag} needs "
                f"{delta:.1f} MB but only {self.free_mb:.1f} free")
        self._reservations[tag] = mb
        self._charge(delta)
        if not self._reservations[tag]:
            del self._reservations[tag]

    def reservation(self, tag: str) -> float:
        return self._reservations.get(tag, 0.0)

    # ------------------------------------------------------------------
    # Container registry

    def add(self, container: Container) -> None:
        """Admit a (provisioning) container, charging its memory."""
        need = container.memory_mb
        if need > self.free_mb + 1e-9:
            raise MemoryError(
                f"worker {self.worker_id}: container needs {need:.1f} MB "
                f"but only {self.free_mb:.1f} MB free")
        cid = container.container_id
        self.containers[cid] = container
        index = self._by_func.get(container.spec.name)
        if index is None:
            index = self._by_func[container.spec.name] = _FuncIndex()
        index.members[cid] = container
        self._charge(need)
        container.worker = self
        self._file(index, container, container.state, need)

    def remove(self, container: Container) -> None:
        """Evict a container, releasing its memory."""
        cid = container.container_id
        if cid not in self.containers:
            raise KeyError(f"container {cid} not hosted")
        if container.state is ContainerState.BUSY:
            raise RuntimeError("cannot evict a busy container")
        del self.containers[cid]
        index = self._by_func[container.spec.name]
        index.members.pop(cid, None)
        self._unfile(index, container, container.state, container.memory_mb)
        if not index.members:
            del self._by_func[container.spec.name]
        self._charge(-container.memory_mb)
        # Detach before the EVICTED transition so it does not re-notify.
        container.worker = None
        container.mark_evicted()

    def recharge(self, container: Container, old_mb: float) -> None:
        """Adjust accounting after a container's footprint changed
        (compression / decompression)."""
        self._charge(container.memory_mb - old_mb)

    # ------------------------------------------------------------------
    # Fault injection

    def crash(self) -> List[Container]:
        """Destroy every hosted container and drop offline.

        Returns the victims in ascending container-id order, detached but
        *not yet* state-flipped — the caller (orchestrator) runs
        :meth:`Container.destroy` on each so it can collect the orphaned
        in-flight requests and notify the policy. Reservations are
        released too: a crashed machine keeps nothing warm.
        """
        victims = [self.containers[cid] for cid in sorted(self.containers)]
        for container in victims:
            container.worker = None     # detach: indexes die wholesale
        self.containers.clear()
        self._by_func.clear()
        self._evictable.clear()
        self._groups.clear()
        self._evictable_gen += 1
        self._reservations.clear()
        self._charge(-self._used_mb)
        for key in self._state_mb:
            self._state_mb[key] = 0.0
        self.online = False
        return victims

    def restart(self) -> None:
        """Rejoin the cluster with an empty cache."""
        if self.online:
            raise RuntimeError(
                f"worker {self.worker_id} restarted while online")
        self.online = True

    # ------------------------------------------------------------------
    # Index maintenance

    def _file(self, index: _FuncIndex, container: Container,
              state: ContainerState, mb: float) -> None:
        """Insert ``container`` into the per-state indexes for ``state``."""
        cid = container.container_id
        bucket = index.state_dict(state)
        if bucket is not None:
            bucket[cid] = container
        if state in _WARM_STATES \
                and len(container.active) < container.threads:
            index.slotted[cid] = container
        if state in (ContainerState.IDLE, ContainerState.COMPRESSED):
            self._evictable[cid] = container
            self._evictable_gen += 1
            key = self.order_key
            if key is not None:
                entry = index.filed[cid] = (getattr(container, key), cid,
                                            container)
                order = index.order
                if order:
                    insort(order, entry)
                else:
                    order.append(entry)
                    self._groups[container.spec.name] = order
        if mb % 1:
            self._integral = False
        self._state_mb[state._value_] += mb

    def _unfile(self, index: _FuncIndex, container: Container,
                state: ContainerState, mb: float) -> None:
        """Remove ``container`` from the per-state indexes for ``state``."""
        cid = container.container_id
        bucket = index.state_dict(state)
        if bucket is not None:
            bucket.pop(cid, None)
        index.slotted.pop(cid, None)
        if cid in self._evictable:
            del self._evictable[cid]
            self._evictable_gen += 1
            entry = index.filed.pop(cid, None)
            if entry is not None:
                order = index.order
                del order[bisect_left(order, entry)]
                if not order:
                    del self._groups[container.spec.name]
        self._state_mb[state._value_] -= mb

    def _on_container_event(self, container: Container,
                            old_state: ContainerState,
                            old_mb: float) -> None:
        """Refile a hosted container after a state/occupancy transition.

        Called from the transition methods in
        :class:`~repro.sim.container.Container`; ``old_mb`` is the footprint
        *before* the transition (compression changes it).
        """
        index = self._by_func.get(container.spec.name)
        if index is None or container.container_id not in index.members:
            return  # not registered (transition raced a removal)
        self._unfile(index, container, old_state, old_mb)
        self._file(index, container, container.state, container.memory_mb)

    def check_integrity(self) -> bool:
        """Cross-check every index against a full scan (test/debug hook).

        Raises ``AssertionError`` on the first inconsistency; returns True
        when everything matches the scanning ground truth.
        """
        evictable_ids = set()
        evictable_mb = 0.0
        state_mb = {state: 0.0 for state in ContainerState}
        seen = 0
        for func, index in self._by_func.items():
            assert index.members, f"{func}: empty index kept alive"
            expect = {
                ContainerState.IDLE: index.idle,
                ContainerState.BUSY: index.busy,
                ContainerState.PROVISIONING: index.provisioning,
                ContainerState.COMPRESSED: index.compressed,
            }
            for state, bucket in expect.items():
                truth = {c.container_id for c in index.members.values()
                         if c.state is state}
                assert set(bucket) == truth, (
                    f"{func}/{state.value}: index {sorted(bucket)} "
                    f"!= scan {sorted(truth)}")
            slotted_truth = {
                c.container_id for c in index.members.values()
                if c.state in _WARM_STATES and c.free_slots > 0}
            assert set(index.slotted) == slotted_truth, (
                f"{func}/slotted: {sorted(index.slotted)} "
                f"!= {sorted(slotted_truth)}")
            self._check_order(func, index)
            for c in index.members.values():
                assert self.containers.get(c.container_id) is c
                state_mb[c.state] += c.memory_mb
                if c.is_evictable:
                    evictable_ids.add(c.container_id)
                    evictable_mb += c.memory_mb
                seen += 1
        assert seen == len(self.containers), (
            f"registry {len(self.containers)} vs per-func {seen}")
        groups = {func for func, index in self._by_func.items()
                  if index.order}
        assert set(self._groups) == groups, (
            f"ordered groups {sorted(self._groups)} != {sorted(groups)}")
        assert set(self._evictable) == evictable_ids
        assert self.evictable_mb() == sum(
            self.containers[cid].memory_mb
            for cid in sorted(evictable_ids)), "evictable_mb cache stale"
        for state in ContainerState:
            running = self._state_mb[state._value_]
            assert abs(running - state_mb[state]) < 1e-6, (
                f"state_mb[{state.value}] {running} != {state_mb[state]}")
        # Reference summation order: ascending container id, then
        # reservations in sorted-tag order (FPX discipline — the cached
        # total this checks against must be reproducible bit-for-bit).
        expect_used = (sum(self.containers[cid].memory_mb
                           for cid in sorted(self.containers))
                       + sum(mb for _, mb in
                             sorted(self._reservations.items())))
        assert abs(self._used_mb - expect_used) < 1e-6, (
            f"used_mb {self._used_mb} != containers+reservations "
            f"{expect_used}")
        return True

    def _check_order(self, func: str, index: _FuncIndex) -> None:
        """``index.order`` is sorted, holds each evictable container of
        ``func`` exactly once, and every stored key is the live one."""
        key = self.order_key
        evictable = sorted(c.container_id for c in index.members.values()
                           if c.is_evictable) if key is not None else []
        order = index.order
        assert sorted(cid for _, cid, _ in order) == evictable, (
            f"{func}/order: {[cid for _, cid, _ in order]} "
            f"!= evictable {evictable}")
        assert all(order[i][:2] < order[i + 1][:2]
                   for i in range(len(order) - 1)), (
            f"{func}/order not sorted: {[e[:2] for e in order]}")
        assert index.filed == {e[1]: e for e in order}, (
            f"{func}/filed out of step with order")
        for stored, cid, c in order:
            live = (getattr(c, key), c.container_id)
            assert (stored, cid) == live, (
                f"{func}/order: container {cid} filed at key {stored!r} "
                f"but {key} is now {live[0]!r}")
        if order:
            assert self._groups.get(func) is order, (
                f"{func}: ordered group not registered")

    # ------------------------------------------------------------------
    # Queries

    def of_func(self, func: str) -> List[Container]:
        """All containers (any state) of ``func`` on this worker."""
        index = self._by_func.get(func)
        if index is None:
            return []
        return list(index.members.values())

    def idle_of(self, func: str) -> List[Container]:
        if self.naive:
            return [c for c in self.of_func(func) if c.is_idle]
        index = self._by_func.get(func)
        return _in_id_order(index.idle) if index else []

    def busy_of(self, func: str) -> List[Container]:
        if self.naive:
            return [c for c in self.of_func(func) if c.is_busy]
        index = self._by_func.get(func)
        return _in_id_order(index.busy) if index else []

    def provisioning_of(self, func: str) -> List[Container]:
        if self.naive:
            return [c for c in self.of_func(func) if c.is_provisioning]
        index = self._by_func.get(func)
        return _in_id_order(index.provisioning) if index else []

    def compressed_of(self, func: str) -> List[Container]:
        if self.naive:
            return [c for c in self.of_func(func) if c.is_compressed]
        index = self._by_func.get(func)
        return _in_id_order(index.compressed) if index else []

    # O(1) count accessors for hot paths that only need cardinality.

    def func_count(self, func: str) -> int:
        index = self._by_func.get(func)
        return len(index.members) if index else 0

    def idle_count(self, func: str) -> int:
        index = self._by_func.get(func)
        return len(index.idle) if index else 0

    def busy_count(self, func: str) -> int:
        index = self._by_func.get(func)
        return len(index.busy) if index else 0

    def provisioning_count(self, func: str) -> int:
        index = self._by_func.get(func)
        return len(index.provisioning) if index else 0

    def compressed_count(self, func: str) -> int:
        index = self._by_func.get(func)
        return len(index.compressed) if index else 0

    def warm_count(self, func: str) -> int:
        """Number of warm (idle or busy) containers of ``func`` — the
        ``|F(c)|`` term of the CIP priority (Eq. 3). O(1)."""
        if self.naive:
            return sum(1 for c in self.of_func(func)
                       if c.state in _WARM_STATES)
        index = self._by_func.get(func)
        if index is None:
            return 0
        return len(index.idle) + len(index.busy)

    def slot_available(self, func: str) -> Optional[Container]:
        """An idle container (or, with multi-thread containers, a busy one
        with a free slot) that can take a request *now* as a warm start.

        Prefers the most recently used candidate so that older containers
        age out, matching keep-alive practice; recency ties break toward
        the oldest (lowest-id) container in both implementations.
        """
        if self.naive:
            best: Optional[Container] = None
            for c in self.of_func(func):
                if c.state in _WARM_STATES and c.free_slots > 0:
                    if best is None or c.last_used_ms > best.last_used_ms:
                        best = c
            return best
        index = self._by_func.get(func)
        if index is None or not index.slotted:
            return None
        best = None
        best_key = None
        for c in index.slotted.values():
            key = (c.last_used_ms, -c.container_id)
            if best_key is None or key > best_key:
                best, best_key = c, key
        return best

    def evictable(self) -> List[Container]:
        """All containers that may be reclaimed right now (ascending id)."""
        if self.naive:
            return [c for c in self.containers.values() if c.is_evictable]
        return _in_id_order(self._evictable)

    def evictable_items(self) -> Iterable[Container]:
        """Unordered evictable containers — for rankers whose selection
        keys on (priority, container id) and is order-independent."""
        if self.naive:
            return [c for c in self.containers.values() if c.is_evictable]
        return self._evictable.values()

    def ordered_groups(self) -> Iterable[list]:
        """Each function's evictable containers as ascending
        ``(key, container_id, container)`` entries, one non-empty list per
        function; empty unless the worker has an ``order_key``."""
        return self._groups.values()

    def evictable_mb(self) -> float:
        """Total reclaimable memory.

        O(1) while every footprint filed here is integral: the running
        idle and compressed totals are then exact, so their sum equals
        the ascending-id sum bit for bit. Otherwise O(1) between
        evictable-set changes, and recomputed in ascending container id
        order (the reference's summation order) on the first call after
        a change.
        """
        if self.naive:
            return sum(c.memory_mb for c in self.evictable())
        if self._integral:
            state_mb = self._state_mb
            return state_mb["idle"] + state_mb["compressed"]
        if self._evictable_mb_gen != self._evictable_gen:
            self._evictable_mb_cache = sum(
                self._evictable[cid].memory_mb
                for cid in sorted(self._evictable))
            self._evictable_mb_gen = self._evictable_gen
        return self._evictable_mb_cache

    def oldest_evictable_ms(self) -> Optional[float]:
        """Smallest ``last_used_ms`` among evictable containers, or ``None``
        when nothing is evictable.

        O(1) between evictable-set changes: an evictable container's
        recency can only move by leaving the set (idle -> busy refiles it
        and bumps the generation), so the cached minimum stays exact
        until the generation does.
        """
        if self.naive:
            values = [c.last_used_ms for c in self.containers.values()
                      if c.is_evictable]
            return min(values) if values else None
        if self._oldest_evictable_gen != self._evictable_gen:
            self._oldest_evictable_cache = min(
                (c.last_used_ms for c in self._evictable.values()),
                default=None)
            self._oldest_evictable_gen = self._evictable_gen
        return self._oldest_evictable_cache

    def state_mb(self, state: ContainerState) -> float:
        """Running committed-memory total of containers in ``state``."""
        return self._state_mb[state._value_]

    def all_funcs(self) -> Iterable[str]:
        return self._by_func.keys()

    def census(self) -> Iterator[Tuple[str, int, int, int, float]]:
        """``(func, idle, busy, provisioning, memory_mb)`` for every
        function of :meth:`all_funcs`, in that order: the three state
        counts and the footprint summed over :meth:`of_func` in its
        (container-id) order. One pass instead of five calls per
        function, for the time-series recorder."""
        for func, index in self._by_func.items():
            yield (func, len(index.idle), len(index.busy),
                   len(index.provisioning),
                   sum(map(_memory_mb, index.members.values())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Worker {self.worker_id} used={self._used_mb:.0f}/"
                f"{self.capacity_mb:.0f} MB, "
                f"{len(self.containers)} containers>")
