"""Regression tests for the true positives repro-lint found at HEAD.

Each test pins the *fixed* deterministic behaviour so the original
pattern (flagged by DET004 / FPX002) cannot silently return:

* ``EnsurePolicy.on_maintenance`` iterated ``set(all_funcs) | set(
  samples)`` in hash order — scale-up order decides container creation
  order and memory admission, so it must be sorted;
* ``TimeSeriesRecorder.sample`` iterated its set-union of function
  names in hash order — series creation order must be sorted;
* ``Worker.check_integrity`` summed ``_reservations.values()`` and the
  container registry in insertion order — the reference summation order
  is sorted keys.
"""

from collections import deque

from repro.policies.ensure import EnsurePolicy
from repro.sim.container import Container
from repro.sim.function import FunctionSpec
from repro.sim.telemetry import TimeSeriesRecorder
from repro.sim.worker import Worker

# Names chosen so sorted order differs from both insertion orders used
# below (and, overwhelmingly likely, from any given hash order).
FUNCS = ["zeta", "alpha", "mid", "beta", "omega", "kappa", "nu",
         "sigma"]


class _SpyEnsure(EnsurePolicy):
    """Records the function order on_maintenance evaluates."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def target_pool(self, func, now):
        self.seen.append(func)
        return 0


class _FakeWorker:
    used_mb = 0.0

    def __init__(self, funcs):
        self._funcs = list(funcs)

    def all_funcs(self):
        return list(self._funcs)

    def warm_count(self, func):
        return 0

    def provisioning_count(self, func):
        return 0

    def idle_count(self, func):
        return 1

    def busy_count(self, func):
        return 0

    def of_func(self, func):
        return []

    def census(self):
        return [(func, self.idle_count(func), self.busy_count(func),
                 self.provisioning_count(func), 0) for func in self._funcs]


class _FakeCtx:
    def __init__(self, worker):
        self._worker = worker

    def workers(self):
        return [self._worker]


def test_ensure_maintenance_visits_functions_sorted():
    policy = _SpyEnsure()
    policy.ctx = _FakeCtx(_FakeWorker(FUNCS[:4]))
    # Sampled functions extend the union beyond the worker's residents,
    # inserted in yet another order.
    for func in FUNCS[6], FUNCS[4], FUNCS[5]:
        policy._samples[func] = deque()
    policy.on_maintenance(now=60_000.0)
    assert policy.seen == sorted(FUNCS[:4] + [FUNCS[6], FUNCS[4],
                                              FUNCS[5]])


class _FakeOrchestrator:
    now = 1_000.0

    def __init__(self, worker):
        self._worker = worker

    def workers(self):
        return [self._worker]


def test_recorder_creates_series_in_sorted_order():
    recorder = TimeSeriesRecorder(interval_ms=1_000.0)
    # Pending starts add names the worker does not host, unsorted.
    recorder.note_start(FUNCS[7], "cold", 10.0)
    recorder.note_start(FUNCS[0], "warm", 20.0)
    recorder.sample(_FakeOrchestrator(_FakeWorker(FUNCS[2:6])))
    assert list(recorder.functions) == sorted(FUNCS[2:6]
                                              + [FUNCS[7], FUNCS[0]])


def test_worker_integrity_with_reservations_unsorted_tags():
    worker = Worker(0, capacity_mb=4_096.0)
    for i, func in enumerate(FUNCS):
        spec = FunctionSpec(func, memory_mb=64 + 16 * i,
                            cold_start_ms=100.0)
        container = Container(spec, now=float(i))
        worker.add(container)
        container.mark_ready(float(i) + 1.0)
    # Reservation tags inserted in deliberately non-sorted order, with
    # fractional sizes where float summation order could matter.
    for tag, mb in (("t-z", 33.3), ("t-a", 0.1), ("t-m", 512.7)):
        worker.reserve(tag, mb)
    assert worker.check_integrity()
    # The integrity cross-check and the incremental account agree on
    # the exact total (containers + reservations).
    expect = (sum(64 + 16 * i for i in range(len(FUNCS)))
              + 33.3 + 0.1 + 512.7)
    assert abs(worker.used_mb - expect) < 1e-6
