"""Non-finite times fail fast instead of hanging the replay.

An ``inf`` execution time used to park a completion at ``t = inf``, and
periodic ticks then kept the clock crawling towards it forever; a NaN
arrival did the same through the arrival stream. ``Request`` now refuses
an infinite ``exec_ms``, naming the request, and the engine refuses
non-finite times at ``at``/``reschedule``/``bind_stream``. Every test
here runs under a wall-clock alarm so a regression fails rather than
hangs the suite.
"""

import math
import signal
import time
from contextlib import contextmanager

import pytest

from repro.policies.base import OrchestrationPolicy
from repro.sim.config import SimulationConfig
from repro.sim.contention import ContentionModel
from repro.sim.engine import Simulator
from repro.sim.function import FunctionSpec
from repro.sim.orchestrator import Orchestrator
from repro.sim.request import Request
from repro.traces.schema import Trace

LIMIT_S = 10


@contextmanager
def _deadline(seconds: float = LIMIT_S):
    """Fail with TimeoutError if the body runs longer than ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < seconds


def _trace(arrivals, execs):
    spec = FunctionSpec("f", memory_mb=128.0, cold_start_ms=100.0)
    requests = [Request("f", a, e) for a, e in zip(arrivals, execs)]
    return Trace("hostile", [spec], requests)


def _replay(trace, packed: bool, **config):
    orch = Orchestrator(trace.functions, OrchestrationPolicy(),
                        SimulationConfig(capacity_gb=1.0, **config))
    return orch.run(trace.packed() if packed else trace.fresh_requests())


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("contention", [None, ContentionModel(cores=1)])
def test_infinite_exec_time_raises(packed, contention):
    # Construction raises now, so the trace is built inside the check.
    with _deadline(), pytest.raises(ValueError, match="non-finite"):
        trace = _trace([0.0, 10.0, 20.0], [5.0, math.inf, 5.0])
        _replay(trace, packed, contention=contention)


def test_nan_arrival_in_stream_names_the_row():
    trace = _trace([0.0, 10.0, 20.0], [5.0, 5.0, 5.0])
    packed = trace.packed()
    packed.arrival_ms[1] = math.nan
    orch = Orchestrator(trace.functions, OrchestrationPolicy(),
                        SimulationConfig(capacity_gb=1.0))
    with _deadline(), pytest.raises(ValueError, match="row 1 .*non-finite"):
        orch.run(packed)


def test_nan_arrival_in_request_list_raises():
    trace = _trace([0.0, 10.0, 20.0], [5.0, 5.0, 5.0])
    requests = trace.fresh_requests()
    requests[1].arrival_ms = math.nan
    orch = Orchestrator(trace.functions, OrchestrationPolicy(),
                        SimulationConfig(capacity_gb=1.0))
    with _deadline(), pytest.raises(ValueError, match="non-finite"):
        orch.run(requests)


class TestEngineRejectsNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_at(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Simulator().at(bad, lambda: None)

    def test_schedule_with_infinite_delay(self):
        with pytest.raises(ValueError, match="non-finite"):
            Simulator().schedule(math.inf, lambda: None)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_reschedule(self, bad):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="non-finite"):
            sim.reschedule(event, bad)

    def test_past_time_message_unchanged(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError, match="before now"):
            sim.at(1.0, lambda: None)

    @pytest.mark.parametrize("times, row", [
        ([math.nan, 1.0], 0), ([math.inf], 0), ([0.0, 1.0, math.nan], 2),
        ([0.0, math.inf, math.inf], 1)])
    def test_bind_stream_names_the_row(self, times, row):
        with pytest.raises(ValueError, match=f"row {row} .*non-finite"):
            Simulator().bind_stream(times, lambda lo, hi: None)

    def test_bind_stream_decreasing_names_the_row(self):
        with pytest.raises(ValueError, match="non-decreasing.*row 2"):
            Simulator().bind_stream([0.0, 2.0, 1.0], lambda lo, hi: None)
