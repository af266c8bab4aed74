"""Tests of the replay benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest bench/

They replay small versions of each workload shape, so they run in
seconds.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import diff_counters
import harness
import tracing
import workloads
from repro.obs import metrics as obs_metrics

SMALL = {
    name: dataclasses.replace(
        w, total_requests=2_000, duration_ms=w.duration_ms / 10,
        capacity_gb=min(w.capacity_gb, 2.0) if not w.fast_forward
        else w.capacity_gb)
    for name, w in workloads.WORKLOADS.items()
}


def _replay(workload, trace, tracer=None):
    orch = workloads.make_orchestrator(workload, trace, workload.observed)
    if tracer is not None:
        tracer.install(orch)
        with tracing.counting_instruments(tracer):
            result = orch.run(trace.packed())
    else:
        result = orch.run(trace.packed())
    return workloads.digest(result)


@pytest.fixture(scope="module")
def traces():
    return {name: workloads.generate(w, 0) for name, w in SMALL.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_keeps_outputs_bit_identical(name, traces):
    workload, trace = SMALL[name], traces[name]
    tracer = tracing.Tracer()
    assert _replay(workload, trace, tracer) == _replay(workload, trace)
    counts = tracer.report(trace.num_requests)["counts"]
    for counter in workload.must_fire:
        assert counts[counter] > 0, counter
    assert counts["orchestrator.other_calls"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_repeat_exactly(name, traces):
    workload, trace = SMALL[name], traces[name]
    first, second = tracing.Tracer(), tracing.Tracer()
    _replay(workload, trace, first)
    _replay(workload, trace, second)
    assert (first.report(trace.num_requests)["counts"]
            == second.report(trace.num_requests)["counts"])


def test_fresh_orchestrator_has_no_wrappers_left(traces):
    workload, trace = SMALL["observed"], traces["observed"]
    originals = {(cls, name): cls.__dict__[name]
                 for cls, name in ((obs_metrics.Counter, "inc"),
                                   (obs_metrics.Gauge, "set"),
                                   (obs_metrics.Histogram, "observe"))}
    plain = _replay(workload, trace)
    _replay(workload, trace, tracing.Tracer())
    for (cls, name), method in originals.items():
        assert cls.__dict__[name] is method
    orch = workloads.make_orchestrator(workload, trace, True)
    for obj in (orch, orch.sim, orch.policy, *orch.workers(),
                orch.event_log, orch.audit, orch.recorder, orch.attribution):
        shadowed = [k for k, v in vars(obj).items()
                    if callable(v) and hasattr(type(obj), k)]
        assert shadowed == [], obj
    assert _replay(workload, trace) == plain


def test_unknown_callback_is_reported_as_other(traces):
    workload, trace = SMALL["pressure"], traces["pressure"]
    orch = workloads.make_orchestrator(workload, trace, False)
    tracer = tracing.Tracer()
    tracer.install(orch)

    def custom_probe():
        pass

    orch.sim.at(0.0, custom_probe)
    orch.run(trace.packed())
    counts = tracer.report(trace.num_requests)["counts"]
    assert tracer.other_names == {"custom_probe"}
    assert counts["orchestrator.other_calls"] == 1


def test_seed_changes_the_generated_trace():
    workload = SMALL["pressure"]
    a = workloads.generate(workload, 0).packed().digest()
    assert workloads.generate(workload, 0).packed().digest() == a
    assert workloads.generate(workload, 1).packed().digest() != a


def _goldens(traces, digest=None, wall=10.0):
    return {"seed": 0, "workloads": {
        name: {"digest": digest or _replay(SMALL[name], traces[name]),
               "median_wall_s": wall}
        for name in ("pressure",)}}


def _main(monkeypatch, capsys, goldens, seed):
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)
    monkeypatch.setattr(workloads, "load_goldens", lambda: goldens)
    code = harness.main(["--workload", "pressure", "--seed", str(seed),
                         "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 1])
def test_matching_golden_passes(monkeypatch, capsys, traces, seed):
    code, line = _main(monkeypatch, capsys, _goldens(traces), seed)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {"requests_per_s", "setup_s",
                                    "peak_rss_mb"}
    # A non-default seed also replays the default-seed input once.
    assert line["attempted"] == harness.MIN_ROUNDS + (seed != 0)


def test_corrupted_golden_fails_every_replay(monkeypatch, capsys, traces):
    code, line = _main(monkeypatch, capsys, _goldens(traces, "0" * 64), 0)
    assert code != 0 and not line["correct"]
    assert line["attempted"] > 0
    assert line["failed"] / line["attempted"] == 1.0


def test_replay_past_its_wall_cap_fails(traces):
    run = harness.Run(SMALL["pressure"], 0,
                      _goldens(traces, wall=1e-4))
    assert run.replay(traces["pressure"], False) is None
    assert run.failed == 1 and "ReplayTimeout" in run.problems[0]


def test_diff_counters_flags_changed_counts():
    def report(events, engine_s):
        return {"workload": "pressure", "trace": 1,
                "counts": {"engine.events": events, "traces.rows": 10},
                "times_s": {"engine.self_s": engine_s,
                            "engine.replay_s": 2 * engine_s}}

    same = diff_counters.diff(report(100, 1.0), report(100, 1.2))
    assert not [line for line in same if line.startswith("!")]
    assert any("engine" in line and "+0.2000" in line for line in same)
    changed = diff_counters.diff(report(100, 1.0), report(90, 1.0))
    assert [line for line in changed if line.startswith("!")] == [
        f"! {'engine.events':44s} {'100':>12} -> {'90':>12} -10"]
