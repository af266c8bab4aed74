"""Measurement loops, correctness checks and output of the replay benchmark.

One workload per process: ``--workload NAME`` sets up the input
``SETUP_BUILDS`` times (``setup_s`` is their median), then replays it
until ``--seconds`` have passed, each replay on a fresh orchestrator.

* ``--trace 0`` reports the end-to-end metrics: ``requests_per_s`` (trace
  rows over the median replay wall time), ``setup_s`` and
  ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced replays and reports the
  per-layer metrics of :mod:`tracing`; ``trace.overhead`` is the traced
  over the untraced median wall time, minus one. On ``observed`` each
  round also replays with the probes off, giving ``obs.overhead``.

Every replay's simulated outputs are hashed. At the default seed each
digest must equal the committed golden; at any other seed the replays
must agree with each other, and one extra replay of the default-seed
input is checked against the golden. A replay that raises, runs past
its wall-clock cap or mismatches counts as failed. The process prints a
human-readable report, one ``report:`` JSON line with everything
measured, and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``; it exits non-zero
unless the run was correct.

Without ``--workload`` every workload runs in turn, each in its own
subprocess (untraced, then traced), and the combined report is written
to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

SETUP_BUILDS = 7
#: Rounds run even when ``--seconds`` is already spent, so every median
#: has a few samples.
MIN_ROUNDS = 3
#: A replay slower than this multiple of its committed median wall time
#: is stopped and counted as failed; no replay may hang the benchmark.
WALL_CAP_FACTOR = 10.0


class ReplayTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ReplayTimeout("replay exceeded its wall-clock cap")


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Run:
    """State of one workload run: replays attempted, digests, failures."""

    def __init__(self, workload: workloads.Workload, seed: int,
                 goldens: dict):
        self.workload = workload
        self.seed = seed
        entry = goldens["workloads"][workload.name]
        self.cap_s = WALL_CAP_FACTOR * entry["median_wall_s"]
        self.golden = entry["digest"]
        self.expected = self.golden if seed == goldens["seed"] else None
        self.golden_seed = goldens["seed"]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def replay(self, trace, observed: bool,
               tracer: Optional[tracing.Tracer] = None,
               expected: Optional[str] = None):
        """One replay on a fresh orchestrator; returns (wall_s, summary)
        or ``None`` when it failed."""
        self.attempted += 1
        orch = workloads.make_orchestrator(self.workload, trace, observed)
        if tracer is not None:
            tracer.install(orch)
        counting = (tracing.counting_instruments(tracer)
                    if tracer is not None else nullcontext())
        gc.collect()
        signal.signal(signal.SIGALRM, _on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap_s)
            try:
                with counting:
                    t0 = perf_counter()
                    result = orch.run(trace.packed())
                    wall = perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # boundary: count it and keep measuring
            self._fail(f"replay raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        got = workloads.digest(result)
        want = expected or self.expected
        if want is None:
            self.expected = want = got  # first replay pins the others
        if got != want:
            self._fail(f"digest {got} != expected {want}")
            return None
        if len(result.requests) != trace.num_requests:
            self._fail(f"{len(result.requests)} of {trace.num_requests} "
                       f"requests completed")
            return None
        return wall, result.summary()

    def check_golden(self) -> None:
        """At a non-default seed, replay the default-seed input once and
        compare it with the committed golden."""
        if self.seed == self.golden_seed:
            return
        trace = workloads.generate(self.workload, self.golden_seed)
        self.replay(trace, self.workload.observed, expected=self.golden)

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)
        print(f"FAILED: {self.workload.name}: {why}", file=sys.stderr)


def _setup(workload: workloads.Workload, seed: int):
    """Build the input ``SETUP_BUILDS`` times from scratch; keep the last
    one and the median of each step's time."""
    times: Dict[str, List[float]] = {"setup_s": [], "traces.generate_s": [],
                                     "traces.pack_s": []}
    for _ in range(SETUP_BUILDS):
        gc.collect()
        build = workloads.build(workload, seed)
        times["setup_s"].append(build.setup_s)
        times["traces.generate_s"].append(build.generate_s)
        times["traces.pack_s"].append(build.pack_s)
    return build.trace, {k: statistics.median(v) for k, v in times.items()}


def measure_e2e(run: Run, seconds: float) -> dict:
    workload = run.workload
    trace, setup = _setup(workload, run.seed)
    walls: List[float] = []
    summary = None
    deadline = perf_counter() + seconds
    while run.attempted < MIN_ROUNDS or perf_counter() < deadline:
        out = run.replay(trace, workload.observed)
        if out is not None:
            walls.append(out[0])
            summary = out[1]
    run.check_golden()
    rows = trace.num_requests
    if not walls:
        return {"metrics": {}, "replays": 0, "rows": rows}
    q = _quartiles(walls)
    return {
        "metrics": {
            "requests_per_s": rows / q[1],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0),
        },
        "replays": len(walls),
        "wall_s": {"median": q[1], "q1": q[0], "q3": q[2]},
        "requests_per_s_iqr": [rows / q[2], rows / q[0]],
        "setup": setup,
        "rows": rows,
        "simulated": {"cold_ratio": summary["cold_ratio"],
                      "overhead_ratio": summary["avg_overhead_ratio"]},
    }


def measure_layers(run: Run, seconds: float) -> dict:
    workload = run.workload
    trace, setup = _setup(workload, run.seed)
    plain: List[float] = []
    probes_off: List[float] = []
    traced: List[float] = []
    reports: List[dict] = []
    other_names: set = set()
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        # Alternate the order inside each round so neither side always
        # runs on a warmer process.
        steps = ["plain", "traced"] + (["off"] if workload.observed else [])
        if rounds % 2:
            steps.reverse()
        for step in steps:
            if step == "traced":
                tracer = tracing.Tracer()
                out = run.replay(trace, workload.observed, tracer=tracer)
                if out is not None:
                    traced.append(out[0])
                    reports.append(tracer.report(trace.num_requests))
                    other_names |= tracer.other_names
            else:
                out = run.replay(trace, step == "plain" and workload.observed)
                if out is not None:
                    (plain if step == "plain" else probes_off).append(out[0])
        rounds += 1
    run.check_golden()
    if not reports:
        return {"metrics": {}, "counts": {}, "times_s": {}}
    counts = reports[0]["counts"]
    for other in reports[1:]:
        if other["counts"] != counts:
            changed = sorted(k for k in counts
                             if other["counts"].get(k) != counts[k])
            run._fail(f"traced counters differ between replays: {changed}")
    times = {key: statistics.median(r["times_s"][key] for r in reports)
             for key in reports[0]["times_s"]}
    times.update({k: v for k, v in setup.items() if k != "setup_s"})
    derived = tracing.ratios(counts, times)
    derived["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(plain) - 1.0)
    if workload.observed:
        pairs = [on / off for on, off in zip(plain, probes_off)]
        derived["obs.overhead"] = statistics.median(pairs) - 1.0
    for name in workload.must_fire:
        if not counts.get(name):
            run._fail(f"{name} is zero: the layer did not fire")
    merged = {**counts, **times, **derived}
    metrics = {name: merged[name] for name in tracing.UNITS if name in merged}
    return {"metrics": metrics, "counts": counts, "times_s": times,
            "ratios": derived, "other_names": sorted(other_names),
            "traced_replays": len(reports), "rows": trace.num_requests}


def _spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _declared(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    section = _spec()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 goldens: Optional[dict] = None) -> dict:
    """Measure one workload; returns the full report."""
    workload = workloads.WORKLOADS[name]
    run = Run(workload, seed, goldens or workloads.load_goldens())
    body = (measure_layers if trace else measure_e2e)(run, seconds)
    body.update({"workload": name, "seed": seed, "trace": trace,
                 "attempted": run.attempted, "failed": run.failed,
                 "problems": run.problems,
                 "digest": run.expected,
                 "correct": run.failed == 0 and run.attempted > 0})
    return body


def result_line(report: dict) -> dict:
    """The contract's last output line for one workload report."""
    declared = _declared(report["trace"])
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in declared.items()
               if name in report["metrics"]}
    correct = report["correct"] and len(metrics) == len(declared)
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_human(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"rows {report.get('rows', '?')}  attempted {report['attempted']}"
          f"  failed {report['failed']}  digest "
          f"{(report['digest'] or '-')[:16]}")
    if report["trace"]:
        units = tracing.UNITS
        for name, value in report["metrics"].items():
            print(f"  {name:44s} {value:>16.6g} {units[name]}")
        if report.get("other_names"):
            print(f"  other callbacks: {', '.join(report['other_names'])}")
        return
    m = report["metrics"]
    if not m:
        print("  no replay succeeded")
        return
    lo, hi = report["requests_per_s_iqr"]
    print(f"  requests_per_s  {m['requests_per_s']:12.1f} req/s  median of "
          f"{report['replays']} replays, IQR {lo:.1f}-{hi:.1f}")
    print(f"  setup_s         {m['setup_s']:12.4f} s      median of "
          f"{SETUP_BUILDS} builds")
    print(f"  peak_rss_mb     {m['peak_rss_mb']:12.1f} MB")
    print(f"  failed_share    {report['failed'] / report['attempted']:12.3f}"
          f"        {report['failed']}/{report['attempted']} replays")
    for key, value in report["simulated"].items():
        print(f"  {key:15s} {value:12.6f}        simulated, exact")


def run_all(args) -> int:
    """Every workload, each in its own subprocess, untraced then traced."""
    combined: Dict[str, dict] = {}
    ok = True
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", name, "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            report = None
            for line in proc.stdout.splitlines():
                if line.startswith("report: "):
                    report = json.loads(line[len("report: "):])
                elif not line.startswith("{"):
                    print(line)
            ok = ok and proc.returncode == 0 and report is not None
            if report is not None:
                combined.setdefault(name, {})[
                    "layers" if trace else "end_to_end"] = report
    _print_separation(combined)
    with open(args.out, "w") as fh:
        json.dump({"schema": "bench/report/v1", "workloads": combined}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.out}")
    return 0 if ok else 1


def _print_separation(combined: Dict[str, dict]) -> None:
    """The layer shares the workloads were chosen to separate."""
    layers = {name: parts["layers"]["metrics"]
              for name, parts in combined.items() if "layers" in parts}
    if not layers:
        return
    print("layer separation (traced run):")
    for name, m in layers.items():
        print(f"  {name:9s} retry+maintenance share "
              f"{m.get('orchestrator.retry_maintenance_share', 0):.3f}  "
              f"events/request {m.get('engine.events_per_request', 0):.2f}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="CIDRE replay benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all, each in its "
                             "own subprocess)")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="input seed (default: the golden seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer run instead of the "
                             "end-to-end metrics")
    parser.add_argument("--out", default=None,
                        help="write the full JSON report here (default for "
                             "all workloads: bench/report.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload is None:
        if args.out is None:
            args.out = str(BENCH_DIR / "report.json")
        return run_all(args)
    seed = args.seed
    if seed is None:
        seed = workloads.load_goldens()["seed"]
    report = run_workload(args.workload, seed, args.seconds, args.trace)
    print_human(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("report: " + json.dumps(report, sort_keys=True))
    line = result_line(report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
