"""Command-line interface: generate traces, replay policies, compare.

Examples
--------
Generate the Azure-like workload and save it::

    cidre-sim generate --preset azure --out traces/ --requests 60000

Replay one policy::

    cidre-sim run --preset azure --policy CIDRE --capacity-gb 100

Compare the full Fig. 12 roster::

    cidre-sim compare --preset fc --capacity-gb 100

Run a policy x capacity sweep across 4 worker processes with an on-disk
result cache::

    cidre-sim sweep --preset azure --policies TTL,FaasCache,CIDRE \
        --capacities 80,100,120,160 --jobs 4 --cache-dir .sweep-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.experiments.runner import run_one
from repro.experiments.suites import FIG12_POLICIES, policy_factories
from repro.sim.config import SimulationConfig
from repro.traces.alibaba import fc_trace
from repro.traces.azure import azure_trace
from repro.traces.io import load_trace, save_trace
from repro.traces.schema import Trace
from repro.traces.stats import workload_stats


def _build_trace(args: argparse.Namespace) -> Trace:
    if args.load:
        return load_trace(args.load, args.trace_name)
    kwargs = {}
    if args.requests:
        kwargs["total_requests"] = args.requests
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.preset == "azure":
        return azure_trace(**kwargs)
    return fc_trace(**kwargs)


def _parse_capacities(spec: str) -> List[float]:
    try:
        return [float(c) for c in spec.split(",")]
    except ValueError:
        raise SystemExit(
            f"invalid --capacities {spec!r}: expected comma-separated "
            f"numbers, e.g. 80,100,160")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=("azure", "fc"),
                        default="azure", help="synthetic workload preset")
    parser.add_argument("--requests", type=int, default=None,
                        help="target number of requests")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed")
    parser.add_argument("--load", default=None,
                        help="directory to load a saved trace from")
    parser.add_argument("--trace-name", default=None,
                        help="trace name when loading from --load")


def cmd_generate(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    save_trace(trace, args.out)
    stats = workload_stats(trace)
    print(f"wrote {trace.name} to {args.out}")
    print(stats.row())
    return 0


def _metrics_registry(path: Optional[str]):
    """A fresh :class:`repro.obs.MetricsRegistry` when ``path`` is set."""
    if not path:
        return None
    from repro.obs import MetricsRegistry
    return MetricsRegistry()


def _write_metrics(registry, path: str) -> None:
    """Save a metrics snapshot: Prometheus text for ``.prom``/``.txt``
    paths, JSON otherwise."""
    if path.endswith((".prom", ".txt")):
        registry.save_prometheus(path)
    else:
        registry.save_json(path)
    print(f"wrote metrics to {path}")


def _make_sanitizer(args: argparse.Namespace):
    """A fresh :class:`repro.sim.sanitizer.SimSanitizer` when
    ``--sanitize`` was given."""
    if not getattr(args, "sanitize", False):
        return None
    from repro.sim.sanitizer import SimSanitizer
    return SimSanitizer()


def _fault_plan(args: argparse.Namespace, trace: Trace):
    """The :class:`repro.sim.faults.FaultPlan` requested on the command
    line, or ``None``.

    ``--faults plan.json`` loads an explicit schedule and wins over
    ``--chaos-seed N``, which derives a random-but-reproducible plan
    from the seed, the worker count, and the trace duration."""
    if getattr(args, "faults", None):
        from repro.sim.faults import FaultPlan
        try:
            return FaultPlan.from_json(args.faults)
        except ValueError as exc:
            raise SystemExit(f"invalid --faults {args.faults}: {exc}")
    chaos_seed = getattr(args, "chaos_seed", None)
    if chaos_seed is not None:
        from repro.sim.faults import random_plan
        return random_plan(chaos_seed, workers=args.workers,
                           horizon_ms=max(trace.duration_ms, 60_000.0))
    return None


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default=None,
                        help="JSON fault-plan file (crashes, stragglers, "
                             "worker classes); see repro.sim.faults")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="derive a reproducible random fault plan "
                             "from this seed (--faults wins)")


def _contention_model(args: argparse.Namespace):
    """The :class:`repro.sim.contention.ContentionModel` requested on the
    command line, or ``None``.

    ``--contention model.json`` loads an explicit model and wins over
    ``--contention-cores``/``--contention-alpha``, which build the
    default power-law curve."""
    if getattr(args, "contention", None):
        from repro.sim.contention import ContentionModel
        return ContentionModel.from_json(args.contention)
    cores = getattr(args, "contention_cores", None)
    if cores is not None:
        from repro.sim.contention import ContentionModel
        alpha = getattr(args, "contention_alpha", None)
        return ContentionModel(
            cores=cores, alpha=1.0 if alpha is None else alpha)
    return None


def _add_contention_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--contention", default=None,
                        help="JSON CPU-contention model file; see "
                             "repro.sim.contention")
    parser.add_argument("--contention-cores", type=int, default=None,
                        help="per-worker core budget for the default "
                             "slowdown curve (enables contention; "
                             "--contention wins)")
    parser.add_argument("--contention-alpha", type=float, default=None,
                        help="exponent of the slowdown curve "
                             "max(1, busy/cores)**alpha (default 1.0; "
                             "0 makes the model inert)")


def cmd_run(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    table = policy_factories()
    if args.policy not in table:
        print(f"unknown policy {args.policy!r}; choose from: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return 2
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads,
                              reference_impl=args.reference,
                              faults=_fault_plan(args, trace),
                              contention=_contention_model(args))
    metrics = _metrics_registry(args.metrics_out)
    sanitizer = _make_sanitizer(args)
    if args.profile_out:
        # A profile destination is an unambiguous request to profile.
        args.profile = True
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run_one(trace, table[args.policy], config,
                         metrics=metrics, sanitizer=sanitizer)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"wrote profile to {args.profile_out}", file=sys.stderr)
    else:
        result = run_one(trace, table[args.policy], config,
                         metrics=metrics, sanitizer=sanitizer)
    if sanitizer is not None:
        sanitizer.report()
    print(render_table(
        ["metric", "value"],
        sorted(result.summary().items()),
        title=f"{args.policy} on {trace.name} @ {args.capacity_gb} GB"))
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)
    return 0


def _resolve_policy(name: str):
    table = policy_factories()
    if name not in table:
        print(f"unknown policy {name!r}; choose from: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return None
    return table[name]


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay one policy with full run telemetry attached."""
    from repro.sim.eventlog import EventLog
    from repro.sim.telemetry import (JsonlSink, SpanBuilder,
                                     TimeSeriesRecorder,
                                     write_chrome_trace)

    trace = _build_trace(args)
    factory = _resolve_policy(args.policy)
    if factory is None:
        return 2
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads,
                              reference_impl=args.reference,
                              fast_forward=args.fast_forward,
                              faults=_fault_plan(args, trace),
                              contention=_contention_model(args))
    sinks = []
    jsonl = spans = None
    if args.events_out:
        jsonl = JsonlSink(args.events_out)
        sinks.append(jsonl)
    if args.chrome_trace:
        spans = SpanBuilder()
        sinks.append(spans)
    recorder = (TimeSeriesRecorder(args.sample_interval_ms)
                if args.timeseries_out else None)
    metrics = _metrics_registry(args.metrics_out)
    log = EventLog(capacity=args.ring_capacity, sinks=sinks)
    sanitizer = _make_sanitizer(args)
    experiment = run_one(trace, factory, config, event_log=log,
                         recorder=recorder, metrics=metrics,
                         sanitizer=sanitizer)
    log.close()
    if sanitizer is not None:
        sanitizer.report()

    result = experiment.result
    print(f"replayed {result.total} requests "
          f"({args.policy} on {trace.name} @ {args.capacity_gb:g} GB): "
          f"{log.recorded} events recorded, "
          f"{len(log)} held in the ring ({log.dropped} rotated out)")
    if jsonl is not None:
        print(f"wrote {jsonl.emitted} events to {jsonl.path}")
    if spans is not None:
        chrome = write_chrome_trace(args.chrome_trace, spans)
        print(f"wrote Chrome trace ({len(chrome['traceEvents'])} "
              f"trace events) to {args.chrome_trace} — load it in "
              f"Perfetto or chrome://tracing")
    if recorder is not None:
        recorder.save_json(args.timeseries_out)
        print(f"wrote {len(recorder.cluster)} samples x "
              f"{len(recorder.functions)} functions to "
              f"{args.timeseries_out}")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)
    print(render_table(
        ["metric", "value"], sorted(result.summary().items()),
        title=f"{args.policy} on {trace.name} @ {args.capacity_gb} GB"))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Replay and print one request's latency story from the event log,
    including the cold-start cause chain when the request cold-started."""
    from repro.analysis.attribution import cause_chain
    from repro.obs import CauseTracker, DecisionAudit
    from repro.sim.eventlog import EventLog

    trace = _build_trace(args)
    factory = _resolve_policy(args.policy)
    if factory is None:
        return 2
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads)
    log = EventLog()
    audit = DecisionAudit()
    experiment = run_one(trace, factory, config, event_log=log,
                         audit=audit, attribution=CauseTracker())
    result = experiment.result
    req = next((r for r in result.requests if r.req_id == args.req_id),
               None)
    if req is None:
        print(f"no request with id {args.req_id} "
              f"(ids run 0..{result.total - 1})", file=sys.stderr)
        return 2
    print(f"r{req.req_id} {req.func}: {req.start_type.value} start, "
          f"arrived {req.arrival_ms:.3f} ms, "
          f"waited {req.wait_ms:.3f} ms, "
          f"executed {req.exec_ms:.3f} ms on c{req.container_id}")
    print()
    print(log.render(log.explain_request(args.req_id)))
    chain = cause_chain(log, audit, args.req_id)
    if chain is not None:
        provision = chain["provision"]
        print()
        print(f"cold-start cause chain: r{req.req_id} -> "
              f"c{provision.container_id} provisioned at "
              f"{provision.time_ms:.3f} ms ({chain['kind']}) because "
              f"{chain['cause'] or 'attribution unavailable'}")
        record = chain["record"]
        if record is not None:
            if record["kind"] == "eviction_decision":
                victims = ", ".join(
                    f"c{v['cid']} {v['func']} ({v['mem_mb']:g} MB)"
                    for v in record["victims"])
                print(f"  decision #{record['did']} at "
                      f"{record['t']:.3f} ms: REPLACE freed "
                      f"{record['freed_mb']:g} MB for "
                      f"{record.get('for_func', '?')} — evicted {victims}")
            else:
                print(f"  decision #{record['did']} at "
                      f"{record['t']:.3f} ms: scale-down evicted "
                      f"c{record['cid']} {record['func']} after "
                      f"{record['idle_ms']:.0f} ms idle")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Replay with the decision audit attached and explain the policy:
    gate-flip timeline, eviction balance (Observation 2), and the most
    expensive decisions."""
    from repro.analysis.audit import (eviction_balance,
                                      expensive_decisions, gate_flip_rows)
    from repro.obs import AuditJsonlSink, DecisionAudit

    trace = _build_trace(args)
    factory = _resolve_policy(args.policy)
    if factory is None:
        return 2
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads)
    sinks = [AuditJsonlSink(args.audit_out)] if args.audit_out else []
    audit = DecisionAudit(sinks=sinks)
    metrics = _metrics_registry(args.metrics_out)
    experiment = run_one(trace, factory, config, audit=audit,
                         metrics=metrics)
    audit.close()

    result = experiment.result
    # A read-only view: each pass below builds the records one at a time.
    records = audit.records
    by_kind = {}
    for record in records:
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
    kinds = ", ".join(f"{count} {kind}"
                      for kind, count in sorted(by_kind.items())) or "none"
    print(f"replayed {result.total} requests "
          f"({args.policy} on {trace.name} @ {args.capacity_gb:g} GB): "
          f"{len(records)} decision records ({kinds})")
    if sinks:
        print(f"wrote {sinks[0].emitted} records to {sinks[0].path}")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)

    flip_rows = gate_flip_rows(records, limit=args.flips)
    if flip_rows:
        total_flips = by_kind.get("gate_flip", 0)
        shown = (f"last {len(flip_rows)} of {total_flips}"
                 if len(flip_rows) < total_flips else f"{total_flips}")
        print()
        print(render_table(
            ["t_ms", "func", "gate", "reason", "trigger"], flip_rows,
            title=f"CSS gate flips ({shown})"))
    else:
        print("\nno gate flips (policy has no CSS gate, or it never "
              "tripped)")

    balance = eviction_balance(records)
    if balance.total:
        print()
        print(render_table(
            ["func", "evictions", "share"],
            [[func, count, f"{share:.1%}"]
             for func, count, share in balance.rows()],
            title=f"eviction balance ({balance.total} victims over "
                  f"{balance.decisions} REPLACE decisions)"))
        print(f"imbalance: max per-function share {balance.max_share:.1%}")
    else:
        print("\nno audited eviction decisions")

    expensive = expensive_decisions(records, k=args.top)
    if expensive:
        rows = []
        for cost, record in expensive:
            if record["kind"] == "eviction_decision":
                what = (f"evicted {len(record['victims'])} container(s)"
                        + (f" for {record['for_func']}"
                           if "for_func" in record else ""))
            else:
                what = (f"{record['func']} r{record['rid']} kept queued "
                        f"at T_d={record['t_d']:.0f} ms")
            rows.append([record["t"], record["kind"], what, cost])
        print()
        print(render_table(
            ["t_ms", "kind", "decision", "cost_ms"], rows,
            title=f"top {len(rows)} most expensive decisions"))
    return 0


def cmd_blame(args: argparse.Namespace) -> int:
    """Replay with causal attribution and the outcome resolver: cold
    starts by proximate cause, the highest-regret decisions (with their
    Eq. 3 decomposition), the keep-warm-waste vs cold-start-penalty
    frontier, and optionally a pinned-decision counterfactual check."""
    from repro.analysis.attribution import (counterfactual_check,
                                            frontier_rows, run_attributed,
                                            victim_decomposition,
                                            worst_decisions)

    trace = _build_trace(args)
    factory = _resolve_policy(args.policy)
    if factory is None:
        return 2
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads,
                              faults=_fault_plan(args, trace),
                              contention=_contention_model(args))
    metrics = _metrics_registry(args.metrics_out)
    run = run_attributed(trace, factory, config,
                         horizon_ms=args.horizon_ms,
                         credit_ms_per_mb_ms=args.credit_rate,
                         metrics=metrics)
    result = run.experiment.result
    resolver = run.resolver
    total_stamped = sum(resolver.causes.values())
    print(f"replayed {result.total} requests "
          f"({args.policy} on {trace.name} @ {args.capacity_gb:g} GB): "
          f"{total_stamped} cold starts attributed, "
          f"{len(resolver.outcomes)} decisions settled at a "
          f"{args.horizon_ms:g} ms horizon")
    if metrics is not None:
        _write_metrics(metrics, args.metrics_out)

    if resolver.causes:
        print()
        print(render_table(
            ["cause", "cold starts", "share"],
            [[cause, count, f"{count / total_stamped:.1%}"]
             for cause, count in sorted(resolver.causes.items(),
                                        key=lambda kv: (-kv[1], kv[0]))],
            title="cold starts by proximate cause"))

    worst = worst_decisions(resolver, run.audit, k=args.top)
    if worst:
        rows = []
        for outcome, record in worst:
            funcs = ",".join(sorted({f for _c, f, _m in outcome.victims}))
            rows.append([outcome.did, outcome.kind, outcome.t_ms,
                         f"{len(outcome.victims)} ({funcs})",
                         outcome.penalty_ms,
                         outcome.reclaimed_mb_ms / 1000.0,
                         outcome.regret_ms])
        print()
        print(render_table(
            ["did", "kind", "t_ms", "victims", "penalty_ms", "mb_s_freed",
             "regret_ms"],
            rows, title=f"top {len(rows)} worst decisions"))
        head_outcome, head_record = worst[0]
        if (head_record is not None
                and head_record["kind"] == "eviction_decision"):
            print()
            print(render_table(
                ["func", "cid", "clock", "freq_per_min", "cost_ms",
                 "size_mb", "warm_count", "priority"],
                victim_decomposition(head_record),
                title=f"decision #{head_outcome.did}: Eq. 3 victim "
                      f"decomposition"))
    else:
        print("\nno settled eviction decisions to rank")

    frontier = frontier_rows(resolver)
    if frontier:
        print()
        print(render_table(
            ["func", "keepwarm_waste_mb_s", "coldstart_penalty_ms"],
            [[func, waste / 1000.0, penalty]
             for func, waste, penalty in frontier],
            title="keep-warm waste vs cold-start penalty (per function)"))

    if args.counterfactual:
        evictions = [outcome for outcome, _record in worst
                     if outcome.kind in ("eviction", "scale-down")]
        checked = evictions[:args.counterfactual]
        rows = []
        for outcome in checked:
            check = counterfactual_check(trace, factory, config, run,
                                         outcome.did)
            rows.append([check.did,
                         check.analytic_penalty_ms,
                         check.measured_delta_ms if check.feasible
                         else "n/a",
                         "yes" if check.feasible else "no (wedged)"])
        if rows:
            print()
            print(render_table(
                ["did", "analytic_ms", "replay_delta_ms", "feasible"],
                rows,
                title=f"pinned-decision counterfactual "
                      f"({len(rows)} replayed)"))
        else:
            print("\nno eviction decisions to replay counterfactually")
    return 0


def _read_event_lines(path: str) -> List[str]:
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def cmd_diff(args: argparse.Namespace) -> int:
    """First divergence between two JSONL event streams (exit 1 when
    they differ, like diff(1))."""
    lines_a = _read_event_lines(args.events_a)
    lines_b = _read_event_lines(args.events_b)
    common = min(len(lines_a), len(lines_b))
    divergence = next((i for i in range(common)
                       if lines_a[i] != lines_b[i]), None)
    if divergence is None:
        if len(lines_a) == len(lines_b):
            print(f"identical: {len(lines_a)} events")
            return 0
        divergence = common
    context = args.context
    print(f"streams diverge at event {divergence} "
          f"({args.events_a}: {len(lines_a)} events, "
          f"{args.events_b}: {len(lines_b)} events)")
    lead = lines_a[max(0, divergence - context):divergence]
    if lead:
        print("shared context:")
        for offset, line in enumerate(lead, start=divergence - len(lead)):
            print(f"  [{offset}] {line}")
    for name, lines in ((args.events_a, lines_a), (args.events_b, lines_b)):
        print(f"{name}:")
        window = lines[divergence:divergence + context + 1]
        if not window:
            print("  (stream ends)")
        for offset, line in enumerate(window, start=divergence):
            print(f"  [{offset}] {line}")
    return 1


def cmd_compare(args: argparse.Namespace) -> int:
    trace = _build_trace(args)
    table = policy_factories()
    names = args.policies.split(",") if args.policies else FIG12_POLICIES
    config = SimulationConfig(capacity_gb=args.capacity_gb,
                              workers=args.workers,
                              threads_per_container=args.threads)
    rows = []
    for name in names:
        result = run_one(trace, table[name], config)
        s = result.summary()
        rows.append([name, s["avg_overhead_ratio"], s["cold_ratio"],
                     s["warm_ratio"], s["delayed_ratio"],
                     s["avg_wait_ms"], s["avg_memory_mb"] / 1024.0])
    print(render_table(
        ["policy", "overhead", "cold", "warm", "delayed", "wait_ms",
         "mem_gb"],
        rows, title=f"{trace.name} @ {args.capacity_gb} GB"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print Table 1-style statistics and the concurrency distribution."""
    import numpy as np

    from repro.traces.stats import (concurrency_per_minute,
                                    fraction_cold_dominated)

    trace = _build_trace(args)
    stats = workload_stats(trace)
    print(render_table(
        ["metric", "value"],
        [["requests", stats.num_requests],
         ["rps avg/min/max",
          f"{stats.rps_avg:,.0f} / {stats.rps_min:,.0f} / "
          f"{stats.rps_max:,.0f}"],
         ["GBps avg/min/max",
          f"{stats.gbps_avg:,.1f} / {stats.gbps_min:,.1f} / "
          f"{stats.gbps_max:,.1f}"],
         ["cold-dominated requests",
          f"{fraction_cold_dominated(trace):.1%}"]],
        title=f"workload statistics: {trace.name}"))
    concurrency = concurrency_per_minute(trace)
    if concurrency.size:
        print(render_table(
            ["percentile", "reqs/min"],
            [[f"p{q}", float(np.percentile(concurrency, q))]
             for q in (50, 90, 99)],
            title="function concurrency (Fig. 3)"))
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    """Run the §2.4 queuing-vs-cold-start what-if analysis (Figs 5/6)."""
    from repro.analysis.plot import ascii_cdf
    from repro.analysis.whatif import tradeoff_analysis

    trace = _build_trace(args)
    result = tradeoff_analysis(
        trace, SimulationConfig(capacity_gb=args.capacity_gb))
    print(ascii_cdf({"queuing": result.queuing_ms,
                     "cold start": result.cold_ms},
                    title=f"queuing vs cold start ({trace.name}, "
                          f"{args.capacity_gb:g} GB)",
                    x_max_percentile=95.0))
    cross = result.crossover_ms()
    print(f"crossover: "
          f"{'none (queuing dominates)' if cross is None else f'{cross:.0f} ms'}")
    print(f"queuing wins for {result.fraction_queue_wins():.1%} "
          f"of would-be cold starts")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a policy/capacity grid and emit a markdown report."""
    from repro.analysis.report import experiment_report
    from repro.experiments.parallel import ParallelRunner

    trace = _build_trace(args)
    table = policy_factories()
    names = (args.policies.split(",") if args.policies
             else ["FaasCache", "CIDRE_BSS", "CIDRE", "Offline"])
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown policies: {unknown}", file=sys.stderr)
        return 2
    capacities = _parse_capacities(args.capacities)
    runner = ParallelRunner(jobs=args.jobs)
    results = runner.capacity_sweep(trace, names, capacities)
    report = experiment_report(results, baseline=args.baseline,
                               title=f"Policy comparison on {trace.name}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _sweep_markdown(results, trace_name: str) -> str:
    """Full-precision markdown of sweep summaries.

    Values are written with ``repr`` so two runs are file-identical iff
    their summaries are bit-identical — the CLI's determinism contract.
    """
    keys = ["avg_overhead_ratio", "cold_ratio", "warm_ratio",
            "delayed_ratio", "avg_wait_ms", "avg_memory_mb"]
    lines = [f"# Sweep results: {trace_name}", "",
             "| policy | capacity_gb | " + " | ".join(keys) + " |",
             "|" + "|".join("---" for _ in range(len(keys) + 2)) + "|"]
    for res in results:
        s = res.summary()
        lines.append("| " + res.policy_name
                     + f" | {res.config.capacity_gb!r} | "
                     + " | ".join(repr(s[k]) for k in keys) + " |")
    lines.append("")
    return "\n".join(lines)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a parallel policy x capacity sweep with a timing report."""
    from repro.experiments.parallel import ParallelRunner, ProgressHeartbeat

    trace = _build_trace(args)
    table = policy_factories()
    names = (args.policies.split(",") if args.policies
             else ["TTL", "FaasCache", "CIDRE"])
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown policies: {unknown}", file=sys.stderr)
        return 2
    capacities = _parse_capacities(args.capacities)

    def progress(done, total, cell):
        status = "cached" if cell.cached else f"{cell.wall_s:.2f}s"
        print(f"[{done}/{total}] {cell.policy_name} @ "
              f"{cell.capacity_gb:g} GB ({status})", file=sys.stderr)

    if args.progress:
        progress_fn = ProgressHeartbeat()
    elif args.quiet:
        progress_fn = None
    else:
        progress_fn = progress

    runner = ParallelRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                            collect="summary", progress=progress_fn,
                            events_dir=args.events_dir,
                            metrics_dir=args.metrics_out)
    results = runner.capacity_sweep(
        trace, names, capacities, seed=args.seed,
        workers=args.workers, threads_per_container=args.threads,
        faults=_fault_plan(args, trace),
        contention=_contention_model(args))

    rows = []
    for res in results:
        s = res.summary()
        rows.append([res.policy_name, res.config.capacity_gb,
                     s["avg_overhead_ratio"], s["cold_ratio"],
                     s["warm_ratio"], s["delayed_ratio"],
                     s["avg_wait_ms"]])
    print(render_table(
        ["policy", "GB", "overhead", "cold", "warm", "delayed",
         "wait_ms"],
        rows, title=f"sweep: {trace.name} x {len(capacities)} "
                    f"capacities x {len(names)} policies"))
    report = runner.last_report
    print(render_table(
        ["policy", "GB", "cell time"], report.rows(),
        title="per-cell wall clock"))
    print(report.render())
    if args.metrics_out:
        print(f"wrote per-cell metrics snapshots to {args.metrics_out}/")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_sweep_markdown(results, trace.name))
        print(f"wrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cidre-sim",
        description="CIDRE serverless orchestration simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and save a trace")
    _add_trace_args(gen)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="replay one policy over a trace")
    _add_trace_args(run)
    run.add_argument("--policy", default="CIDRE")
    run.add_argument("--capacity-gb", type=float, default=100.0)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--profile", action="store_true",
                     help="profile the replay with cProfile and print the "
                          "top 25 cumulative entries to stderr")
    run.add_argument("--profile-out", default=None,
                     help="dump pstats data here (implies --profile)")
    run.add_argument("--reference", action="store_true",
                     help="use the pre-index reference implementations "
                          "(scan/sort hot path; bit-identical results)")
    run.add_argument("--metrics-out", default=None,
                     help="write a metrics snapshot here (Prometheus "
                          "text for .prom/.txt, JSON otherwise)")
    run.add_argument("--sanitize", action="store_true",
                     help="run under the sim-sanitizer (write barrier "
                          "around probe callbacks + periodic consistency "
                          "sweeps); results stay bit-identical")
    _add_fault_args(run)
    _add_contention_args(run)
    run.set_defaults(func=cmd_run)

    tr = sub.add_parser(
        "trace", help="replay with run telemetry (JSONL event stream, "
                      "Chrome trace, time series)")
    _add_trace_args(tr)
    tr.add_argument("--policy", default="CIDRE")
    tr.add_argument("--capacity-gb", type=float, default=100.0)
    tr.add_argument("--workers", type=int, default=1)
    tr.add_argument("--threads", type=int, default=1)
    tr.add_argument("--events-out", default=None,
                    help="stream the full event log here as JSON Lines "
                         "(O(1) memory)")
    tr.add_argument("--chrome-trace", default=None,
                    help="write a Chrome trace_event JSON here "
                         "(Perfetto / chrome://tracing)")
    tr.add_argument("--timeseries-out", default=None,
                    help="write sampled per-function time series "
                         "(JSON) here")
    tr.add_argument("--sample-interval-ms", type=float, default=1_000.0,
                    help="time-series sampling period (virtual ms)")
    tr.add_argument("--ring-capacity", type=int, default=65_536,
                    help="events kept in memory (oldest rotate out; "
                         "sinks still see everything)")
    tr.add_argument("--metrics-out", default=None,
                    help="write a metrics snapshot here (Prometheus "
                         "text for .prom/.txt, JSON otherwise)")
    tr.add_argument("--sanitize", action="store_true",
                    help="run under the sim-sanitizer (write barrier "
                         "around sink/recorder callbacks + periodic "
                         "consistency sweeps); results stay bit-identical")
    tr.add_argument("--reference", action="store_true",
                    help="use the pre-index reference implementations "
                         "(scan/sort hot path; bit-identical results)")
    tr.add_argument("--fast-forward", action="store_true",
                    help="advance maintenance ticks the policy proves "
                         "inert in closed form (bit-identical; ignored "
                         "under --reference)")
    _add_fault_args(tr)
    _add_contention_args(tr)
    tr.set_defaults(func=cmd_trace)

    audit = sub.add_parser(
        "audit", help="replay with the decision audit: gate-flip "
                      "timeline, eviction balance, expensive decisions")
    _add_trace_args(audit)
    audit.add_argument("--policy", default="CIDRE")
    audit.add_argument("--capacity-gb", type=float, default=100.0)
    audit.add_argument("--workers", type=int, default=1)
    audit.add_argument("--threads", type=int, default=1)
    audit.add_argument("--audit-out", default=None,
                       help="stream decision records here as JSON Lines")
    audit.add_argument("--metrics-out", default=None,
                       help="write a metrics snapshot here (Prometheus "
                            "text for .prom/.txt, JSON otherwise)")
    audit.add_argument("--flips", type=int, default=20,
                       help="gate flips shown in the timeline "
                            "(0 = all, default 20)")
    audit.add_argument("--top", type=int, default=5,
                       help="most expensive decisions shown (default 5)")
    audit.set_defaults(func=cmd_audit)

    blame = sub.add_parser(
        "blame", help="replay with causal attribution: cold starts by "
                      "cause, highest-regret decisions, keep-warm "
                      "frontier")
    _add_trace_args(blame)
    blame.add_argument("--policy", default="CIDRE")
    blame.add_argument("--capacity-gb", type=float, default=100.0)
    blame.add_argument("--workers", type=int, default=1)
    blame.add_argument("--threads", type=int, default=1)
    blame.add_argument("--horizon-ms", type=float, default=60_000.0,
                       help="settlement horizon: how long a decision's "
                            "consequences are tallied (default 60000)")
    blame.add_argument("--credit-rate", type=float, default=0.0,
                       help="memory credit in ms per MB-ms reclaimed, "
                            "subtracted from the cold-start penalty "
                            "(default 0 = regret is the raw penalty)")
    blame.add_argument("--top", type=int, default=5,
                       help="worst decisions shown (default 5)")
    blame.add_argument("--counterfactual", type=int, default=0,
                       help="validate the top-N worst evictions by "
                            "replaying with each pinned (slow: one "
                            "replay per decision)")
    blame.add_argument("--metrics-out", default=None,
                       help="write a metrics snapshot here (Prometheus "
                            "text for .prom/.txt, JSON otherwise)")
    _add_fault_args(blame)
    _add_contention_args(blame)
    blame.set_defaults(func=cmd_blame)

    diff = sub.add_parser(
        "diff", help="first divergence between two JSONL event streams")
    diff.add_argument("events_a", help="baseline events .jsonl")
    diff.add_argument("events_b", help="candidate events .jsonl")
    diff.add_argument("--context", type=int, default=5,
                      help="events of context shown around the "
                           "divergence (default 5)")
    diff.set_defaults(func=cmd_diff)

    explain = sub.add_parser(
        "explain", help="replay and explain one request's latency story")
    explain.add_argument("req_id", type=int,
                         help="request id (serial arrival order)")
    _add_trace_args(explain)
    explain.add_argument("--policy", default="CIDRE")
    explain.add_argument("--capacity-gb", type=float, default=100.0)
    explain.add_argument("--workers", type=int, default=1)
    explain.add_argument("--threads", type=int, default=1)
    explain.set_defaults(func=cmd_explain)

    cmp_ = sub.add_parser("compare", help="compare policies over a trace")
    _add_trace_args(cmp_)
    cmp_.add_argument("--policies", default=None,
                      help="comma-separated policy names (default Fig. 12)")
    cmp_.add_argument("--capacity-gb", type=float, default=100.0)
    cmp_.add_argument("--workers", type=int, default=1)
    cmp_.add_argument("--threads", type=int, default=1)
    cmp_.set_defaults(func=cmd_compare)

    stats = sub.add_parser("stats", help="print workload statistics")
    _add_trace_args(stats)
    stats.set_defaults(func=cmd_stats)

    whatif = sub.add_parser(
        "whatif", help="queuing vs cold-start what-if (Figs 5/6)")
    _add_trace_args(whatif)
    whatif.add_argument("--capacity-gb", type=float, default=100.0)
    whatif.set_defaults(func=cmd_whatif)

    report = sub.add_parser(
        "report", help="run a policy grid and emit a markdown report")
    _add_trace_args(report)
    report.add_argument("--policies", default=None,
                        help="comma-separated policy names")
    report.add_argument("--capacities", default="80,100,160",
                        help="comma-separated cache sizes in GB")
    report.add_argument("--baseline", default="FaasCache")
    report.add_argument("--out", default=None,
                        help="write the markdown to this file")
    report.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    report.set_defaults(func=cmd_report)

    sweep = sub.add_parser(
        "sweep", help="parallel policy x capacity sweep with timing")
    _add_trace_args(sweep)
    sweep.add_argument("--policies", default=None,
                       help="comma-separated policy names "
                            "(default TTL,FaasCache,CIDRE)")
    sweep.add_argument("--capacities", default="80,100,120,160",
                       help="comma-separated cache sizes in GB")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (1 = serial fallback; "
                            "default: CPU count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist/reuse per-cell results here")
    sweep.add_argument("--events-dir", default=None,
                       help="stream each executed cell's event log to "
                            "a JSONL file in this directory")
    sweep.add_argument("--metrics-out", default=None,
                       help="directory for per-cell metrics snapshots "
                            "(one JSON file per executed cell)")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--out", default=None,
                       help="write full-precision markdown results here")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    sweep.add_argument("--progress", action="store_true",
                       help="heartbeat progress on stderr: cells "
                            "done/total, per-cell wall time, ETA "
                            "(overrides --quiet)")
    _add_fault_args(sweep)
    _add_contention_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    lint = sub.add_parser(
        "lint", help="static determinism/purity/FP-discipline analysis "
                     "(repro-lint)")
    from repro.lint.cli import add_lint_arguments, run_lint
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
