#!/usr/bin/env bash
# Tier-1 verification plus a parallel smoke sweep.
#
# Runs the unit/integration/property test suite, then a tiny 2-policy x
# 2-capacity sweep through the multiprocessing path (--jobs 2) and
# checks it is bit-identical to the serial path (--jobs 1), so every PR
# exercises the spawn/fork worker plumbing and the determinism
# guarantee, not just the in-process code.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== import preflight (PYTHONPATH=src resolution) =="
if ! preflight_err="$(python -c 'import repro, repro.cli, repro.lint' 2>&1)"; then
    echo "FATAL: cannot import the repro package with PYTHONPATH=src." >&2
    echo "Run this script from a checkout whose src/repro is intact;" >&2
    echo "the import error was:" >&2
    echo "$preflight_err" >&2
    exit 1
fi

echo "== repro-lint (determinism / purity / FP-discipline) =="
# Human output for the log, then the JSON surface the tooling consumes.
python -m repro.lint src/repro
python -m repro.lint src/repro --format json > /dev/null

echo "== repro-lint --deep (transitive purity / units) =="
# Whole-program pass, gated on its own committed baseline
# (lint-deep-baseline.json).
python -m repro.lint --deep src/repro

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== bench counts (traced work counters of the four workloads) =="
# One traced replay per workload, no timing budget. bench/run.py exits
# non-zero when any plain or traced replay's digest differs from
# bench/goldens.json; diff_counters.py then exits non-zero, printing a
# `!` line per differing counter, when the deterministic per-layer
# counts differ from the committed scripts/bench_counts.json. A change
# that alters how much work a replay does updates that file in the same
# commit. To regenerate it, write the four reports into a directory D
# with the run.py line below (--out D/W.json), then
#   python3 -c 'import json, sys; print(json.dumps({"schema":
#     "bench/report/v1", "workloads": {w: {"layers": {"counts": json.load(
#     open(f"{sys.argv[1]}/{w}.json"))["counts"], "times_s": {}}} for w in
#     ("pressure", "backlog", "sparse", "observed")}}, indent=2,
#     sort_keys=True))' D > scripts/bench_counts.json
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for workload in pressure backlog sparse observed; do
    python3 bench/run.py --workload "$workload" --seconds 0 --trace 1 \
        --out "$tmpdir/$workload.json" | tail -n 1
    python3 bench/diff_counters.py scripts/bench_counts.json \
        "$tmpdir/$workload.json"
done

echo "== parallel smoke sweep (--jobs 2 vs --jobs 1) =="
common=(sweep --preset azure --requests 1500 --seed 3
        --policies TTL,FaasCache --capacities 2,4 --quiet)
python -m repro.cli "${common[@]}" --jobs 2 --out "$tmpdir/parallel.md"
python -m repro.cli "${common[@]}" --jobs 1 --out "$tmpdir/serial.md"
cmp "$tmpdir/parallel.md" "$tmpdir/serial.md"
echo "parallel sweep matches serial bit-for-bit"

echo "== telemetry smoke (JSONL events + Chrome trace + time series) =="
python -m repro.cli trace --preset azure --requests 1500 --seed 3 \
    --policy CIDRE --capacity-gb 2 --ring-capacity 512 \
    --events-out "$tmpdir/events.jsonl" \
    --chrome-trace "$tmpdir/trace.json" \
    --timeseries-out "$tmpdir/series.json" > /dev/null
python - "$tmpdir" <<'EOF'
import json, sys
tmpdir = sys.argv[1]
events = [json.loads(line)
          for line in open(f"{tmpdir}/events.jsonl") if line.strip()]
assert events, "no events streamed"
assert all({"t", "kind", "func"} <= set(e) for e in events)
trace = json.load(open(f"{tmpdir}/trace.json"))
assert trace["traceEvents"], "empty Chrome trace"
assert all("ph" in e and "pid" in e for e in trace["traceEvents"])
series = json.load(open(f"{tmpdir}/series.json"))
assert series["cluster"]["times_ms"] and series["functions"]
print(f"telemetry artifacts OK: {len(events)} events, "
      f"{len(trace['traceEvents'])} trace events, "
      f"{len(series['cluster']['times_ms'])} samples x "
      f"{len(series['functions'])} functions")
EOF

echo "== sanitized replay smoke (--sanitize is a bit-identical no-op) =="
run_common=(run --preset azure --requests 1500 --seed 3
            --policy CIDRE --capacity-gb 2)
python -m repro.cli "${run_common[@]}" > "$tmpdir/run-plain.txt"
python -m repro.cli "${run_common[@]}" --sanitize \
    > "$tmpdir/run-sanitized.txt" 2> "$tmpdir/sanitizer.log"
if ! cmp "$tmpdir/run-plain.txt" "$tmpdir/run-sanitized.txt"; then
    echo "FATAL: sanitized replay diverged from the plain replay" >&2
    exit 1
fi
grep -q "sanitizer: ok" "$tmpdir/sanitizer.log"
echo "sanitized replay matches plain replay bit-for-bit"

echo "== sanitized contention smoke (progress mode under --sanitize) =="
# Progress mode defers a completion's neighbour retime to the start that
# takes over its slot; the sanitizer exempts that worker's completion
# event only while the handler runs and checks the CSS worklist.
cont_run=(run --preset azure --requests 1500 --seed 3 --policy CIDRE
          --capacity-gb 2 --contention-cores 4)
python -m repro.cli "${cont_run[@]}" > "$tmpdir/cont-run-plain.txt"
python -m repro.cli "${cont_run[@]}" --sanitize \
    > "$tmpdir/cont-run-sanitized.txt" 2> "$tmpdir/cont-run-sanitizer.log"
if ! cmp "$tmpdir/cont-run-plain.txt" "$tmpdir/cont-run-sanitized.txt"; then
    echo "FATAL: sanitized contention replay diverged from the plain one" >&2
    exit 1
fi
grep -q "sanitizer: ok" "$tmpdir/cont-run-sanitizer.log"
echo "sanitized contention replay matches plain replay bit-for-bit"

echo "== decision-audit smoke (audit verb artifacts) =="
python -m repro.cli audit --preset azure --requests 1500 --seed 3 \
    --policy CIDRE --capacity-gb 2 \
    --audit-out "$tmpdir/audit.jsonl" \
    --metrics-out "$tmpdir/metrics.prom" > /dev/null
python - "$tmpdir" <<'EOF'
import json, sys
tmpdir = sys.argv[1]
records = [json.loads(line)
           for line in open(f"{tmpdir}/audit.jsonl") if line.strip()]
assert records, "no audit records streamed"
kinds = {r["kind"] for r in records}
assert kinds <= {"css_scale", "gate_flip", "eviction_decision",
                 "scale_down"}, kinds
assert all("t" in r for r in records)
prom = open(f"{tmpdir}/metrics.prom").read()
assert "# TYPE" in prom and "repro_requests_total" in prom
print(f"audit artifacts OK: {len(records)} records "
      f"({len(kinds)} kinds), metrics exposition non-empty")
EOF

echo "== probe rings vs sidecars (typed columns read back the stream) =="
# The event log and the decision audit keep typed columns and rebuild
# events and records on read. Replay a small trace with a JSONL sink on
# both probes; each sidecar must equal, line for line, the JSON of what
# the in-memory ring reads back.
python - "$tmpdir" <<'EOF'
import json, sys
from repro.experiments.suites import policy_factories
from repro.obs import AuditJsonlSink, CauseTracker, DecisionAudit
from repro.sim.config import SimulationConfig
from repro.sim.eventlog import EventLog
from repro.sim.orchestrator import Orchestrator
from repro.sim.telemetry import JsonlSink, event_to_dict
from repro.traces.azure import azure_trace
tmpdir = sys.argv[1]
trace = azure_trace(seed=3, total_requests=3000, duration_ms=300_000.0)
log = EventLog(sinks=[JsonlSink(f"{tmpdir}/ring-events.jsonl")])
audit = DecisionAudit(sinks=[AuditJsonlSink(f"{tmpdir}/ring-audit.jsonl")])
Orchestrator(trace.functions, policy_factories()["CIDRE"](trace),
             SimulationConfig(capacity_gb=2.0), event_log=log, audit=audit,
             attribution=CauseTracker()).run(trace.packed())
log.close()
audit.close()
def dumps(item):
    return json.dumps(item, separators=(",", ":")) + "\n"
for name, ring in (("events", [event_to_dict(e) for e in log.events]),
                   ("audit", audit.records)):
    with open(f"{tmpdir}/ring-{name}.jsonl") as fh:
        sidecar = fh.readlines()
    assert len(sidecar) == len(ring) > 0, (name, len(sidecar), len(ring))
    for number, (line, item) in enumerate(zip(sidecar, ring)):
        assert line == dumps(item), (name, number, line, dumps(item))
kinds = {r["kind"] for r in audit.records}
assert {"css_scale", "gate_flip", "eviction_decision"} <= kinds, kinds
print(f"probe rings match their sidecars: {len(log)} events, "
      f"{len(audit)} audit records ({len(kinds)} kinds)")
EOF

echo "== sweep --progress heartbeat smoke (--jobs 2) =="
python -m repro.cli sweep --preset azure --requests 1500 --seed 3 \
    --policies TTL,FaasCache --capacities 2,4 --jobs 2 --progress \
    2> "$tmpdir/progress.log" > /dev/null
grep -q "eta" "$tmpdir/progress.log"
test "$(grep -c "eta" "$tmpdir/progress.log")" -eq 4
echo "progress heartbeat OK: one line per cell"

echo "== chaos smoke (deterministic fault injection, sanitized) =="
# Two identical seeded chaos runs — one plain, one sanitized — must be
# bit-identical, actually inject crashes, and pass the sanitizer sweeps.
chaos_common=(run --preset azure --requests 1500 --seed 3
              --policy CIDRE --capacity-gb 4 --workers 2 --chaos-seed 7)
python -m repro.cli "${chaos_common[@]}" > "$tmpdir/chaos-plain.txt"
python -m repro.cli "${chaos_common[@]}" --sanitize \
    > "$tmpdir/chaos-sanitized.txt" 2> "$tmpdir/chaos-sanitizer.log"
if ! cmp "$tmpdir/chaos-plain.txt" "$tmpdir/chaos-sanitized.txt"; then
    echo "FATAL: sanitized chaos replay diverged from the plain one" >&2
    exit 1
fi
grep -q "sanitizer: ok" "$tmpdir/chaos-sanitizer.log"
grep -q "worker_crashes" "$tmpdir/chaos-plain.txt"
if grep -Eq "worker_crashes +0\.000" "$tmpdir/chaos-plain.txt"; then
    echo "FATAL: chaos smoke injected no crashes (vacuous run)" >&2
    exit 1
fi
echo "chaos replay deterministic under the sanitizer, crashes injected"

echo "== hostile fault-plan smoke (rejected before the replay) =="
# A NaN multiplier once replayed to a wrong answer or failed mid-replay
# with an engine error naming no spec; it must stop the CLI at once,
# naming the plan entry and the field.
printf '%s\n' '{"stragglers": [{"worker_id": 0, "start_ms": 0.0,' \
    '  "end_ms": 1000.0, "exec_multiplier": NaN}]}' \
    > "$tmpdir/bad-plan.json"
if timeout 60 python -m repro.cli run --preset azure --requests 1500 \
        --seed 3 --policy CIDRE --capacity-gb 4 --workers 2 \
        --faults "$tmpdir/bad-plan.json" > /dev/null \
        2> "$tmpdir/bad-plan.log"; then
    echo "FATAL: a fault plan with a NaN multiplier was accepted" >&2
    exit 1
fi
grep -q "stragglers\[0\]: exec_multiplier" "$tmpdir/bad-plan.log"
echo "hostile fault plan rejected: $(tail -n 1 "$tmpdir/bad-plan.log")"

echo "== blame smoke (causal attribution on the chaos trace) =="
# Attribution + outcome resolution over the seeded chaos run. The check
# is non-vacuous: at least one cold start must be blamed on an audited
# eviction decision (the chaos trace is known to churn the warm pool).
python -m repro.cli blame --preset azure --requests 1500 --seed 3 \
    --policy CIDRE --capacity-gb 4 --workers 2 --chaos-seed 7 \
    --top 3 > "$tmpdir/blame.txt"
grep -q "cold starts by proximate cause" "$tmpdir/blame.txt"
grep -q "worst decisions" "$tmpdir/blame.txt"
if ! grep -Eq "^eviction +[1-9]" "$tmpdir/blame.txt"; then
    echo "FATAL: blame smoke found no eviction-caused cold starts" >&2
    exit 1
fi
echo "blame attribution non-vacuous: eviction-caused cold starts resolved"

echo "== fast-forward vs reference event-log cmp (bit-identity) =="
# The packed-stream + fast-forward replay must produce a byte-identical
# JSONL event log, time series and Prometheus metrics to the classic
# reference replay. The recorder's periodic samples every tick while
# inert maintenance ticks are still skipped.
ff_common=(trace --preset azure --requests 1500 --seed 3
           --policy CIDRE --capacity-gb 2)
python -m repro.cli "${ff_common[@]}" --reference \
    --events-out "$tmpdir/events-ref.jsonl" \
    --timeseries-out "$tmpdir/series-ref.json" \
    --metrics-out "$tmpdir/metrics-ref.prom" > /dev/null
python -m repro.cli "${ff_common[@]}" --fast-forward \
    --events-out "$tmpdir/events-ff.jsonl" \
    --timeseries-out "$tmpdir/series-ff.json" \
    --metrics-out "$tmpdir/metrics-ff.prom" > /dev/null
cmp "$tmpdir/events-ref.jsonl" "$tmpdir/events-ff.jsonl"
cmp "$tmpdir/series-ref.json" "$tmpdir/series-ff.json"
cmp "$tmpdir/metrics-ref.prom" "$tmpdir/metrics-ff.prom"
# Same check through the diff verb (exit 0 + "identical" on no drift).
python -m repro.cli diff "$tmpdir/events-ref.jsonl" \
    "$tmpdir/events-ff.jsonl" | grep -q "identical"
echo "fast-forward event log, time series and metrics match reference" \
    "byte-for-byte"

echo "== contention smoke (inert-model identity, deterministic replay) =="
# An attached-but-inert contention model (alpha=0) must replay the exact
# byte stream of a contention-free run: the progress-based completion
# path may add no events and no float drift while every slowdown is 1.
cont_common=(trace --preset azure --requests 1500 --seed 3
             --policy CIDRE --capacity-gb 2)
python -m repro.cli "${cont_common[@]}" \
    --events-out "$tmpdir/events-plain.jsonl" > /dev/null
python -m repro.cli "${cont_common[@]}" \
    --contention-cores 4 --contention-alpha 0 \
    --events-out "$tmpdir/events-inert.jsonl" > /dev/null
cmp "$tmpdir/events-plain.jsonl" "$tmpdir/events-inert.jsonl"
echo "inert contention model matches contention-off byte-for-byte"
# A live model must itself be deterministic across the classic,
# reference, fast-forward and sanitized replays (each busy worker's one
# completion event is a real heap event, so the analytic skip cannot
# jump a retiming; the sanitizer checks that event against the worker's
# earliest execution on every sweep).
python -m repro.cli "${cont_common[@]}" --contention-cores 1 \
    --events-out "$tmpdir/events-cont.jsonl" > /dev/null
python -m repro.cli "${cont_common[@]}" --contention-cores 1 --reference \
    --events-out "$tmpdir/events-cont-ref.jsonl" > /dev/null
python -m repro.cli "${cont_common[@]}" --contention-cores 1 --fast-forward \
    --events-out "$tmpdir/events-cont-ff.jsonl" > /dev/null
python -m repro.cli "${cont_common[@]}" --contention-cores 1 --sanitize \
    --events-out "$tmpdir/events-cont-san.jsonl" > /dev/null \
    2> "$tmpdir/cont-sanitizer.log"
cmp "$tmpdir/events-cont.jsonl" "$tmpdir/events-cont-ref.jsonl"
cmp "$tmpdir/events-cont.jsonl" "$tmpdir/events-cont-ff.jsonl"
cmp "$tmpdir/events-cont.jsonl" "$tmpdir/events-cont-san.jsonl"
grep -q "sanitizer: ok" "$tmpdir/cont-sanitizer.log"
grep -q 'slowdown=' "$tmpdir/events-cont.jsonl" || {
    echo "FATAL: contention smoke slowed nothing (vacuous run)" >&2
    exit 1
}
echo "contention replay deterministic: classic/reference/fast-forward/sanitized"
