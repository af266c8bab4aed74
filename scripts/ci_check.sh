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

echo "== repro-lint --deep (shard safety / transitive purity / units) =="
# Whole-program pass, gated on its own committed baseline
# (lint-deep-baseline.json). Every cross-worker access must carry a
# `# shard:` annotation or a reasoned baseline entry; the inventory is
# written as a CI artifact for the sharded-engine work (ROADMAP item 2).
python -m repro.lint --deep src/repro --shard-report shard-report.json
python - <<'EOF'
import json

report = json.load(open("shard-report.json"))
sites = report["sites"]
cross = [s for s in sites if s["ownership"] == "cross-worker"]
assert cross, "shard report is vacuous: no cross-worker sites at all"
assert report["summary"]["unannotated_cross_worker"] == 0, \
    "unannotated cross-worker accesses slipped past the lint gate"
functions = {s["function"] for s in cross}
for expected in ("Orchestrator._dispatch", "Orchestrator._sample_memory",
                 "Worker._charge"):
    assert any(f.endswith(expected) for f in functions), \
        f"known cross-worker site missing from inventory: {expected}"
print(f"shard inventory OK: {len(sites)} sites "
      f"({len(cross)} cross-worker), placement + cluster-memory covered")
EOF

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== bench goldens (simulated outputs of the four benchmark workloads) =="
# Three replays per workload, no timing budget; bench/run.py exits
# non-zero when any replay's digest differs from bench/goldens.json.
for workload in pressure backlog sparse observed; do
    python3 bench/run.py --workload "$workload" --seconds 0 | tail -n 1
done

echo "== parallel smoke sweep (--jobs 2 vs --jobs 1) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
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
# The packed-stream + idle-fast-forward replay must produce a
# byte-identical JSONL event log to the classic reference replay.
ff_common=(trace --preset azure --requests 1500 --seed 3
           --policy CIDRE --capacity-gb 2)
python -m repro.cli "${ff_common[@]}" --reference \
    --events-out "$tmpdir/events-ref.jsonl" > /dev/null
python -m repro.cli "${ff_common[@]}" --fast-forward \
    --events-out "$tmpdir/events-ff.jsonl" > /dev/null
cmp "$tmpdir/events-ref.jsonl" "$tmpdir/events-ff.jsonl"
# Same check through the diff verb (exit 0 + "identical" on no drift).
python -m repro.cli diff "$tmpdir/events-ref.jsonl" \
    "$tmpdir/events-ff.jsonl" | grep -q "identical"
echo "fast-forward event log matches reference byte-for-byte"

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

echo "== replay throughput smoke (ci-smoke vs committed baseline) =="
# Gate on the committed trajectory point, both replay modes. The band
# is two-sided: a large unexplained speedup means the committed
# baseline went stale and stopped guarding anything. The fast-forward
# run is one-sided — ff is a wash on the dense smoke trace, so only a
# slowdown there is a bug.
python -m repro.cli bench-throughput --scenarios ci-smoke \
    --check BENCH_throughput.json --factor 1.5
python -m repro.cli bench-throughput --scenarios ci-smoke --fast-forward \
    --check BENCH_throughput.json --factor 1.5 --one-sided
