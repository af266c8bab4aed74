"""Tests for the experiment harness and the CLI."""

import pytest

from repro.cli import main
from repro.experiments.runner import capacity_sweep, run_grid, run_one
from repro.experiments.suites import (ABLATION_POLICIES, FIG12_POLICIES,
                                      policy_factories, select)
from repro.sim.config import SimulationConfig
from repro.traces.azure import azure_trace


@pytest.fixture(scope="module")
def tiny():
    return azure_trace(seed=3, total_requests=1_500, n_functions=20)


class TestSuites:
    def test_all_fig12_policies_resolvable(self):
        factories = select(FIG12_POLICIES)
        assert len(factories) == len(FIG12_POLICIES)

    def test_ablation_policies_resolvable(self):
        assert len(select(ABLATION_POLICIES)) == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            select(["NotAPolicy"])

    def test_factories_produce_fresh_instances(self, tiny):
        factory = policy_factories()["CIDRE"]
        assert factory(tiny) is not factory(tiny)


class TestRunner:
    def test_run_one(self, tiny):
        result = run_one(tiny, policy_factories()["LRU"],
                         SimulationConfig(capacity_gb=2.0))
        assert result.policy_name == "LRU"
        assert result.trace_name == tiny.name
        assert result.result.total == tiny.num_requests
        assert "cold_ratio" in result.summary()

    def test_run_one_does_not_mutate_trace(self, tiny):
        run_one(tiny, policy_factories()["LRU"],
                SimulationConfig(capacity_gb=2.0))
        assert all(r.start_ms is None for r in tiny.requests)

    def test_run_grid(self, tiny):
        results = run_grid(tiny, select(["LRU", "TTL"]),
                           [SimulationConfig(capacity_gb=2.0),
                            SimulationConfig(capacity_gb=4.0)])
        assert len(results) == 4

    def test_capacity_sweep(self, tiny):
        results = capacity_sweep(tiny, select(["LRU"]), (2.0, 4.0))
        caps = [r.config.capacity_gb for r in results]
        assert caps == [2.0, 4.0]
        # More memory never hurts a caching policy's cold ratio.
        assert results[1].result.cold_start_ratio \
            <= results[0].result.cold_start_ratio + 0.05

    def test_offline_factory_uses_trace(self, tiny):
        result = run_one(tiny, policy_factories()["Offline"],
                         SimulationConfig(capacity_gb=2.0))
        assert result.result.total == tiny.num_requests


class TestCLI:
    def test_compare_runs(self, capsys):
        code = main(["compare", "--preset", "azure", "--requests", "1500",
                     "--policies", "LRU,CIDRE", "--capacity-gb", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "CIDRE" in out

    def test_run_unknown_policy(self, capsys):
        code = main(["run", "--preset", "azure", "--requests", "1500",
                     "--policy", "Nope"])
        assert code == 2

    def test_run_single_policy(self, capsys):
        code = main(["run", "--preset", "fc", "--requests", "1500",
                     "--policy", "FaasCache", "--capacity-gb", "2"])
        assert code == 0
        assert "avg_overhead_ratio" in capsys.readouterr().out

    def test_generate_and_reload(self, tmp_path, capsys):
        code = main(["generate", "--preset", "azure", "--requests",
                     "1500", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        name = [p.stem.replace(".functions", "")
                for p in tmp_path.glob("*.functions.json")][0]
        code = main(["run", "--load", str(tmp_path), "--trace-name", name,
                     "--policy", "LRU", "--capacity-gb", "2"])
        assert code == 0


class TestSweepCLI:
    ARGS = ["sweep", "--preset", "azure", "--requests", "1500",
            "--seed", "3", "--policies", "TTL,FaasCache",
            "--capacities", "2,4", "--quiet"]

    def test_jobs1_serial_fallback(self, tmp_path, capsys):
        out = tmp_path / "serial.md"
        code = main(self.ARGS + ["--jobs", "1", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "per-cell wall clock" in stdout
        assert "with 1 job(s)" in stdout
        assert "| TTL |" in out.read_text()

    def test_jobs2_bit_identical_to_serial(self, tmp_path, capsys):
        serial_md = tmp_path / "serial.md"
        parallel_md = tmp_path / "parallel.md"
        assert main(self.ARGS + ["--jobs", "1",
                                 "--out", str(serial_md)]) == 0
        assert main(self.ARGS + ["--jobs", "2",
                                 "--out", str(parallel_md)]) == 0
        # Full-precision markdown: equality here means every summary
        # float is bit-identical between the serial and parallel paths.
        assert serial_md.read_text() == parallel_md.read_text()

    def test_cache_dir_hits_on_second_run(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = self.ARGS + ["--jobs", "2", "--cache-dir", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "4 cached" in second

    def test_unknown_policy(self, capsys):
        code = main(["sweep", "--preset", "azure", "--requests", "1500",
                     "--policies", "Bogus", "--quiet"])
        assert code == 2

    def test_events_dir_writes_per_cell_jsonl(self, tmp_path, capsys):
        import json

        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(self.ARGS + ["--jobs", "1",
                                 "--events-dir", str(serial)]) == 0
        assert main(self.ARGS + ["--jobs", "2",
                                 "--events-dir", str(parallel)]) == 0
        capsys.readouterr()

        def load(directory):
            files = sorted(directory.glob("*.jsonl"))
            assert len(files) == 4   # 2 policies x 2 capacities
            out = {}
            for path in files:
                events = [json.loads(line)
                          for line in path.read_text().splitlines()]
                assert events   # every executed cell logged something
                # Rebase container ids (process-global counter).
                base = next((e["cid"] for e in events if "cid" in e),
                            0)
                out[path.name] = [
                    (e["t"], e["kind"], e["func"],
                     e["cid"] - base if "cid" in e else None,
                     e.get("rid"))
                    for e in events]
            return out

        serial_events = load(serial)
        parallel_events = load(parallel)
        # Same cells, same (normalised) event streams either way.
        assert serial_events == parallel_events


class TestTelemetryCLI:
    ARGS = ["trace", "--preset", "azure", "--requests", "1500",
            "--seed", "3", "--policy", "CIDRE", "--capacity-gb", "2"]

    def test_trace_writes_all_artifacts(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        chrome = tmp_path / "trace.json"
        series = tmp_path / "series.json"
        code = main(self.ARGS + ["--events-out", str(events),
                                 "--chrome-trace", str(chrome),
                                 "--timeseries-out", str(series),
                                 "--ring-capacity", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events recorded" in out
        assert "Chrome trace" in out
        assert "avg_overhead_ratio" in out

        lines = events.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"t", "kind", "func"} <= set(first)

        with open(chrome) as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]

        with open(series) as fh:
            recorded = json.load(fh)
        assert recorded["cluster"]["times_ms"]
        assert recorded["functions"]

    def test_trace_unknown_policy(self, capsys):
        code = main(["trace", "--preset", "azure", "--requests", "1500",
                     "--policy", "Nope"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_explain_prints_latency_story(self, capsys):
        code = main(["explain", "7", "--preset", "azure",
                     "--requests", "1500", "--seed", "3",
                     "--policy", "CIDRE", "--capacity-gb", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r7" in out
        assert "arrival" in out
        assert "exec_start" in out and "exec_end" in out

    def test_explain_unknown_request(self, capsys):
        code = main(["explain", "999999", "--preset", "azure",
                     "--requests", "1500", "--seed", "3"])
        assert code == 2
        assert "no request with id" in capsys.readouterr().err


class TestAuditCLI:
    ARGS = ["audit", "--preset", "azure", "--requests", "1500",
            "--seed", "3", "--policy", "CIDRE", "--capacity-gb", "2"]

    def test_audit_prints_explanations(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "decision records" in out
        assert "CSS gate flips" in out
        assert "eviction balance" in out
        assert "imbalance: max per-function share" in out
        assert "most expensive decisions" in out

    def test_audit_writes_jsonl_and_metrics(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "audit.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(self.ARGS + ["--audit-out", str(jsonl),
                                 "--metrics-out", str(prom)]) == 0
        capsys.readouterr()

        from repro.obs import RECORD_KINDS
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert records
        assert {r["kind"] for r in records} <= set(RECORD_KINDS)
        assert all("t" in r for r in records)

        text = prom.read_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_css_scale_total" in text

    def test_audit_imbalance_matches_library(self, tmp_path, capsys):
        """The CLI's imbalance number is exactly the library metric over
        the sidecar records — the verb is a view, not a recomputation."""
        import re

        jsonl = tmp_path / "audit.jsonl"
        assert main(self.ARGS + ["--audit-out", str(jsonl)]) == 0
        out = capsys.readouterr().out
        m = re.search(r"max per-function share (\d+\.\d)%", out)
        assert m

        from repro.analysis.audit import eviction_balance
        from repro.obs import read_audit_jsonl
        balance = eviction_balance(read_audit_jsonl(jsonl))
        assert f"{balance.max_share:.1%}" == m.group(1) + "%"
        assert balance.total > 0

    def test_audit_unknown_policy(self, capsys):
        assert main(["audit", "--preset", "azure", "--requests", "1500",
                     "--policy", "Nope"]) == 2

    def test_audit_gateless_policy_reports_no_flips(self, capsys):
        assert main(["audit", "--preset", "azure", "--requests", "1500",
                     "--seed", "3", "--policy", "LRU",
                     "--capacity-gb", "2"]) == 0
        assert "no gate flips" in capsys.readouterr().out


class TestMetricsOutCLI:
    def test_run_metrics_out_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["run", "--preset", "azure", "--requests", "1500",
                     "--seed", "3", "--policy", "CIDRE",
                     "--capacity-gb", "2",
                     "--metrics-out", str(path)]) == 0
        assert "wrote metrics" in capsys.readouterr().out
        with open(path) as fh:
            snapshot = json.load(fh)
        assert snapshot["repro_requests_total"]["type"] == "counter"
        total = snapshot["repro_requests_total"]["samples"][0]["value"]
        assert total > 0
        # Every request started exactly once, whatever the start type.
        assert sum(s["value"]
                   for s in snapshot["repro_starts_total"]["samples"]) \
            == total

    def test_trace_metrics_out_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["trace", "--preset", "azure", "--requests", "1500",
                     "--seed", "3", "--policy", "CIDRE",
                     "--capacity-gb", "2",
                     "--metrics-out", str(path)]) == 0
        text = path.read_text()
        assert "# TYPE repro_request_wait_ms histogram" in text
        assert 'le="+Inf"' in text

    def test_sweep_metrics_out_per_cell(self, tmp_path, capsys):
        import json

        mdir = tmp_path / "metrics"
        assert main(TestSweepCLI.ARGS + ["--jobs", "2",
                                         "--metrics-out",
                                         str(mdir)]) == 0
        assert "per-cell metrics snapshots" in capsys.readouterr().out
        files = sorted(mdir.glob("*.metrics.json"))
        assert len(files) == 4   # 2 policies x 2 capacities
        totals = set()
        for path in files:
            with open(path) as fh:
                snapshot = json.load(fh)
            totals.add(
                snapshot["repro_requests_total"]["samples"][0]["value"])
        # Every cell replayed the same trace, so the same request count.
        assert len(totals) == 1 and totals.pop() > 0


class TestSweepProgressCLI:
    def test_progress_heartbeat_on_stderr(self, capsys):
        args = [a for a in TestSweepCLI.ARGS if a != "--quiet"]
        assert main(args + ["--jobs", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if "eta" in l]
        assert len(lines) == 4   # one heartbeat per cell
        assert "[1/4]" in lines[0] and "[4/4]" in lines[-1]
        assert "elapsed" in lines[0]

    def test_progress_overrides_quiet(self, capsys):
        assert main(TestSweepCLI.ARGS + ["--jobs", "1",
                                         "--progress"]) == 0
        assert "eta" in capsys.readouterr().err


class TestCLIExtras:
    def test_stats_command(self, capsys):
        code = main(["stats", "--preset", "fc", "--requests", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload statistics" in out
        assert "function concurrency" in out

    def test_whatif_command(self, capsys):
        code = main(["whatif", "--preset", "azure", "--requests", "1500",
                     "--capacity-gb", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "queuing wins for" in out

    def test_report_command_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["report", "--preset", "azure", "--requests", "1500",
                     "--capacities", "2", "--policies", "FaasCache,CIDRE",
                     "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# Policy comparison")
        assert "| CIDRE |" in text

    def test_report_unknown_policy(self, capsys):
        code = main(["report", "--preset", "azure", "--requests", "1500",
                     "--policies", "Bogus"])
        assert code == 2


class TestRunProfileCLI:
    def test_run_with_profile(self, capsys):
        code = main(["run", "--preset", "azure", "--requests", "1500",
                     "--seed", "3", "--policy", "TTL",
                     "--capacity-gb", "2", "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "avg_overhead_ratio" in captured.out
        assert "cumulative" in captured.err

    def test_run_reference_impl_matches_indexed(self, capsys):
        base = ["run", "--preset", "azure", "--requests", "1500",
                "--seed", "3", "--policy", "CIDRE", "--capacity-gb", "2"]
        assert main(base) == 0
        indexed = capsys.readouterr().out
        assert main(base + ["--reference"]) == 0
        reference = capsys.readouterr().out
        assert indexed == reference


class TestPackedReplayCLI:
    def test_profile_out_implies_profile(self, tmp_path, capsys):
        out = str(tmp_path / "run.pstats")
        code = main(["run", "--preset", "azure", "--requests", "1500",
                     "--seed", "3", "--policy", "TTL",
                     "--capacity-gb", "2", "--profile-out", out])
        assert code == 0
        import os
        assert os.path.getsize(out) > 0
        assert "cumulative" in capsys.readouterr().err

    def test_trace_fast_forward_event_log_matches_reference(
            self, tmp_path, capsys):
        ref = str(tmp_path / "ref.jsonl")
        ff = str(tmp_path / "ff.jsonl")
        base = ["trace", "--preset", "azure", "--requests", "1500",
                "--seed", "3", "--policy", "CIDRE", "--capacity-gb", "2"]
        assert main(base + ["--events-out", ref, "--reference"]) == 0
        assert main(base + ["--events-out", ff, "--fast-forward"]) == 0
        capsys.readouterr()

        # Container ids are allocated from a process-global counter, so
        # two in-process runs differ by a constant offset; rebase them.
        # (CI compares the files byte-for-byte across two processes.)
        def normalized(path):
            import json
            base_cid = None
            out = []
            with open(path) as fh:
                for line in fh:
                    event = json.loads(line)
                    cid = event.get("cid")
                    if cid is not None:
                        if base_cid is None:
                            base_cid = cid
                        event["cid"] = cid - base_cid
                    out.append(event)
            return out

        assert normalized(ref) == normalized(ff)
