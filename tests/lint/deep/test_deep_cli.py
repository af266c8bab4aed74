"""CLI surface of the deep analyses: ``repro-lint --deep`` (and the
``cidre-sim lint`` verb), the separate deep baseline and inline
suppressions.
"""

import json
import textwrap
from pathlib import Path

from repro.cli import main as cidre_main
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[3]
SRC = str(REPO / "src" / "repro")

#: One API002 finding: a `_ms` value compared with a `_s` parameter
#: through a local that hides the unit from the file-local API001.
UNIT_MIX = textwrap.dedent("""\
    def horizon_ms():
        return 5000.0

    def use(keepalive_s):
        budget = horizon_ms()
        return budget > keepalive_s
    """)


def write_fixture(tmp_path, source, name="fixture.py"):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    path = pkg / name
    path.write_text(source)
    return path


class TestDeepRuns:
    def test_head_deep_clean_exit_zero(self, capsys):
        assert lint_main([SRC, "--deep"]) == 0
        assert capsys.readouterr().out.startswith("OK: 0 finding(s)")

    def test_deep_finding_exit_one(self, tmp_path, capsys):
        write_fixture(tmp_path, UNIT_MIX)
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--no-baseline"]) == 1
        assert "API002" in capsys.readouterr().out

    def test_inline_suppression_applies_to_deep_rules(
            self, tmp_path, capsys):
        write_fixture(tmp_path, textwrap.dedent("""\
            def horizon_ms():
                return 5000.0

            def use(keepalive_s):
                budget = horizon_ms()
                # repro-lint: disable=API002
                return budget > keepalive_s
            """))
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--no-baseline"]) == 0
        assert "1 suppressed inline" in capsys.readouterr().out

    def test_deep_baseline_grandfathers_and_reports_stale(
            self, tmp_path, capsys):
        write_fixture(tmp_path, UNIT_MIX)
        baseline = tmp_path / "lint-deep-baseline.json"
        # Build the baseline with --update-baseline, then lint again.
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # Fixing the site turns the entry stale (still exit 0).
        (tmp_path / "repro" / "sim" / "fixture.py").write_text(
            UNIT_MIX.replace("horizon_ms()", "horizon_ms() / 1000.0"))
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_separate_baselines_do_not_cross_apply(self, tmp_path):
        # A classic baseline must not silence deep findings: the deep
        # run discovers lint-deep-baseline.json, never the classic one.
        write_fixture(tmp_path, UNIT_MIX)
        (tmp_path / "pyproject.toml").write_text("")
        classic = {"version": 1, "entries": [{
            "rule": "API002",
            "path": "repro/sim/fixture.py",
            "line_text": "return budget > keepalive_s",
            "reason": "wrong file on purpose"}]}
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps(classic))
        assert lint_main([str(tmp_path / "repro"), "--deep"]) == 1

    def test_json_format_counts_deep_findings(self, tmp_path, capsys):
        write_fixture(tmp_path, UNIT_MIX)
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"API002": 1}

    def test_select_restricts_deep_rules(self, tmp_path, capsys):
        write_fixture(tmp_path, UNIT_MIX)
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--no-baseline", "--select", "PUR003"]) == 0


class TestEmbeddedVerb:
    def test_cidre_sim_lint_deep(self, capsys):
        assert cidre_main(["lint", SRC, "--deep"]) == 0
        assert capsys.readouterr().out.startswith("OK: 0 finding(s)")

    def test_rules_catalogue_includes_deep_rules(self, capsys):
        assert lint_main(["--rules"]) == 0
        out = capsys.readouterr().out
        deep = [line.split()[0] for line in out.splitlines()
                if line.endswith("[--deep]")]
        assert deep == ["API002", "PUR003"]

    def test_deep_rules_catalogue_lists_only_deep_rules(self, capsys):
        assert lint_main(["--deep", "--rules"]) == 0
        codes = [line.split()[0] for line in
                 capsys.readouterr().out.splitlines()
                 if not line.startswith(" ")]
        assert codes == ["API002", "PUR003"]
