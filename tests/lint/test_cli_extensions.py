"""PR-10 CLI satellites: ``--update-baseline`` merge/prune semantics,
``--changed`` (lint only files differing from a git ref), and
``--format github`` workflow annotations.
"""

import json
import subprocess
import textwrap
from pathlib import Path

from repro.lint.cli import main as lint_main
from repro.lint.engine import update_baseline_file

MIXED = textwrap.dedent("""\
    def f(a_ms, b_s):
        return a_ms + b_s
    """)

CLEAN = textwrap.dedent("""\
    def f(a_ms, b_ms):
        return a_ms + b_ms
    """)


def write(tmp_path, name, source):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / name
    path.write_text(source)
    return path


# ======================================================================
# --update-baseline: merge reasons, prune deleted files


class TestUpdateBaseline:
    def test_preserves_reasons_of_surviving_entries(
            self, tmp_path, capsys):
        write(tmp_path, "one.py", MIXED)
        baseline = tmp_path / "lint-baseline.json"
        assert lint_main([str(tmp_path / "repro"),
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        payload["entries"][0]["reason"] = "intentional: mixed on purpose"
        baseline.write_text(json.dumps(payload))

        assert lint_main([str(tmp_path / "repro"),
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["entries"][0]["reason"] == \
            "intentional: mixed on purpose"

    def test_prunes_entries_for_deleted_files(self, tmp_path, capsys):
        write(tmp_path, "one.py", MIXED)
        gone = write(tmp_path, "two.py", MIXED)
        baseline = tmp_path / "lint-baseline.json"
        assert lint_main([str(tmp_path / "repro"),
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        assert len(json.loads(baseline.read_text())["entries"]) == 2

        # Regression (PR 10): a deleted file's entry used to linger as
        # permanently-stale noise; now it is pruned on update.
        gone.unlink()
        capsys.readouterr()
        assert lint_main([str(tmp_path / "repro"),
                          "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        assert "pruned 1 deleted-file entry" in capsys.readouterr().out
        entries = json.loads(baseline.read_text())["entries"]
        assert [e["path"] for e in entries] == ["repro/sim/one.py"]

    def test_keeps_outside_scope_entries_whose_file_exists(
            self, tmp_path):
        one = write(tmp_path, "one.py", MIXED)
        write(tmp_path, "two.py", MIXED)
        baseline = tmp_path / "lint-baseline.json"
        lint_main([str(tmp_path / "repro"), "--update-baseline",
                   "--baseline", str(baseline)])
        # Update from a narrower scope: two.py is outside it but still
        # on disk, so its entry must survive untouched.
        assert lint_main([str(one), "--update-baseline",
                          "--baseline", str(baseline)]) == 0
        entries = json.loads(baseline.read_text())["entries"]
        assert {e["path"] for e in entries} == \
            {"repro/sim/one.py", "repro/sim/two.py"}

    def test_engine_api_counts(self, tmp_path):
        one = write(tmp_path, "one.py", MIXED)
        gone = write(tmp_path, "two.py", MIXED)
        baseline = tmp_path / "b.json"
        from repro.lint.engine import lint_paths
        report = lint_paths([tmp_path / "repro"])
        update_baseline_file(baseline, report.findings,
                             [one, gone])
        gone.unlink()
        report = lint_paths([tmp_path / "repro"])
        written, pruned = update_baseline_file(
            baseline, report.findings, [one])
        assert (written, pruned) == (1, 1)


# ======================================================================
# --changed


def git(repo, *argv):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@example.invalid", *argv],
                   check=True, capture_output=True)


class TestChanged:
    def make_repo(self, tmp_path):
        write(tmp_path, "clean.py", CLEAN)
        write(tmp_path, "touched.py", CLEAN)
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-qm", "seed")
        return tmp_path

    def test_only_changed_files_linted(self, tmp_path, monkeypatch,
                                       capsys):
        repo = self.make_repo(tmp_path)
        write(repo, "touched.py", MIXED)
        monkeypatch.chdir(repo)
        assert lint_main(["repro", "--no-baseline", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "touched.py" in out
        assert "1 finding(s) in 1 file(s)" in out

    def test_untracked_files_included(self, tmp_path, monkeypatch,
                                      capsys):
        repo = self.make_repo(tmp_path)
        write(repo, "fresh.py", MIXED)
        monkeypatch.chdir(repo)
        assert lint_main(["repro", "--no-baseline", "--changed"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_nothing_changed_is_clean_exit_zero(self, tmp_path,
                                                monkeypatch, capsys):
        repo = self.make_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert lint_main(["repro", "--no-baseline", "--changed"]) == 0
        assert "no python files" in capsys.readouterr().out

    def test_explicit_ref(self, tmp_path, monkeypatch, capsys):
        repo = self.make_repo(tmp_path)
        write(repo, "touched.py", MIXED)
        git(repo, "commit", "-aqm", "introduce mix")
        monkeypatch.chdir(repo)
        assert lint_main(["repro", "--no-baseline",
                          "--changed=HEAD~1"]) == 1
        assert lint_main(["repro", "--no-baseline", "--changed"]) == 0

    def test_unknown_ref_is_usage_error(self, tmp_path, monkeypatch,
                                        capsys):
        repo = self.make_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert lint_main(["repro", "--changed=no-such-ref"]) == 2
        assert "--changed" in capsys.readouterr().err


# ======================================================================
# --format github


class TestGithubFormat:
    def test_error_annotation_shape(self, tmp_path, capsys):
        write(tmp_path, "one.py", MIXED)
        assert lint_main([str(tmp_path / "repro"), "--no-baseline",
                          "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert ("::error file=repro/sim/one.py,line=2,col=12,"
                "title=API001::" in out)
        assert out.strip().endswith("FAIL: 1 finding(s) in 1 file(s)")

    def test_message_newlines_escaped(self, capsys):
        from repro.lint.cli import _escape_gh
        assert _escape_gh("a\nb%c") == "a%0Ab%25c"

    def test_clean_run_emits_only_summary(self, tmp_path, capsys):
        write(tmp_path, "one.py", CLEAN)
        assert lint_main([str(tmp_path / "repro"), "--no-baseline",
                          "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert out.startswith("OK: 0 finding(s)")

    def test_deep_findings_render_as_annotations(self, tmp_path,
                                                 capsys):
        write(tmp_path, "one.py", textwrap.dedent("""\
            def horizon_ms():
                return 5000.0

            def use(keepalive_s):
                budget = horizon_ms()
                return budget > keepalive_s
            """))
        assert lint_main([str(tmp_path / "repro"), "--deep",
                          "--no-baseline", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=repro/sim/one.py,line=6," in out
        assert "title=API002::" in out
