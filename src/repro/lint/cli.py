"""Command-line front end for repro-lint.

Standalone (``python -m repro.lint src/repro`` or the ``repro-lint``
console script) and embedded (the ``lint`` verb of ``cidre-sim``) share
the same argument schema via :func:`add_lint_arguments` /
:func:`run_lint`.

Two engines sit behind the one front end:

* the classic file-local rules (default) gated on
  ``lint-baseline.json``;
* the whole-program analyses (``--deep``: transitive purity,
  dimension inference) gated on ``lint-deep-baseline.json``.

``--changed [REF]`` restricts either engine to files differing from a
git ref (default ``HEAD``) — the fast pre-commit path. ``--format
github`` renders findings as GitHub Actions workflow annotations.

Exit codes: 0 clean, 1 findings remain, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import (BASELINE_FILENAME, find_default_baseline,
                               iter_python_files, lint_paths,
                               load_baseline, update_baseline_file)
from repro.lint.findings import Finding
from repro.lint.rules import all_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint options to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--format", choices=("human", "json", "github"), default="human",
        help="output format (default: human; github emits workflow-"
             "command annotations)")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline JSON of grandfathered findings (default: "
             "lint-baseline.json — or lint-deep-baseline.json with "
             "--deep — discovered at the repo root)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from the current findings "
             "(preserving reasons of surviving entries, pruning "
             "entries whose file no longer exists) and exit 0")
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule codes to run (default: all)")
    parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue (only the whole-program rules "
             "with --deep) and exit")
    parser.add_argument(
        "--deep", action="store_true",
        help="run the whole-program analyses (transitive purity "
             "PUR003, dimension inference API002) instead of the "
             "file-local rules")
    parser.add_argument(
        "--changed", metavar="REF", nargs="?", const="HEAD",
        default=None,
        help="lint only files that differ from the given git ref "
             "(default when the flag is bare: HEAD), plus untracked "
             "files")


def _print_rules(deep_only: bool) -> None:
    from repro.lint.deep import deep_rules
    for rule in () if deep_only else all_rules():
        scopes = ", ".join(rule.scopes) if rule.scopes else "everywhere"
        print(f"{rule.code} [{rule.severity}] {rule.name}  ({scopes})")
        print(f"    {rule.rationale}")
    for rule in deep_rules():
        scopes = ", ".join(rule.scopes) if rule.scopes else "everywhere"
        print(f"{rule.code} [{rule.severity}] {rule.name}  "
              f"({scopes}) [--deep]")
        print(f"    {rule.rationale}")


# ======================================================================
# --changed


def _git_lines(argv: List[str]) -> Optional[List[str]]:
    try:
        proc = subprocess.run(["git"] + argv, capture_output=True,
                              text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def _changed_python_files(paths: List[str],
                          ref: str) -> Optional[List[Path]]:
    """The requested files that differ from ``ref`` (or are untracked).

    ``None`` signals a git failure (not a repo, unknown ref) — a usage
    error, distinct from "nothing changed".
    """
    top = _git_lines(["rev-parse", "--show-toplevel"])
    diff = _git_lines(["diff", "--name-only", ref, "--"])
    untracked = _git_lines(["ls-files", "--others",
                            "--exclude-standard"])
    if top is None or diff is None or untracked is None:
        return None
    root = Path(top[0])
    changed = {(root / name).resolve()
               for name in diff + untracked if name.endswith(".py")}
    return [file for file in iter_python_files(paths)
            if file.resolve() in changed]


# ======================================================================
# --format github


def _escape_gh(text: str) -> str:
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _gh_path(path: str) -> str:
    # Findings carry package-relative paths; the workflow wants paths
    # relative to the repository root.
    src = Path("src") / path
    return src.as_posix() if src.is_file() else path


def _print_github(findings: List[Finding]) -> None:
    for finding in findings:
        level = "error" if finding.severity == "error" else "warning"
        print(f"::{level} file={_gh_path(finding.path)},"
              f"line={finding.line},col={finding.col + 1},"
              f"title={finding.rule}::{_escape_gh(finding.message)}")


# ======================================================================
# Driver


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed ``args``."""
    if args.rules:
        _print_rules(deep_only=args.deep)
        return 0

    select = None
    if args.select:
        select = tuple(code.strip().upper()
                       for code in args.select.split(",") if code.strip())

    paths = args.paths
    if args.changed is not None:
        changed = _changed_python_files(paths, args.changed)
        if changed is None:
            print(f"repro-lint: --changed: cannot diff against "
                  f"{args.changed!r} (not a git checkout, or unknown "
                  f"ref)", file=sys.stderr)
            return 2
        if not changed:
            print(f"OK: no python files under "
                  f"{', '.join(map(str, paths))} differ from "
                  f"{args.changed}")
            return 0
        paths = changed

    if args.deep:
        from repro.lint.deep import (DEEP_BASELINE_FILENAME,
                                     deep_lint_paths, find_deep_baseline)
        default_name = DEEP_BASELINE_FILENAME
        find_baseline = find_deep_baseline
    else:
        default_name = BASELINE_FILENAME
        find_baseline = find_default_baseline

    baseline_path = None
    if not args.no_baseline:
        baseline_path = args.baseline or find_baseline(paths)

    baseline = None
    if baseline_path is not None and not args.update_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"repro-lint: cannot read baseline {baseline_path}: "
                  f"{exc}", file=sys.stderr)
            return 2

    try:
        if args.deep:
            report = deep_lint_paths(paths, baseline=baseline,
                                     select=select)
        else:
            report = lint_paths(paths, baseline=baseline, select=select)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        target = args.baseline or baseline_path or default_name
        try:
            written, pruned = update_baseline_file(
                target, report.findings, iter_python_files(paths))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"repro-lint: cannot update baseline {target}: "
                  f"{exc}", file=sys.stderr)
            return 2
        note = f", pruned {pruned} deleted-file entr" \
               f"{'y' if pruned == 1 else 'ies'}" if pruned else ""
        print(f"repro-lint: wrote {written} entr"
              f"{'y' if written == 1 else 'ies'} to {target}{note}")
        return 0

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "github":
        _print_github(report.findings)
        print(("FAIL: " if report.findings else "OK: ")
              + f"{len(report.findings)} finding(s) in {report.files} "
                f"file(s)")
    else:
        print(report.render())
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism/purity/FP-discipline linter "
                    "for the CIDRE reproduction, with whole-program "
                    "purity and unit analyses under --deep.")
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)


if __name__ == "__main__":
    raise SystemExit(main())
