"""Whole-program analyses for repro-lint (``repro-lint --deep``).

The classic engine lints one file at a time; this package indexes the
entire ``repro`` package (symbol table + call graph) and runs the two
interprocedural analyses on it:

* :mod:`repro.lint.deep.purity` — PUR003 transitive observer purity;
* :mod:`repro.lint.deep.units`  — API002 cross-function dimension
  inference.

:func:`deep_lint_paths` is the driver the CLI calls: it discovers the
package root governing the requested paths, indexes *everything* under
it (whole-program analyses are only sound with the whole program), then
filters findings back to the files actually requested. Inline
``# repro-lint: disable=`` suppressions and the baseline protocol work
exactly as in the classic engine, but against a separate committed
file — :data:`DEEP_BASELINE_FILENAME` — so grandfathering a deep
finding never loosens the classic gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.engine import (
    LintReport,
    _suppressions,
    iter_python_files,
    relpath_of,
)
from repro.lint.findings import Finding
from repro.lint.rules import Rule
from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.purity import PURITY_SCOPES, purity_findings
from repro.lint.deep.symbols import ProjectIndex, find_package_root
from repro.lint.deep.units import units_findings

#: Committed baseline for deep findings (same schema/keying as the
#: classic ``lint-baseline.json``, separate file).
DEEP_BASELINE_FILENAME = "lint-deep-baseline.json"

#: Rule catalogue for ``--rules`` (the deep analyses are not Checker
#: subclasses — they need the whole project, not one tree — but their
#: metadata lives in the same format).
DEEP_RULES = (
    Rule(code="PUR003", name="transitive-observer-purity",
         severity="error", scopes=PURITY_SCOPES,
         rationale="A probe callback that passes sim-owned state to a "
                   "helper that mutates it perturbs the simulation "
                   "exactly like a direct write, but across a call "
                   "boundary the file-local PUR rules cannot see."),
    Rule(code="API002", name="inferred-unit-mixing",
         severity="error", scopes=(),
         rationale="Unit suffixes propagated through assignments, "
                   "returns and call bindings still denote units; "
                   "mixing _ms with _s across a function boundary is "
                   "a conversion bug no single expression shows."),
)


def deep_rules() -> List[Rule]:
    return sorted(DEEP_RULES, key=lambda r: r.code)


def find_deep_baseline(paths: Sequence[Union[str, Path]]
                       ) -> Optional[Path]:
    """Walk up from the linted paths to the committed deep baseline."""
    for start in list(paths) or [Path.cwd()]:
        node = Path(start).resolve()
        if node.is_file():
            node = node.parent
        for parent in (node, *node.parents):
            candidate = parent / DEEP_BASELINE_FILENAME
            if candidate.is_file():
                return candidate
            if (parent / "pyproject.toml").is_file():
                break
    return None


def build_project(paths: Sequence[Union[str, Path]]
                  ) -> Tuple[ProjectIndex, List[Path]]:
    """Index the package governing ``paths``.

    Returns the index plus the concrete files the user asked about
    (findings are filtered to those). When the paths are not under a
    ``repro`` package directory the given files alone form the project
    (string fixtures in tests use :meth:`ProjectIndex.add_source`
    directly).
    """
    files = iter_python_files(paths)
    root = find_package_root(files if files else list(paths))
    if root is not None:
        project = ProjectIndex.build(root)
    else:
        project = ProjectIndex.build_files(files)
    return project, files


def deep_findings(project: ProjectIndex) -> List[Finding]:
    """All deep findings, sorted by location."""
    graph = CallGraph.build(project)
    findings = purity_findings(graph) + units_findings(graph)
    findings.sort(key=Finding.sort_key)
    return findings


def deep_lint_paths(paths: Sequence[Union[str, Path]],
                    baseline: Optional[Sequence[dict]] = None,
                    select: Optional[Tuple[str, ...]] = None
                    ) -> LintReport:
    """Run the deep analyses for ``paths``.

    The whole project is analysed; the report's findings are filtered
    to the requested files.
    """
    project, files = build_project(paths)
    requested = {relpath_of(f) for f in files}
    all_findings = deep_findings(project)

    report = LintReport()
    report.files = len(files)
    kept: List[Finding] = []
    for finding in all_findings:
        if requested and finding.path not in requested:
            continue
        if select is not None and finding.rule not in select:
            continue
        module = _module_for(project, finding.path)
        if module is not None:
            table = _suppressions(module.lines)
            codes = table.get(finding.line, ())
            if "ALL" in codes or finding.rule in codes:
                report.suppressed += 1
                continue
        kept.append(finding)

    if baseline:
        matched = set()
        by_key: Dict[tuple, List[int]] = {}
        for i, entry in enumerate(baseline):
            by_key.setdefault(
                (entry["rule"], entry["path"], entry["line_text"]),
                []).append(i)
        survived = []
        for finding in kept:
            indexes = by_key.get(finding.baseline_key())
            if indexes:
                report.baselined += 1
                matched.update(indexes)
            else:
                survived.append(finding)
        kept = survived
        report.stale_baseline = [entry for i, entry in
                                 enumerate(baseline) if i not in matched]

    report.findings = sorted(kept, key=Finding.sort_key)
    return report


def _module_for(project: ProjectIndex, relpath: str):
    for module in project.modules.values():
        if module.relpath == relpath:
            return module
    return None


__all__ = [
    "DEEP_BASELINE_FILENAME",
    "DEEP_RULES",
    "CallGraph",
    "ProjectIndex",
    "build_project",
    "deep_findings",
    "deep_lint_paths",
    "deep_rules",
    "find_deep_baseline",
]
