"""repro-lint: static determinism/purity/FP-discipline analysis.

A stdlib-``ast`` linter encoding the reproduction's invariants as
checkable rules:

* ``DET0xx`` — nondeterminism in simulation code (wall clock, unseeded
  RNG, UUIDs, set iteration);
* ``PUR0xx`` — observer purity (telemetry/audit probes must not mutate
  sim objects);
* ``FPX0xx`` — float-summation-order discipline (no ``sum()`` over
  unordered iterables in accounting code);
* ``API0xx`` — unit hygiene (``_ms`` vs ``_s``, ``_mb`` vs ``_gb``).

Under ``--deep`` the whole-program layer (:mod:`repro.lint.deep`)
additionally runs transitive observer purity (``PUR003``) and
cross-function dimension inference (``API002``) over a project-wide
symbol table and call graph.

Run it with ``python -m repro.lint [paths]``, the ``repro-lint``
console script, or ``cidre-sim lint``. See
``docs/ARCHITECTURE.md`` ("Static analysis and the sim-sanitizer" and
"Whole-program analysis").
"""

from repro.lint.engine import (LintReport, lint_paths, lint_source,
                               load_baseline, update_baseline_file,
                               write_baseline)
from repro.lint.findings import Finding
from repro.lint.rules import Checker, Rule, all_rules, register

__all__ = [
    "Checker", "Finding", "LintReport", "Rule", "all_rules",
    "lint_paths", "lint_source", "load_baseline", "register",
    "update_baseline_file", "write_baseline",
]
