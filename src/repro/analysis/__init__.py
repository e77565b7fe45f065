"""Simulator-aware static analysis (``python -m repro.lint``).

A pluggable lint framework that enforces the invariants the
reproduction must get right but that no generic tool checks.  It runs
five rules, each kept because it caught and fixed a real defect in this
tree.  Per-file AST rules:

* **config-bounds** — numeric dataclass fields in ``config.py`` must be
  covered by the class's ``validate()``.
* **dimension-mismatch** — arithmetic must not mix cycles, bits and
  bit-cycles, nor drop the ``bits × cycles`` AVF normalization
  (:mod:`repro.analysis.effects.dimensions`).

Project-wide passes over :mod:`repro.analysis.flow` (symbol tables and
an import-resolved call graph):

* **paper-fidelity** — catalogued paper constants (interval length,
  ``Tcache_miss``, DVM trigger fraction, IQL region caps, …) must flow
  from :mod:`repro.config`, never be re-hard-coded or silently drifted.
* **emit-coverage** — state-mutating decision hooks in the DVM /
  resource-allocation / fetch-policy modules must have a call-graph
  path to a ``bus.emit``.
* **state-contract-drift** — the per-stage read/write sets extracted by
  :mod:`repro.analysis.effects` must match the committed
  ``backend-contract.json``.

Checkers register themselves in :mod:`repro.analysis.registry`; the
engine (:mod:`repro.analysis.engine`) walks files behind an incremental
file-hash cache (with a whole-project snapshot giving the project
passes transitive invalidation, and a dependency map powering
``--changed``), applies ``# lint: disable=<rule>`` suppressions, and
hands diagnostics to the text/JSON reporters; ``--baseline``
(:mod:`repro.analysis.baseline`) gates CI on new findings only.
"""

from repro.analysis.baseline import filter_new, load_baseline, write_baseline
from repro.analysis.diagnostics import Diagnostic, Severity, parse_severity
from repro.analysis.engine import FileContext, LintEngine
from repro.analysis.registry import (
    BaseChecker,
    ProjectChecker,
    all_rules,
    get_checker,
    register,
)

__all__ = [
    "BaseChecker",
    "Diagnostic",
    "FileContext",
    "LintEngine",
    "ProjectChecker",
    "Severity",
    "all_rules",
    "filter_new",
    "get_checker",
    "load_baseline",
    "parse_severity",
    "register",
    "write_baseline",
]
