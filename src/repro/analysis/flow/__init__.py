"""Project-wide analysis: symbol tables, call graph, incremental cache.

The per-file engine sees one module at a time, which caps it at
syntax: it cannot know that a helper called three frames away emits a
telemetry event, or that a constant imported from another module is a
drifted copy of a paper parameter.  This package adds the project
layer:

* :mod:`repro.analysis.flow.symbols` — per-module symbol tables
  (classes, functions, import bindings) with dotted-module naming;
* :mod:`repro.analysis.flow.callgraph` — an import-resolved,
  inheritance-aware call graph over every scanned module;
* :mod:`repro.analysis.flow.project` — :class:`ProjectContext`, the
  facade the engine builds once per run and hands to every
  :class:`~repro.analysis.registry.ProjectChecker`;
* :mod:`repro.analysis.flow.cache` — the file-hash-keyed incremental
  diagnostic cache under ``.repro-lint-cache/``.
"""

from repro.analysis.flow.cache import DiagnosticCache
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import ProjectContext
from repro.analysis.flow.symbols import ClassInfo, ModuleInfo, build_module_info

__all__ = [
    "CallGraph",
    "ClassInfo",
    "DiagnosticCache",
    "ModuleInfo",
    "ProjectContext",
    "build_module_info",
]
