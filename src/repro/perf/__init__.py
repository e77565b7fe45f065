"""repro.perf — performance observability for the simulator.

Layers (see the "Performance observability" section of
``docs/observability.md``):

* :mod:`repro.perf.spans` — hierarchical :class:`SpanTracer` (rides
  the telemetry bus via the ``perf.span`` topic when observed) and
  :class:`TracingProfiler`, the span-recording stage profiler;
* :mod:`repro.perf.chrome_trace` — Chrome trace-event JSON export
  (Perfetto / about:tracing) plus schema/nesting validation;
* :mod:`repro.perf.bench` — the deterministic hot-path benchmark
  suite (min-of-N wall clock at the pinned :data:`PERF_SCALE`);
* :mod:`repro.perf.history` — the committed ``BENCH_perf.json`` and
  ``BENCH_reliability.json`` trajectories of provenance-stamped
  entries, and the one band check gating current results against a
  history window (per-kind rules for wall time and reliability);
* :mod:`repro.perf.cli` — the ``repro perf run/compare/trace``
  commands.
"""

from repro.perf.bench import (
    BENCH_CASES,
    BENCH_NAMES,
    PERF_SCALE,
    BenchCase,
    BenchResult,
    format_results,
    run_benchmarks,
)
from repro.perf.chrome_trace import (
    build_trace,
    read_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.perf.history import (
    DEFAULT_HISTORY_PATH,
    BandCase,
    BandReport,
    append_entry,
    baseline,
    compare,
    entries_of_kind,
    load_history,
    make_entry,
)
from repro.perf.spans import SpanRecord, SpanTracer, TracingProfiler

__all__ = [
    "BENCH_CASES",
    "BENCH_NAMES",
    "PERF_SCALE",
    "BenchCase",
    "BenchResult",
    "format_results",
    "run_benchmarks",
    "build_trace",
    "read_trace",
    "validate_trace",
    "write_chrome_trace",
    "DEFAULT_HISTORY_PATH",
    "BandCase",
    "BandReport",
    "append_entry",
    "baseline",
    "compare",
    "entries_of_kind",
    "load_history",
    "make_entry",
    "SpanRecord",
    "SpanTracer",
    "TracingProfiler",
]
