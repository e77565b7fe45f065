"""Hierarchical span tracer: nested wall-time spans, pay-only-when-used.

A :class:`SpanTracer` records nested ``(name, category, start, duration)``
spans — benchmark cases, lint-engine phases, pipeline cycles/stages —
for Chrome trace-event export (:mod:`repro.perf.chrome_trace`).  Two
properties keep it safe to wire permanently into instrumented code:

* **Explicit opt-in.**  Nothing creates spans unless a tracer object is
  passed in; un-traced paths contain no clock reads at all (the same
  discipline as :class:`~repro.telemetry.profiler.StageProfiler`).
* **Bus riding without bus taxing.**  When a tracer is constructed with
  an :class:`~repro.telemetry.bus.EventBus`, every closed span is also
  emitted on the ``perf.span`` topic so live observers (recorders,
  tests) can watch; the ``wants()`` check is cached against
  ``bus.version``, so with no subscriber a closed span costs one
  integer compare beyond the record append.

Timestamps are microseconds relative to the tracer's construction —
the native unit of the Chrome trace-event format.

Wall-clock reads are this module's purpose; span output must never
feed back into simulated results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.bus import EventBus
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.topics import TOPIC_PERF_SPAN


@dataclass(frozen=True)
class SpanRecord:
    """One closed span, ready for trace export."""

    name: str
    cat: str
    ts_us: float
    dur_us: float
    depth: int
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """Reusable context manager closing the innermost open span."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "SpanTracer"):
        self._tracer = tracer

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        self._tracer.end()


class SpanTracer:
    """Collects nested spans; optionally mirrors them onto an event bus."""

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        limit: int = 1_000_000,
        tid: int = 0,
    ):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self._t0 = time.perf_counter()
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self.limit = limit
        self.tid = tid
        self.bus = bus
        self._stack: list[tuple[str, str, float, dict[str, Any]]] = []
        self._handle = _SpanHandle(self)
        self._bus_version = -1
        self._want_span = False

    # ------------------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds since the tracer's origin."""
        return (time.perf_counter() - self._t0) * 1e6

    def to_us(self, perf_counter_s: float) -> float:
        """Convert an absolute ``perf_counter()`` reading to tracer µs."""
        return (perf_counter_s - self._t0) * 1e6

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "perf", **args: Any) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("phase"): ...``."""
        self._stack.append((name, cat, self.now_us(), args))
        return self._handle

    def begin(self, name: str, cat: str = "perf", **args: Any) -> None:
        """Imperative form of :meth:`span` (paired with :meth:`end`)."""
        self._stack.append((name, cat, self.now_us(), args))

    def end(self, **extra_args: Any) -> SpanRecord | None:
        """Close the innermost open span and record it."""
        if not self._stack:
            raise RuntimeError("SpanTracer.end() with no open span")
        name, cat, start, args = self._stack.pop()
        if extra_args:
            args = {**args, **extra_args}
        record = SpanRecord(
            name=name,
            cat=cat,
            ts_us=start,
            dur_us=self.now_us() - start,
            depth=len(self._stack),
            tid=self.tid,
            args=args,
        )
        self.record(record)
        return record

    def record(self, record: SpanRecord) -> None:
        """Append an externally built span (e.g. from a profiler)."""
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        self.spans.append(record)
        bus = self.bus
        if bus is not None:
            if bus.version != self._bus_version:
                self._bus_version = bus.version
                self._want_span = bus.wants(TOPIC_PERF_SPAN)
            if self._want_span:
                bus.emit(
                    TOPIC_PERF_SPAN,
                    name=record.name,
                    cat=record.cat,
                    ts_us=record.ts_us,
                    dur_us=record.dur_us,
                    depth=record.depth,
                )

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._stack.clear()


class TracingProfiler(StageProfiler):
    """A :class:`StageProfiler` that additionally records cycle/stage spans.

    Drop-in for the pipeline's ``profiler=`` hook: ``lap()`` timing is
    inherited unchanged, and for the first ``max_traced_cycles`` cycles
    each cycle becomes a depth-0 span with its six stages as depth-1
    children — the hierarchy Perfetto renders as nested slices.  The
    bound keeps trace memory proportional to the traced prefix, not the
    run length (the aggregate profile still covers every cycle).
    """

    def __init__(
        self,
        tracer: SpanTracer | None = None,
        *,
        max_traced_cycles: int = 2_000,
    ):
        super().__init__()
        if max_traced_cycles < 0:
            raise ValueError("max_traced_cycles must be >= 0")
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.max_traced_cycles = max_traced_cycles
        self.traced_cycles = 0
        self._laps: list[tuple[str, float, float]] = []
        self._tracing_cycle = False

    # ------------------------------------------------------------------
    def cycle_start(self) -> None:
        self._flush_cycle()
        super().cycle_start()
        self._tracing_cycle = self.traced_cycles < self.max_traced_cycles

    def lap(self, stage: str) -> None:
        prev = self._mark
        super().lap(stage)
        if self._tracing_cycle:
            tracer = self.tracer
            self._laps.append((stage, tracer.to_us(prev), tracer.to_us(self._mark)))

    def end_run(self) -> None:
        self._flush_cycle()
        super().end_run()

    # ------------------------------------------------------------------
    def _flush_cycle(self) -> None:
        """Turn the previous cycle's laps into one cycle span + children."""
        if self._tracing_cycle and self._laps:
            index = self.cycles - 1  # the cycle the laps belong to
            start = self._laps[0][1]
            end = self._laps[-1][2]
            tracer = self.tracer
            tracer.record(
                SpanRecord(
                    name="cycle",
                    cat="cycle",
                    ts_us=start,
                    dur_us=end - start,
                    depth=0,
                    tid=tracer.tid,
                    args={"index": index},
                )
            )
            for stage, s_us, e_us in self._laps:
                tracer.record(
                    SpanRecord(
                        name=stage,
                        cat="stage",
                        ts_us=s_us,
                        dur_us=e_us - s_us,
                        depth=1,
                        tid=tracer.tid,
                    )
                )
            self.traced_cycles += 1
        self._laps.clear()
        self._tracing_cycle = False
