"""Worker→parent telemetry relay over a bounded multiprocessing queue.

Under ``repro sweep --jobs N`` every telemetry topic lives on the
worker's in-process bus, so the parent is blind to a point until it
finishes.  The relay fixes that with one bounded queue shared by all
workers:

* **Worker side** — :class:`WorkerRelay` subscribes to a small set of
  relay topics (interval closes, online reliability estimates,
  divergence records, perf span summaries), batches events, and ships
  each batch with ``put_nowait``.  A full queue *drops the batch and
  counts it*; the worker cycle loop is never blocked by a slow parent.
  Every message carries the worker's cumulative drop count, so drops
  are visible at the parent even though dropped batches never arrive.
* **Parent side** — :class:`RelayDrain` empties the queue from the
  engine's wait loop and re-publishes each event on the parent bus via
  :meth:`~repro.telemetry.bus.EventBus.republish`, stamped with an
  :class:`~repro.telemetry.bus.EventOrigin` (worker slot, pid, arrival
  ms).  Heartbeat messages from :mod:`repro.harness.health` ride the
  same queue and are handed to the health monitor instead.

Relayed payloads must be picklable scalars — the default topic set is
chosen so this holds; do not relay instruction-granularity topics
(``pipeline.commit`` carries a live ``DynInst``).

Wall-clock stamps here are observability-only and never feed simulated
results.
"""

from __future__ import annotations

import os
import queue as _queue
import time
from typing import Any, Callable

from repro.telemetry.bus import EventBus, EventOrigin, Subscription
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.topics import (
    TOPIC_INTERVAL_CLOSE,
    TOPIC_PERF_SPAN,
    TOPIC_RELIABILITY_DIVERGENCE,
    TOPIC_RELIABILITY_ESTIMATE,
    TOPICS,
    get_topic,
)

#: Topics a worker forwards by default: per-interval samples, online
#: reliability estimates/divergences, and perf span summaries.  All
#: carry scalar payloads and close at interval (not instruction) rate.
DEFAULT_RELAY_TOPICS: tuple[str, ...] = (
    TOPIC_INTERVAL_CLOSE.name,
    TOPIC_RELIABILITY_ESTIMATE.name,
    TOPIC_RELIABILITY_DIVERGENCE.name,
    TOPIC_PERF_SPAN.name,
)

#: Queue capacity in *messages* (batches + heartbeats), shared by all
#: workers.  Sized so a 16-worker fleet emitting at interval rate never
#: fills it as long as the parent pumps a few times per second.
DEFAULT_QUEUE_SIZE = 512

#: Events per batch before a worker ships it.
DEFAULT_BATCH_SIZE = 32

#: Message kinds on the wire.
MSG_EVENTS = "events"
MSG_HEALTH = "health"

#: Wire shape of one relayed event: (topic, cycle, stage, payload).
WireEvent = tuple[str, int, str, dict[str, Any]]

#: Callback handed health messages: (slot, pid, payload, arrival_ms).
HealthSink = Callable[[int, int, dict[str, Any], float], None]


class WorkerRelay:
    """Worker-side forwarder: subscribe, batch, ship, never block.

    ``queue`` is the shared ``multiprocessing.Queue`` (injected through
    the pool initializer — mp queues cannot ride ``submit()``
    arguments).  ``batch_size`` trades latency for queue pressure;
    heartbeats bypass batching entirely so liveness signals are never
    delayed behind event traffic.
    """

    def __init__(self, queue: Any, *, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._queue = queue
        self._batch_size = batch_size
        self._pid = os.getpid()
        self._seq = 0
        self._pending: list[WireEvent] = []
        #: Events (and heartbeats) dropped because the queue was full.
        self.dropped = 0
        #: Events successfully handed to the queue.
        self.sent = 0

    def attach(
        self, bus: EventBus, topics: tuple[str, ...] = DEFAULT_RELAY_TOPICS
    ) -> Subscription:
        """Subscribe the relay to ``topics`` on the worker's bus."""
        return bus.subscribe([get_topic(n) for n in topics], self.on_event)

    def on_event(self, event: Any) -> None:
        """Buffer one bus event; ship the batch once it is full."""
        self._pending.append((event.topic, event.cycle, event.stage, event.payload))
        if len(self._pending) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        """Ship the pending batch (drop it, counted, if the queue is full)."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._put((MSG_EVENTS, self._pid, self._next_seq(), self.dropped, batch), len(batch))

    def send_health(self, payload: dict[str, Any]) -> None:
        """Ship one heartbeat immediately (unbatched)."""
        self._put((MSG_HEALTH, self._pid, self._next_seq(), self.dropped, payload), 1)

    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _put(self, message: tuple[Any, ...], weight: int) -> None:
        try:
            self._queue.put_nowait(message)
        except _queue.Full:
            self.dropped += weight
        else:
            self.sent += weight


class RelayDrain:
    """Parent-side consumer: drain the queue, re-publish with attribution.

    ``worker_slot`` maps a pid to the compact worker index the progress
    line and Chrome traces use (the engine shares its existing mapping
    so relayed events and point events agree on slots).  ``t0`` is the
    sweep-start ``time.time()`` reading; arrival stamps are
    milliseconds since then, the same domain as ``harness.point``
    ``start_ms`` times, so relayed events land on the right spot of a
    Chrome-trace worker track.
    """

    def __init__(
        self,
        queue: Any,
        bus: EventBus,
        *,
        worker_slot: Callable[[int], int],
        t0: float,
        metrics: MetricsRegistry | None = None,
        on_health: HealthSink | None = None,
    ) -> None:
        self._queue = queue
        self._bus = bus
        self._worker_slot = worker_slot
        self._t0 = t0
        self._on_health = on_health
        registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = registry
        self._batches = registry.counter(
            "relay.batches", help="Telemetry batches received from pool workers."
        )
        self._events = registry.counter(
            "relay.events", help="Relayed events re-published on the parent bus."
        )
        self._heartbeats = registry.counter(
            "relay.heartbeats", help="Worker health heartbeats received."
        )
        self._dropped = registry.counter(
            "relay.dropped",
            help="Events dropped worker-side because the relay queue was full.",
        )
        self._last_dropped: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Total events known dropped across all workers."""
        return int(self._dropped.get())

    def pump(self, max_messages: int = 1024) -> int:
        """Drain up to ``max_messages`` queued messages; returns count."""
        handled = 0
        while handled < max_messages:
            try:
                message = self._queue.get_nowait()
            except _queue.Empty:
                break
            handled += 1
            self._handle(message)
        return handled

    # ------------------------------------------------------------------
    def _handle(self, message: tuple[Any, ...]) -> None:
        kind, pid, _seq, dropped_total, body = message
        slot = self._worker_slot(pid)
        behind = dropped_total - self._last_dropped.get(pid, 0)
        if behind > 0:
            self._dropped.inc(behind)
            self._last_dropped[pid] = dropped_total
        arrival_ms = (time.time() - self._t0) * 1000.0
        if kind == MSG_EVENTS:
            self._batches.inc()
            origin = EventOrigin(worker=slot, pid=pid, ms=arrival_ms)
            for topic_name, cycle, stage, payload in body:
                topic = TOPICS.get(topic_name)
                if topic is None:  # catalog skew between parent and worker
                    continue
                self._events.inc()
                self._bus.republish(
                    topic, payload, cycle=cycle, stage=stage, origin=origin
                )
        elif kind == MSG_HEALTH:
            self._heartbeats.inc()
            if self._on_health is not None:
                self._on_health(slot, pid, body, arrival_ms)
