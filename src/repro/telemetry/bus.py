"""Structured event bus.

The bus is the simulator's single pub/sub spine: components emit
:class:`~repro.telemetry.topics.Topic`-typed events, observers
(tracers, recorders, tests) subscribe per topic or to everything.  Two
properties make it safe to leave wired into the hot path:

* **No-op fast path.**  ``emit`` returns after one dict lookup when
  nothing subscribed; hot call sites additionally pre-check
  ``wants(topic)`` (or cache it against :attr:`version`) so they skip
  even payload construction.
* **Schema validation on delivery only.**  The keyword set is checked
  against the topic's declared fields when an event is actually built,
  so the zero-subscriber path never pays for validation.  This
  run-time check (here and in :meth:`EventBus.republish`) is the only
  schema check; no lint rule re-checks ``emit`` call sites.

The pipeline stamps :attr:`cycle` and :attr:`stage` once per stage;
every event inherits them, which is what gives observers a total
within-cycle order (commit → writeback → issue → dispatch → fetch →
tick) for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.telemetry.topics import TOPICS, Topic

#: Subscriber callback signature.
Callback = Callable[["Event"], None]
#: Optional per-subscription event filter.
Predicate = Callable[["Event"], bool]


@dataclass(frozen=True)
class EventOrigin:
    """Worker attribution stamped onto relayed (re-published) events.

    ``worker`` is the parent-assigned compact slot index, ``pid`` the
    worker's OS process id, and ``ms`` the wall-clock arrival time at
    the parent in milliseconds since sweep start (the worker-side
    ``cycle``/``stage`` stamps stay on the event itself).
    """

    worker: int
    pid: int
    ms: float


@dataclass(frozen=True)
class Event:
    """One delivered event: topic name, stamps, and the typed payload.

    ``origin`` is None for events emitted in-process; events relayed
    from pool workers and re-published by the parent carry the worker
    attribution (see :meth:`EventBus.republish`).
    """

    topic: str
    cycle: int
    stage: str
    payload: dict[str, Any]
    origin: EventOrigin | None = None

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]


@dataclass
class Subscription:
    """Handle returned by ``subscribe``; ``close()`` detaches it."""

    bus: "EventBus"
    topics: tuple[str, ...]  # empty tuple = wildcard (all topics)
    callback: Callback
    predicate: Predicate | None = None
    closed: bool = field(default=False, compare=False)

    def deliver(self, event: Event) -> None:
        if self.predicate is None or self.predicate(event):
            self.callback(event)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.bus._detach(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class EventBus:
    """Typed topic pub/sub with a cheap nothing-subscribed path."""

    def __init__(self) -> None:
        #: Current simulator cycle; stamped by the pipeline run loop.
        self.cycle: int = 0
        #: Currently active pipeline stage ("" outside the cycle loop).
        self.stage: str = ""
        #: Bumped on every (un)subscribe so hot paths can cache wants().
        self.version: int = 0
        self._subs: dict[str, list[Subscription]] = {}
        self._all: list[Subscription] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        topic: Topic | Iterable[Topic],
        callback: Callback,
        *,
        predicate: Predicate | None = None,
    ) -> Subscription:
        """Attach ``callback`` to one topic (or an iterable of topics).

        ``predicate`` optionally filters events before delivery.
        Returns a :class:`Subscription`; close it (or use it as a
        context manager) to detach.
        """
        topics = (topic,) if isinstance(topic, Topic) else tuple(topic)
        if not topics:
            raise ValueError("subscribe requires at least one topic")
        sub = Subscription(self, tuple(t.name for t in topics), callback, predicate)
        for t in topics:
            if t.name not in TOPICS:
                raise KeyError(f"topic {t.name!r} is not registered")
            self._subs.setdefault(t.name, []).append(sub)
        self.version += 1
        return sub

    def subscribe_all(
        self, callback: Callback, *, predicate: Predicate | None = None
    ) -> Subscription:
        """Attach ``callback`` to every topic (wildcard subscription)."""
        sub = Subscription(self, (), callback, predicate)
        self._all.append(sub)
        self.version += 1
        return sub

    def _detach(self, sub: Subscription) -> None:
        if sub.topics:
            for name in sub.topics:
                entries = self._subs.get(name)
                if entries and sub in entries:
                    entries.remove(sub)
                    if not entries:
                        del self._subs[name]
        elif sub in self._all:
            self._all.remove(sub)
        self.version += 1

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def wants(self, topic: Topic) -> bool:
        """True when at least one subscriber would see ``topic``.

        Hot call sites cache this against :attr:`version` so the
        zero-subscriber path skips payload construction entirely.
        """
        if self._all:
            return True
        return topic.name in self._subs

    def emit(self, topic: Topic, **fields: Any) -> None:
        """Publish one event; a no-op when nothing subscribed.

        Keyword names must exactly match ``topic.fields`` (checked only
        when the event is actually delivered).
        """
        subs = self._subs.get(topic.name)
        if not subs and not self._all:
            return
        if fields.keys() != topic.fields:
            missing = sorted(topic.fields - fields.keys())
            extra = sorted(fields.keys() - topic.fields)
            raise ValueError(
                f"emit({topic.name!r}): payload does not match schema"
                f" (missing={missing}, unexpected={extra})"
            )
        event = Event(topic.name, self.cycle, self.stage, fields)
        if subs:
            for sub in list(subs):
                sub.deliver(event)
        for sub in list(self._all):
            sub.deliver(event)

    def republish(
        self,
        topic: Topic,
        payload: dict[str, Any],
        *,
        cycle: int,
        stage: str,
        origin: EventOrigin | None = None,
    ) -> None:
        """Re-deliver an event that was first emitted on another bus.

        The relay drain uses this to mirror worker-side events onto the
        parent bus: the payload dict arrives pre-built (already
        schema-checked by the worker-side ``emit``), ``cycle``/``stage``
        carry the *worker's* stamps rather than this bus's, and
        ``origin`` attributes the event to a worker slot/pid.  The
        schema is re-checked on delivery so a worker running different
        code cannot smuggle a malformed payload past subscribers.
        """
        subs = self._subs.get(topic.name)
        if not subs and not self._all:
            return
        if payload.keys() != topic.fields:
            missing = sorted(topic.fields - payload.keys())
            extra = sorted(payload.keys() - topic.fields)
            raise ValueError(
                f"republish({topic.name!r}): payload does not match schema"
                f" (missing={missing}, unexpected={extra})"
            )
        event = Event(topic.name, cycle, stage, payload, origin)
        if subs:
            for sub in list(subs):
                sub.deliver(event)
        for sub in list(self._all):
            sub.deliver(event)

    # ------------------------------------------------------------------
    def subscriber_count(self, topic: Topic | None = None) -> int:
        """Number of subscriptions on ``topic`` (or in total)."""
        if topic is not None:
            return len(self._subs.get(topic.name, ())) + len(self._all)
        distinct = {id(s) for subs in self._subs.values() for s in subs}
        return len(distinct) + len(self._all)
