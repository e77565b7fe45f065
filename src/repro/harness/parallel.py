"""Process-pool execution engine with checkpoint/resume for experiment sweeps.

Every paper figure is a cartesian sweep of :func:`~repro.harness.runner.run_sim`
points; this module fans those points out across worker processes while
keeping three hard guarantees:

* **Determinism.**  Points are keyed by their full configuration
  (:func:`config_key`) and rows are assembled in submission order with
  the exact same float operations as the serial path
  (:func:`repro.harness.sweep.assemble_row`), so ``jobs=N`` output is
  byte-identical to ``jobs=0``.
* **Durability.**  Each completed point is appended to a JSONL
  checkpoint shard (:class:`CheckpointShard`, under ``reports/`` by
  default).  A killed or re-run sweep with ``resume=True`` re-executes
  only the missing points; the shard header carries a configuration
  signature so a stale shard cannot silently poison a different sweep.
* **Degradation, not death.**  A failing point is retried with bounded
  exponential backoff (a per-round sleep capped at
  :data:`BACKOFF_CAP_S`) and a per-point wait timeout; a point that
  exhausts its retries is *skipped* and reported (``EngineRun.skipped``)
  instead of aborting the sweep, unless ``strict=True``.

Progress flows over the telemetry bus as ``harness.point`` events
(status ``done``/``cached``/``retry``/``stalled``/``skipped``), which
``repro timeline`` renders and the Chrome-trace exporter lays out as
per-worker point tracks.  Worker processes populate their own
``run_sim`` memo caches: the pool initializer broadcasts the
(mix, scale, profiled) tuples of the sweep so each worker profiles its
programs once instead of once per point.

Pool runs are additionally *observable as a fleet* (see
``docs/observability.md``): the initializer wires each worker's
ambient bus to a :class:`~repro.telemetry.relay.WorkerRelay` and a
:class:`~repro.harness.health.HeartbeatEmitter`, the parent pumps the
shared relay queue from its wait loop (re-publishing worker events
with slot/pid attribution and folding heartbeats into per-worker
gauges), a worker silent beyond the stall threshold yields a
**stalled** disposition distinct from a timeout, and the engine
serves/persists a Prometheus + JSON status view of all of it
(:mod:`repro.telemetry.export`).

Wall-clock reads below time harness work (point spans, backoff, wait
deadlines) and never feed simulated results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.harness import replication as replication_mod
from repro.harness import sweep as sweep_mod
from repro.harness.health import HealthMonitor, HeartbeatEmitter, MonitorConfig
from repro.harness.runner import (
    BenchScale,
    get_programs,
    run_sim,
    set_ambient_bus,
)
from repro.telemetry.bus import EventBus
from repro.telemetry.export import MetricsServer, status_path_for, write_status
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.relay import RelayDrain, WorkerRelay
from repro.telemetry.runlog import get_run_logger, setup_run_logging
from repro.telemetry.topics import TOPIC_HARNESS_POINT

#: Checkpoint shard format version (header field ``version``).
CHECKPOINT_VERSION = 1

#: Default directory for auto-named checkpoint shards.
DEFAULT_REPORTS_DIR = "reports"

#: Upper bound on one retry-round backoff sleep.
BACKOFF_CAP_S = 4.0

#: Env var for fault injection in workers — used by the failure-path
#: tests and for rehearsing degraded runs.  Formats:
#: ``raise:<label-substring>`` (raise in the worker),
#: ``exit:<label-substring>`` (die instantly),
#: ``sleep:<seconds>:<label-substring>`` (hang silently: heartbeats
#: stop, the stall detector fires), and
#: ``die:<seconds>:<label-substring>`` (die mid-point, after the start
#: heartbeat went out).
FAULT_ENV = "REPRO_PARALLEL_FAULT"

#: Poll cadence of the monitored pool wait loop: each tick pumps the
#: relay queue, refreshes the status document, and checks for stalls.
POLL_S = 0.05


# ----------------------------------------------------------------------
# Task model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Task:
    """One unit of work: a simulation point or a whole figure suite."""

    index: int
    key: str
    label: str
    kind: str  # "sim" | "figure"
    payload: tuple[Any, ...]


@dataclass
class PointReport:
    """Outcome of one task after execution/resume."""

    index: int
    key: str
    label: str
    status: str  # "done" | "cached" | "skipped"
    attempts: int = 0
    elapsed_ms: float = 0.0
    error: str | None = None


@dataclass
class EngineRun:
    """Raw engine outcome: values by key plus per-point reports."""

    values: dict[str, Any] = field(default_factory=dict)
    reports: list[PointReport] = field(default_factory=list)
    checkpoint_path: str | None = None
    executed: int = 0
    cached: int = 0
    #: Where the live status document was written (monitored runs only).
    status_path: str | None = None
    #: Final metrics snapshot (relay counters, worker gauges) of a
    #: monitored run — the programmatic twin of ``GET /metrics``.
    telemetry: dict[str, Any] = field(default_factory=dict)

    @property
    def skipped(self) -> list[PointReport]:
        return [r for r in self.reports if r.status == "skipped"]


def _canon(obj: Any) -> Any:
    """JSON-safe canonical form used for keys and signatures."""
    if isinstance(obj, BenchScale):
        return {"BenchScale": _canon(dataclasses.asdict(obj))}
    if isinstance(obj, Mapping):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def config_key(mix_name: str, scale: BenchScale, kwargs: Mapping) -> str:
    """Canonical string key of one ``run_sim`` configuration."""
    return json.dumps(
        {"mix": mix_name, "scale": _canon(scale), "kwargs": _canon(dict(kwargs))},
        sort_keys=True,
        separators=(",", ":"),
    )


def signature_of(doc: Mapping[str, Any]) -> str:
    """Stable sha256 signature of a sweep/figures specification."""
    return hashlib.sha256(
        json.dumps(_canon(doc), sort_keys=True).encode()
    ).hexdigest()


def default_checkpoint_path(
    kind: str, signature: str, directory: str = DEFAULT_REPORTS_DIR
) -> str:
    """``reports/<kind>-<sig12>.jsonl`` — the auto shard location."""
    return os.path.join(directory, f"{kind}-{signature[:12]}.jsonl")


# ----------------------------------------------------------------------
# Checkpoint shard
# ----------------------------------------------------------------------
class CheckpointShard:
    """Append-only JSONL shard of completed points.

    Line 1 is a header object ``{"_checkpoint": {...}}`` carrying the
    format version and the sweep signature; each further line is one
    point record.  Only ``status == "done"`` records count as completed
    on resume; ``skipped`` records are kept for the audit trail but are
    re-executed by a resumed run.  A torn trailing line (a writer killed
    mid-append) is ignored on load.
    """

    def __init__(self, path: str, signature: str, kind: str):
        self.path = path
        self.signature = signature
        self.kind = kind
        self._fh: Any = None

    # -- reading -------------------------------------------------------
    @staticmethod
    def load(path: str) -> tuple[dict | None, dict[str, dict]]:
        """Parse a shard: ``(header-or-None, done-records-by-key)``."""
        header: dict | None = None
        records: dict[str, dict] = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line from a killed writer
                if isinstance(obj, dict) and "_checkpoint" in obj:
                    header = obj["_checkpoint"]
                    continue
                if (
                    isinstance(obj, dict)
                    and obj.get("status") == "done"
                    and isinstance(obj.get("key"), str)
                ):
                    records[obj["key"]] = obj
        return header, records

    def resume(self) -> dict[str, dict]:
        """Completed records when the shard matches this sweep.

        Returns ``{}`` when the shard does not exist yet; raises
        :class:`ValueError` when it exists but was written by a
        different configuration (wrong signature or format version).
        """
        if not os.path.exists(self.path):
            return {}
        header, records = self.load(self.path)
        if header is None:
            raise ValueError(
                f"checkpoint {self.path!r} has no readable header; delete it "
                f"or point --checkpoint elsewhere"
            )
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path!r} has format version "
                f"{header.get('version')!r}, expected {CHECKPOINT_VERSION}"
            )
        if header.get("signature") != self.signature:
            raise ValueError(
                f"checkpoint {self.path!r} belongs to a different sweep "
                f"configuration (signature {str(header.get('signature'))[:12]}… "
                f"!= {self.signature[:12]}…); delete it or pass a different "
                f"--checkpoint path"
            )
        return records

    # -- writing -------------------------------------------------------
    def open(self, *, append: bool) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        torn_tail = False
        if append and os.path.exists(self.path):
            # A writer killed mid-append can leave a final line with no
            # newline; appending onto it would corrupt the next record.
            with open(self.path, "rb") as existing:
                existing.seek(0, os.SEEK_END)
                size = existing.tell()
                if size:
                    existing.seek(size - 1)
                    torn_tail = existing.read(1) != b"\n"
        self._fh = open(self.path, "a" if append else "w")
        if torn_tail:
            self._fh.write("\n")
        if not append:
            self._write(
                {
                    "_checkpoint": {
                        "version": CHECKPOINT_VERSION,
                        "kind": self.kind,
                        "signature": self.signature,
                    }
                }
            )

    def append(self, record: Mapping[str, Any]) -> None:
        if self._fh is not None:
            self._write(record)

    def _write(self, obj: Mapping[str, Any]) -> None:
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _inject_fault(label: str) -> None:
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    mode, _, rest = spec.partition(":")
    seconds = 0.0
    if mode in ("sleep", "die"):
        seconds_text, _, needle = rest.partition(":")
        seconds = float(seconds_text)
    else:
        needle = rest
    if needle and needle not in label:
        return
    if mode == "raise":
        raise RuntimeError(f"injected fault for point {label!r}")
    if mode == "exit":
        os._exit(17)
    if mode == "sleep":
        time.sleep(seconds)
    if mode == "die":
        time.sleep(seconds)
        os._exit(17)


@dataclass
class _WorkerObs:
    """Per-worker observability wiring installed by ``_init_worker``."""

    bus: EventBus
    relay: WorkerRelay
    heartbeat: HeartbeatEmitter


#: This worker's observability bundle (None outside monitored pools).
_WORKER_OBS: _WorkerObs | None = None


def _init_worker(warm: tuple, obs_spec: tuple | None = None) -> None:
    """Pool initializer: memo caches plus (optionally) observability.

    ``warm`` broadcasts the sweep's (mix, scale, profiled) tuples so
    each worker generates and profiles its programs once up front; the
    parent's caches are useless to a spawned child, and even a forked
    child re-profiles nothing this way.

    ``obs_spec`` carries the relay queue and monitoring knobs.  The
    queue can only reach a child through the pool initializer's
    ``initargs`` (multiprocessing queues refuse to ride ``submit()``
    arguments), which is why all of this lives here: the worker builds
    an ambient :class:`EventBus`, subscribes a :class:`WorkerRelay` and
    a :class:`HeartbeatEmitter`, and installs the bus so every
    ``run_sim`` pipeline the worker executes publishes onto it.
    """
    global _WORKER_OBS
    for mix_name, scale, profiled in warm:
        get_programs(mix_name, scale, profiled)
    if obs_spec is None:
        return
    queue, topics, batch_size, heartbeat_s, run_id, config_hash, log_path = obs_spec
    bus = EventBus()
    relay = WorkerRelay(queue, batch_size=batch_size)
    relay.attach(bus, tuple(topics))
    heartbeat = HeartbeatEmitter(relay, interval_s=heartbeat_s)
    heartbeat.attach(bus)
    set_ambient_bus(bus)
    # Deliberate per-process worker state, installed once per pool child.
    _WORKER_OBS = _WorkerObs(bus, relay, heartbeat)
    if log_path:
        setup_run_logging(run_id, config_hash, path=log_path)
        get_run_logger("worker").info("worker online", extra={"pid": os.getpid()})


def _figure_suite(name: str) -> Callable[[BenchScale], list[dict]]:
    from repro.harness.experiments import SUITES

    try:
        return SUITES[name][0]
    except KeyError:
        raise KeyError(
            f"unknown figure suite {name!r}; known: {sorted(SUITES)}"
        ) from None


def _execute_task(task: Task) -> tuple[Any, float, float, int]:
    """Run one task; returns ``(value, start_ts, end_ts, worker_pid)``.

    The start heartbeat goes out before anything else (including fault
    injection) so the parent can attribute a worker death or hang to
    the point it was holding; the finally block marks the worker idle
    and flushes the relay whether the task succeeded or raised.
    """
    obs = _WORKER_OBS
    if obs is not None:
        obs.heartbeat.point_started(task.key)
    try:
        _inject_fault(task.label)
        start = time.time()
        if task.kind == "sim":
            mix_name, scale, kw_items = task.payload
            value: Any = run_sim(mix_name, scale, **dict(kw_items))
        elif task.kind == "figure":
            name, scale = task.payload
            value = _figure_suite(name)(scale)
        else:
            raise KeyError(f"unknown task kind {task.kind!r}")
        return value, start, time.time(), os.getpid()
    finally:
        if obs is not None:
            obs.heartbeat.point_finished()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
#: ``harness.point`` payload fields → keys of a point's reduced metric
#: dict.  Sweep/replicate points reduce to ``{metric: float}`` dicts;
#: when one carries an IQ or ROB AVF the progress stream surfaces it so
#: a live sweep shows vulnerability alongside throughput.  A new metric
#: rides along by adding a (field, metric-key) pair here *and* the
#: field to ``TOPIC_HARNESS_POINT`` in ``repro.telemetry.topics``.
POINT_METRIC_FIELDS: dict[str, str] = {
    "avf": "iq_avf",
    "rob_avf": "rob_avf",
}


def _point_metrics(value: Any) -> dict[str, float | None]:
    """Extract the surfaced metric fields from a reduced point value."""
    out: dict[str, float | None] = dict.fromkeys(POINT_METRIC_FIELDS)
    if isinstance(value, Mapping):
        for field_name, metric in POINT_METRIC_FIELDS.items():
            v = value.get(metric)
            if isinstance(v, (int, float)) and v == v:  # NaN-safe
                out[field_name] = float(v)
    return out


class _PointEmitter:
    """Telemetry + report bookkeeping shared by the inline/pool paths."""

    def __init__(self, bus: EventBus | None, t0: float):
        self.bus = bus
        self.t0 = t0
        self._workers: dict[int, int] = {}  # pid -> compact slot
        #: Status tallies (kept even without a bus; status docs read them).
        self.counts: dict[str, int] = {}

    def worker_slot(self, pid: int) -> int:
        return self._workers.setdefault(pid, len(self._workers))

    def emit(
        self,
        task: Task,
        status: str,
        *,
        attempt: int,
        worker: int = -1,
        start_ms: float | None = None,
        elapsed_ms: float = 0.0,
        metrics: Mapping[str, float | None] | None = None,
    ) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1
        if self.bus is None:
            return
        point = metrics if metrics is not None else _point_metrics(None)
        now_ms = (time.time() - self.t0) * 1000.0
        if start_ms is None:
            start_ms = now_ms
        self.bus.cycle = max(int(now_ms), 0)
        self.bus.emit(
            TOPIC_HARNESS_POINT,
            index=task.index,
            label=task.label,
            status=status,
            start_ms=float(start_ms),
            elapsed_ms=float(elapsed_ms),
            attempt=attempt,
            worker=worker,
            avf=point.get("avf"),
            rob_avf=point.get("rob_avf"),
        )


class _Stalled(Exception):
    """A worker went heartbeat-silent (or died) while holding a point."""

    def __init__(self, message: str, worker: int = -1):
        super().__init__(message)
        self.worker = worker


@dataclass
class _Fleet:
    """Parent-side observability bundle for one monitored pool run."""

    cfg: MonitorConfig
    t0: float
    queue: Any
    drain: RelayDrain
    health: HealthMonitor
    obs_spec: tuple
    write_status: Callable[[], None]


def _make_fleet(
    cfg: MonitorConfig,
    *,
    metrics: MetricsRegistry,
    health: HealthMonitor,
    bus: EventBus | None,
    emitter: "_PointEmitter",
    t0: float,
    run_id: str,
    signature: str,
    write_status_cb: Callable[[], None],
) -> _Fleet:
    """Build the relay queue + drain for one pool run.

    The queue comes from the default multiprocessing context (the same
    one ``ProcessPoolExecutor`` uses) and reaches workers through the
    pool initializer's initargs.
    """
    queue = multiprocessing.get_context().Queue(cfg.queue_size)
    drain = RelayDrain(
        queue,
        bus if bus is not None else EventBus(),
        worker_slot=emitter.worker_slot,
        t0=t0,
        metrics=metrics,
        on_health=health.on_health,
    )
    obs_spec = (
        queue,
        tuple(cfg.relay_topics),
        cfg.batch_size,
        cfg.heartbeat_s,
        run_id,
        signature,
        cfg.log_path,
    )
    return _Fleet(cfg, t0, queue, drain, health, obs_spec, write_status_cb)


def execute_tasks(
    tasks: Sequence[Task],
    *,
    reduce: Callable[[Task, Any], Any],
    jobs: int = 0,
    checkpoint: str | bool | None = None,
    resume: bool = False,
    signature_doc: Mapping[str, Any] | None = None,
    kind: str = "sweep",
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.25,
    strict: bool = False,
    bus: EventBus | None = None,
    warm: Sequence[tuple[str, BenchScale, bool]] = (),
    monitor: "MonitorConfig | bool | None" = None,
) -> EngineRun:
    """Execute ``tasks`` (deduplicated by caller), merging deterministically.

    ``reduce(task, raw)`` converts a worker's raw return value into the
    JSON-safe value stored in the checkpoint and in ``EngineRun.values``
    (for ``"sim"`` tasks: the extracted metric dict).  ``jobs <= 1``
    runs inline in this process (``timeout`` then bounds nothing —
    there is no one to interrupt a running point); ``jobs >= 2`` fans
    out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``checkpoint`` may be a path, ``True`` (auto path under
    ``reports/``), or ``None``/``False`` to disable checkpointing.

    ``monitor`` controls fleet observability, which applies only to
    pool runs (``jobs >= 2``): ``None``/``True`` turn it on with
    defaults, ``False`` turns it off, and a :class:`MonitorConfig`
    customizes it (relay topics, heartbeat cadence, stall threshold,
    ``--serve`` endpoint, status/log paths).
    """
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive when set")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    keys = [t.key for t in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique (dedupe before execute)")

    t0 = time.time()
    emitter = _PointEmitter(bus, t0)
    signature = signature_of(signature_doc or {"keys": keys})
    run_id = signature[:12]
    run = EngineRun()

    cfg: MonitorConfig | None = None
    if jobs >= 2 and monitor is not False:
        cfg = monitor if isinstance(monitor, MonitorConfig) else MonitorConfig()
    if cfg is not None and cfg.log_path:
        setup_run_logging(run_id, signature, path=cfg.log_path)
    log = get_run_logger("engine")

    shard: CheckpointShard | None = None
    completed: dict[str, dict] = {}
    if checkpoint:
        path = (
            default_checkpoint_path(kind, signature)
            if checkpoint is True
            else str(checkpoint)
        )
        shard = CheckpointShard(path, signature, kind)
        run.checkpoint_path = path
        if resume:
            completed = shard.resume()
        shard.open(append=bool(completed))

    metrics_registry = MetricsRegistry()
    health = HealthMonitor(
        metrics=metrics_registry,
        bus=bus,
        stall_after_s=cfg.stall_after_s if cfg is not None else 5.0,
    )
    label_by_key = {task.key: task.label for task in tasks}
    status_path: str | None = None
    if cfg is not None:
        status_path = cfg.status_path or (
            status_path_for(run.checkpoint_path) if run.checkpoint_path else None
        )
    run.status_path = status_path
    last_status_write = [0.0]

    def _status_doc(state: str = "running") -> dict[str, Any]:
        now = time.time()
        workers = health.to_doc((now - t0) * 1000.0)
        for row in workers:
            if row.get("point"):
                row["point"] = label_by_key.get(row["point"], row["point"])
        return {
            "schema": 1,
            "state": state,
            "kind": kind,
            "run_id": run_id,
            "config_hash": signature,
            "jobs": jobs,
            "started": t0,
            "updated": now,
            "points": {"total": len(tasks), **emitter.counts},
            "workers": workers,
            "metrics": metrics_registry.snapshot(),
            "checkpoint": run.checkpoint_path,
        }

    def _write_status_now(force: bool = False, state: str = "running") -> None:
        if status_path is None or cfg is None:
            return
        now = time.time()
        if not force and now - last_status_write[0] < cfg.status_write_s:
            return
        last_status_write[0] = now
        write_status(status_path, _status_doc(state))

    fleet: _Fleet | None = None
    server: MetricsServer | None = None
    try:
        if cfg is not None:
            fleet = _make_fleet(
                cfg,
                metrics=metrics_registry,
                health=health,
                bus=bus,
                emitter=emitter,
                t0=t0,
                run_id=run_id,
                signature=signature,
                write_status_cb=_write_status_now,
            )
            if bus is not None:
                health.attach(bus)
            if cfg.serve is not None:
                host, port = cfg.serve
                server = MetricsServer(
                    metrics_registry, _status_doc, host=host, port=port
                ).start()
                log.info(
                    "serving /metrics and /status",
                    extra={"host": server.host, "port": server.port},
                )
            log.info(
                "run starting",
                extra={"kind": kind, "jobs": jobs, "points": len(tasks)},
            )
            _write_status_now(force=True)

        todo: list[Task] = []
        for task in tasks:
            rec = completed.get(task.key)
            if rec is not None:
                run.values[task.key] = rec.get("value")
                run.cached += 1
                run.reports.append(
                    PointReport(task.index, task.key, task.label, "cached")
                )
                emitter.emit(
                    task, "cached", attempt=0,
                    metrics=_point_metrics(rec.get("value")),
                )
            else:
                todo.append(task)

        def _complete(task: Task, attempt: int, raw, start_ts, end_ts, pid) -> None:
            value = reduce(task, raw)
            start_ms = max((start_ts - t0) * 1000.0, 0.0)
            elapsed_ms = max((end_ts - start_ts) * 1000.0, 0.0)
            worker = emitter.worker_slot(pid)
            run.values[task.key] = value
            run.executed += 1
            run.reports.append(
                PointReport(
                    task.index, task.key, task.label, "done",
                    attempts=attempt, elapsed_ms=elapsed_ms,
                )
            )
            if shard is not None:
                shard.append(
                    {
                        "key": task.key,
                        "index": task.index,
                        "label": task.label,
                        "status": "done",
                        "value": value,
                        "elapsed_ms": elapsed_ms,
                        "attempt": attempt,
                        "worker": worker,
                    }
                )
            emitter.emit(
                task, "done", attempt=attempt, worker=worker,
                start_ms=start_ms, elapsed_ms=elapsed_ms,
                metrics=_point_metrics(value),
            )
            _write_status_now(force=True)

        def _skip(task: Task, attempt: int, error: str) -> None:
            run.reports.append(
                PointReport(
                    task.index, task.key, task.label, "skipped",
                    attempts=attempt, error=error,
                )
            )
            if shard is not None:
                shard.append(
                    {
                        "key": task.key,
                        "index": task.index,
                        "label": task.label,
                        "status": "skipped",
                        "error": error,
                        "attempt": attempt,
                    }
                )
            log.warning(
                "point skipped", extra={"label": task.label, "error": error}
            )
            emitter.emit(task, "skipped", attempt=attempt)
            _write_status_now(force=True)

        if todo:
            if jobs <= 1:
                _run_inline(todo, _complete, _skip, emitter, retries, backoff)
            else:
                _run_pool(
                    todo, _complete, _skip, emitter,
                    jobs=jobs, timeout=timeout, retries=retries,
                    backoff=backoff, warm=tuple(warm), fleet=fleet,
                )
    finally:
        if fleet is not None:
            fleet.drain.pump()
        if shard is not None:
            shard.close()
        if server is not None:
            server.close()
        if cfg is not None:
            run.telemetry = metrics_registry.snapshot()
            _write_status_now(force=True, state="finished")
            log.info(
                "run finished",
                extra={
                    "executed": run.executed,
                    "cached": run.cached,
                    "relay_dropped": int(fleet.drain.dropped) if fleet else 0,
                },
            )

    run.reports.sort(key=lambda r: r.index)
    if strict and run.skipped:
        failed = ", ".join(f"{r.label} ({r.error})" for r in run.skipped)
        raise RuntimeError(
            f"{len(run.skipped)} point(s) failed after {retries} retries: {failed}"
        )
    return run


def _backoff_sleep(backoff: float, round_index: int) -> None:
    if backoff > 0:
        time.sleep(min(backoff * (2 ** round_index), BACKOFF_CAP_S))


def _run_inline(todo, complete, skip, emitter: _PointEmitter, retries, backoff) -> None:
    for task in todo:
        attempt = 0
        while True:
            attempt += 1
            try:
                raw, start_ts, end_ts, pid = _execute_task(task)
            except Exception as exc:  # noqa: BLE001 - degraded-run boundary
                if attempt <= retries:
                    emitter.emit(task, "retry", attempt=attempt)
                    _backoff_sleep(backoff, attempt - 1)
                    continue
                skip(task, attempt, f"{exc.__class__.__name__}: {exc}")
                break
            complete(task, attempt, raw, start_ts, end_ts, pid)
            break


def _await_result(fut, task: Task, timeout, fleet: _Fleet | None):
    """Wait for one future, servicing the fleet while it runs.

    Without a fleet this is exactly ``fut.result(timeout=timeout)``.
    With one, the wait becomes a poll loop: each :data:`POLL_S` tick
    pumps the relay queue (re-publishing worker events and folding
    heartbeats), refreshes the throttled status document, and asks the
    health monitor whether the worker holding *this* point has gone
    heartbeat-silent — raising :class:`_Stalled` if so, which the
    caller treats as a retryable failure distinct from a timeout.
    Stall detection needs a start beat, so it covers started points;
    a point queued behind a hung sibling is bounded by ``timeout``.
    """
    if fleet is None:
        return fut.result(timeout=timeout)
    deadline = time.time() + timeout if timeout is not None else None
    while True:
        try:
            return fut.result(timeout=POLL_S)
        except _FutureTimeout:
            fleet.drain.pump()
            fleet.write_status()
            now = time.time()
            stall = fleet.health.stalled_worker(task.key, (now - fleet.t0) * 1000.0)
            if stall is not None:
                record, age_s = stall
                raise _Stalled(
                    f"stalled: no heartbeat for {age_s:.1f}s "
                    f"(worker w{record.worker}, pid {record.pid})",
                    worker=record.worker,
                ) from None
            if deadline is not None and now >= deadline:
                raise


def _run_pool(
    todo, complete, skip, emitter: _PointEmitter,
    *, jobs, timeout, retries, backoff, warm, fleet: _Fleet | None = None,
) -> None:
    pending: list[tuple[Task, int]] = [(task, 1) for task in todo]
    round_index = 0
    while pending:
        failures: list[tuple[Task, int, str]] = []
        dirty = False  # a timed-out or crashed worker may still be running
        if fleet is not None:
            # Forget last round's point attribution: a stale "running"
            # record from a dead pool must not stall a retried point.
            fleet.health.begin_round()
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=_init_worker,
            initargs=(warm, fleet.obs_spec) if fleet is not None else (warm,),
        )
        try:
            futures = [
                (task, attempt, pool.submit(_execute_task, task))
                for task, attempt in pending
            ]
            for task, attempt, fut in futures:
                try:
                    raw, start_ts, end_ts, pid = _await_result(
                        fut, task, timeout, fleet
                    )
                except _FutureTimeout:
                    fut.cancel()
                    dirty = True
                    failures.append(
                        (task, attempt, f"timed out after {timeout:.1f}s")
                    )
                except _Stalled as exc:
                    fut.cancel()
                    dirty = True
                    emitter.emit(task, "stalled", attempt=attempt, worker=exc.worker)
                    failures.append((task, attempt, str(exc)))
                except BrokenProcessPool:
                    # The worker died (or a sibling's death broke the
                    # pool).  The attempt is charged to every affected
                    # point; innocents complete on the next round while
                    # a genuinely poisoned point exhausts its retries.
                    dirty = True
                    if fleet is not None:
                        fleet.drain.pump()  # the victim's last heartbeats
                    if fleet is not None and fleet.health.started(task.key):
                        # A worker sent the start beat for this point and
                        # then the pool broke: the death is attributable,
                        # i.e. a stall, not an anonymous casualty.
                        emitter.emit(task, "stalled", attempt=attempt)
                        failures.append(
                            (task, attempt, "stalled: worker process died mid-point")
                        )
                    else:
                        failures.append((task, attempt, "worker process died"))
                except Exception as exc:  # noqa: BLE001 - worker raised
                    failures.append(
                        (task, attempt, f"{exc.__class__.__name__}: {exc}")
                    )
                else:
                    complete(task, attempt, raw, start_ts, end_ts, pid)
        finally:
            pool.shutdown(wait=not dirty, cancel_futures=True)
        if fleet is not None:
            fleet.drain.pump()
        pending = []
        for task, attempt, error in failures:
            if attempt <= retries:
                emitter.emit(task, "retry", attempt=attempt)
                pending.append((task, attempt + 1))
            else:
                skip(task, attempt, error)
        if pending:
            _backoff_sleep(backoff, round_index)
            round_index += 1


# ----------------------------------------------------------------------
# Sweep / replicate / figures front-ends
# ----------------------------------------------------------------------
@dataclass
class SweepRun:
    """Rows plus execution audit of one (possibly parallel) sweep."""

    rows: list[dict]
    reports: list[PointReport]
    checkpoint_path: str | None
    executed: int
    cached: int
    #: Where the live status document was written (monitored runs only).
    status_path: str | None = None
    #: Final metrics snapshot of a monitored run (see EngineRun.telemetry).
    telemetry: dict[str, Any] = field(default_factory=dict)

    @property
    def skipped(self) -> list[PointReport]:
        return [r for r in self.reports if r.status == "skipped"]


def point_label(kwargs: Mapping) -> str:
    """Compact human label of one grid point (axis order preserved)."""
    if not kwargs:
        return "default"
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


def parallel_sweep(
    mix_name: str,
    scale: BenchScale,
    axes: Mapping[str, Sequence],
    metrics: Mapping[str, Callable] | None = None,
    normalize_to: Mapping | None = None,
    *,
    jobs: int = 0,
    checkpoint: str | bool | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.25,
    strict: bool = False,
    bus: EventBus | None = None,
    monitor: MonitorConfig | bool | None = None,
    **fixed,
) -> SweepRun:
    """:func:`repro.harness.sweep.sweep` semantics over a process pool.

    Rows are byte-identical to the serial path for the points that
    completed; skipped points (after ``retries`` rounds) are omitted
    from ``rows`` and listed in ``SweepRun.skipped``.  Metric lambdas
    stay in this process: workers return the full
    :class:`~repro.core.pipeline.SimulationResult` and extraction +
    normalization happen at merge time, so any extractor works under
    any start method.
    """
    metrics = dict(metrics or sweep_mod.DEFAULT_METRICS)
    points = []  # (kwargs, merged, key) in grid order
    for kwargs in sweep_mod.grid_points(axes):
        merged = {**fixed, **kwargs}
        points.append((kwargs, merged, config_key(mix_name, scale, merged)))

    tasks: dict[str, Task] = {}

    def _add(key: str, label: str, merged: Mapping) -> None:
        if key not in tasks:
            tasks[key] = Task(
                index=len(tasks), key=key, label=label, kind="sim",
                payload=(mix_name, scale, tuple(sorted(merged.items()))),
            )

    base_key = None
    if normalize_to is not None:
        base_merged = {**fixed, **normalize_to}
        base_key = config_key(mix_name, scale, base_merged)
        _add(base_key, f"baseline[{point_label(dict(normalize_to))}]", base_merged)
    for kwargs, merged, key in points:
        _add(key, point_label(kwargs), merged)

    profiled_variants = sorted({bool(m.get("profiled", True)) for _, m, _ in points})
    run = execute_tasks(
        list(tasks.values()),
        reduce=lambda task, result: sweep_mod.extract_metrics(metrics, result),
        jobs=jobs,
        checkpoint=checkpoint,
        resume=resume,
        signature_doc={
            "kind": "sweep",
            "mix": mix_name,
            "scale": scale,
            "axes": axes,
            "fixed": fixed,
            "metrics": sorted(metrics),
            "normalize_to": normalize_to,
        },
        kind="sweep",
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        strict=strict,
        bus=bus,
        warm=tuple((mix_name, scale, p) for p in profiled_variants),
        monitor=monitor,
    )

    baseline_raw = None
    if base_key is not None:
        baseline_raw = run.values.get(base_key)
        if baseline_raw is None:
            # Degraded further: the baseline itself was skipped, so every
            # normalized value is NaN (normalize_value never warns on a
            # NaN denominator, so warn once here).
            import warnings

            warnings.warn(
                "sweep baseline point was skipped; all normalized values are NaN",
                RuntimeWarning,
                stacklevel=2,
            )
            baseline_raw = {name: float("nan") for name in metrics}
    rows = []
    for kwargs, _merged, key in points:
        raw = run.values.get(key)
        if raw is None:
            continue  # skipped point; reported via run.reports
        rows.append(
            sweep_mod.assemble_row(mix_name, kwargs, list(metrics), raw, baseline_raw)
        )
    return SweepRun(
        rows=rows,
        reports=run.reports,
        checkpoint_path=run.checkpoint_path,
        executed=run.executed,
        cached=run.cached,
        status_path=run.status_path,
        telemetry=run.telemetry,
    )


def parallel_replicate(
    mix_name: str,
    scale: BenchScale,
    seeds: Sequence[int],
    metrics: Mapping[str, Callable] | None = None,
    *,
    jobs: int = 0,
    checkpoint: str | bool | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.25,
    strict: bool = True,
    bus: EventBus | None = None,
    monitor: MonitorConfig | bool | None = None,
    **run_kwargs,
) -> dict[str, "replication_mod.Replicated"]:
    """:func:`repro.harness.replication.replicate` over a process pool.

    ``strict`` defaults to True here: a silently missing seed would
    bias the mean/stddev aggregates, which is worse than failing.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    metrics = dict(metrics or replication_mod.DEFAULT_METRICS)
    seeded_scales = [dataclasses.replace(scale, seed=seed) for seed in seeds]
    tasks = []
    keys = []
    for i, seeded in enumerate(seeded_scales):
        key = config_key(mix_name, seeded, run_kwargs)
        keys.append(key)
        tasks.append(
            Task(
                index=i, key=key, label=f"seed={seeded.seed}", kind="sim",
                payload=(mix_name, seeded, tuple(sorted(run_kwargs.items()))),
            )
        )
    run = execute_tasks(
        tasks,
        reduce=lambda task, result: sweep_mod.extract_metrics(metrics, result),
        jobs=jobs,
        checkpoint=checkpoint,
        resume=resume,
        signature_doc={
            "kind": "replicate",
            "mix": mix_name,
            "scale": scale,
            "seeds": list(seeds),
            "metrics": sorted(metrics),
            "kwargs": run_kwargs,
        },
        kind="replicate",
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        strict=strict,
        bus=bus,
        warm=tuple(
            (mix_name, seeded, bool(run_kwargs.get("profiled", True)))
            for seeded in seeded_scales
        ),
        monitor=monitor,
    )
    samples: dict[str, list[float]] = {name: [] for name in metrics}
    for key in keys:
        raw = run.values.get(key)
        if raw is None:
            continue  # skipped seed (strict=False); aggregates shrink
        for name in metrics:
            samples[name].append(raw[name])
    return {
        name: replication_mod.Replicated(metric=name, values=tuple(vals))
        for name, vals in samples.items()
    }


@dataclass
class FiguresRun:
    """Per-figure row payloads plus execution audit."""

    results: dict[str, list[dict]]
    reports: list[PointReport]
    checkpoint_path: str | None
    executed: int
    cached: int

    @property
    def skipped(self) -> list[PointReport]:
        return [r for r in self.reports if r.status == "skipped"]


def parallel_figures(
    names: Sequence[str],
    scale: BenchScale,
    *,
    jobs: int = 0,
    checkpoint: str | bool | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.25,
    strict: bool = False,
    bus: EventBus | None = None,
    monitor: MonitorConfig | bool | None = None,
) -> FiguresRun:
    """Run whole figure/table suites as pool tasks (one task per figure).

    Figures parallelize coarsely — each suite runs its own serial
    ``run_sim`` grid inside one worker — which is the right granularity
    for ``REPRO_FULL`` trajectories where several figures are wanted at
    once.
    """
    from repro.harness.experiments import SUITES

    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise KeyError(f"unknown figure suite(s) {unknown}; known: {sorted(SUITES)}")
    if not names:
        raise ValueError("at least one figure suite is required")
    tasks = []
    keys = []
    for i, name in enumerate(names):
        key = json.dumps(
            {"kind": "figure", "name": name, "scale": _canon(scale)},
            sort_keys=True,
            separators=(",", ":"),
        )
        keys.append(key)
        tasks.append(
            Task(index=i, key=key, label=name, kind="figure", payload=(name, scale))
        )
    run = execute_tasks(
        tasks,
        reduce=lambda task, rows: rows,
        jobs=jobs,
        checkpoint=checkpoint,
        resume=resume,
        signature_doc={"kind": "figures", "names": list(names), "scale": scale},
        kind="figures",
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        strict=strict,
        bus=bus,
        warm=(),
        monitor=monitor,
    )
    results = {
        name: run.values[key]
        for name, key in zip(names, keys)
        if key in run.values
    }
    return FiguresRun(
        results=results,
        reports=run.reports,
        checkpoint_path=run.checkpoint_path,
        executed=run.executed,
        cached=run.cached,
    )


__all__ = [
    "BACKOFF_CAP_S",
    "CHECKPOINT_VERSION",
    "CheckpointShard",
    "EngineRun",
    "FiguresRun",
    "MonitorConfig",
    "POINT_METRIC_FIELDS",
    "PointReport",
    "SweepRun",
    "Task",
    "config_key",
    "default_checkpoint_path",
    "execute_tasks",
    "parallel_figures",
    "parallel_replicate",
    "parallel_sweep",
    "point_label",
    "signature_of",
]
