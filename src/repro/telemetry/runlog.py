"""Run-scoped structured logging: JSONL with correlation ids.

Every sweep/figure run gets one logical log stream under the
``repro.run`` logger.  Records are emitted as single-line JSON objects
carrying the run's correlation ids (``run_id`` — the truncated task
signature — and ``config_hash``), so a line from a pool worker, the
engine, and the CLI all join on the same keys, and a log aggregator
can follow one run across processes.

Workers append to the same JSONL file as the parent (``mode="a"``;
one-line records stay below the pipe/file atomicity threshold in
practice, and each line is self-describing, so interleaving is
harmless).  The pool initializer calls :func:`setup_run_logging` with
the path and ids it received through initargs.

Use :func:`get_run_logger` from engine code: it returns the shared
logger with a ``NullHandler`` attached, so logging is free when no run
configured it.

Timestamps are wall-clock observability, never simulated results.
"""

from __future__ import annotations

import json
import logging
from typing import Any, TextIO

#: The shared logger name; children (``repro.run.engine`` etc.) inherit.
RUN_LOGGER_NAME = "repro.run"

#: LogRecord attributes that are plumbing, not user payload.
_RECORD_FIELDS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonlFormatter(logging.Formatter):
    """One JSON object per line, with run correlation ids.

    Any ``extra={...}`` keys on a record are merged into the object, so
    call sites attach structure (``point=...``, ``worker=...``) instead
    of interpolating it into the message.
    """

    def __init__(self, run_id: str, config_hash: str) -> None:
        super().__init__()
        self.run_id = run_id
        self.config_hash = config_hash

    def format(self, record: logging.LogRecord) -> str:
        doc: dict[str, Any] = {
            "ts": round(record.created, 3),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
            "run_id": self.run_id,
            "config_hash": self.config_hash,
        }
        for key, value in record.__dict__.items():
            if key not in _RECORD_FIELDS and not key.startswith("_"):
                doc[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, default=str, sort_keys=True)


def get_run_logger(child: str = "") -> logging.Logger:
    """The run logger (or a child of it), safe to use unconfigured."""
    logger = logging.getLogger(RUN_LOGGER_NAME)
    if not any(isinstance(h, logging.NullHandler) for h in logger.handlers):
        logger.addHandler(logging.NullHandler())
    return logger.getChild(child) if child else logger


def setup_run_logging(
    run_id: str,
    config_hash: str,
    *,
    path: str | None = None,
    stream: TextIO | None = None,
    level: int = logging.INFO,
) -> logging.Logger:
    """(Re)configure the shared run logger for one run.

    ``path`` appends JSONL records to a file (what ``--log`` wires up,
    in both the parent and every pool worker); ``stream`` mirrors them
    to an open text stream.  Previous run handlers are replaced, so
    back-to-back runs in one process do not double-log.
    """
    logger = logging.getLogger(RUN_LOGGER_NAME)
    teardown_run_logging()
    logger.setLevel(level)
    logger.propagate = False
    formatter = JsonlFormatter(run_id, config_hash)
    if path is not None:
        file_handler = logging.FileHandler(path, mode="a", delay=True)
        file_handler.setFormatter(formatter)
        logger.addHandler(file_handler)
    if stream is not None:
        stream_handler = logging.StreamHandler(stream)
        stream_handler.setFormatter(formatter)
        logger.addHandler(stream_handler)
    if not logger.handlers:
        logger.addHandler(logging.NullHandler())
    return logger


def teardown_run_logging() -> None:
    """Detach (and close) every configured run-log handler."""
    logger = logging.getLogger(RUN_LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
        if not isinstance(handler, logging.NullHandler):
            handler.close()
