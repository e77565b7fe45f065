"""Committed result histories and the one band check that gates them.

``BENCH_perf.json`` (hot-path wall times) and ``BENCH_reliability.json``
(the paper's headline IQ numbers) share one layout: an append-only list
of provenance-stamped entries, each one suite run with its
:class:`~repro.telemetry.provenance.RunManifest`, so every number in a
history is attributable to the exact tree, config and host that
produced it.

Layout::

    {
      "schema": 1,
      "entries": [
        {
          "kind": "perf-suite",
          "created_utc": "...",
          "manifest": {...},                # RunManifest.to_dict()
          "context": {"repeats": 3, ...},   # caller-provided
          "results": {"pipeline_cycle_loop": {"best_s": 0.8, "repeats": 3}, ...}
        },
        ...
      ]
    }

:func:`compare` gates current results against the recent window of one
kind's entries.  What differs between the kinds lives in one table,
:data:`BAND_RULES`:

``perf-suite``
    reads ``best_s``; only finite positive seconds count; the baseline
    is the **minimum** of the window (the min-of-N philosophy of the
    measurement itself); a case fails only above the band,
    ``current > baseline * (1 + tolerance)``, and below it is an
    ``improvement``.
``reliability-suite``
    reads ``value``; any finite number counts; the baseline is the
    **median** of the window (the recent consensus); a case fails on
    drift in either direction,
    ``|current - baseline| > tolerance * max(|baseline|, DRIFT_FLOOR)``,
    since an unexplained better AVF is as suspicious as a worse one.

For both kinds a case with no usable baseline (empty history, a newly
added case, only unusable historical values) is ``new`` and never fails
the gate, and an unusable *current* value is ``invalid`` and always
fails it.  Entries of any other kind (such as retired ones still in a
committed file) are never read.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.telemetry.provenance import RunManifest, collect_manifest

#: History layout version; bump when entry fields change meaning.
HISTORY_SCHEMA = 1

#: Default location, committed at the repository root.
DEFAULT_HISTORY_PATH = "BENCH_perf.json"

#: Entries kept per file — bounds the committed file as history grows.
MAX_ENTRIES = 50

#: Entry kind written by ``repro perf run``.
KIND_PERF_SUITE = "perf-suite"

#: Entry kind written by ``repro avf run``.
KIND_RELIABILITY = "reliability-suite"

#: Relative-band denominator floor — keeps near-zero baselines from
#: turning the two-sided band into an equality test.
DRIFT_FLOOR = 1e-9

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_DRIFT = "drift"
STATUS_NEW = "new"
STATUS_INVALID = "invalid"


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class BandRule:
    """How one entry kind is read, summarised and judged."""

    #: Result key holding the number (bare numbers are wrapped in it).
    field: str
    #: Which numbers count, in the history and as the current value.
    usable: Callable[[float], bool]
    #: Window statistic forming the baseline.
    statistic: Callable[[list[float]], float]
    #: Drift in either direction fails (else only above the band).
    two_sided: bool
    #: Renders one value in the report.
    show: Callable[[float], str]


BAND_RULES: dict[str, BandRule] = {
    KIND_PERF_SUITE: BandRule(
        field="best_s",
        usable=_positive,
        statistic=min,
        two_sided=False,
        show=lambda v: f"{v * 1e3:10.2f} ms",
    ),
    KIND_RELIABILITY: BandRule(
        field="value",
        usable=math.isfinite,
        statistic=statistics.median,
        two_sided=True,
        show=lambda v: f"{v:9.5f}",
    ),
}


def _rule(kind: str) -> BandRule:
    try:
        return BAND_RULES[kind]
    except KeyError:
        raise ValueError(f"no band rule for history kind {kind!r}") from None


def empty_history() -> dict[str, Any]:
    return {"schema": HISTORY_SCHEMA, "entries": []}


def load_history(path: str) -> dict[str, Any]:
    """Load a history file; a missing file is an empty history.

    A present-but-malformed file raises ``ValueError`` — silently
    restarting the trajectory would hide exactly the regression the
    file exists to catch.
    """
    if not os.path.exists(path):
        return empty_history()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path}: not a BENCH_perf history document")
    doc.setdefault("schema", HISTORY_SCHEMA)
    return doc


def entries_of_kind(history: Mapping[str, Any], kind: str = KIND_PERF_SUITE) -> list[dict[str, Any]]:
    """The history's entries of one kind, oldest first."""
    return [
        e
        for e in history.get("entries", ())
        if isinstance(e, Mapping) and e.get("kind") == kind
    ]


def _result_dict(value: Any, field: str) -> dict[str, Any]:
    if hasattr(value, "to_dict"):
        return dict(value.to_dict())
    if isinstance(value, Mapping):
        return dict(value)
    return {field: float(value)}


def make_entry(
    results: Mapping[str, Any],
    *,
    kind: str = KIND_PERF_SUITE,
    manifest: RunManifest | None = None,
    context: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build one history entry from suite results.

    ``results`` values may be :class:`~repro.perf.bench.BenchResult`
    objects, mappings, or bare numbers, which are wrapped under the
    kind's field (``{"best_s": v}`` or ``{"value": v}``).
    """
    field = _rule(kind).field
    if manifest is None:
        manifest = collect_manifest(extra={"bench_kind": kind})
    return {
        "kind": kind,
        "created_utc": manifest.created_utc,
        "manifest": manifest.to_dict(),
        "context": dict(context or {}),
        "results": {
            name: _result_dict(v, field) for name, v in sorted(results.items())
        },
    }


def append_entry(
    path: str,
    results: Mapping[str, Any],
    *,
    kind: str = KIND_PERF_SUITE,
    manifest: RunManifest | None = None,
    context: Mapping[str, Any] | None = None,
    max_entries: int = MAX_ENTRIES,
) -> dict[str, Any]:
    """Append one entry to ``path`` (rewriting the whole document).

    The file is created when absent; the entry list is trimmed to the
    newest ``max_entries``.  Returns the appended entry.
    """
    history = load_history(path)
    entry = make_entry(results, kind=kind, manifest=manifest, context=context)
    entries = list(history.get("entries", []))
    entries.append(entry)
    if max_entries > 0:
        entries = entries[-max_entries:]
    history["entries"] = entries
    history["schema"] = HISTORY_SCHEMA
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


# ----------------------------------------------------------------------
# Band check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BandCase:
    """One result's verdict against its history baseline."""

    name: str
    status: str
    current: float
    baseline: float | None = None


@dataclass(frozen=True)
class BandReport:
    """One kind's whole-suite gate outcome."""

    kind: str
    cases: tuple[BandCase, ...]
    tolerance: float
    window: int

    @property
    def failed(self) -> tuple[BandCase, ...]:
        """Cases that fail the gate: out of band on a failing side, or invalid."""
        failing = (STATUS_REGRESSION, STATUS_DRIFT, STATUS_INVALID)
        return tuple(c for c in self.cases if c.status in failing)

    @property
    def ok(self) -> bool:
        """True when the gate passes."""
        return not self.failed

    def format(self) -> str:
        rule = _rule(self.kind)
        lines = [
            f"{self.kind} gate (band ±{self.tolerance * 100:.1f}%, baseline = "
            f"{rule.statistic.__name__} of last {self.window} entries)"
        ]
        width = max((len(c.name) for c in self.cases), default=4)
        for c in self.cases:
            cur = rule.show(c.current)
            if c.baseline is None:
                base, delta = "-".rjust(len(cur)), "      -"
            else:
                base = rule.show(c.baseline)
                d = (c.current - c.baseline) / max(abs(c.baseline), DRIFT_FLOOR)
                delta = f"{d * 100:+6.2f}%"
            lines.append(f"  {c.name:<{width}s}  {cur}  vs {base}  {delta}  [{c.status}]")
        out_of_band = STATUS_DRIFT if rule.two_sided else STATUS_REGRESSION
        tally = ", ".join(
            f"{sum(1 for c in self.cases if c.status == s)} {s}"
            for s in (out_of_band, STATUS_INVALID, STATUS_NEW)
        )
        lines.append(f"{'PASS' if self.ok else 'FAIL'}: {tally}")
        return "\n".join(lines)


def _number(value: Any, field: str) -> float:
    """A current result as a float: an object attribute, a mapping
    entry or a bare number; NaN when there is none."""
    if hasattr(value, field):
        value = getattr(value, field)
    elif isinstance(value, Mapping):
        value = value.get(field, math.nan)
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def baseline(
    history: Mapping[str, Any],
    name: str,
    *,
    window: int = 5,
    kind: str = KIND_PERF_SUITE,
) -> float | None:
    """The kind's window statistic of ``name`` over its last ``window``
    entries, or None when no usable value exists.

    Entries missing the case, and values the kind does not count, are
    skipped.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rule = _rule(kind)
    values: list[float] = []
    for entry in entries_of_kind(history, kind)[-window:]:
        result = entry.get("results", {}).get(name)
        value = result.get(rule.field) if isinstance(result, Mapping) else result
        if isinstance(value, (int, float)) and rule.usable(value):
            values.append(float(value))
    return rule.statistic(values) if values else None


def compare(
    history: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerance: float = 0.25,
    window: int = 5,
    kind: str = KIND_PERF_SUITE,
) -> BandReport:
    """Judge every ``current`` result against its history baseline."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    rule = _rule(kind)
    cases: list[BandCase] = []
    for name in sorted(current):
        cur = _number(current[name], rule.field)
        base = baseline(history, name, window=window, kind=kind)
        if not rule.usable(cur):
            status = STATUS_INVALID
        elif base is None:
            status = STATUS_NEW
        elif rule.two_sided:
            drifted = abs(cur - base) > tolerance * max(abs(base), DRIFT_FLOOR)
            status = STATUS_DRIFT if drifted else STATUS_OK
        elif cur > base * (1 + tolerance):
            status = STATUS_REGRESSION
        elif cur < base * (1 - tolerance):
            status = STATUS_IMPROVEMENT
        else:
            status = STATUS_OK
        cases.append(BandCase(name, status, cur, base))
    return BandReport(kind, tuple(cases), tolerance, window)


def read_results(path: str) -> dict[str, Any]:
    """A saved results JSON (``{"results": {...}}`` or the bare mapping)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("results", doc)


def run_gate(
    history_path: str,
    current: Callable[[], Mapping[str, Any]],
    *,
    kind: str,
    tolerance: float,
    window: int,
) -> int:
    """The ``compare`` command body shared by ``repro perf`` and
    ``repro avf``: load the history, obtain the current results, judge
    and print them.

    ``current`` is called only once the history has loaded, so a
    malformed file fails before any measurement.  Returns the exit
    code: 0 pass, 1 fail, 2 unreadable history.
    """
    try:
        history = load_history(history_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(
        history, current(), tolerance=tolerance, window=window, kind=kind
    )
    print(report.format())
    return 0 if report.ok else 1
