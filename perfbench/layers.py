"""Outside-in tracing: wrap the public calls each layer already makes.

Nothing in ``repro`` is edited.  :meth:`Tracer.install` replaces public
methods and functions on their classes and modules with wrappers that
time and count the calls, then call the original.  The phase
boundaries of one ``SMTPipeline.run`` are three calls the run already
makes:

* ``SMTPipeline.run`` entry: functional warm-up begins;
* ``MemoryHierarchy.reset_stats``: warm-up ends, the cycle loop begins;
* ``ACEAnalyzer.flush``: the loop ends, the result epilogue begins.

Memory and branch-predictor calls are counted per phase.  Pool workers
forked after :meth:`install` inherit the wrappers; their counts stay in
the worker, but each worker appends one record per point (its phase
times and start/end wall-clock stamps) to a file in ``record_dir``,
which :meth:`point_records` folds back in the parent.

Wall-clock reads here time the program and never feed it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter


class Tracer:
    def __init__(self, record_dir: str):
        self.record_dir = record_dir
        self.parent_pid = os.getpid()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        #: One dict per completed ``SMTPipeline.run``.
        self.runs: list[dict] = []
        #: ``CheckpointShard.append`` wall-clock stamps by point key.
        self.appended_at: dict[str, float] = {}
        self._run: dict | None = None
        self._phase: str | None = None  # "warmup" | "loop" | "epilogue"
        self._issue_cycle = 0
        self._busy_cycle = -1
        self._construct_s = 0.0
        #: ``run_sim`` calls made through the sweep harness, in order.
        self.points: list[dict] = []

    def reset_counts(self) -> None:
        """Forget component counts; phase records of finished runs stay."""
        self.counts.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.functional_units import FunctionalUnitPool
        from repro.core.issue_queue import IssueQueue
        from repro.core.pipeline import SMTPipeline
        from repro.frontend.branch_predictor import BranchPredictor
        from repro.frontend.fetch_policy import FetchPolicy
        from repro.harness import parallel, runner
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.reliability import profiling
        from repro.reliability.ace import ACEAnalyzer
        from repro.reliability.avf import AVFAccount
        from repro.reliability.dvm import DVMController
        from repro.telemetry.profiler import StageProfiler
        from repro.workloads.mixes import WorkloadMix

        self._timed(WorkloadMix, "programs", "prep.generate_s")
        profile = self._profile_and_apply(profiling.profile_and_apply)
        profiling.profile_and_apply = profile
        runner.profile_and_apply = profile  # the name the runner calls

        self._pipeline_init(SMTPipeline, StageProfiler)
        self._pipeline_run(SMTPipeline)
        self._boundary(MemoryHierarchy, "reset_stats", "warmup", "loop", "t_loop")
        self._boundary(ACEAnalyzer, "flush", "loop", "epilogue", "t_epilogue")

        self._issue_wrappers(FunctionalUnitPool)
        self._counted(IssueQueue, "insert", "iq.insert.calls")
        self._counted(IssueQueue, "wakeup", "iq.wakeup.calls")
        self._counted(IssueQueue, "squash_thread", "iq.squash.calls")
        self._counted(MemoryHierarchy, "access_instr", "mem.instr_accesses", per_phase=True)
        self._counted(MemoryHierarchy, "access_data", "mem.data_accesses", per_phase=True)
        self._counted(BranchPredictor, "predict_direction", "bp.predictions", per_phase=True)
        self._counted(FetchPolicy, "select", "fetch.select.calls")
        self._counted(ACEAnalyzer, "commit", "ace.commits")
        self._counted(AVFAccount, "on_resolved", "avf.resolved")
        self._counted(DVMController, "on_sample", "dvm.samples")
        self._allow_dispatch(DVMController)

        self._checkpoint_append(parallel.CheckpointShard)
        parallel.run_sim = self._worker_point(parallel.run_sim, parallel.config_key)

    # ------------------------------------------------------------------
    def _timed(self, owner, name: str, metric: str) -> None:
        orig = getattr(owner, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.seconds[metric] += time.perf_counter() - t0

        setattr(owner, name, wrapper)

    def _counted(self, owner, name: str, metric: str, per_phase: bool = False) -> None:
        """Count calls made inside a pipeline run (per phase if asked)."""
        orig = getattr(owner, name)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            phase = self._phase
            if phase is not None:
                counts[f"{metric}.{phase}" if per_phase else metric] += 1
            return orig(*args, **kwargs)

        setattr(owner, name, wrapper)

    def _profile_and_apply(self, orig):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["prep.profile_insts"] += bound.arguments["n_instructions"]
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.seconds["prep.profile_s"] += time.perf_counter() - t0

        return wrapper

    def _pipeline_init(self, cls, profiler_cls) -> None:
        """Time construction and attach a ``StageProfiler`` to every
        pipeline built without one."""
        orig = cls.__init__

        @functools.wraps(orig)
        def wrapper(pipe, *args, **kwargs):
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = profiler_cls()
            t0 = time.perf_counter()
            orig(pipe, *args, **kwargs)
            self._construct_s = time.perf_counter() - t0

        cls.__init__ = wrapper

    def _pipeline_run(self, cls) -> None:
        orig = cls.run

        @functools.wraps(orig)
        def wrapper(pipe):
            if self._run is not None:  # a backend re-entering run()
                return orig(pipe)
            run = {
                "construct_s": self._construct_s,
                "issue_width": pipe.machine.issue_width,
                "profiler": pipe.profiler,
                "t_run": time.perf_counter(),
            }
            self._run, self._phase = run, "warmup"
            try:
                result = orig(pipe)
            finally:
                run["t_end"] = time.perf_counter()
                self._run, self._phase = None, None
            run["cycles"] = result.cycles
            run["committed"] = result.committed
            run["squashed"] = result.squashed
            run["l1d_miss_rate"] = result.l1d_miss_rate
            run["l2_misses"] = result.l2_misses
            run["bp_accuracy"] = result.bp_accuracy
            run["dvm_mean_ratio"] = result.dvm_mean_ratio or 0.0
            self.runs.append(run)
            return result

        cls.run = wrapper

    def _boundary(self, owner, name: str, before: str, after: str, stamp: str) -> None:
        """Mark a phase boundary the first time ``name`` is called in
        phase ``before`` of a run."""
        orig = getattr(owner, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            if self._phase == before:
                self._run[stamp] = time.perf_counter()
                self._phase = after
            return result

        setattr(owner, name, wrapper)

    def _issue_wrappers(self, cls) -> None:
        """Count issue attempts per ``new_cycle`` window: a loop cycle
        with no successful ``try_issue`` is an idle issue cycle."""
        new_cycle, try_issue = cls.new_cycle, cls.try_issue
        counts = self.counts

        @functools.wraps(new_cycle)
        def new_cycle_wrapper(pool):
            self._issue_cycle += 1
            counts["issue.cycles"] += 1
            return new_cycle(pool)

        @functools.wraps(try_issue)
        def try_issue_wrapper(pool, opclass):
            ok = try_issue(pool, opclass)
            counts["fu.try_issue"] += 1
            if ok:
                counts["issue.ops"] += 1
                if self._busy_cycle != self._issue_cycle:
                    self._busy_cycle = self._issue_cycle
                    counts["issue.busy_cycles"] += 1
            return ok

        cls.new_cycle = new_cycle_wrapper
        cls.try_issue = try_issue_wrapper

    def _allow_dispatch(self, cls) -> None:
        orig = cls.allow_dispatch
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(dvm, tid):
            ok = orig(dvm, tid)
            counts["dvm.allow_dispatch.calls"] += 1
            if not ok:
                counts["dvm.refused"] += 1
            return ok

        cls.allow_dispatch = wrapper

    def _checkpoint_append(self, cls) -> None:
        orig = cls.append

        @functools.wraps(orig)
        def wrapper(shard, record):
            self.appended_at[record["key"]] = time.time()
            t0 = time.perf_counter()
            try:
                return orig(shard, record)
            finally:
                self.seconds["harness.checkpoint_append_s"] += time.perf_counter() - t0
                self.counts["harness.checkpoint_appends"] += 1

        cls.append = wrapper

    def _worker_point(self, orig, config_key):
        """Wrap the ``run_sim`` a sweep point calls.  A pool worker also
        appends the point's record to its own file."""

        @functools.wraps(orig)
        def wrapper(mix_name, scale, **kwargs):
            first = len(self.runs)
            start = time.time()
            result = orig(mix_name, scale, **kwargs)
            end = time.time()
            record = {
                "key": config_key(mix_name, scale, kwargs),
                "start": start,
                "end": end,
                "runs": [phase_times(r) for r in self.runs[first:]],
            }
            self.points.append(record)
            if os.getpid() != self.parent_pid:
                path = os.path.join(self.record_dir, f"worker-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
            return result

        return wrapper

    def point_records(self) -> list[dict]:
        """Records of every sweep point, run here or in a pool worker."""
        records = list(self.points)
        for name in sorted(os.listdir(self.record_dir)):
            if name.startswith("worker-") and name.endswith(".jsonl"):
                with open(os.path.join(self.record_dir, name)) as fh:
                    records.extend(json.loads(line) for line in fh if line.strip())
        return records


class MissingPhase(RuntimeError):
    """A phase boundary or layer the predictions rely on was not seen."""


_BOUNDARIES = (
    ("t_loop", "warm-up end (MemoryHierarchy.reset_stats)"),
    ("t_epilogue", "epilogue start (ACEAnalyzer.flush)"),
)


def phase_times(run: dict) -> dict:
    """Phase durations of one run, JSON-safe.  A boundary the run never
    crossed is listed under ``missing`` instead of timed."""
    missing = [name for stamp, name in _BOUNDARIES if stamp not in run]
    if missing:
        return {"missing": missing}
    return {
        "construct_s": run["construct_s"],
        "warmup_s": run["t_loop"] - run["t_run"],
        "loop_s": run["t_epilogue"] - run["t_loop"],
        "epilogue_s": run["t_end"] - run["t_epilogue"],
        "cycles": run["cycles"],
    }


def require_phases(times: dict) -> dict:
    """``times`` from :func:`phase_times`, or :class:`MissingPhase`."""
    if "missing" in times:
        raise MissingPhase(
            "phase boundary never observed: " + "; ".join(times["missing"])
        )
    return times
