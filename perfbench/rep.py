"""One cold repetition of a benchmark workload.

``run.py`` starts this script in a fresh process with a fresh working
directory, HOME and temp dir, so no in-process memo and nothing written
to disk by an earlier repetition can reach this one.  The script sets
the workload up (imports, program generation, ACE profiling), makes the
one timed call into the public API, checks every point's simulated
statistics and writes a JSON result to ``--out``.

With ``--trace`` the per-layer wrappers of ``layers.py`` are installed
before anything else runs, and the result also holds the per-layer
metrics.  A phase or layer the predictions rely on that was never
observed exits with code 3 and names it.
"""
# The spawn stamp is read before any import so that set-up time runs
# from process start.
import os
import time

SPAWN_NS = int(os.environ.get("PERFBENCH_SPAWN_NS", time.monotonic_ns()))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from layers import MissingPhase, Tracer, phase_times, require_phases  # noqa: E402
from workloads import WORKLOADS, label  # noqa: E402

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
STAGES = ("commit", "writeback", "issue", "dispatch", "fetch", "tick")


def stat_extractors(n_threads: int, n_intervals: int) -> dict:
    """Name -> extractor of every pinned ``SimulationResult`` statistic.

    Extractors return numbers so they also serve as sweep metrics; a
    missing thread or interval reads -1.
    """
    from repro.reliability.avf import Structure

    def at(seq, i):
        return seq[i] if i < len(seq) else -1

    ex = {"cycles": lambda r: r.cycles, "committed": lambda r: r.committed}
    for t in range(n_threads):
        ex[f"committed.t{t}"] = lambda r, t=t: at(r.per_thread_committed, t)
    for name, struct, series in (
        ("iq", Structure.IQ, "iq_interval_avf"),
        ("rob", Structure.ROB, "rob_interval_avf"),
    ):
        ex[f"avf.{name}"] = lambda r, s=struct: r.overall_avf[s]
        ex[f"avf.{name}.intervals"] = lambda r, a=series: len(getattr(r, a))
        for k in range(n_intervals):
            ex[f"avf.{name}.i{k}"] = lambda r, a=series, k=k: at(getattr(r, a), k)
    ex["l2_misses"] = lambda r: r.l2_misses
    ex["squashed"] = lambda r: r.squashed
    ex["flushes"] = lambda r: r.flushes
    return ex


def check_point(stats: dict, pinned: dict | None, budget: int) -> str | None:
    """Why a point's statistics are wrong, or None.  The invariants hold
    for every seed; a pinned seed must also match exactly."""
    n_threads = sum(1 for k in stats if k.startswith("committed.t"))
    if stats["cycles"] != budget:
        return f"cycles {stats['cycles']:g} != budget {budget}"
    if stats["committed"] != sum(stats[f"committed.t{t}"] for t in range(n_threads)):
        return "committed != sum of per-thread committed"
    bad = [k for k, v in stats.items() if k.startswith("avf.") and
           not k.endswith(".intervals") and not 0.0 <= v <= 1.0]
    if bad:
        return f"AVF outside [0, 1]: {', '.join(bad)}"
    if pinned is not None and stats != pinned:
        diff = sorted(k for k in stats.keys() | pinned.keys()
                      if stats.get(k) != pinned.get(k))
        return "differs from pinned statistics: " + ", ".join(
            f"{k}={stats.get(k)!r} (pinned {pinned.get(k)!r})" for k in diff[:6]
        )
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    workdir = os.getcwd()

    tracer = None
    if args.trace:
        tracer = Tracer(workdir)
        tracer.install()

    if wl.is_sweep:
        from repro.harness.parallel import parallel_sweep
    from repro.harness.runner import BenchScale, get_programs, run_sim
    from repro.workloads import get_mix

    scale = BenchScale(**wl.scale_kwargs(args.seed))
    get_programs(wl.mix, scale)
    extractors = stat_extractors(
        len(get_mix(wl.mix).benchmarks), scale.max_cycles // scale.interval_cycles
    )
    jobs = min(2, len(os.sched_getaffinity(0)))

    t_call = time.monotonic_ns()
    t_call_wall = time.time()
    if wl.is_sweep:
        sweep = parallel_sweep(
            wl.mix, scale, wl.axes, metrics=extractors, jobs=jobs,
            checkpoint=os.path.join(workdir, "sweep.jsonl"),
        )
    else:
        result = run_sim(wl.mix, scale)
    wall_s = (time.monotonic_ns() - t_call) / 1e9
    setup_s = (t_call - SPAWN_NS) / 1e9
    rss_mb = peak_rss_mb()

    # Per-point statistics and failures.
    labels = [label(kw) for kw in wl.points()]
    if wl.is_sweep:
        names = list(extractors)
        stats = {
            label({k: row[k] for k in wl.axes}): {n: row[n] for n in names}
            for row in sweep.rows
        }
        reports = {r.label: r for r in sweep.reports}
    else:
        stats = {labels[0]: {n: float(f(result)) for n, f in extractors.items()}}
        reports = {}
    with open(PINS) as fh:
        pins = json.load(fh).get(f"{wl.name} {args.seed}")
    points = []
    for lab in labels:
        report = reports.get(lab)
        if lab not in stats:
            error = f"missing ({report.status}: {report.error})" if report else "missing"
        elif report is not None and report.attempts > 1:
            error = f"retried ({report.attempts} attempts)"
        else:
            error = check_point(
                stats[lab], pins.get(lab) if pins else None, scale.max_cycles
            )
        points.append({"label": lab, "error": error})

    out = {
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "committed": sum(s["committed"] for s in stats.values()),
        "peak_rss_mb": rss_mb,
        "pinned": pins is not None,
        "points": points,
        "stats": stats,
    }
    if tracer is not None:
        try:
            out["layers"] = layer_metrics(
                tracer, wl, scale, extractors, stats, points,
                sweep if wl.is_sweep else None, t_call_wall, wall_s, jobs,
            )
        except MissingPhase as exc:
            print(f"perfbench: traced run of {wl.name}: {exc}", file=sys.stderr)
            return 3
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


# ----------------------------------------------------------------------
# Per-layer metrics of a traced repetition
# ----------------------------------------------------------------------
#: Metrics of which at least one must be non-zero for the layer to
#: count as observed, and where the layer must run: every workload
#: (None), the sweep, or the sweep when it runs over a pool.
LAYER_PREDICTIONS = (
    ("repro.isa / repro.reliability.profiling", ("prep.generate_s", "prep.profile_insts"), None),
    ("repro.core components", ("issue.ops", "iq.insert.calls", "iq.wakeup.calls"), None),
    ("repro.memory (warm-up)", ("mem.instr_accesses.warmup", "mem.data_accesses.warmup"), None),
    ("repro.memory (loop)", ("mem.instr_accesses.loop", "mem.data_accesses.loop"), None),
    ("repro.frontend (warm-up)", ("bp.predictions.warmup",), None),
    ("repro.frontend (loop)", ("bp.predictions.loop", "fetch.select.calls"), None),
    ("repro.reliability (ACE/AVF)", ("ace.commits", "avf.resolved"), None),
    ("repro.reliability (DVM)", ("dvm.samples", "dvm.allow_dispatch.calls"), "sweep"),
    ("repro.telemetry", ("bus.events", "relay.batches", "relay.heartbeats"), "pool"),
    ("repro.harness", ("harness.checkpoint_appends", "harness.point_compute_n"), "sweep"),
)


def _ratio(num: float, den: float, what: str) -> float:
    if den <= 0:
        raise MissingPhase(f"{what}: denominator never observed")
    return num / den


def layer_metrics(tracer, wl, scale, extractors, stats, points, sweep, t_call_wall,
                  wall_s, jobs):
    m: dict[str, float] = {}
    m["prep.generate_s"] = tracer.seconds["prep.generate_s"]
    m["prep.profile_s"] = tracer.seconds["prep.profile_s"]
    m["prep.profile_insts"] = tracer.counts["prep.profile_insts"]

    # Pipeline phases of every point of the timed call.
    if sweep is not None:
        records = tracer.point_records()
        if len(records) != len(wl.points()):
            raise MissingPhase(
                f"sweep point records: saw {len(records)} of {len(wl.points())} "
                "(pool workers must be forked from the traced process)"
            )
        runs = [require_phases(r) for rec in records for r in rec["runs"]]
    else:
        runs = [require_phases(phase_times(r)) for r in tracer.runs]
    if not runs:
        raise MissingPhase("phase boundary never observed: SMTPipeline.run entry")
    m["pipeline.runs"] = len(runs)
    for key, metric in (
        ("construct_s", "pipeline.construct_s"),
        ("warmup_s", "pipeline.warmup_s"),
        ("loop_s", "pipeline.cycle_loop_s"),
        ("epilogue_s", "pipeline.epilogue_s"),
    ):
        m[metric] = sum(r[key] for r in runs)
    m["pipeline.loop_cycles_per_s"] = _ratio(
        sum(r["cycles"] for r in runs), m["pipeline.cycle_loop_s"], "pipeline.cycle_loop_s"
    )
    m["pipeline.warmup_share"] = m["pipeline.warmup_s"] / (
        m["pipeline.warmup_s"] + m["pipeline.cycle_loop_s"] + m["pipeline.epilogue_s"]
    )

    if sweep is not None:
        m.update(harness_metrics(tracer, sweep, records, t_call_wall, wall_s, jobs))
        # Wrappers in pool workers do not report counts back, so the
        # core and reliability split comes from one sweep point re-run
        # here with every wrapper active.
        from repro.harness.runner import run_sim

        tracer.reset_counts()
        first = len(tracer.runs)
        result = run_sim(wl.mix, scale, **wl.traced_point, use_cache=False)
        again = {n: float(f(result)) for n, f in extractors.items()}
        lab = label(wl.traced_point)
        if stats.get(lab) != again:
            for p in points:
                if p["label"] == lab and p["error"] is None:
                    p["error"] = "traced re-run differs from the sweep point"
        split = tracer.runs[first]
    else:
        # A point workload calls run_sim directly: no pool, no relay,
        # no checkpoint.
        m.update(dict.fromkeys(SWEEP_ONLY, 0.0))
        split = tracer.runs[0]

    # Stage self times of the split run.
    prof = split["profiler"].report()
    if prof.cycles <= 0 or prof.wall_s <= 0 or sum(prof.seconds.values()) <= 0:
        raise MissingPhase(
            f"stage profile reports {prof.cycles} cycles in {prof.wall_s:.3f}s"
        )
    for stage in STAGES:
        m[f"stage.{stage}_s"] = prof.seconds[stage]
    split_loop_s = require_phases(phase_times(split))["loop_s"]
    m["trace.stage_coverage"] = sum(prof.seconds.values()) / split_loop_s

    c = tracer.counts
    cycles = c["issue.cycles"]
    m["issue.ops"] = c["issue.ops"]
    m["issue.slot_util"] = _ratio(
        c["issue.ops"], cycles * split["issue_width"], "FunctionalUnitPool.new_cycle"
    )
    m["issue.idle_cycle_share"] = (cycles - c["issue.busy_cycles"]) / cycles
    m["fu.refused_share"] = _ratio(
        c["fu.try_issue"] - c["issue.ops"], c["fu.try_issue"], "FunctionalUnitPool.try_issue"
    )
    for k in ("iq.insert.calls", "iq.wakeup.calls", "iq.squash.calls"):
        m[k] = c[k]
    m["core.squash_share"] = split["squashed"] / (split["committed"] + split["squashed"])
    for phase in ("warmup", "loop"):
        m[f"mem.instr_accesses.{phase}"] = c[f"mem.instr_accesses.{phase}"]
        m[f"mem.data_accesses.{phase}"] = c[f"mem.data_accesses.{phase}"]
        m[f"bp.predictions.{phase}"] = c[f"bp.predictions.{phase}"]
    m["mem.l1d_miss_rate"] = split["l1d_miss_rate"]
    m["mem.l2_misses"] = split["l2_misses"]
    m["bp.accuracy"] = split["bp_accuracy"]
    m["fetch.select.calls"] = c["fetch.select.calls"]
    m["ace.commits"] = c["ace.commits"]
    m["avf.resolved"] = c["avf.resolved"]
    m["dvm.samples"] = c["dvm.samples"]
    m["dvm.allow_dispatch.calls"] = c["dvm.allow_dispatch.calls"]
    calls = c["dvm.allow_dispatch.calls"]
    m["dvm.throttled_share"] = c["dvm.refused"] / calls if calls else 0.0
    m["dvm.mean_ratio"] = split["dvm_mean_ratio"]

    for layer, names, only in LAYER_PREDICTIONS:
        if only is not None and (sweep is None or (only == "pool" and jobs < 2)):
            continue
        if not any(m[n] for n in names):
            raise MissingPhase(
                f"layer {layer} predicted to run on {wl.name} but "
                f"{', '.join(names)} are all zero"
            )
    if m["relay.dropped"]:
        raise MissingPhase(f"relay dropped {m['relay.dropped']:g} telemetry events")
    return m


#: Metrics of the harness and telemetry layers, which only the sweep uses.
SWEEP_ONLY = (
    "bus.events",
    "relay.batches",
    "relay.heartbeats",
    "relay.dropped",
    "harness.pool_start_s",
    "harness.point_compute_s.p50",
    "harness.point_compute_s.max",
    "harness.point_compute_n",
    "harness.point_overhead_s",
    "harness.checkpoint_append_s",
    "harness.checkpoint_appends",
    "harness.worker_busy_share",
    "harness.retries",
    "harness.skipped",
)


def harness_metrics(tracer, sweep, records, t_call_wall, wall_s, jobs) -> dict:
    compute = [r.elapsed_ms / 1000.0 for r in sweep.reports if r.status == "done"]
    overhead = [
        tracer.appended_at[rec["key"]] - rec["end"]
        for rec in records if rec["key"] in tracer.appended_at
    ]
    if not compute or not overhead:
        raise MissingPhase("no sweep point completed through the checkpoint")
    tel = sweep.telemetry
    return {
        "harness.pool_start_s": min(rec["start"] for rec in records) - t_call_wall,
        "harness.point_compute_s.p50": statistics.median(compute),
        "harness.point_compute_s.max": max(compute),
        "harness.point_compute_n": len(compute),
        "harness.point_overhead_s": statistics.median(overhead),
        "harness.checkpoint_append_s": tracer.seconds["harness.checkpoint_append_s"],
        "harness.checkpoint_appends": tracer.counts["harness.checkpoint_appends"],
        "harness.worker_busy_share": sum(compute) / (jobs * wall_s),
        "harness.retries": sum(max(r.attempts - 1, 0) for r in sweep.reports),
        "harness.skipped": len(sweep.skipped),
        "bus.events": tel.get("relay.events", 0.0),
        "relay.batches": tel.get("relay.batches", 0.0),
        "relay.heartbeats": tel.get("relay.heartbeats", 0.0),
        "relay.dropped": tel.get("relay.dropped", 0.0),
    }


if __name__ == "__main__":
    sys.exit(main())
