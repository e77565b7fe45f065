"""``repro avf`` — report / run / compare.

``report``   simulate one mix with the reliability observer attached
             and print (or save) the per-run vulnerability report:
             per-interval AVF, per-thread shares, residency histograms
             and the per-entry IQ heatmaps; optionally export a Chrome
             trace with AVF counter tracks
``run``      compute the headline reliability numbers (baseline IQ AVF,
             VISA+DVM reduction) and append a provenance-stamped entry
             to ``BENCH_reliability.json``
``compare``  recompute the headline numbers and gate them against the
             committed history's tolerance band; exit 1 on drift

Examples::

    python -m repro avf report --mix MEM-A --dvm 0.5
    python -m repro avf report --json -o avf-report.json --trace-out avf.json
    python -m repro avf run
    python -m repro avf compare --tolerance 0.05
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from typing import Any

from repro.harness.runner import BenchScale
from repro.perf.history import append_entry, read_results, run_gate
from repro.reliability import gate
from repro.workloads import MIXES


def _scale(args: argparse.Namespace) -> BenchScale:
    scale = BenchScale.from_env()
    if getattr(args, "cycles", None):
        scale = dataclasses.replace(
            scale,
            max_cycles=args.cycles,
            warmup_cycles=min(scale.warmup_cycles, args.cycles // 5),
        )
    return scale


def cmd_avf_report(args: argparse.Namespace) -> int:
    # Imported lazily: report pulls in the full simulation stack.
    from repro.harness.runner import run_observed, run_sim

    scale = _scale(args)
    dvm_target = None
    if args.dvm is not None:
        base = run_sim(args.mix, scale, fetch_policy=args.fetch_policy)
        dvm_target = args.dvm * base.max_online_estimate
    result, observer, recorder = run_observed(
        args.mix,
        scale,
        fetch_policy=args.fetch_policy,
        scheduler=args.scheduler,
        dispatch=args.dispatch,
        dvm_target=dvm_target,
        record=bool(args.trace_out),
    )
    report = observer.report(result.cycles)
    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.format()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"vulnerability report saved to {args.out}")
    else:
        print(text)
    if args.trace_out:
        from repro.perf.chrome_trace import write_chrome_trace

        assert recorder is not None  # record=True above
        n = write_chrome_trace(
            args.trace_out,
            recorded=recorder.events,
            manifest=result.manifest,
            extra={"mix": args.mix, "cycles": result.cycles, "tool": "repro avf"},
        )
        print(f"wrote {n} trace events (AVF counter tracks) to {args.trace_out}")
    return 0


def _save_results_json(path: str, results: dict[str, float]) -> None:
    with open(path, "w") as fh:
        json.dump({"results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"results saved to {path}")


def cmd_avf_run(args: argparse.Namespace) -> int:
    scale = _scale(args)
    results = gate.headline_numbers(scale, mix=args.mix)
    for name in sorted(results):
        print(f"  {name:<18s} {results[name]:9.5f}")
    if args.out:
        _save_results_json(args.out, results)
    if not args.no_history:
        entry = append_entry(
            args.history,
            results,
            kind=gate.KIND_RELIABILITY,
            context={
                "mix": args.mix,
                "max_cycles": scale.max_cycles,
                "seed": scale.seed,
            },
        )
        print(
            f"appended {entry['kind']} entry ({len(entry['results'])} numbers) "
            f"to {args.history}"
        )
    return 0


def cmd_avf_compare(args: argparse.Namespace) -> int:
    def current() -> dict[str, Any]:
        if args.results:
            return read_results(args.results)
        results = gate.headline_numbers(_scale(args), mix=args.mix)
        if args.out:
            _save_results_json(args.out, results)
        return results

    return run_gate(
        args.history,
        current,
        kind=gate.KIND_RELIABILITY,
        tolerance=args.tolerance,
        window=args.window,
    )


def register_avf_cli(sub: argparse._SubParsersAction) -> None:
    """Attach the ``avf`` command tree to the top-level subparsers."""
    p_avf = sub.add_parser(
        "avf", help="reliability observability: vulnerability report, drift gate"
    )
    avf_sub = p_avf.add_subparsers(dest="avf_command", required=True)

    p_rep = avf_sub.add_parser(
        "report", help="per-run vulnerability report (heatmaps, AVF series)"
    )
    p_rep.add_argument("--mix", default=gate.HEADLINE_MIX, choices=sorted(MIXES))
    p_rep.add_argument("--fetch-policy", default="icount",
                       choices=["icount", "stall", "flush", "dg", "pdg", "rr"])
    p_rep.add_argument("--scheduler", default="oldest", choices=["oldest", "visa"])
    p_rep.add_argument("--dispatch", default=None,
                       choices=["opt1", "opt1-linear", "opt2"])
    p_rep.add_argument("--dvm", type=float, default=None, metavar="FRAC",
                       help="enable DVM targeting FRAC * baseline MaxAVF")
    p_rep.add_argument("--cycles", type=int, default=None,
                       help="override the cycle budget")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of the text rendering")
    p_rep.add_argument("-o", "--out", metavar="PATH", default=None,
                       help="write the report to a file instead of stdout")
    p_rep.add_argument("--trace-out", metavar="PATH", default=None,
                       help="also export a Chrome trace with AVF counter tracks")
    p_rep.set_defaults(func=cmd_avf_report)

    p_run = avf_sub.add_parser(
        "run", help="append headline numbers to BENCH_reliability.json"
    )
    p_cmp = avf_sub.add_parser(
        "compare", help="gate headline numbers against the committed history"
    )
    for p in (p_run, p_cmp):
        p.add_argument("--mix", default=gate.HEADLINE_MIX, choices=sorted(MIXES))
        p.add_argument("--cycles", type=int, default=None,
                       help="override the cycle budget")
        p.add_argument("--history", default=gate.DEFAULT_RELIABILITY_HISTORY,
                       metavar="PATH",
                       help="history file (default BENCH_reliability.json)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="also save this run's numbers as JSON")
    p_run.add_argument("--no-history", action="store_true",
                       help="compute and print only; do not append an entry")
    p_run.set_defaults(func=cmd_avf_run)

    p_cmp.add_argument("--tolerance", type=float, default=0.05,
                       help="allowed two-sided relative drift (default 0.05)")
    p_cmp.add_argument("--window", type=int, default=5,
                       help="history entries forming the baseline (default 5)")
    p_cmp.add_argument("--results", metavar="PATH", default=None,
                       help="compare a saved results JSON instead of re-running")
    p_cmp.set_defaults(func=cmd_avf_compare)
