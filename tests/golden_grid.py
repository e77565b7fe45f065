"""Golden figure-grid results: the configurations, and the script that
regenerates their committed statistics.

One row per figure family: fig5 sweeps fetch policies, fig8 the VISA
scheduler, fig9/10 DVM; MEM-A is the memory-bound mix (long idle L2-miss
shadows), CPU-A the dense-issue one.  Two edge cases ride along: a run
with no timing warm-up, and a run collecting the Figure 2 ready-queue
histograms.

``tests/test_golden.py`` asserts that every case still produces exactly
the statistics in ``golden_figure_grid.json``; the test never rewrites
that file.  After a deliberate behaviour change, regenerate it with::

    PYTHONPATH=src python tests/golden_grid.py

and review the diff like any other change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.config import ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SimulationResult, SMTPipeline, WarmMemo
from repro.reliability.avf import Structure
from repro.reliability.dvm import DVMController
from repro.workloads import get_mix

GOLDEN_PATH = Path(__file__).with_name("golden_figure_grid.json")

#: (mix, fetch policy, scheduler, DVM on).
FIGURE_GRID = [
    ("MEM-A", "icount", "oldest", False),
    ("MEM-A", "icount", "oldest", True),
    ("MEM-A", "icount", "visa", False),
    ("MEM-A", "icount", "visa", True),
    ("MEM-A", "flush", "oldest", False),
    ("MEM-A", "flush", "visa", True),
    ("MEM-A", "stall", "oldest", False),
    ("MEM-A", "rr", "oldest", False),
    ("CPU-A", "icount", "oldest", False),
    ("CPU-A", "icount", "visa", True),
    ("CPU-A", "pdg", "oldest", False),
    ("CPU-A", "rr", "visa", False),
]


def _case_name(mix: str, fetch_policy: str, scheduler: str, dvm_on: bool) -> str:
    return f"{mix}-{fetch_policy}-{scheduler}-{'dvm' if dvm_on else 'base'}"


#: Case name -> ``run_case`` keyword arguments.
CASES: dict[str, dict[str, Any]] = {
    _case_name(*row): dict(zip(("mix", "fetch_policy", "scheduler", "dvm_on"), row))
    for row in FIGURE_GRID
}
CASES["MEM-A-icount-oldest-base-warmup0"] = dict(
    mix="MEM-A", fetch_policy="icount", scheduler="oldest", dvm_on=False, warmup=0
)
CASES["MEM-A-icount-visa-dvm-hist"] = dict(
    mix="MEM-A", fetch_policy="icount", scheduler="visa", dvm_on=True, hist=True
)


def run_case(
    mix: str,
    fetch_policy: str,
    scheduler: str,
    dvm_on: bool,
    *,
    warmup: int = 300,
    hist: bool = False,
    warm_memo: WarmMemo | None = None,
) -> SimulationResult:
    """Simulate one case on fresh program objects; with ``warm_memo``
    the functional warm-up is restored from (or stored into) it."""
    sim = SimulationConfig(
        max_cycles=1_500, warmup_cycles=warmup, seed=7,
        bp_warmup_instructions=2_000,
        collect_ready_queue_histogram=hist,
        # Intervals rescaled so a 1,500-cycle run spans five of them.
        reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),  # lint: disable=paper-fidelity
    )
    dvm = DVMController(0.05, config=sim.reliability) if dvm_on else None
    return SMTPipeline(
        get_mix(mix).programs(seed=7), sim=sim,
        fetch_policy=fetch_policy, scheduler=scheduler, dvm=dvm,
        warm_memo=warm_memo,
    ).run()


def pinned_stats(res: SimulationResult) -> dict[str, Any]:
    """The statistics a golden case pins, as JSON-exact values."""
    stats: dict[str, Any] = {
        "cycles": res.cycles,
        "committed": res.committed,
        "per_thread_committed": list(res.per_thread_committed),
        "warm_committed": res.warm_committed,
        "squashed": res.squashed,
        "flushes": res.flushes,
        "l2_misses": res.l2_misses,
        "iq_avf": res.overall_avf[Structure.IQ],
        "rob_avf": res.overall_avf[Structure.ROB],
        "iq_interval_avf": list(res.iq_interval_avf),
        "rob_interval_avf": list(res.rob_interval_avf),
    }
    if res.ready_hist is not None and res.ready_hist_ace is not None:
        stats["ready_hist"] = res.ready_hist.tolist()
        stats["ready_hist_ace"] = res.ready_hist_ace.tolist()
    return stats


def load_golden() -> dict[str, dict[str, Any]]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    golden = {name: pinned_stats(run_case(**kw)) for name, kw in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
