"""Regenerate ``pinned.json``: the simulated statistics of every point.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-10

For each workload and each run seed in the range, every repetition seed
that ``run.py --seconds <run_seconds>`` would use is simulated in a cold
process and its per-point statistics (cycles, per-thread committed,
IQ/ROB overall and interval AVF, L2 misses, squashed, flushes) are
written to ``pinned.json``.  Later runs on those seeds must reproduce
them exactly; any other seed is checked against invariants only.
Re-pinning changes the benchmark's correctness check: do it only when
a change to simulated behaviour is intended, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS

PINS = run.HERE / "pinned.json"


def _range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_range, required=True, help="e.g. 0-10")
    args = ap.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    with open(PINS) as fh:
        pins = json.load(fh)
    run.build()
    for name, wl in WORKLOADS.items():
        for seed in args.seeds:
            for rep_seed in wl.rep_seeds(seed, seconds):
                result = run.run_rep(name, rep_seed, False, run.RUN_LIMIT_S)
                pins[f"{name} {rep_seed}"] = result["stats"]
                print(f"pinned {name} seed {rep_seed}", flush=True)
            write_pins(pins)
    return 0


def write_pins(pins: dict) -> None:
    """One line per (workload, repetition seed), so a re-pin diffs by line."""
    def order(key):
        name, seed = key.split()
        return name, int(seed)

    lines = [f"{json.dumps(k)}: {json.dumps(pins[k], sort_keys=True)}"
             for k in sorted(pins, key=order)]
    with open(PINS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
