"""The benchmark's workloads, as plain data.

This module imports nothing from ``repro`` so that ``run.py`` can read
the workload table without paying (or depending on) the program's
imports.  Each workload is one timed call into the public API, made in
a cold process by ``rep.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

#: Cycle budget of the two single-point workloads: ``BenchScale``'s
#: default, the scale every paper figure point runs at.
POINT_CYCLES = 14_000
#: Cycle budget of each sweep point.  Functional warm-up costs the same
#: at any budget, so a short budget keeps the share of a figure sweep
#: that per-point warm-up takes, and lets three cold sweeps fit in one
#: benchmark run.
SWEEP_CYCLES = 4_000
#: The two fixed online DVM targets of the sweep.
DVM_TARGETS = (0.15, 0.10)
#: Repetition ``i`` of a run with ``--seed s`` simulates
#: ``BenchScale(seed=s * SEED_STRIDE + i)``: the repetitions of one run
#: cover distinct program instances, and no two runs share one.
SEED_STRIDE = 100
#: Fewest repetitions a run makes, so that its medians mean something.
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mix: str
    max_cycles: int
    why: str
    #: Seconds one cold repetition takes on a 2-core 2.1 GHz x86 host;
    #: fixes how many repetitions fit in ``--seconds``, so that a seed
    #: always names the same inputs.
    rep_s: float
    #: ``parallel_sweep`` axes; ``None`` for a single ``run_sim`` point.
    axes: dict | None = None
    #: ``run_sim`` kwargs of the point the traced run repeats in-process
    #: to split core and reliability time for a sweep.
    traced_point: dict = field(default_factory=dict)

    @property
    def is_sweep(self) -> bool:
        return self.axes is not None

    def points(self) -> list[dict]:
        """``run_sim`` kwargs of every point, in sweep row order."""
        if self.axes is None:
            return [{}]
        names = list(self.axes)
        return [dict(zip(names, combo)) for combo in product(*self.axes.values())]

    def rep_seeds(self, seed: int, seconds: float) -> list[int]:
        """``BenchScale`` seeds of the repetitions of one run."""
        reps = max(MIN_REPS, min(SEED_STRIDE, int(seconds // self.rep_s)))
        return [seed * SEED_STRIDE + i for i in range(reps)]

    def scale_kwargs(self, seed: int) -> dict:
        """``BenchScale`` fields for ``seed``.  A shortened budget keeps
        the default 3/14 warm-up proportion, as ``BenchScale.from_env``
        does for ``REPRO_CYCLES``."""
        kwargs = {"seed": seed}
        if self.max_cycles != POINT_CYCLES:
            kwargs["max_cycles"] = self.max_cycles
            kwargs["warmup_cycles"] = self.max_cycles * 3_000 // POINT_CYCLES
        return kwargs


def label(kwargs: dict) -> str:
    """Point label, spelled as ``repro.harness.parallel.point_label``."""
    if not kwargs:
        return "default"
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mem-point",
            "MEM-A",
            POINT_CYCLES,
            "one L2-bound baseline point: warm-up, memory hierarchy and "
            "idle cycles dominate",
            rep_s=5.5,
        ),
        Workload(
            "cpu-point",
            "CPU-A",
            POINT_CYCLES,
            "one high-IPC baseline point: the cycle loop's issue path "
            "dominates, almost no idle cycles",
            rep_s=9.5,
        ),
        Workload(
            "dvm-sweep",
            "MIX-A",
            SWEEP_CYCLES,
            "a six-point VISA x DVM figure sweep over a process pool; "
            "every point pays its own warm-up",
            rep_s=11.0,
            axes={"scheduler": ("oldest", "visa"), "dvm_target": (None, *DVM_TARGETS)},
            traced_point={"scheduler": "visa", "dvm_target": DVM_TARGETS[-1]},
        ),
    )
}
