"""``BENCH_reliability.json``: the paper's headline reliability numbers.

The perf history pins *wall time*; ``BENCH_reliability.json`` pins the
*headline reliability numbers* — baseline IQ AVF and the VISA+DVM AVF
reduction — so a change that silently shifts the physics (a scheduler
tweak, an accountant bug) fails CI the same way a 2× slowdown does.
This module computes those numbers; the history layout and the band
check are :mod:`repro.perf.history`'s, whose ``reliability-suite`` rule
is a two-sided band around the **median** of the recent window: a
"better" AVF reduction out of nowhere is as suspicious as a worse one.

``repro avf run`` appends an entry; ``repro avf compare`` gates.
"""

from __future__ import annotations

from repro.harness.runner import BenchScale, run_sim
from repro.perf.history import DRIFT_FLOOR, KIND_RELIABILITY

#: Default committed location, beside BENCH_perf.json.
DEFAULT_RELIABILITY_HISTORY = "BENCH_reliability.json"

#: The headline configuration: the paper's memory-bound mix, where IQ
#: vulnerability (and DVM's leverage on it) is largest.
HEADLINE_MIX = "MEM-A"

#: DVM reliability target as a fraction of the baseline's peak online
#: estimate (matching the ``repro perf trace`` convention).
DVM_TARGET_FRACTION = 0.5


def headline_numbers(
    scale: BenchScale, mix: str = HEADLINE_MIX
) -> dict[str, float]:
    """The gated reliability scalars at one scale.

    Runs the unmitigated baseline and the VISA+DVM configuration
    (target = ``DVM_TARGET_FRACTION`` × the baseline's peak online
    estimate) through the memoized :func:`run_sim` path.
    """
    base = run_sim(mix, scale, scheduler="oldest")
    target = max(base.max_online_estimate * DVM_TARGET_FRACTION, DRIFT_FLOOR)
    mitigated = run_sim(mix, scale, scheduler="visa", dvm_target=target)
    reduction = (
        1.0 - mitigated.iq_avf / base.iq_avf if base.iq_avf > 0 else 0.0
    )
    return {
        "baseline_iq_avf": base.iq_avf,
        "visa_dvm_iq_avf": mitigated.iq_avf,
        "avf_reduction": reduction,
        "baseline_ipc": base.ipc,
        "visa_dvm_ipc": mitigated.ipc,
    }


__all__ = [
    "DEFAULT_RELIABILITY_HISTORY",
    "DRIFT_FLOOR",
    "DVM_TARGET_FRACTION",
    "HEADLINE_MIX",
    "KIND_RELIABILITY",
    "headline_numbers",
]
