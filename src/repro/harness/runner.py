"""Scaled simulation runner with in-process result caching.

The paper simulates 400M instructions per data point on a C simulator;
this pure-Python reproduction scales every interval-based mechanism
proportionally (see DESIGN.md §7) so each data point costs a couple of
seconds.  ``BenchScale`` centralizes the scaling, and honours two
environment variables:

* ``REPRO_FULL=1``  — run all three Table 3 groups per category
  (default: group A per category, the paper reports category averages).
* ``REPRO_CYCLES=N`` — override the per-run cycle budget.

Results are memoized per configuration so the test-suite and the bench
harness never re-simulate the same point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.config import MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline, SimulationResult, WarmMemo
from repro.isa.generator import ProgramGenerator
from repro.isa.personalities import get_personality
from repro.reliability.dvm import DVMController
from repro.reliability.profiling import profile_and_apply
from repro.reliability.resource_alloc import (
    DispatchPolicy,
    DynamicIQAllocation,
    L2MissSensitiveAllocation,
)
from repro.telemetry.profiler import StageProfile, StageProfiler
from repro.telemetry.timeline import TimelineRecorder
from repro.workloads import get_mix, mixes_in_category


#: The paper's reliability parameters; BenchScale rescales the
#: window-sized ones and inherits the dimensionless ones unchanged.
_PAPER = ReliabilityConfig()


@dataclass(frozen=True)
class BenchScale:
    """Scaled-down counterpart of the paper's simulation windows."""

    max_cycles: int = 14_000
    warmup_cycles: int = 3_000
    # 1/5 of the paper's 10K-cycle interval, matching the cycle budget.
    interval_cycles: int = 2_000  # lint: disable=paper-fidelity
    ace_window: int = 4_000  # lint: disable=paper-fidelity
    profile_instructions: int = 40_000
    profile_window: int = 8_000
    # Paper: 16 L2 misses per 10K-cycle interval.  Our synthetic
    # workloads carry compulsory streaming misses the paper's SimPoints
    # did not, so the scaled threshold that separates CPU (≈55/interval)
    # from MIX/MEM (≥110) is 80; the ablation bench sweeps it.
    t_cache_miss: int = 80  # lint: disable=paper-fidelity
    num_ipc_regions: int = _PAPER.num_ipc_regions
    dvm_trigger_fraction: float = _PAPER.dvm_trigger_fraction
    seed: int = 1
    groups: tuple[str, ...] = ("A",)

    @staticmethod
    def from_env() -> "BenchScale":
        groups = ("A", "B", "C") if os.environ.get("REPRO_FULL") else ("A",)
        raw = os.environ.get("REPRO_CYCLES")
        if raw is None:
            return BenchScale(groups=groups)
        try:
            cycles = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_CYCLES must be an integer cycle count, got {raw!r}"
            ) from None
        if cycles <= 0:
            raise ValueError(f"REPRO_CYCLES must be positive, got {cycles}")
        defaults = BenchScale()
        warmup = defaults.warmup_cycles
        if cycles < defaults.max_cycles:
            # A shrunken budget keeps the default 3/14 warm-up proportion;
            # inheriting the absolute 3000-cycle warm-up would leave a
            # run like REPRO_CYCLES=2000 all warm-up (sim_config() then
            # rejects warmup_cycles >= max_cycles with an opaque error).
            warmup = max(cycles * defaults.warmup_cycles // defaults.max_cycles, 1)
        return BenchScale(max_cycles=cycles, warmup_cycles=warmup, groups=groups)

    def sim_config(self, *, collect_hist: bool = False) -> SimulationConfig:
        rel = ReliabilityConfig(
            interval_cycles=self.interval_cycles,
            ace_window=self.ace_window,
            t_cache_miss=self.t_cache_miss,
            dvm_trigger_fraction=self.dvm_trigger_fraction,
            num_ipc_regions=self.num_ipc_regions,
        )
        cfg = SimulationConfig(
            max_cycles=self.max_cycles,
            warmup_cycles=self.warmup_cycles,
            seed=self.seed,
            bp_warmup_instructions=100_000,
            reliability=rel,
            collect_ready_queue_histogram=collect_hist,
        )
        cfg.validate()
        return cfg

    def mixes(self, category: str):
        return [m for m in mixes_in_category(category) if m.group in self.groups]


# ----------------------------------------------------------------------
# Program cache (profiling mutates the program image, so profiled and
# unprofiled instantiations are cached separately).
# ----------------------------------------------------------------------
_PROGRAMS: dict = {}
_RESULTS: dict = {}
_SINGLE_IPC: dict = {}

#: Post-warm-up states of ``run_sim`` pipelines, filled by the first
#: point that walks each distinct ``SMTPipeline.warm_key()``.  No sweep
#: axis is part of that key, so a sweep walks once per mix per process.
#: Nine entries hold one warm state per Table 3 mix (under 1 MB each),
#: so a figure suite cycling over every mix never evicts.
_WARM_LIMIT = 9
_WARM = WarmMemo(_WARM_LIMIT)

#: Ambient event bus for ``run_sim`` pipelines.  Pool workers install
#: one (wired to the telemetry relay) via ``_init_worker`` so every
#: simulation a task runs publishes interval/reliability events the
#: relay can forward; when None (the default, and always in the
#: parent), each pipeline keeps its own private bus as before.  The
#: bus never affects results — subscribers only observe — so it is
#: deliberately *not* part of the memo key; cached points simply emit
#: nothing, which is fine because they cost no wall time to watch.
_AMBIENT_BUS = None


def set_ambient_bus(bus) -> None:
    """Install (or clear, with None) the process-wide ambient bus."""
    global _AMBIENT_BUS
    # Deliberate per-process global: each pool worker installs its own
    # bus in its own interpreter; the parent never shares it.
    _AMBIENT_BUS = bus


def ambient_bus():
    """The process-wide ambient bus, or None outside pool workers."""
    return _AMBIENT_BUS


def clear_caches() -> None:
    """Drop all memoized programs and results (tests use this)."""
    _PROGRAMS.clear()
    _RESULTS.clear()
    _SINGLE_IPC.clear()
    _WARM.states.clear()


def get_programs(mix_name: str, scale: BenchScale, profiled: bool = True):
    """The (optionally profiled) synthetic programs of a Table 3 mix."""
    key = (mix_name, scale.seed, profiled, scale.profile_instructions, scale.profile_window)
    if key not in _PROGRAMS:
        programs = get_mix(mix_name).programs(seed=scale.seed)
        if profiled:
            for p in programs:
                profile_and_apply(
                    p,
                    n_instructions=scale.profile_instructions,
                    window=scale.profile_window,
                )
        # Deliberate per-process memo: each pool worker warms its own
        # copy via _init_worker; the parent's cache is never consulted
        # across the fork.
        _PROGRAMS[key] = programs
    return _PROGRAMS[key]


def _make_dispatch(name: str | None, scale: BenchScale, machine: MachineConfig) -> DispatchPolicy | None:
    if name in (None, "none"):
        return None
    if name == "opt1":
        return DynamicIQAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
        )
    if name == "opt1-linear":
        return DynamicIQAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
            ratio_mode="linear",
        )
    if name == "opt2":
        return L2MissSensitiveAllocation(
            machine.iq_size,
            commit_width=machine.commit_width,
            num_regions=scale.num_ipc_regions,
            t_cache_miss=scale.t_cache_miss,
        )
    raise KeyError(f"unknown dispatch policy {name!r} (none/opt1/opt2)")


def _memo_key(mix_name: str, scale: BenchScale, params: dict) -> tuple:
    """The ``_RESULTS`` cache key for one ``run_sim`` configuration.

    Every behaviour-affecting kwarg participates (sorted by name, so two
    configurations can only collide by being equal), and an unhashable
    value fails here with a clear message instead of a bare
    ``TypeError`` deep inside the cache-dict lookup.
    """
    key = (mix_name, scale, tuple(sorted(params.items())))
    try:
        hash(key)
    except TypeError as exc:
        def _hashable(v) -> bool:
            try:
                hash(v)
            except TypeError:
                return False
            return True

        bad = sorted(k for k, v in params.items() if not _hashable(v))
        raise TypeError(
            f"run_sim() configuration is not hashable and cannot be memoized: "
            f"offending kwarg(s) {bad or ['scale']}; pass hashable values or "
            f"use_cache=False"
        ) from exc
    return key


def run_sim(
    mix_name: str,
    scale: BenchScale,
    *,
    fetch_policy: str = "icount",
    scheduler: str = "oldest",
    dispatch: str | None = None,
    dvm_target: float | None = None,
    dvm_static_ratio: float | None = None,
    profiled: bool = True,
    collect_hist: bool = False,
    use_cache: bool = True,
) -> SimulationResult:
    """Run (or fetch from cache) one simulation data point.

    With ``use_cache=False`` the point neither reads nor fills the result
    or warm-state memo: it walks its own functional warm-up.
    """
    # locals() at function entry is exactly the parameter set, so a
    # future behaviour-affecting kwarg joins the memo key automatically.
    args = locals()
    params = {
        name: value
        for name, value in args.items()
        if name not in ("mix_name", "scale", "use_cache")
    }
    key = _memo_key(mix_name, scale, params) if use_cache else None
    if key is not None and key in _RESULTS:
        return _RESULTS[key]
    machine = MachineConfig(num_threads=len(get_mix(mix_name).benchmarks))
    sim = scale.sim_config(collect_hist=collect_hist)
    dvm = None
    if dvm_target is not None:
        dvm = DVMController(
            dvm_target, config=sim.reliability, static_ratio=dvm_static_ratio
        )
    pipe = SMTPipeline(
        get_programs(mix_name, scale, profiled),
        machine=machine,
        sim=sim,
        fetch_policy=fetch_policy,
        scheduler=scheduler,
        dispatch_policy=_make_dispatch(dispatch, scale, machine),
        dvm=dvm,
        bus=_AMBIENT_BUS,
        warm_memo=_WARM if use_cache else None,
    )
    result = pipe.run()
    if key is not None:
        # Deliberate per-process memo: a worker re-running an identical
        # point hits its own cache; results return to the parent via the
        # pool, never via this dict.
        _RESULTS[key] = result
    return result


def run_recorded(
    mix_name: str,
    scale: BenchScale,
    *,
    fetch_policy: str = "icount",
    scheduler: str = "oldest",
    dispatch: str | None = None,
    dvm_target: float | None = None,
    dvm_static_ratio: float | None = None,
    profiled: bool = True,
    profile_stages: bool = True,
    profiler: StageProfiler | None = None,
    event_limit: int = 200_000,
) -> tuple[SimulationResult, TimelineRecorder, StageProfile | None]:
    """One uncached simulation with a decision timeline attached.

    Builds the same pipeline as :func:`run_sim` but subscribes a
    :class:`~repro.telemetry.timeline.TimelineRecorder` to the
    interval/decision topics and (optionally) a
    :class:`~repro.telemetry.profiler.StageProfiler`.  An explicit
    ``profiler`` (e.g. :class:`repro.perf.spans.TracingProfiler` for
    Chrome-trace export) overrides ``profile_stages``.  Results are
    never cached: the recorder and profile belong to this specific run.
    """
    machine = MachineConfig(num_threads=len(get_mix(mix_name).benchmarks))
    sim = scale.sim_config()
    dvm = None
    if dvm_target is not None:
        dvm = DVMController(
            dvm_target, config=sim.reliability, static_ratio=dvm_static_ratio
        )
    if profiler is None and profile_stages:
        profiler = StageProfiler()
    pipe = SMTPipeline(
        get_programs(mix_name, scale, profiled),
        machine=machine,
        sim=sim,
        fetch_policy=fetch_policy,
        scheduler=scheduler,
        dispatch_policy=_make_dispatch(dispatch, scale, machine),
        dvm=dvm,
        profiler=profiler,
    )
    recorder = TimelineRecorder(pipe.bus, limit=event_limit)
    with recorder:
        result = pipe.run()
    profile = profiler.report() if profiler is not None else None
    return result, recorder, profile


def run_observed(
    mix_name: str,
    scale: BenchScale,
    *,
    fetch_policy: str = "icount",
    scheduler: str = "oldest",
    dispatch: str | None = None,
    dvm_target: float | None = None,
    dvm_static_ratio: float | None = None,
    profiled: bool = True,
    event_limit: int = 200_000,
    record: bool = False,
) -> tuple[SimulationResult, "ReliabilityObserver", TimelineRecorder | None]:
    """One uncached simulation with a reliability observer attached.

    Builds the same pipeline as :func:`run_sim`, subscribes a
    :class:`~repro.reliability.observe.ReliabilityObserver` to the
    ``reliability.*`` streams, and optionally (``record=True``) also a
    :class:`~repro.telemetry.timeline.TimelineRecorder` over the
    reliability + interval topics for Chrome-trace export.  Results are
    never cached: the observer belongs to this specific run.
    """
    from repro.reliability.observe import ReliabilityObserver
    from repro.telemetry.topics import (
        TOPIC_DVM_SAMPLE,
        TOPIC_INTERVAL_CLOSE,
        TOPIC_RELIABILITY_DIVERGENCE,
        TOPIC_RELIABILITY_ESTIMATE,
        TOPIC_RELIABILITY_LATE_ACE,
    )

    machine = MachineConfig(num_threads=len(get_mix(mix_name).benchmarks))
    sim = scale.sim_config()
    dvm = None
    if dvm_target is not None:
        dvm = DVMController(
            dvm_target, config=sim.reliability, static_ratio=dvm_static_ratio
        )
    pipe = SMTPipeline(
        get_programs(mix_name, scale, profiled),
        machine=machine,
        sim=sim,
        fetch_policy=fetch_policy,
        scheduler=scheduler,
        dispatch_policy=_make_dispatch(dispatch, scale, machine),
        dvm=dvm,
    )
    observer = ReliabilityObserver.for_pipeline(pipe)
    recorder = None
    if record:
        recorder = TimelineRecorder(
            pipe.bus,
            topics=(
                TOPIC_INTERVAL_CLOSE,
                TOPIC_DVM_SAMPLE,
                TOPIC_RELIABILITY_ESTIMATE,
                TOPIC_RELIABILITY_LATE_ACE,
                TOPIC_RELIABILITY_DIVERGENCE,
            ),
            limit=event_limit,
        )
        recorder.__enter__()
    try:
        result = pipe.run()
    finally:
        if recorder is not None:
            recorder.__exit__(None, None, None)
        observer.detach()
    return result, observer, recorder


def single_thread_ipc(
    benchmark: str,
    scale: BenchScale,
    program_seed: int | None = None,
    fetch_policy: str = "icount",
) -> float:
    """IPC of one benchmark running alone (for harmonic IPC).

    ``program_seed`` should match the seed the benchmark got inside its
    mix (``WorkloadMix.programs`` uses ``seed*1000 + thread_index``) so
    the single-thread baseline runs the identical program instance.
    """
    if program_seed is None:
        program_seed = scale.seed * 1000
    key = (benchmark, program_seed, scale.max_cycles, fetch_policy)
    if key not in _SINGLE_IPC:
        program = ProgramGenerator(get_personality(benchmark), seed=program_seed).generate()
        machine = MachineConfig(num_threads=1)
        pipe = SMTPipeline(
            [program], machine=machine, sim=scale.sim_config(), fetch_policy=fetch_policy
        )
        _SINGLE_IPC[key] = max(pipe.run().ipc, 1e-6)
    return _SINGLE_IPC[key]


def mix_harmonic_ipc(mix_name: str, scale: BenchScale, result: SimulationResult,
                     fetch_policy: str = "icount") -> float:
    """Harmonic IPC of one mix result against single-thread baselines."""
    from repro.metrics.stats import harmonic_ipc

    mix = get_mix(mix_name)
    singles = [
        single_thread_ipc(b, scale, program_seed=scale.seed * 1000 + i,
                          fetch_policy=fetch_policy)
        for i, b in enumerate(mix.benchmarks)
    ]
    return harmonic_ipc(result.per_thread_ipc, singles)
