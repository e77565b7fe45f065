"""Differential and fuzz testing.

The cache is checked against an independent reference model under
random access streams; the pipeline is fuzzed across random small
machines/workloads with its structural invariants asserted.  The
parallel sweep harness is checked against an uncheckpointed sweep.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.config import CacheConfig, MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.harness.parallel import parallel_sweep
from repro.harness.runner import BenchScale, clear_caches
from repro.isa.generator import generate_program
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from repro.isa.program import BasicBlock, SyntheticProgram
from repro.memory.cache import SetAssocCache
from repro.telemetry.profiler import StageProfiler


class ReferenceCache:
    """Straightforward LRU model: per-set ordered list of tags, written
    independently of the production implementation."""

    def __init__(self, sets, assoc, line):
        self.sets = sets
        self.assoc = assoc
        self.line = line
        self.state = {i: [] for i in range(sets)}

    def access(self, addr):
        lineno = addr // self.line
        idx = lineno % self.sets
        tag = lineno // self.sets
        entries = self.state[idx]
        hit = tag in entries
        if hit:
            entries.remove(tag)
        entries.insert(0, tag)
        del entries[self.assoc:]
        return hit


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=400),
    st.sampled_from([(4, 1), (4, 2), (8, 4), (2, 2)]),
)
def test_cache_matches_reference(addrs, geometry):
    sets, assoc = geometry
    line = 64
    cache = SetAssocCache(
        CacheConfig(size=sets * assoc * line, assoc=assoc, line_size=line, latency=1)
    )
    ref = ReferenceCache(sets, assoc, line)
    for a in addrs:
        assert cache.access(a) == ref.access(a), f"divergence at addr {a:#x}"


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gcc", "mcf", "swim", "mesa", "vpr"]),
    st.integers(min_value=1, max_value=3),
)
def test_pipeline_fuzz_invariants(seed, benchmark, n_threads):
    """Random (seed, workload, thread-count) pipelines must preserve the
    structural invariants for their whole run."""
    rng = random.Random(seed)
    machine = MachineConfig(
        num_threads=n_threads,
        iq_size=rng.choice([16, 32, 96]),
        rob_size_per_thread=rng.choice([24, 96]),
        lsq_size_per_thread=rng.choice([12, 48]),
        fetch_width=rng.choice([2, 4, 8]),
        issue_width=rng.choice([2, 4, 8]),
        commit_width=rng.choice([2, 4, 8]),
    )
    machine.validate()
    programs = [
        generate_program(benchmark, seed=seed + i) for i in range(n_threads)
    ]
    sim = SimulationConfig(
        max_cycles=700, warmup_cycles=0, seed=seed,
        bp_warmup_instructions=1_000,
        reliability=ReliabilityConfig(interval_cycles=200, ace_window=400),
    )
    pipe = SMTPipeline(programs, machine=machine, sim=sim)
    violations = []
    orig = pipe._tick_stats

    def checked():
        if len(pipe.iq) > machine.iq_size:
            violations.append(("iq", pipe.cycle))
        if pipe.iq.pred_ace_bits < 0 or pipe.rob_pred_ace_bits < 0:
            violations.append(("counter", pipe.cycle))
        for t in range(n_threads):
            if len(pipe.robs[t]) > machine.rob_size_per_thread:
                violations.append(("rob", pipe.cycle))
            if len(pipe.lsqs[t]) > machine.lsq_size_per_thread:
                violations.append(("lsq", pipe.cycle))
            if pipe._outstanding_l2[t] < 0 or pipe._outstanding_l1d[t] < 0:
                violations.append(("outstanding", pipe.cycle))
        orig()

    pipe._tick_stats = checked
    res = pipe.run()
    assert violations == []
    assert res.committed > 0
    assert 0.0 <= res.iq_avf <= 1.0


# ----------------------------------------------------------------------
# Issue-bandwidth starvation regression.
# ----------------------------------------------------------------------
def _fu_burst_program(n_fmult, n_ialu, name="fmult-burst"):
    """A self-looping block: a burst of FMULTs, then independent IALUs."""
    insts = []
    pc = 0x1000
    for _ in range(n_fmult):
        insts.append(StaticInst(pc=pc, opclass=OpClass.FMULT))
        pc += 4
    for _ in range(n_ialu):
        insts.append(StaticInst(pc=pc, opclass=OpClass.IALU))
        pc += 4
    prog = SyntheticProgram(
        name=name, blocks=[BasicBlock(bid=0, insts=insts, fall_block=0)]
    )
    prog.validate()
    return prog


class TestIssueStarvationRegression:
    def test_issue_fills_width_past_fu_blocked_entries(self):
        """More ready FMULTs than any fixed selection window, one FMULT
        unit: issue must skip the blocked entries and still fill the
        full width from younger IALUs (the former width*2 over-selection
        window issued exactly one instruction here)."""
        machine = MachineConfig(num_threads=1, fp_mult_div_sqrt=1)
        machine.validate()
        prog = _fu_burst_program(20, 8)
        pipe = SMTPipeline(
            [prog], machine=machine,
            sim=SimulationConfig(
                max_cycles=100, warmup_cycles=0, seed=7,
                bp_warmup_instructions=2_000,
                reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
            ),
        )
        statics = list(prog.all_insts())
        insts = []
        for i, st_inst in enumerate(statics[:28]):
            d = DynInst(tag=i + 1, thread=0, static=st_inst, stream_pos=i)
            d.ace_pred = True
            pipe.iq.insert(d, cycle=0)
            insts.append(d)
        pipe._issue()
        issued = [d for d in insts if d.state == DynState.ISSUED]
        assert len(issued) == machine.issue_width
        fmults = [d for d in issued if d.opclass == OpClass.FMULT]
        assert len(fmults) == 1  # the single FP mult/div/sqrt unit
        # Oldest eligible entries win: the issued FMULT is the oldest.
        assert fmults[0].tag == 1

    @pytest.mark.parametrize("hooks", ["reference", "profiled"])
    def test_fu_burst_sustains_issue_bandwidth(self, hooks):
        """Periodic 17-wide FMULT bursts (wider than the old selection
        window) in a mostly-IALU stream: with starvation fixed the
        machine sustains high IPC through each burst.  The default loop
        ("reference") and the profiler-lapping loop ("profiled") run
        the same stage sequence, so both must sustain it."""
        machine = MachineConfig(num_threads=1, fp_mult_div_sqrt=1)
        machine.validate()
        prog = _fu_burst_program(17, 153)
        # A short functional warm-up pre-warms the i-cache; a cold
        # 170-instruction footprint would serialize on ~400-cycle
        # compulsory line misses and measure memory, not issue.
        sim = SimulationConfig(
            max_cycles=1_200, warmup_cycles=200, seed=11,
            bp_warmup_instructions=2_000,
            reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
        )
        profiler = StageProfiler() if hooks == "profiled" else None
        res = SMTPipeline([prog], machine=machine, sim=sim, profiler=profiler).run()
        assert res.ipc > 5.0
        assert res.committed > 5_000
        if profiler is not None:
            assert profiler.cycles > 0


# --------------------------------------------------------------------------
# Parallel sweep harness: checkpointed rows equal an unchecked sweep and
# resume from the checkpoint without executing anything.
# --------------------------------------------------------------------------

_SWEEP_SCALE = BenchScale(
    max_cycles=2_000, warmup_cycles=400, interval_cycles=400,
    ace_window=800, profile_instructions=6_000, profile_window=1_500,
)
_SWEEP_AXES = {"scheduler": ["oldest", "visa"]}


@pytest.fixture(scope="module")
def _sweep_caches():
    clear_caches()
    yield
    clear_caches()


class TestFastBackendParallelHarness:
    def test_sweep_rows_match_reference_and_resume_is_cached(
        self, _sweep_caches, tmp_path
    ):
        """A checkpointed sweep's rows must equal an uncheckpointed
        reference sweep metric for metric, land in the checkpoint, and
        resume without executing."""
        ref = parallel_sweep("CPU-A", _SWEEP_SCALE, _SWEEP_AXES, checkpoint=None)
        ck = str(tmp_path / "sweep.jsonl")
        first = parallel_sweep("CPU-A", _SWEEP_SCALE, _SWEEP_AXES, checkpoint=ck)
        assert first.executed == len(first.rows) and first.cached == 0
        assert first.rows == ref.rows

        resumed = parallel_sweep(
            "CPU-A", _SWEEP_SCALE, _SWEEP_AXES, checkpoint=ck, resume=True
        )
        assert resumed.executed == 0 and resumed.cached == len(first.rows)
        assert resumed.rows == first.rows
