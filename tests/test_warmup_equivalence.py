"""The functional warm-up leaves exactly the state of a per-instruction walk.

``oracle_warmup`` is the straightforward reference: one ``ctx.peek()``
per instruction, the memory accesses and branch-predictor calls it
implies, then ``ctx.advance``/``ctx.advance_control``.
``SMTPipeline._functional_warmup`` must leave every cache, TLB and
predictor structure, every statistic and every thread context exactly
as the oracle does, both at the moment the warm-up statistics are
discarded and afterwards.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.core.pipeline import SMTPipeline
from repro.harness.runner import BenchScale
from repro.isa.instruction import OpClass
from repro.workloads import get_mix


def oracle_warmup(pipe: SMTPipeline) -> None:
    """Per-instruction functional fast-forward of every thread."""
    n_insts = pipe.sim.bp_warmup_instructions
    if n_insts <= 0:
        return
    for t in range(pipe.num_threads):
        ctx = pipe.contexts[t]
        last_line = -1
        for _ in range(n_insts):
            st = ctx.peek()
            line = st.pc >> pipe._iline_shift
            if line != last_line:
                pipe.mem.access_instr(st.pc, t)
                last_line = line
            op = st.opclass
            if op.is_mem:
                addr = ctx.mem_address(st, ctx.stream_pos)
                pipe.mem.access_data(addr, t, is_write=(op == OpClass.STORE))
            if op.is_control:
                taken, target = ctx.resolve_control(st)
                if op == OpClass.BRANCH:
                    pred, idx = pipe.bp.predict_direction(st.pc, t)
                    pipe.bp.update_direction(st.pc, t, taken, pred, idx)
                    if taken:
                        pipe.bp.btb_update(st.pc, st.taken_block)
                elif op == OpClass.CALL:
                    pipe.bp.ras_push(t, st.fall_block if st.fall_block >= 0 else 0)
                elif op == OpClass.RET:
                    pipe.bp.ras_pop(t)
                ctx.advance_control(st, taken, target)
            else:
                ctx.advance()
    pipe.bp.reset_stats()
    pipe.mem.reset_stats()


def _tag_array(cache) -> tuple:
    return (
        tuple(tuple(way) for way in cache._sets),
        dataclasses.astuple(cache.stats),
    )


def warm_state(pipe: SMTPipeline) -> dict:
    """Everything the warm-up may write, as plain comparable values."""
    mem, bp = pipe.mem, pipe.bp
    return {
        "l1i": _tag_array(mem.l1i),
        "l1d": _tag_array(mem.l1d),
        "l2": _tag_array(mem.l2),
        "itlb": _tag_array(mem.itlb._array),
        "dtlb": _tag_array(mem.dtlb._array),
        "l2_miss_count": mem.l2_miss_count,
        "l2_data_miss_count": mem.l2_data_miss_count,
        "pht": tuple(bp._pht),
        "hist": tuple(bp._hist),
        "btb": tuple(tuple(ways) for ways in bp._btb),
        "ras": tuple(tuple(ras) for ras in bp._ras),
        "bp_stats": dataclasses.astuple(bp.stats),
        "contexts": tuple(
            (ctx.block, ctx.index, ctx.stream_pos, tuple(ctx.call_stack))
            for ctx in pipe.contexts
        ),
    }


def warm(programs, sim, walk) -> tuple[dict, dict]:
    """Run ``walk`` on a fresh pipeline; return the state just before the
    first warm-up statistics are reset, and the state it leaves."""
    pipe = SMTPipeline(
        programs, machine=MachineConfig(num_threads=len(programs)), sim=sim
    )
    before_reset: dict = {}

    def capture_then(reset):
        def wrapper() -> None:
            if not before_reset:
                before_reset.update(warm_state(pipe))
            reset()

        return wrapper

    pipe.bp.reset_stats = capture_then(pipe.bp.reset_stats)
    pipe.mem.reset_stats = capture_then(pipe.mem.reset_stats)
    walk(pipe)
    return before_reset, warm_state(pipe)


def assert_same_warm_state(programs, sim) -> None:
    expected = warm(programs, sim, oracle_warmup)
    actual = warm(programs, sim, SMTPipeline._functional_warmup)
    for got, want in zip(actual, expected):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key


@pytest.mark.parametrize("mix", ["MEM-A", "CPU-A", "MIX-A"])
def test_warmup_matches_oracle_past_the_locality_phase_flip(mix):
    # 20K instructions per thread crosses the 16K-instruction locality
    # phase of ThreadContext.mem_address.
    scale = BenchScale(seed=1)
    sim = dataclasses.replace(scale.sim_config(), bp_warmup_instructions=20_000)
    assert_same_warm_state(get_mix(mix).programs(seed=scale.seed), sim)


def _boundary_lengths(programs, sim, limit: int) -> dict[str, list[int]]:
    """Walk lengths (<= ``limit``) at which thread 0 stands on a block
    boundary: just past the last instruction of a block, or just before
    a block's control terminator."""
    ctx = SMTPipeline(
        programs, machine=MachineConfig(num_threads=len(programs)), sim=sim
    ).contexts[0]
    lengths: dict[str, list[int]] = {"after_block": [], "at_terminator": []}
    for n in range(1, limit + 1):
        st = ctx.peek()
        last = ctx.at_block_end()
        if st.opclass.is_control:
            ctx.advance_control(st, *ctx.resolve_control(st))
        else:
            ctx.advance()
        if last:
            lengths["after_block"].append(n)
        if ctx.peek().opclass.is_control:
            lengths["at_terminator"].append(n)
    return lengths


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    length=st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=3_000)),
    snap=st.sampled_from([None, "after_block", "at_terminator"]),
)
@example(seed=1, length=0, snap=None)
@example(seed=1, length=1, snap=None)
@example(seed=1, length=1_000, snap="after_block")
@example(seed=1, length=1_000, snap="at_terminator")
def test_warmup_matches_oracle_for_any_length(seed, length, snap):
    programs = get_mix("MIX-A").programs(seed=seed)
    sim = dataclasses.replace(
        BenchScale(seed=seed).sim_config(), bp_warmup_instructions=length
    )
    if snap is not None and length:
        # Stop thread 0 exactly on a block boundary.
        ends = _boundary_lengths(programs, sim, length)[snap]
        if ends:
            sim = dataclasses.replace(sim, bp_warmup_instructions=ends[-1])
    assert_same_warm_state(programs, sim)
