"""The functional warm-up leaves exactly the state of a per-instruction walk.

``oracle_warmup`` is the straightforward reference: one ``ctx.peek()``
per instruction, the memory accesses and branch-predictor calls it
implies, then ``ctx.advance``/``ctx.advance_control``.  The warm-up
phase of ``SMTPipeline.run`` must leave every cache, TLB and predictor
structure, every statistic and every thread context exactly as the
oracle does, both at the moment the warm-up statistics are discarded
and afterwards.

A warm-up restored from a ``WarmMemo`` must leave the same state as a
walk, and give the same results, without sharing state with the memo.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.effects import EffectAnalysis
from repro.analysis.engine import build_project
from repro.config import MachineConfig
from repro.core.pipeline import WARM_KEY_READS, SMTPipeline, WarmMemo, WarmState
from repro.harness import runner
from repro.harness.runner import BenchScale, clear_caches, run_sim
from repro.isa.instruction import OpClass
from repro.workloads import MIXES, get_mix
from tests.golden_grid import CASES, load_golden, pinned_stats, run_case


def oracle_warmup(pipe: SMTPipeline) -> None:
    """Per-instruction functional fast-forward of every thread."""
    n_insts = pipe.sim.bp_warmup_instructions
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
    actual = warm(programs, sim, SMTPipeline._warm_up)
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


# ----------------------------------------------------------------------
# The warm memo: a restored warm-up is a walked one
# ----------------------------------------------------------------------
def _sim(seed: int = 1, insts: int = 20_000, **changes):
    return dataclasses.replace(
        BenchScale(seed=seed).sim_config(), bp_warmup_instructions=insts, **changes
    )


def _warmed(programs, sim, memo=None, machine=None) -> SMTPipeline:
    """A fresh pipeline after its warm-up phase, restored or walked."""
    pipe = SMTPipeline(
        programs,
        machine=machine or MachineConfig(num_threads=len(programs)),
        sim=sim,
        warm_memo=memo,
    )
    pipe._warm_up()
    return pipe


def assert_same_state(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_restored_warm_state_equals_a_walk(mix):
    sim = _sim()
    memo = WarmMemo(1)
    filler = _warmed(get_mix(mix).programs(seed=1), sim, memo)
    assert not filler.warm_restored and len(memo.states) == 1
    walked = warm_state(_warmed(get_mix(mix).programs(seed=1), sim))
    assert_same_state(warm_state(filler), walked)
    # Fresh program objects of equal content find the entry.
    restored = _warmed(get_mix(mix).programs(seed=1), sim, memo)
    assert restored.warm_restored
    assert_same_state(warm_state(restored), walked)


def test_memo_is_never_aliased_by_a_restored_run():
    programs = get_mix("MEM-A").programs(seed=1)
    sim = _sim(max_cycles=1_500, warmup_cycles=300)
    memo = WarmMemo(1)
    _warmed(programs, sim, memo)
    (entry,) = memo.states.values()
    first = SMTPipeline(programs, sim=sim, warm_memo=memo)
    key = first.warm_key()
    first.run()  # mutates every cache, TLB, predictor and context
    assert first.warm_restored
    assert memo.states[key] is entry
    again = _warmed(programs, sim, memo)
    assert again.warm_restored
    assert_same_state(warm_state(again), warm_state(_warmed(programs, sim)))


_GOLDEN = load_golden()


@functools.cache
def _memo_warmed_by(name: str) -> WarmMemo:
    memo = WarmMemo(1)
    assert run_case(**CASES[name], warm_memo=memo).metrics["pipeline.warmup.restored"] == 0
    return memo


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_with_a_restored_warm_up(name):
    mix = CASES[name]["mix"]
    donor = next(n for n in sorted(CASES) if CASES[n]["mix"] == mix and n != name)
    result = run_case(**CASES[name], warm_memo=_memo_warmed_by(donor))
    assert result.metrics["pipeline.warmup.restored"] == 1
    assert pinned_stats(result) == _GOLDEN[name]


#: A short ``run_sim`` scale: cheap profiling and loop, full warm-up.
_SMALL = BenchScale(
    seed=3, max_cycles=1_000, warmup_cycles=200,
    profile_instructions=2_000, profile_window=500,
)


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_run_sim_shares_one_warm_state_across_sweep_axes(fresh_caches):
    first = run_sim("MIX-A", _SMALL)
    assert first.metrics["pipeline.warmup.restored"] == 0
    assert len(runner._WARM.states) == 1
    for kw in (
        {"scheduler": "visa"},
        {"dvm_target": 0.1},
        {"dispatch": "opt2", "fetch_policy": "flush"},
        {"profiled": False},
    ):
        restored = run_sim("MIX-A", _SMALL, **kw)
        assert restored.metrics["pipeline.warmup.restored"] == 1, kw
        walked = run_sim("MIX-A", _SMALL, use_cache=False, **kw)
        assert walked.metrics["pipeline.warmup.restored"] == 0, kw
        assert restored == walked, kw
    assert len(runner._WARM.states) == 1


def test_iq_size_and_controllers_are_not_part_of_the_key():
    programs = get_mix("MIX-A").programs(seed=1)
    sim = _sim(insts=500)
    key = SMTPipeline(programs, sim=sim).warm_key()
    variants = (
        SMTPipeline(programs, machine=MachineConfig(iq_size=32), sim=sim),
        SMTPipeline(programs, sim=sim, scheduler="visa", fetch_policy="flush"),
        SMTPipeline(programs, sim=dataclasses.replace(sim, max_cycles=999, warmup_cycles=99)),
    )
    for pipe in variants:
        assert pipe.warm_key() == key


def _with_change(change: str):
    """(programs, machine, sim) of the base point, or with ``change``."""
    machine = MachineConfig(num_threads=4)
    sim = _sim(insts=500)
    program_seed = 1
    if change == "l2_size":
        machine = machine.replace(l2=dataclasses.replace(machine.l2, size=machine.l2.size // 2))
    elif change == "bp_warmup_instructions":
        sim = dataclasses.replace(sim, bp_warmup_instructions=501)
    elif change == "sim_seed":
        sim = dataclasses.replace(sim, seed=sim.seed + 1)
    elif change == "program_seed":
        program_seed = 2
    return get_mix("MIX-A").programs(seed=program_seed), machine, sim


@pytest.mark.parametrize(
    "change", ["l2_size", "bp_warmup_instructions", "sim_seed", "program_seed"]
)
def test_a_keyed_change_makes_a_new_entry(change):
    memo = WarmMemo(4)
    programs, machine, sim = _with_change("none")
    assert not _warmed(programs, sim, memo, machine).warm_restored
    assert _warmed(programs, sim, memo, machine).warm_restored
    programs, machine, sim = _with_change(change)
    changed = _warmed(programs, sim, memo, machine)
    assert not changed.warm_restored
    assert len(memo.states) == 2
    assert_same_state(warm_state(changed), warm_state(_warmed(programs, sim, None, machine)))


def test_lru_bound_evicts_the_least_recently_used():
    state = WarmState(contexts=(), tags=(), predictor=((), (), (), ()))
    memo = WarmMemo(2)
    memo.put(("a",), state)
    memo.put(("b",), state)
    assert memo.get(("a",)) is state  # now the most recently used
    memo.put(("c",), state)
    assert list(memo.states) == [("a",), ("c",)]
    assert memo.get(("b",)) is None
    assert runner._WARM.limit == runner._WARM_LIMIT


def test_use_cache_false_leaves_the_warm_memo_untouched(fresh_caches):
    assert run_sim("MIX-A", _SMALL, use_cache=False).metrics["pipeline.warmup.restored"] == 0
    assert not runner._WARM.states
    run_sim("MIX-A", _SMALL)
    before = list(runner._WARM.states.items())
    assert len(before) == 1
    res = run_sim("MIX-A", _SMALL, scheduler="visa", use_cache=False)
    assert res.metrics["pipeline.warmup.restored"] == 0
    assert list(runner._WARM.states.items()) == before
    clear_caches()
    assert not runner._WARM.states


# ----------------------------------------------------------------------
# Key-drift guard
# ----------------------------------------------------------------------
def _covered(path: str, field: str) -> bool:
    return path == field or path.startswith((field + ".", field + "["))


def test_warm_key_covers_every_read_of_the_walk():
    project = build_project([str(Path(__file__).resolve().parents[1] / "src")])
    reads = EffectAnalysis(project).summary(
        "repro.core.pipeline.SMTPipeline._functional_warmup"
    ).reads
    uncovered = sorted(p for p in reads if not any(_covered(p, f) for f in WARM_KEY_READS))
    assert uncovered == [], "review SMTPipeline.warm_key and WARM_KEY_READS"
    stale = sorted(f for f in WARM_KEY_READS if not any(_covered(p, f) for p in reads))
    assert stale == []
