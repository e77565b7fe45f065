"""Offline PC-based ACE profiling (Section 2.1 / Table 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.generator import generate_program
from repro.isa.instruction import (
    DynInst,
    DynState,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)
from repro.isa.personalities import PERSONALITIES
from repro.isa.program import BasicBlock, SyntheticProgram, ThreadContext
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.profiling import (
    ProfileResult,
    apply_profile,
    profile_and_apply,
    profile_program,
)
from repro.workloads.mixes import MIXES


def reference_profile(program, n_instructions, window, seed=0):
    """The per-instruction oracle: one ``DynInst`` per committed
    instruction of the correct path, fed through the post-retirement
    :class:`ACEAnalyzer`, counted per PC as each instance resolves.
    Returns the result and the analyzer's late-ACE count."""
    result = ProfileResult(program_name=program.name, instructions=n_instructions)

    def on_resolve(dyn):
        pc = dyn.pc
        if dyn.ace:
            result.ace_instances[pc] = result.ace_instances.get(pc, 0) + 1
            result.pc_table[pc] = True
        else:
            result.unace_instances[pc] = result.unace_instances.get(pc, 0) + 1
            result.pc_table.setdefault(pc, False)

    analyzer = ACEAnalyzer(num_threads=1, window_size=window, resolve_cb=on_resolve)
    ctx = ThreadContext(program, seed=seed)
    for i in range(n_instructions):
        inst = ctx.peek()
        dyn = DynInst(tag=i, thread=0, static=inst, stream_pos=ctx.stream_pos)
        dyn.state = DynState.COMMITTED
        if inst.opclass.is_control:
            taken, target = ctx.resolve_control(inst)
            ctx.advance_control(inst, taken, target)
        else:
            ctx.advance()
        analyzer.commit(dyn, cycle=i)
    analyzer.flush(final_cycle=n_instructions)
    return result, analyzer.stats.late_ace


def assert_matches_reference(program, n_instructions, window, seed=0):
    """``profile_program`` equals the oracle field for field; returns
    the late-ACE count."""
    got = profile_program(program, n_instructions, window, seed)
    want, late_ace = reference_profile(program, n_instructions, window, seed)
    assert got.pc_table == want.pc_table
    assert got.ace_instances == want.ace_instances
    assert got.unace_instances == want.unace_instances
    assert got.accuracy == want.accuracy
    assert got.late_ace == late_ace
    return late_ace


@pytest.fixture(scope="module")
def gcc_profile():
    program = generate_program("gcc", seed=21)
    return program, profile_program(program, n_instructions=20_000, window=5_000)


class TestProfileRun:
    def test_covers_executed_pcs(self, gcc_profile):
        program, prof = gcc_profile
        assert len(prof.pc_table) > 100

    def test_accuracy_in_range(self, gcc_profile):
        _, prof = gcc_profile
        assert 0.8 < prof.accuracy <= 1.0

    def test_ace_fraction_plausible(self, gcc_profile):
        _, prof = gcc_profile
        assert 0.3 < prof.ace_fraction < 0.95

    def test_deterministic(self):
        p1 = generate_program("gap", seed=5)
        p2 = generate_program("gap", seed=5)
        r1 = profile_program(p1, n_instructions=5_000, window=1_000)
        r2 = profile_program(p2, n_instructions=5_000, window=1_000)
        assert r1.pc_table == r2.pc_table
        assert r1.accuracy == r2.accuracy

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            profile_program(generate_program("gap", seed=5), n_instructions=0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="window"):
            profile_program(generate_program("gap", seed=5), 1_000, window=window)


class TestFalsePositiveOnly:
    def test_no_false_negatives(self, gcc_profile):
        """A PC with any ACE instance must be tagged ACE (the paper's
        conservative guarantee: false positives only)."""
        _, prof = gcc_profile
        for pc, n_ace in prof.ace_instances.items():
            if n_ace > 0:
                assert prof.pc_table[pc] is True

    def test_unseen_pc_defaults_ace(self, gcc_profile):
        _, prof = gcc_profile
        assert prof.predict(0xDEAD0000) is True


class TestAccuracyMath:
    def test_accuracy_from_counts(self):
        r = ProfileResult(program_name="x", instructions=10)
        r.pc_table = {1: True, 2: False}
        r.ace_instances = {1: 6}
        r.unace_instances = {1: 2, 2: 2}
        # pc1 predicted ACE: 6 of 8 correct; pc2 predicted unACE: 2 of 2.
        assert r.accuracy == 8 / 10

    def test_empty_profile_zero(self):
        r = ProfileResult(program_name="x", instructions=0)
        assert r.accuracy == 0.0
        assert r.ace_fraction == 0.0
        assert r.static_ace_fraction == 0.0


class TestMatchesACEAnalyzer:
    """The two-pass walk reproduces the per-instruction analyzer exactly."""

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_table3_mix(self, mix):
        for program in MIXES[mix].programs(seed=1):
            assert_matches_reference(program, 6_000, 1_500)

    def test_late_ace_path_runs(self):
        """At a short window some instances resolve un-ACE before an ACE
        reader reaches them; the pass must count them, not drop them."""
        program = MIXES["MEM-A"].programs(seed=1)[1]  # equake
        assert assert_matches_reference(program, 6_000, 1_500) > 0

    def test_window_longer_than_run(self):
        program = generate_program("gcc", seed=4)
        assert assert_matches_reference(program, 500, 2_000) == 0


_MEM = MemBehavior(pattern=MemPattern.HOT, base=0x10000, footprint=4096)


def _loop_program(body):
    """One block of ``(opclass, dest, srcs)`` ops that jumps to itself."""
    insts = [
        StaticInst(
            pc=0x1000 + 4 * k, opclass=op, dest=dest, srcs=srcs,
            mem=_MEM if op.is_mem else None,
        )
        for k, (op, dest, srcs) in enumerate(body)
    ]
    insts.append(StaticInst(pc=0x1000 + 4 * len(body), opclass=OpClass.JUMP, taken_block=0))
    program = SyntheticProgram(name="loop", blocks=[BasicBlock(bid=0, insts=insts)])
    program.validate()
    return program


class TestHandBuilt:
    """Corner cases the generated programs reach rarely or never."""

    GAP = 5

    def _gap_program(self):
        # r1's writer is read by the store exactly GAP instructions later.
        body = [(OpClass.IALU, 1, (2,))]
        body += [(OpClass.NOP, -1, ())] * (self.GAP - 1)
        body += [(OpClass.STORE, -1, (1,))]
        return _loop_program(body)

    def test_marked_on_window_exit_is_ace(self):
        program = self._gap_program()
        assert assert_matches_reference(program, 200, self.GAP) == 0
        assert profile_program(program, 200, self.GAP).pc_table[0x1000] is True

    def test_marked_after_window_exit_is_late_ace(self):
        program = self._gap_program()
        assert assert_matches_reference(program, 200, self.GAP - 1) > 0
        prof = profile_program(program, 200, self.GAP - 1)
        assert prof.pc_table[0x1000] is False

    def test_never_ace_reader_links_nothing(self):
        # The store marks the prefetch (after it resolved un-ACE); the
        # prefetch's own read of r1 must not make r1's writer ACE.
        program = _loop_program(
            [
                (OpClass.IALU, 1, (2,)),
                (OpClass.PREFETCH, 3, (1,)),
                (OpClass.STORE, -1, (3,)),
            ]
        )
        assert assert_matches_reference(program, 300, 50) > 0
        prof = profile_program(program, 300, 50)
        assert 0x1000 not in prof.ace_instances
        assert prof.unace_instances[0x1004] == prof.late_ace


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(PERSONALITIES)),
    st.integers(0, 1_000),
    st.integers(1, 3_000),
    st.integers(1, 500),
    st.integers(0, 3),
)
def test_property_matches_reference(name, program_seed, n, window, walk_seed):
    program = generate_program(name, seed=program_seed)
    assert_matches_reference(program, n, window, walk_seed)


class TestApply:
    def test_apply_sets_hints(self, gcc_profile):
        program, prof = gcc_profile
        n_unace = apply_profile(program, prof)
        assert n_unace > 0
        tagged = [st for st in program.all_insts() if not st.ace_hint]
        assert len(tagged) == n_unace

    def test_profile_and_apply_roundtrip(self):
        program = generate_program("twolf", seed=9)
        prof = profile_and_apply(program, n_instructions=10_000, window=2_000)
        for st in program.all_insts():
            assert st.ace_hint == prof.predict(st.pc)


class TestPaperShape:
    def test_mesa_worse_than_perlbmk(self):
        """Table 1's headline contrast must reproduce."""
        mesa = profile_program(generate_program("mesa", seed=3), 20_000, 5_000)
        perl = profile_program(generate_program("perlbmk", seed=3), 20_000, 5_000)
        assert mesa.accuracy < perl.accuracy

    def test_average_accuracy_band(self):
        """Average over a sample of benchmarks lands near the paper's
        93.7% (we accept 88-100%)."""
        names = ("gcc", "swim", "mesa", "vpr", "perlbmk", "mcf")
        accs = [
            profile_program(generate_program(n, seed=3), 15_000, 4_000).accuracy
            for n in names
        ]
        avg = sum(accs) / len(accs)
        assert 0.88 <= avg <= 1.0


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["gcc", "mcf", "swim", "mesa"]), st.integers(0, 50))
def test_property_accuracy_bounded(name, seed):
    prof = profile_program(generate_program(name, seed=seed), 3_000, 1_000)
    assert 0.0 <= prof.accuracy <= 1.0
    assert 0.0 <= prof.ace_fraction <= 1.0
