"""Offline instruction vulnerability profiling (Section 2.1, Table 1).

The paper profiles each benchmark offline, classifies every *static*
instruction (PC) as ACE if **any** of its committed dynamic instances
is ACE, and encodes the result as a 1-bit ISA tag checked at decode.
The classification is deliberately conservative: it can never produce a
false negative (an ACE instance predicted un-ACE), only false positives
(un-ACE instances of a sometimes-ACE PC predicted ACE).

Profiling is *functional*: the committed stream is exactly the correct
control-flow path, so it can be produced by walking the program's
thread context directly — no pipeline timing involved (instructions on
mispredicted paths are excluded from classification, as in the paper).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.isa.instruction import OpClass
from repro.isa.program import SyntheticProgram, ThreadContext
from repro.reliability.ace import _NEVER_ACE, _ROOTS

_CONTROL_OPS = frozenset({OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET})

#: Decode kinds: never ACE, ACE root, or waits for an ACE reader.
_NEVER, _ROOT, _WAIT = 0, 1, 2


@dataclass
class ProfileResult:
    """Outcome of one offline profiling pass."""

    program_name: str
    instructions: int
    pc_table: dict[int, bool] = field(default_factory=dict)
    ace_instances: dict[int, int] = field(default_factory=dict)
    unace_instances: dict[int, int] = field(default_factory=dict)
    #: Instances resolved un-ACE before an ACE reader reached them; they
    #: stay un-ACE, as in the analyzer (a longer window would catch the
    #: waiting ones).
    late_ace: int = 0

    @property
    def accuracy(self) -> float:
        """Committed-instance accuracy of the PC-based classification —
        the quantity reported in Table 1."""
        correct = 0
        total = 0
        for pc, is_ace in self.pc_table.items():
            a = self.ace_instances.get(pc, 0)
            u = self.unace_instances.get(pc, 0)
            total += a + u
            correct += a if is_ace else u
        return correct / total if total else 0.0

    @property
    def ace_fraction(self) -> float:
        """Fraction of committed dynamic instances that are oracle-ACE."""
        a = sum(self.ace_instances.values())
        u = sum(self.unace_instances.values())
        return a / (a + u) if (a + u) else 0.0

    @property
    def static_ace_fraction(self) -> float:
        """Fraction of profiled PCs tagged ACE."""
        if not self.pc_table:
            return 0.0
        return sum(self.pc_table.values()) / len(self.pc_table)

    def predict(self, pc: int) -> bool:
        """Predicted ACE-ness of a PC (unseen PCs default to ACE — the
        conservative, false-positive-only choice)."""
        return self.pc_table.get(pc, True)


#: One decoded static instruction: ``(sid, kind, linked srcs, dest)``.
_Decoded = tuple[int, int, tuple[int, ...], int]


def _decode(program: SyntheticProgram) -> tuple[list[int], list[list[_Decoded]]]:
    """The program's static instructions as ``(sid, kind, linked srcs,
    dest)``, each block's list in *reverse* program order, plus the PC
    of every ``sid``.  NEVER instructions link no producers, so their
    linked sources are empty."""
    pcs: list[int] = []
    rev_blocks: list[list[_Decoded]] = []
    for block in program.blocks:
        decoded: list[_Decoded] = []
        for st in block.insts:
            op = st.opclass
            srcs = st.srcs
            if op in _NEVER_ACE:
                kind, srcs = _NEVER, ()
            elif op in _ROOTS or st.is_output:
                kind = _ROOT
            else:
                kind = _WAIT
            decoded.append((len(pcs), kind, srcs, st.dest))
            pcs.append(st.pc)
        decoded.reverse()
        rev_blocks.append(decoded)
    return pcs, rev_blocks


def _walk_blocks(
    program: SyntheticProgram, n_instructions: int, seed: int
) -> tuple[array[int], int]:
    """Forward pass: the blocks the correct path visits in its first
    ``n_instructions`` instructions, and how many instructions of the
    last visit fall inside the budget.  Every visit enters its block at
    the top; only terminators go through the context's control calls."""
    ctx = ThreadContext(program, seed=seed)
    blocks = program.blocks
    path: array[int] = array("l")
    left = n_instructions
    while True:
        block = blocks[ctx.block]
        size = len(block.insts)
        path.append(ctx.block)
        if size >= left:
            return path, left
        left -= size
        term = block.insts[-1]
        if term.opclass in _CONTROL_OPS:
            ctx.stream_pos += size - 1  # the terminator's stream position
            taken, target = ctx.resolve_control(term)
            ctx.advance_control(term, taken, target)
        else:
            ctx.stream_pos += size
            ctx.block = block.fall_block


def profile_program(
    program: SyntheticProgram,
    n_instructions: int = 100_000,
    window: int = 40_000,
    seed: int = 0,
) -> ProfileResult:
    """Run the offline vulnerability profiling pass.

    Classifies the first ``n_instructions`` committed instructions of
    the architecturally correct path exactly as the post-retirement
    :class:`~repro.reliability.ace.ACEAnalyzer` with a ``window``-deep
    window would, and aggregates per-PC instance counts.

    Two passes, no per-instruction objects: the forward pass records
    the visited blocks; the backward pass walks them in reverse and
    gives each instance its *mark time* — the commit index at which the
    analyzer would first mark it ACE.  A root's mark time is its own
    index; any other instance takes the earliest mark time of the
    readers that link it (per register, the readers between it and the
    next write).  A waiting instance leaves the window, and resolves, at
    index ``i + window``, after that commit's marking, so it is ACE iff
    ``mark_time <= i + window``; one marked later is counted in
    ``late_ace`` and stays un-ACE.
    """
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    pcs, rev_blocks = _decode(program)
    path, tail = _walk_blocks(program, n_instructions, seed)

    unmarked = n_instructions + window  # beyond every i + window
    n_regs = 1 + max(
        (max((dest, *srcs)) for blk in rev_blocks for _, _, srcs, dest in blk),
        default=-1,
    )
    # Earliest mark time among the pending readers of each register.
    need = [unmarked] * n_regs
    ace_n = [0] * len(pcs)
    unace_n = [0] * len(pcs)
    late = 0
    i = n_instructions
    last = len(path) - 1
    for k in range(last, -1, -1):
        decoded = rev_blocks[path[k]]
        if k == last:
            decoded = decoded[len(decoded) - tail :]
        for sid, kind, srcs, dest in decoded:
            i -= 1
            if dest >= 0:
                mark = need[dest]
                need[dest] = unmarked  # earlier writers are not read past here
            else:
                mark = unmarked
            if kind == _ROOT:
                mark = i
                ace_n[sid] += 1
            elif kind == _WAIT and mark <= i + window:
                ace_n[sid] += 1
            else:
                unace_n[sid] += 1
                if mark != unmarked:
                    late += 1
            for reg in srcs:
                if mark < need[reg]:
                    need[reg] = mark

    result = ProfileResult(
        program_name=program.name, instructions=n_instructions, late_ace=late
    )
    for sid, pc in enumerate(pcs):
        a = ace_n[sid]
        u = unace_n[sid]
        if a:
            result.ace_instances[pc] = a
        if u:
            result.unace_instances[pc] = u
        if a or u:
            result.pc_table[pc] = a > 0
    return result


def apply_profile(program: SyntheticProgram, profile: ProfileResult) -> int:
    """Write the profiled ACE bit into the program image's ``ace_hint``
    (the paper's 1-bit ISA extension).  Returns the number of static
    instructions tagged un-ACE."""
    n_unace = 0
    for st in program.all_insts():
        st.ace_hint = profile.predict(st.pc)
        if not st.ace_hint:
            n_unace += 1
    return n_unace


def profile_and_apply(
    program: SyntheticProgram,
    n_instructions: int = 100_000,
    window: int = 40_000,
    seed: int = 0,
) -> ProfileResult:
    """Convenience: profile then tag the program image."""
    result = profile_program(program, n_instructions, window, seed)
    apply_profile(program, result)
    return result
