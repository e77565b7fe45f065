"""Bit-level AVF accounting for the IQ, ROB, register file and FUs.

Per Section 3 of the paper, ACE-ness is classified at instruction level
but the AVF computation is performed at bit level: every structure
entry has a declared bit layout, and an entry's resident instruction
contributes the ACE subset of those bits for every cycle of residency.

    AVF(structure) = Σ_cycles ACE-bits-resident / (total-bits × cycles)

Two accountings coexist, exactly as in the paper:

* the **oracle** AVF used for evaluation — attributed retroactively via
  the ACE analyzer's resolution callback (a committed un-ACE
  instruction still contributes its control/opcode bits; a squashed
  wrong-path instruction contributes nothing);
* the **online estimate** used by DVM (Section 5.1) — a running counter
  of *predicted*-ACE bits updated at IQ insert/remove, readable every
  cycle with no oracle knowledge.

Interval AVFs are bucketed by the *last cycle an instruction was
resident* in the structure (leave cycle minus one), giving the
per-interval runtime AVF trace that the PVE metric and Figures 8–10
are computed from.  Bucketing by the last resident cycle — not the
leave cycle itself — keeps the oracle path aligned with the online
per-cycle accumulation at interval edges: an instruction leaving
exactly at cycle ``k*L`` was last resident in cycle ``k*L - 1``, which
the online counter charged to interval ``k-1``.

When an :class:`~repro.telemetry.bus.EventBus` is attached (the
pipeline does this when telemetry is on), every finalized attribution
is also published as a ``reliability.attribution`` /
``reliability.rf`` event, guarded by cached ``wants()`` flags so the
zero-subscriber path pays one integer compare per resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol

from repro.config import MachineConfig
from repro.isa.instruction import DynInst, DynState, OpClass
from repro.telemetry.bus import EventBus
from repro.telemetry.topics import TOPIC_RELIABILITY_ATTRIBUTION, TOPIC_RELIABILITY_RF


class RegisterLifetime(Protocol):
    """What the RF accounting needs from an ACE-analyzer record."""

    commit_cycle: int
    last_read_cycle: int
    dyn: DynInst


def interval_bucket(last_resident_cycle: int, interval_cycles: int) -> int:
    """The interval index a residency ending at ``last_resident_cycle``
    is attributed to (shared by the accountant and its observers)."""
    return max(last_resident_cycle, 0) // interval_cycles


class Structure(enum.IntEnum):
    IQ = 0
    ROB = 1
    RF = 2
    FU = 3


@dataclass(frozen=True)
class AVFBitLayout:
    """Bit widths used by the accountant.

    ``*_ace`` is the ACE bit count of an entry holding a (true or
    predicted) ACE instruction; ``*_unace`` the residual ACE bits
    (opcode/control fields — the paper notes "un-ACE instructions also
    contain ACE-bits (e.g. opcode)"); ``*_nop`` the residual bits of a
    NOP/prefetch.
    """

    iq_entry_bits: int = 128
    iq_ace: int = 96
    iq_unace: int = 12
    iq_nop: int = 8

    # ROB entries are mostly control state: results are written to the
    # register file at writeback, so only PC/exception/status fields
    # stay architecturally critical until commit.  This is why the IQ —
    # whose entries carry full operand/tag payloads for their whole
    # residency — dominates the ROB in Figure 1 despite the ROB's
    # longer occupancy.
    rob_entry_bits: int = 64
    rob_ace: int = 20
    rob_unace: int = 6
    rob_nop: int = 4

    # The rename substrate maps architectural registers onto a physical
    # file; Table 2's class of machine carries ~512 physical registers
    # (2x32 architectural per context plus rename headroom), which is
    # the structure a particle strikes.  Our lifetime model (vulnerable
    # from producer commit to last read) is an upper bound: it cannot
    # see which reader consumptions were themselves un-ACE.
    rf_physical_regs: int = 512
    rf_reg_bits: int = 64
    # FU latches: only a small slice of an executing operation's bits is
    # simultaneously strike-critical as it moves through the unit's
    # pipeline stages, which is why Figure 1 shows the FU well below
    # the IQ.
    fu_entry_bits: int = 128
    fu_ace: int = 32
    fu_unace: int = 4

    def validate(self) -> None:
        if not (0 <= self.iq_nop <= self.iq_unace <= self.iq_ace <= self.iq_entry_bits):
            raise ValueError("IQ bit layout must satisfy nop <= unace <= ace <= entry")
        if not (0 <= self.rob_nop <= self.rob_unace <= self.rob_ace <= self.rob_entry_bits):
            raise ValueError("ROB bit layout must satisfy nop <= unace <= ace <= entry")
        if not (0 <= self.fu_unace <= self.fu_ace <= self.fu_entry_bits):
            raise ValueError("FU bit layout must satisfy unace <= ace <= entry")
        if self.rf_reg_bits <= 0:
            raise ValueError("rf_reg_bits must be positive")


_QUIET = frozenset({OpClass.NOP, OpClass.PREFETCH})


class AVFAccount:
    """Accumulates ACE-bit-cycles per structure, overall and per interval."""

    def __init__(
        self,
        machine: MachineConfig,
        interval_cycles: int,
        layout: AVFBitLayout | None = None,
    ):
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self.layout = layout or AVFBitLayout()
        self.layout.validate()
        self.machine = machine
        self.interval_cycles = interval_cycles
        lay = self.layout
        from repro.core.functional_units import FunctionalUnitPool

        n_fu = FunctionalUnitPool(machine).total_units
        self._capacity_bits = {
            Structure.IQ: machine.iq_size * lay.iq_entry_bits,
            Structure.ROB: machine.num_threads * machine.rob_size_per_thread * lay.rob_entry_bits,
            Structure.RF: max(lay.rf_physical_regs, machine.num_threads * 64) * lay.rf_reg_bits,
            Structure.FU: n_fu * lay.fu_entry_bits,
        }
        # bit-cycles, overall and per interval index.
        self._acc = {s: 0 for s in Structure}
        self._interval_acc: dict[Structure, dict[int, int]] = {s: {} for s in Structure}
        self.total_cycles = 0
        # Optional event bus (the pipeline attaches its bus when
        # telemetry is on).  wants() is cached against bus.version so
        # the common no-subscriber case costs one compare per resolve.
        self.bus: EventBus | None = None
        self._bus_version = -1
        self._want_attr = False
        self._want_rf = False

    def _refresh_wants(self) -> None:
        bus = self.bus
        if bus is None:
            self._want_attr = False
            self._want_rf = False
            return
        if bus.version != self._bus_version:
            self._bus_version = bus.version
            self._want_attr = bus.wants(TOPIC_RELIABILITY_ATTRIBUTION)
            self._want_rf = bus.wants(TOPIC_RELIABILITY_RF)

    # ------------------------------------------------------------------
    # Bit classification
    # ------------------------------------------------------------------
    def iq_bits_oracle(self, dyn: DynInst) -> int:
        if dyn.state == DynState.SQUASHED or dyn.ace is None:
            return 0
        if dyn.opclass in _QUIET:
            return self.layout.iq_nop
        return self.layout.iq_ace if dyn.ace else self.layout.iq_unace

    def iq_bits_pred(self, dyn: DynInst) -> int:
        """Predicted-ACE bits — what DVM's hardware counter sees."""
        if dyn.opclass in _QUIET:
            return self.layout.iq_nop
        return self.layout.iq_ace if dyn.ace_pred else self.layout.iq_unace

    def rob_bits_pred(self, dyn: DynInst) -> int:
        """Predicted-ACE ROB bits (the ROB-DVM extension's counter)."""
        if dyn.opclass in _QUIET:
            return self.layout.rob_nop
        return self.layout.rob_ace if dyn.ace_pred else self.layout.rob_unace

    def rob_bits_oracle(self, dyn: DynInst) -> int:
        if dyn.state == DynState.SQUASHED or dyn.ace is None:
            return 0
        if dyn.opclass in _QUIET:
            return self.layout.rob_nop
        return self.layout.rob_ace if dyn.ace else self.layout.rob_unace

    def fu_bits_oracle(self, dyn: DynInst) -> int:
        if dyn.state == DynState.SQUASHED or dyn.ace is None:
            return 0
        if dyn.opclass in _QUIET:
            return 0
        return self.layout.fu_ace if dyn.ace else self.layout.fu_unace

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _add(self, structure: Structure, bit_cycles: int, last_resident_cycle: int) -> None:
        if bit_cycles <= 0:
            return
        self._acc[structure] += bit_cycles
        bucket = interval_bucket(last_resident_cycle, self.interval_cycles)
        intervals = self._interval_acc[structure]
        intervals[bucket] = intervals.get(bucket, 0) + bit_cycles

    def on_resolved(self, dyn: DynInst) -> None:
        """ACE-analyzer resolution callback: attribute all residencies of
        a committed instruction.

        Each residency is bucketed by its *last resident cycle* (leave
        cycle minus one), matching the cycle the online counters charged
        — see the module docstring for the interval-edge rationale.
        """
        iq_bc = rob_bc = fu_bc = 0
        if dyn.iq_leave_cycle >= 0 and dyn.dispatch_cycle >= 0:
            res = dyn.iq_leave_cycle - dyn.dispatch_cycle
            iq_bc = self.iq_bits_oracle(dyn) * res
            self._add(Structure.IQ, iq_bc, dyn.iq_leave_cycle - 1)
        if dyn.commit_cycle >= 0 and dyn.dispatch_cycle >= 0:
            res = dyn.commit_cycle - dyn.dispatch_cycle
            rob_bc = self.rob_bits_oracle(dyn) * res
            self._add(Structure.ROB, rob_bc, dyn.commit_cycle - 1)
        if dyn.issue_cycle >= 0:
            # Memory operations occupy their load/store unit only for
            # address generation; the (pipelined) cache fill does not
            # hold operand latches in the FU.
            res = 1 if dyn.opclass.is_mem else max(dyn.exec_latency, 1)
            fu_bc = self.fu_bits_oracle(dyn) * res
            self._add(Structure.FU, fu_bc, dyn.issue_cycle + res - 1)
        self._refresh_wants()
        if self._want_attr:
            assert self.bus is not None
            self.bus.emit(
                TOPIC_RELIABILITY_ATTRIBUTION,
                thread=dyn.thread,
                ace=bool(dyn.ace),
                quiet=dyn.opclass in _QUIET,
                iq_slot=dyn.iq_slot,
                iq_bit_cycles=iq_bc,
                rob_bit_cycles=rob_bc,
                fu_bit_cycles=fu_bc,
                dispatch_cycle=dyn.dispatch_cycle,
                issue_cycle=dyn.issue_cycle,
                iq_leave_cycle=dyn.iq_leave_cycle,
                commit_cycle=dyn.commit_cycle,
            )

    def on_rf_lifetime(self, rec: RegisterLifetime, end_cycle: int) -> None:
        """Register-lifetime callback from the ACE analyzer.

        A register's bits are counted ACE from the producer's commit to
        its last read (the interval in which a strike would corrupt a
        consumed value).  Never-read values contribute nothing.
        """
        if rec.last_read_cycle > rec.commit_cycle:
            cycles = rec.last_read_cycle - rec.commit_cycle
            bit_cycles = self.layout.rf_reg_bits * cycles
            self._add(Structure.RF, bit_cycles, rec.last_read_cycle - 1)
            self._refresh_wants()
            if self._want_rf:
                assert self.bus is not None
                self.bus.emit(
                    TOPIC_RELIABILITY_RF,
                    thread=rec.dyn.thread,
                    commit_cycle=rec.commit_cycle,
                    last_read_cycle=rec.last_read_cycle,
                    bit_cycles=bit_cycles,
                )

    def close(self, total_cycles: int) -> None:
        self.total_cycles = total_cycles

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def bit_cycles(self, structure: Structure) -> int:
        """Oracle ACE bit-cycles attributed to ``structure`` so far."""
        return self._acc[structure]

    def interval_bit_cycles(self, structure: Structure) -> list[int]:
        """Oracle ACE bit-cycles per interval index, densely from
        interval 0 to the last one touched (empty before :meth:`close`)."""
        if not self.total_cycles:
            return []
        intervals = self._interval_acc[structure]
        n = self.total_cycles // self.interval_cycles
        if intervals:
            n = max(n, max(intervals) + 1)
        return [intervals.get(i, 0) for i in range(n)]

    def overall_avf(self, structure: Structure) -> float:
        if not self.total_cycles:
            return 0.0
        denom = self._capacity_bits[structure] * self.total_cycles
        return self._acc[structure] / denom

    def interval_avf(self, structure: Structure) -> list[float]:
        """AVF per interval index, over :meth:`interval_bit_cycles`."""
        denom = self._capacity_bits[structure] * self.interval_cycles
        return [bc / denom for bc in self.interval_bit_cycles(structure)]

    def capacity_bits(self, structure: Structure) -> int:
        return self._capacity_bits[structure]
