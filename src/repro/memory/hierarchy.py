"""The full memory stack of Table 2.

``MemoryHierarchy`` composes the split L1s, the unified L2, the two
TLBs and a flat DRAM latency.  It is a timing model: an access returns
the total latency and whether it reached DRAM (an "L2 miss" in the
paper's terminology — the event that drives the FLUSH/STALL fetch
policies, Optimization 2 and the DVM trigger).

Per-thread address spaces are disambiguated by tagging bit 44+ with the
hardware thread id, mirroring distinct processes on an SMT core (the
caches are still physically shared, so capacity contention between
threads is modelled faithfully).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import TLB

_THREAD_SHIFT = 44


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one data or instruction access."""

    latency: int
    l1_miss: bool
    l2_miss: bool
    tlb_miss: bool


def _outcomes(l1: int, l2: int, dram: int, tlb_miss: int) -> tuple[AccessResult, ...]:
    """The six possible results of one access kind, indexed by
    ``3 * tlb_miss + level`` with level 0 = L1 hit, 1 = L2 hit, 2 = DRAM."""
    latency = (l1, l1 + l2, l1 + l2 + dram)
    return tuple(
        AccessResult(latency[level] + penalty, level > 0, level == 2, penalty > 0)
        for penalty in (0, tlb_miss)
        for level in range(3)
    )


class MemoryHierarchy:
    """Shared L1I/L1D + unified L2 + DRAM, with ITLB/DTLB."""

    def __init__(self, machine: MachineConfig):
        machine.validate()
        self.machine = machine
        self.l1i = SetAssocCache(machine.l1i, "L1I")
        self.l1d = SetAssocCache(machine.l1d, "L1D")
        self.l2 = SetAssocCache(machine.l2, "L2")
        self.itlb = TLB(machine.itlb, "ITLB")
        self.dtlb = TLB(machine.dtlb, "DTLB")
        # Accesses return shared, immutable outcomes: nothing is
        # allocated per access.
        self._iresults = _outcomes(
            machine.l1i.latency, machine.l2.latency, machine.memory_latency,
            machine.itlb.miss_latency,
        )
        self._dresults = _outcomes(
            machine.l1d.latency, machine.l2.latency, machine.memory_latency,
            machine.dtlb.miss_latency,
        )
        # Running counters the fetch policies / Optimization 2 consume.
        self.l2_miss_count = 0
        self.l2_data_miss_count = 0

    @staticmethod
    def thread_addr(addr: int, thread: int) -> int:
        """Tag an address with its hardware thread id.

        The id is placed both above the tag bits (distinct address
        spaces) and XORed into the low page bits, so identical virtual
        layouts in different threads do not collide on the same cache
        sets (the effect ASLR/physical allocation has on a real SMT)."""
        return (addr ^ (thread * 0x3740)) | (thread << _THREAD_SHIFT)

    def access_instr(self, addr: int, thread: int) -> AccessResult:
        """Instruction fetch access: ITLB + L1I + (L2 + DRAM)."""
        a = self.thread_addr(addr, thread)
        row = 3 if self.itlb.access(a) else 0
        if self.l1i.access(a):
            return self._iresults[row]
        if self.l2.access(a):
            return self._iresults[row + 1]
        self.l2_miss_count += 1
        return self._iresults[row + 2]

    def access_data(self, addr: int, thread: int, is_write: bool = False) -> AccessResult:
        """Data access: DTLB + L1D + (L2 + DRAM)."""
        a = self.thread_addr(addr, thread)
        row = 3 if self.dtlb.access(a) else 0
        if self.l1d.access(a, is_write):
            return self._dresults[row]
        if self.l2.access(a, is_write):
            return self._dresults[row + 1]
        self.l2_miss_count += 1
        self.l2_data_miss_count += 1
        return self._dresults[row + 2]

    def _tag_arrays(self) -> tuple[SetAssocCache, ...]:
        return (self.l1i, self.l1d, self.l2, self.itlb._array, self.dtlb._array)

    def tag_state(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Immutable copies of the L1I, L1D, L2, ITLB and DTLB tag arrays."""
        return tuple(array.tag_state() for array in self._tag_arrays())

    def load_tag_state(self, state: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        """Replace every tag array with a fresh copy of ``state``."""
        for array, tags in zip(self._tag_arrays(), state):
            array.load_tag_state(tags)

    def reset_stats(self) -> None:
        for array in self._tag_arrays():
            array.stats.reset()
        self.l2_miss_count = 0
        self.l2_data_miss_count = 0
